import pytest

from lsfrp.instance import Demand, Instance, Ship, Visit, make_arc
from lsfrp.io import GeneratorParams, generate_random
from lsfrp.oracle import (
    OracleBudgetError,
    brute_force_solve,
    enumerate_disjoint_paths,
)
from lsfrp.solution import NO_DISJOINT_ROUTING, OPTIMAL

from fixtures import (
    OVERLOAD1_OPT,
    T1_OPT,
    empty_repos19,
    overload1,
    shared_corridor,
    t1,
)

Z0 = {"T0": 0}


def test_t1_assignments():
    asg = list(enumerate_disjoint_paths(t1()))
    assert len(asg) == 3
    assert asg[0] == (("v0", "v1", "v2", "tau"),)


def test_t1_optimum():
    sol = brute_force_solve(t1())
    assert sol.objective == pytest.approx(T1_OPT)
    assert sol.ship_paths["s1"] == ("v0", "v1", "v2", "tau")
    assert sol.demand_flows[0].amount == pytest.approx(50.0)


def test_shared_node_assignments_excluded():
    ins = Instance(
        [Ship("s1", "a", 10, 0, "T0"), Ship("s2", "b", 10, 0, "T0")],
        [Visit("a"), Visit("b"), Visit("c")],
        "tau",
        [
            make_arc("a", "c", Z0),
            make_arc("b", "c", Z0),
            make_arc("c", "tau", Z0),
            make_arc("a", "tau", Z0),
            make_arc("b", "tau", Z0),
        ],
    )
    asg = list(enumerate_disjoint_paths(ins))
    for a in asg:
        nodes = [n for p in a for n in p[:-1]]
        assert len(nodes) == len(set(nodes))
    # 3 options for s1 x 2 for s2 minus the one clashing combination
    assert len(asg) == 3


def test_single_ship_assignments_equal_path_count():
    from lsfrp.instance import path_count

    for seed in (3, 4, 5):
        ins = generate_random(GeneratorParams(ships=1, visits=9, demands=3, seed=seed))
        assignments = list(enumerate_disjoint_paths(ins))
        assert len(assignments) == path_count(ins, ins.ships[0].id)


def test_budget_refusal():
    ins = generate_random(GeneratorParams(ships=3, visits=14, demands=0, seed=1))
    with pytest.raises(OracleBudgetError):
        list(enumerate_disjoint_paths(ins, budget=10))
    with pytest.raises(OracleBudgetError):
        brute_force_solve(ins, budget=10)


def test_zero_demand_optimum_is_path_cost():
    ins = generate_random(GeneratorParams(ships=2, visits=8, demands=0, seed=17))
    sol = brute_force_solve(ins)
    assert sol.status == OPTIMAL
    assert sol.objective <= 0 + 1e-9  # free direct sink arcs


def test_overload_fixture_respects_capacity():
    sol = brute_force_solve(overload1())
    assert sol.objective == pytest.approx(OVERLOAD1_OPT)
    carried = sum(f.amount for f in sol.demand_flows)
    assert carried == pytest.approx(50.0)


def test_no_disjoint_routing_status():
    sol = brute_force_solve(shared_corridor())
    assert sol.status == NO_DISJOINT_ROUTING


def test_empty_equipment_flows():
    ins = empty_repos19().with_empty_revenue({"dc": 30000, "rf": 30000})
    sol = brute_force_solve(ins)
    assert sol.objective == pytest.approx(20000.0)
    assert sol.empty_flows[0].amount == pytest.approx(20.0)


def test_multi_destination_delivery_choice():
    # cargo may ride through the expensive first destination to the cheap one
    ins = Instance(
        [Ship("s1", "s0", 100, 0, "T0")],
        [Visit("s0"), Visit("o"), Visit("d1", move_cost=100), Visit("d2", move_cost=0)],
        "tau",
        [
            make_arc("s0", "o", Z0),
            make_arc("o", "d1", Z0),
            make_arc("d1", "d2", Z0),
            make_arc("d2", "tau", Z0),
        ],
        [Demand("m", "o", frozenset({"d1", "d2"}), "dc", 10, 50)],
    )
    sol = brute_force_solve(ins)
    assert sol.objective == pytest.approx(500.0)
    assert sol.demand_flows[0].destination == "d2"

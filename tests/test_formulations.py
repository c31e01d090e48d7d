import pytest

from lsfrp import lp
from lsfrp.formulations import (
    UnsupportedInstanceError,
    build_reduced,
    build_revised,
    evaluate_objective,
    solve_arcflow,
)
from lsfrp.instance import EmptyPoint, Instance, InvalidInstanceError
from lsfrp.io import GeneratorParams, generate_random
from lsfrp.solution import NO_DISJOINT_ROUTING, OPTIMAL, DemandFlow, EmptyFlow, Solution

from fixtures import (
    GAP2_IP,
    GAP2_LP_REDUCED,
    T1_OPT,
    chain4,
    empty_repos19,
    gap_2ship,
    relaxation_value,
    shared_corridor,
    t1,
)


def test_reduced_t1():
    sol = solve_arcflow(t1(), "reduced")
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(T1_OPT)
    assert sol.ship_paths["s1"] == ("v0", "v1", "v2", "tau")


def test_reduced_tight_and_revised_t1():
    for method in ("reduced-tight", "revised"):
        sol = solve_arcflow(t1(), method)
        assert sol.objective == pytest.approx(T1_OPT), method


def test_zero_demand_instance_pure_routing():
    ins = generate_random(GeneratorParams(ships=2, visits=8, demands=0, seed=9))
    sol = solve_arcflow(ins, "reduced")
    assert sol.status == OPTIMAL
    assert not sol.demand_flows
    # direct-to-sink arcs are free, so pure repositioning never pays
    assert sol.objective <= 0 + 1e-9


def test_shared_corridor_infeasible():
    sol = solve_arcflow(shared_corridor(), "reduced")
    assert sol.status == NO_DISJOINT_ROUTING
    assert sol.objective is None and sol.bound is None


def test_empty_points_rejected_by_arcflow():
    with pytest.raises(UnsupportedInstanceError):
        build_reduced(empty_repos19())
    with pytest.raises(UnsupportedInstanceError):
        build_revised(empty_repos19())
    # an invalid instance is reported as invalid before its empty points
    ins = empty_repos19()
    bad = Instance(
        ins.ships, ins.visits, ins.sink, ins.arcs, ins.demands,
        ins.empty_points + (EmptyPoint("nowhere", "dc", 5),), ins.empty_revenue,
    )
    for build in (build_reduced, build_revised):
        with pytest.raises(InvalidInstanceError):
            build(bad)


def test_evaluate_objective_t1_optimum():
    ins = t1()
    sol = solve_arcflow(ins, "revised")
    assert evaluate_objective(ins, sol) == pytest.approx(sol.objective)


def test_evaluate_objective_partial_flow():
    ins = t1()
    sol = Solution(
        method="manual",
        status=OPTIMAL,
        ship_paths={"s1": ("v0", "v1", "v2", "tau")},
        demand_flows=[DemandFlow("m1", "s1", "v2", 10.0)],
    )
    # 10 * (20 - 3 - 3) - sails (10 + 10) - fees (2 + 2) = 116
    assert evaluate_objective(ins, sol) == pytest.approx(116.0)


def test_evaluate_objective_empty_solution():
    assert evaluate_objective(t1(), Solution("x", OPTIMAL)) == 0.0


def test_evaluate_objective_rejects_unsupported_flow():
    ins = t1()
    sol = Solution(
        method="manual",
        status=OPTIMAL,
        ship_paths={"s1": ("v0", "v2", "tau")},
        demand_flows=[DemandFlow("m1", "s1", "v2", 10.0)],  # origin v1 not visited
    )
    with pytest.raises(ValueError):
        evaluate_objective(ins, sol)


def test_evaluate_objective_rejects_bad_path():
    ins = t1()
    # v9 is no node; v1 and tau are, but v1->tau is no arc
    for path, hop in ((("v0", "v9", "tau"), "v0->v9"), (("v0", "v1", "tau"), "v1->tau")):
        sol = Solution(method="m", status=OPTIMAL, ship_paths={"s1": path})
        with pytest.raises(ValueError, match=f"arc {hop} not in graph"):
            evaluate_objective(ins, sol)
        with pytest.raises(KeyError):
            ins.path_cost(ins.ships[0], path)


@pytest.mark.parametrize(
    "solution, unknown",
    [
        (Solution("m", OPTIMAL, ship_paths={"s9": ("v0", "tau")}), "ship s9"),
        (Solution("m", OPTIMAL, ship_paths={"s1": ("v0", "v1", "v2", "tau")},
                  demand_flows=[DemandFlow("m9", "s1", "v2", 1.0)]), "demand m9"),
        (Solution("m", OPTIMAL, ship_paths={"s1": ("v0", "v1", "v2", "tau")},
                  empty_flows=[EmptyFlow("xx", "s1", "v1", "v2", 1.0)]), "cargo type xx"),
    ],
    ids=["ship", "demand", "cargo_type"],
)
def test_evaluate_objective_names_unknown_ids(solution, unknown):
    with pytest.raises(ValueError, match=f"unknown {unknown}"):
        evaluate_objective(t1(), solution)


T1_PATH = ("v0", "v1", "v2", "tau")
CHAIN4_PATH = ("v0", "v1", "v2", "v3", "tau")
EMPTY_PATH = ("s0", "u", "w", "tau")


def _empty_rich():
    return empty_repos19().with_empty_revenue({"dc": 30000, "rf": 30000})


@pytest.mark.parametrize(
    "instance, paths, flows, empties, fault",
    [
        (t1, {"s1": T1_PATH}, [DemandFlow("m1", "s1", "v2", 500.0)], [],
         r"total load 500\.000 > 100 on v1->v2"),
        (chain4, {"s1": CHAIN4_PATH}, [DemandFlow("m1", "s1", "v2", 5.0)], [],
         "delivered to v2, not a destination"),
        (chain4, {"s1": CHAIN4_PATH}, [DemandFlow("m1", "s1", "tau", 5.0)], [],
         "delivered to tau, not a destination"),
        (t1, {"s1": ("v1", "v2", "tau")}, [DemandFlow("m1", "s1", "v2", 50.0)], [],
         "path v1-v2-tau does not run from its start to the sink"),
        (t1, {"s1": ("v0", "v1", "v2")}, [DemandFlow("m1", "s1", "v2", 50.0)], [],
         "path v0-v1-v2 does not run from its start to the sink"),
        (gap_2ship, {"s1": ("g1", "w", "d", "tau"), "s2": ("g2", "w", "d", "tau")},
         [DemandFlow("m", "s1", "d", 10.0), DemandFlow("m", "s2", "d", 10.0)], [],
         "visit w lies on the paths of ships s1 and s2"),
        (t1, {"s1": T1_PATH}, [DemandFlow("m1", "s1", "v2", 90.0)], [],
         "flows move 90 TEU of demand m1, more than its 50"),
        (_empty_rich, {"s1": EMPTY_PATH}, [], [EmptyFlow("dc", "s1", "u", "w", 50.0)],
         "flows move 50 TEU of dc empty point u, more than its 20"),
        (_empty_rich, {"s1": EMPTY_PATH}, [], [EmptyFlow("dc", "s1", "s0", "w", 20.0)],
         "empty flow s0->w does not run from a dc surplus to a deficit"),
        (_empty_rich, {"s1": EMPTY_PATH}, [], [EmptyFlow("rf", "s1", "u", "w", 20.0)],
         "empty flow u->w does not run from a rf surplus to a deficit"),
        (t1, {"s1": ("v0", "v2", "tau")}, [DemandFlow("m1", "s1", "v2", 50.0)], [],
         "flow for demand m1 does not ride ship s1 from v1 to v2"),
        (t1, {"s1": T1_PATH}, [DemandFlow("m1", "s1", "v1", 50.0)], [],
         "flow for demand m1 is delivered to v1, not a destination"),
    ],
    ids=[
        "over-capacity", "off-destination", "to-the-sink", "skips-its-start", "stops-short",
        "visit-on-two-paths", "over-demand-amount", "over-surplus", "from-no-surplus",
        "of-another-type", "origin-off-path", "delivered-at-origin",
    ],
)
def test_evaluate_objective_names_each_fault_of_a_plan(instance, paths, flows, empties, fault):
    """A ValueError names each plan's fault; the over-capacity plan also
    moves more than its demand's amount, and loads are checked first."""
    sol = Solution("m", OPTIMAL, ship_paths=paths, demand_flows=flows, empty_flows=empties)
    with pytest.raises(ValueError, match=fault):
        evaluate_objective(instance(), sol)


def test_lp_gap_fixture():
    ins = gap_2ship()
    lpr = relaxation_value(ins, "reduced")
    lpt = relaxation_value(ins, "reduced-tight")
    lpv = relaxation_value(ins, "revised")
    assert lpr == pytest.approx(GAP2_LP_REDUCED, abs=1e-6)
    assert lpt == pytest.approx(GAP2_IP, abs=1e-6)
    assert lpv == pytest.approx(GAP2_IP, abs=1e-6)
    assert lpr > lpv + 50  # strict disaggregation gap
    mip = solve_arcflow(ins, "reduced")
    assert mip.objective == pytest.approx(GAP2_IP)


def test_bound_dominance_random():
    for seed in range(12):
        ins = generate_random(
            GeneratorParams(ships=1 + seed % 3, visits=7 + seed % 5, demands=2 + seed % 6,
                            seed=400 + seed)
        )
        lpr = relaxation_value(ins, "reduced")
        lpt = relaxation_value(ins, "reduced-tight")
        lpv = relaxation_value(ins, "revised")
        scale = 1e-6 * (1 + abs(lpr))
        assert lpv <= lpt + scale
        assert lpt <= lpr + scale


def test_tightening_preserves_integer_optimum():
    for seed in (21, 22, 23):
        ins = generate_random(GeneratorParams(ships=2, visits=9, demands=5, seed=seed))
        a = solve_arcflow(ins, "reduced").objective
        b = solve_arcflow(ins, "reduced-tight").objective
        c = solve_arcflow(ins, "revised").objective
        assert a == pytest.approx(b, rel=1e-6)
        assert a == pytest.approx(c, rel=1e-6)


def test_each_visit_entered_at_most_once():
    for seed in (31, 32):
        ins = generate_random(GeneratorParams(ships=3, visits=11, demands=6, seed=seed))
        sol = solve_arcflow(ins, "revised")
        seen = {}
        for sid, path in sol.ship_paths.items():
            for node in path[:-1]:
                assert node not in seen, f"visit {node} used by {seen.get(node)} and {sid}"
                seen[node] = sid


def test_solver_objective_matches_reevaluation():
    for seed in (41, 42, 43):
        ins = generate_random(GeneratorParams(ships=2, visits=10, demands=7, seed=seed))
        for method in ("reduced", "reduced-tight", "revised"):
            sol = solve_arcflow(ins, method)
            assert evaluate_objective(ins, sol) == pytest.approx(sol.objective, abs=1e-6)

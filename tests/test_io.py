import json
from dataclasses import fields

import pytest

from lsfrp.instance import validate
from lsfrp.io import (
    GeneratorParams,
    ParseError,
    generate_random,
    parse_instance,
    parse_solution,
    write_instance,
    write_solution,
)
from lsfrp.oracle import brute_force_solve
from lsfrp.solution import OPTIMAL, DemandFlow, Diagnostics, Solution

from fixtures import t1, T1_OPT


def test_instance_round_trip():
    data = write_instance(t1())
    again = write_instance(parse_instance(data))
    assert again == data


def test_parse_rejects_unknown_visit():
    doc = json.loads(write_instance(t1()).decode())
    doc["arcs"].append({"from": "v0", "to": "v9", "sail_cost": {"T0": 1}})
    with pytest.raises(ParseError) as exc:
        parse_instance(json.dumps(doc))
    assert "v9" in str(exc.value)


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError):
        parse_instance(b"{not json")


@pytest.mark.parametrize("parse", [parse_instance, parse_solution], ids=["instance", "solution"])
@pytest.mark.parametrize(
    "data", [b"\xff\xfe{\x00}\x00", b'{"schema": "\xe9"}'], ids=["utf16-bom", "latin1"]
)
def test_parse_rejects_bytes_that_are_not_utf8(parse, data):
    with pytest.raises(ParseError, match="not UTF-8"):
        parse(data)


def test_parse_rejects_wrong_schema():
    with pytest.raises(ParseError):
        parse_instance(json.dumps({"schema": "other-v9"}))


@pytest.mark.parametrize(
    "key, index, name, value, where",
    [
        ("visits", None, None, [1], "visits[0]"),
        ("visits", None, None, 7, "visits"),
        ("ships", 0, "capacity_dc", None, "ships[0].capacity_dc"),
        ("arcs", 0, "sail_cost", {"T0": "x"}, "arcs[0].sail_cost.T0"),
        ("demands", 0, "amount", "many", "demands[0].amount"),
        ("visits", 1, "time_index", "late", "visits[1].time_index"),
        ("empty_revenue", None, None, [1, 2], "empty_revenue"),
        ("visits", 1, "port_fee", "12", "visits[1].port_fee: '12' is not an integer"),
        ("visits", 1, "port_fee", 12.5, "visits[1].port_fee: 12.5 is not an integer"),
        ("ships", 0, "capacity_dc", True, "ships[0].capacity_dc: True is not a number"),
        ("visits", 1, "time_index", 3.7, "visits[1].time_index: 3.7 is not an integer"),
        ("arcs", 0, "sail_cost", {"T0": 2.5}, "arcs[0].sail_cost.T0: 2.5 is not an integer"),
        ("demands", 0, "revenue_per_teu", 20.0, "demands[0].revenue_per_teu: 20.0 is not an integer"),
        ("empty_revenue", None, None, {"dc": 1.5}, "empty_revenue.dc: 1.5 is not an integer"),
        ("demands", 0, "amount", float("nan"), "demands[0].amount: nan is not finite"),
        ("ships", 0, "capacity_rf", float("inf"), "ships[0].capacity_rf: inf is not finite"),
        ("visits", 0, "id", None, "visits[0].id: None is not a string"),
        ("ships", 0, "id", 1, "ships[0].id: 1 is not a string"),
        ("ships", 0, "start_visit", None, "ships[0].start_visit: None is not a string"),
        ("ships", 0, "ship_type", 0, "ships[0].ship_type: 0 is not a string"),
        ("sink", None, None, None, "instance.sink: None is not a string"),
        ("arcs", 0, "from", None, "arcs[0].from: None is not a string"),
        ("arcs", 0, "to", 2, "arcs[0].to: 2 is not a string"),
        ("demands", 0, "id", 1, "demands[0].id: 1 is not a string"),
        ("demands", 0, "origin", None, "demands[0].origin: None is not a string"),
        ("demands", 0, "destinations", ["v2", None], "demands[0].destinations[1]: None is not a string"),
        ("demands", 0, "cargo_type", None, "demands[0].cargo_type: None is not a string"),
        ("empty_points", None, None, [{"visit": None, "cargo_type": "dc", "amount": 5}],
         "empty_points[0].visit: None is not a string"),
        ("empty_points", None, None, [{"visit": "v1", "cargo_type": 0, "amount": 5}],
         "empty_points[0].cargo_type: 0 is not a string"),
    ],
    ids=["visit-entry", "visit-list", "capacity", "sail-cost", "amount", "time-index", "empty-revenue",
         "string-money", "fractional-money", "bool-capacity", "fractional-time-index",
         "fractional-sail-cost", "float-revenue", "fractional-empty-revenue", "nan-amount",
         "infinite-capacity", "null-visit-id", "int-ship-id", "null-start-visit", "int-ship-type",
         "null-sink", "null-arc-from", "int-arc-to", "int-demand-id", "null-origin",
         "null-destination", "null-cargo-type", "null-empty-visit", "int-empty-cargo-type"],
)
def test_parse_names_the_malformed_instance_entry(key, index, name, value, where):
    doc = json.loads(write_instance(t1()).decode())
    if index is None:
        doc[key] = value
    else:
        doc[key][index][name] = value
    with pytest.raises(ParseError) as exc:
        parse_instance(json.dumps(doc))
    assert str(exc.value).startswith(where)


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda doc: [doc], "top level"),
        (lambda doc: {**doc, "demand_flows": [{"demand": "m1", "ship": "s1", "amount": 1}]},
         "demand_flows[0]: missing field 'destination'"),
        (lambda doc: {**doc, "demand_flows": ["m1"]}, "demand_flows[0]"),
        (lambda doc: {**doc, "empty_flows": [{"cargo_type": "dc", "ship": "s1", "from": "a", "to": "b",
                                              "amount": "x"}]}, "empty_flows[0].amount"),
        (lambda doc: {**doc, "ship_paths": {"s1": 3}}, "ship_paths"),
        (lambda doc: {**doc, "diagnostics": []}, "diagnostics"),
        (lambda doc: {**doc, "objective": "high"}, "objective: 'high' is not a number"),
        (lambda doc: {**doc, "bound": [1]}, "bound: [1] is not a number"),
        (lambda doc: {**doc, "diagnostics": {"model_rows": "x"}},
         "diagnostics.model_rows: 'x' is not an integer"),
        (lambda doc: {**doc, "diagnostics": {"cuts_dc": [1]}}, "diagnostics.cuts_dc must be an object"),
        (lambda doc: {**doc, "ship_paths": {"s1": ["v0", 1, "tau"]}},
         "ship_paths.s1[1]: 1 is not a string"),
        (lambda doc: {**doc, "demand_flows": [{"demand": "m1", "ship": None, "destination": "v2",
                                               "amount": 1}]},
         "demand_flows[0].ship: None is not a string"),
        (lambda doc: {**doc, "empty_flows": [{"cargo_type": "dc", "ship": "s1", "from": 1, "to": "b",
                                              "amount": 1}]}, "empty_flows[0].from: 1 is not a string"),
    ],
    ids=["top-level", "flow-field", "flow-entry", "empty-flow-amount", "ship-path", "diagnostics",
         "objective", "bound", "diagnostics-field", "cut-counts", "ship-path-entry", "flow-ship",
         "empty-flow-from"],
)
def test_parse_solution_names_the_malformed_entry(edit, where):
    doc = json.loads(write_solution(brute_force_solve(t1())).decode())
    with pytest.raises(ParseError) as exc:
        parse_solution(json.dumps(edit(doc)))
    assert str(exc.value).startswith(where)


def test_parse_rejects_money_beyond_float_range():
    doc = json.loads(write_instance(t1()).decode())
    doc["visits"][1]["move_cost"] = 10**400
    with pytest.raises(ParseError) as exc:
        parse_instance(json.dumps(doc))
    assert str(exc.value).startswith("visits[1].move_cost: 1000")


def test_empty_demand_list_is_valid():
    doc = json.loads(write_instance(t1()).decode())
    doc["demands"] = []
    ins = parse_instance(json.dumps(doc))
    assert validate(ins).ok
    assert not ins.demands


def test_money_must_be_integral_cents():
    ins = t1()
    bad = ins.with_empty_revenue({"dc": 10.5, "rf": 0})
    with pytest.raises(ValueError):
        write_instance(bad)


def test_generator_deterministic():
    p1 = GeneratorParams(ships=3, visits=14, demands=12, seed=1)
    p2 = GeneratorParams(ships=3, visits=14, demands=12, seed=1)
    assert write_instance(generate_random(p1)) == write_instance(generate_random(p2))
    p3 = GeneratorParams(ships=3, visits=14, demands=12, seed=2)
    assert write_instance(generate_random(p3)) != write_instance(generate_random(p1))


def test_generator_output_always_valid():
    for seed in range(25):
        p = GeneratorParams(
            ships=(seed % 4),
            visits=max(2, 5 + seed % 9),
            demands=seed % 10,
            empty_points=seed % 3,
            ship_types=1 + seed % 2,
            seed=seed,
        )
        if p.ships == 0:
            p.demands = 0
            p.empty_points = 0
        ins = generate_random(p)
        report = validate(ins)
        assert report.ok, f"seed {seed}: {report}"


def test_generator_zero_demands_pure_repositioning():
    ins = generate_random(GeneratorParams(ships=2, visits=8, demands=0, seed=3))
    sol = brute_force_solve(ins)
    assert sol.status == OPTIMAL
    assert not sol.demand_flows


def test_generator_infeasible_params():
    with pytest.raises(ValueError):
        GeneratorParams(ships=0, visits=0, demands=3, seed=0).check()
    with pytest.raises(ValueError):
        GeneratorParams(arc_density=0.0).check()
    with pytest.raises(ValueError):
        GeneratorParams(amount_range=(10, 5)).check()


def test_generator_desk_scale_oracle_budget():
    import time

    t0 = time.monotonic()
    ins = generate_random(GeneratorParams(ships=3, visits=14, demands=12, seed=11))
    sol = brute_force_solve(ins)
    assert sol.status == OPTIMAL
    assert time.monotonic() - t0 < 10.0


def test_solution_round_trip_and_objective_field():
    sol = brute_force_solve(t1())
    sol.diagnostics = Diagnostics(
        columns_generated=3, rmp_iterations=4, bnb_nodes=5, pricing_bnb_nodes=6,
        cuts_dc={"s2": 1, "s1": 2}, cuts_rf={"s1": 1}, splits=7,
        model_rows=8, model_cols=9, model_nonzeros=10, wall_time_sec=0.25,
    )
    # every diagnostics field carries a value other than its default
    default = Diagnostics()
    assert all(getattr(sol.diagnostics, f.name) != getattr(default, f.name) for f in fields(Diagnostics))
    data = write_solution(sol)
    doc = json.loads(data.decode())
    assert doc["objective"] == T1_OPT
    again = parse_solution(data)
    assert again.diagnostics == sol.diagnostics
    assert write_solution(again) == data


def test_empty_solution_serializes():
    sol = Solution(method="oracle", status=OPTIMAL, objective=0.0, bound=0.0)
    doc = json.loads(write_solution(sol).decode())
    assert doc["objective"] == 0.0
    assert doc["ship_paths"] == {}


def test_solution_flow_fields():
    sol = Solution(
        method="x",
        status=OPTIMAL,
        objective=1.0,
        ship_paths={"s1": ("v0", "tau")},
        demand_flows=[DemandFlow("m1", "s1", "v2", 10.0)],
    )
    again = parse_solution(write_solution(sol))
    assert again.demand_flows[0].destination == "v2"
    assert again.ship_paths["s1"] == ("v0", "tau")

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from lsfrp import lp
from lsfrp.cli import METHODS, run_method
from lsfrp.formulations import evaluate_objective
from lsfrp.instance import CARGO_TYPES, validate
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
from lsfrp.solution import (
    BREAKDOWN,
    NO_DISJOINT_ROUTING,
    OPTIMAL,
    REFUSED,
    TIME_LIMIT,
    DemandFlow,
    Diagnostics,
    Solution,
)

from fixtures import shared_corridor, t1, T1_OPT


def test_instance_round_trip():
    data = write_instance(t1())
    again = write_instance(parse_instance(data))
    assert again == data


def test_formats_doc_solution_is_sound_on_its_instance():
    """The two examples of docs/formats.md parse, and the solution passes
    the one check of a plan on the instance with the objective it states."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
    instance_doc, solution_doc = re.findall(r"```json\n(.*?)```", doc, re.S)
    ins = parse_instance(instance_doc.encode())
    sol = parse_solution(solution_doc.encode())
    assert evaluate_objective(ins, sol) == pytest.approx(sol.objective, abs=1e-9)


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


@pytest.mark.parametrize("parse", [parse_instance, parse_solution], ids=["instance", "solution"])
@pytest.mark.parametrize("data", ["[" * 200_000, '{"a": ' * 200_000], ids=["arrays", "objects"])
def test_parse_rejects_json_nested_too_deeply(parse, data):
    with pytest.raises(ParseError, match="nested too deeply"):
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
        (lambda doc: {**doc, "method": 5}, "method: 5 is not a string"),
        (lambda doc: {**doc, "status": [1]}, "status: [1] is not a string"),
        (lambda doc: {**doc, "objective": 1e999}, "objective: inf is not finite"),
        (lambda doc: {**doc, "diagnostics": {"wall_time_sec": 1e999}},
         "diagnostics.wall_time_sec: inf is not finite"),
    ],
    ids=["top-level", "flow-field", "flow-entry", "empty-flow-amount", "ship-path", "diagnostics",
         "objective", "bound", "diagnostics-field", "cut-counts", "ship-path-entry", "flow-ship",
         "empty-flow-from", "method", "status", "objective-infinite", "diagnostics-infinite"],
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


SHARED_IDS = GeneratorParams(ships=3, ship_types=2, visits=14, demands=10, empty_points=4, seed=6)


@pytest.mark.parametrize(
    "make",
    [lambda p: parse_instance(write_instance(generate_random(p))), generate_random],
    ids=["parsed", "generated"],
)
def test_every_visit_reference_is_the_visits_id_object(make):
    ins = make(SHARED_IDS)
    assert ins.empty_points and ins.demands

    def node(name):
        return ins.sink if name == ins.sink else ins.visit_by_id[name].id

    refs = [s.start_visit for s in ins.ships] + [p.visit for p in ins.empty_points]
    refs += [end for a in ins.arcs for end in (a.src, a.dst)]
    refs += [v for m in ins.demands for v in (m.origin, *m.destinations)]
    assert [v for v in refs if v is not node(v)] == []
    # sail-cost keys are the ships' type objects, cargo types the package's
    types = {s.ship_type: s.ship_type for s in ins.ships}
    assert [t for a in ins.arcs for t, _ in a.sail_cost if t is not types[t]] == []
    cargo = {q: q for q in CARGO_TYPES}
    kinds = [*ins.empty_revenue, *(m.cargo_type for m in ins.demands), *(p.cargo_type for p in ins.empty_points)]
    assert [q for q in kinds if q is not cargo[q]] == []


def test_ships_of_one_type_share_the_type_object_across_parsed_instances():
    first, second = (
        parse_instance(write_instance(generate_random(GeneratorParams(ships=2, seed=seed)))) for seed in (1, 2)
    )
    assert first.ships[0].ship_type == second.ships[0].ship_type
    assert first.ships[0].ship_type is second.ships[0].ship_type


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


def _root_expires(monkeypatch):
    """Branch-and-price runs out of time in its root's pricing loop."""
    from lsfrp import colgen

    def expired(*args):
        raise lp.DeadlineExpired()

    monkeypatch.setattr(colgen, "_cg_loop", expired)


def _kernel_breaks_down(monkeypatch):
    monkeypatch.setattr(lp, "solve_lp", lambda *args, **kwargs: lp.LpSolution(BREAKDOWN))


# (id, instance, method, run_method keywords, patch, status): every method
# on a solvable and an unroutable instance, and every way a run ends short
ROUND_TRIPS = [
    *[(f"t1-{m}", t1, m, {}, None, OPTIMAL) for m in METHODS],
    *[(f"corridor-{m}", shared_corridor, m, {}, None, NO_DISJOINT_ROUTING) for m in METHODS],
    # a zero limit expires while the model is built, before the root node
    *[(f"root-limit-{m}", t1, m, {"time_limit": 0.0}, None, TIME_LIMIT)
      for m in ("reduced", "reduced-tight", "revised")],
    *[(f"root-limit-{m}", t1, m, {}, _root_expires, TIME_LIMIT) for m in ("colgen", "colgen-lazy")],
    ("greedy-start-limit-colgen", t1, "colgen", {"time_limit": 0.0}, None, TIME_LIMIT),
    ("refused-oracle", t1, "oracle", {"oracle_budget": 1}, None, REFUSED),
    ("breakdown-revised", t1, "revised", {}, _kernel_breaks_down, BREAKDOWN),
]


@pytest.mark.parametrize(
    "make, method, kwargs, patch, status", [case[1:] for case in ROUND_TRIPS],
    ids=[case[0] for case in ROUND_TRIPS],
)
def test_solution_file_says_what_the_solve_said(monkeypatch, make, method, kwargs, patch, status):
    if patch is not None:
        patch(monkeypatch)
    sol = run_method(make(), method, **kwargs)
    assert sol.status == status
    assert sol.bound is None or math.isfinite(sol.bound)
    assert parse_solution(write_solution(sol)) == sol


def test_write_solution_rejects_a_value_that_is_not_finite():
    with pytest.raises(ValueError):
        write_solution(Solution(method="x", status=TIME_LIMIT, bound=math.inf))


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

import argparse
import csv
import json
from dataclasses import fields

import pytest

from lsfrp import lp
from lsfrp.cli import METHODS, build_parser, main, run_method
from lsfrp.io import GeneratorParams, ParseError, generate_random, parse_instance, parse_solution, write_instance
from lsfrp.solution import BREAKDOWN, NO_DISJOINT_ROUTING, REFUSED, Diagnostics

from fixtures import T1_OPT, empty_repos19, shared_corridor, shared_start, t1


@pytest.fixture
def t1_path(tmp_path):
    p = tmp_path / "t1.json"
    p.write_bytes(write_instance(t1()))
    return str(p)


def _strip_timing(data: bytes) -> bytes:
    doc = json.loads(data.decode())
    doc["diagnostics"]["wall_time_sec"] = 0.0
    return json.dumps(doc, sort_keys=True).encode()


def test_solve_t1_colgen_lazy(t1_path, tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = main(["solve", "--instance", t1_path, "--method", "colgen-lazy", "--out", str(out)])
    assert code == 0
    sol = parse_solution(out.read_bytes())
    assert sol.objective == pytest.approx(T1_OPT)
    assert sol.status == "optimal"


@pytest.mark.parametrize("method", ["reduced", "reduced-tight", "revised", "colgen", "oracle"])
def test_solve_all_methods(t1_path, tmp_path, method):
    out = tmp_path / f"{method}.json"
    code = main(["solve", "--instance", t1_path, "--method", method, "--out", str(out)])
    assert code == 0
    sol = parse_solution(out.read_bytes())
    assert sol.objective == pytest.approx(T1_OPT)


def test_solve_bad_flags_usage_exit():
    assert main(["solve", "--method", "reduced"]) == 64
    assert main(["solve", "--instance", "x.json", "--method", "warp"]) == 64


@pytest.mark.parametrize("command, method_flag", [("solve", "--method"), ("compare", "--methods")])
@pytest.mark.parametrize(
    "flag, value",
    [("--time-limit", "nan"), ("--time-limit", "-1"), ("--time-limit", "inf"),
     ("--oracle-budget", "-3"), ("--empty-revenue", "-500"), ("--empty-revenue", "nan"),
     ("--empty-revenue", "inf"), ("--empty-revenue", "1.5")],
)
def test_bad_limit_flags_are_usage_errors(t1_path, capsys, command, method_flag, flag, value):
    assert main([command, "--instance", t1_path, method_flag, "oracle", flag, value]) == 64
    assert f"argument {flag}: " in capsys.readouterr().err


def test_solve_missing_file_is_usage_error(tmp_path):
    code = main(["solve", "--instance", str(tmp_path / "none.json"), "--method", "reduced"])
    assert code == 64


@pytest.mark.parametrize("command, method_flag", [("solve", "--method"), ("compare", "--methods")])
def test_non_utf8_instance_is_usage_error(tmp_path, capsys, command, method_flag):
    p = tmp_path / "utf16.json"
    p.write_bytes(write_instance(t1()).decode().encode("utf-16"))
    assert main([command, "--instance", str(p), method_flag, "oracle"]) == 64
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command, method_flag", [("solve", "--method"), ("compare", "--methods")])
def test_deeply_nested_instance_is_usage_error(tmp_path, capsys, command, method_flag):
    p = tmp_path / "deep.json"
    p.write_bytes(b"[" * 200_000)
    assert main([command, "--instance", str(p), method_flag, "oracle"]) == 64
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, flag",
    [
        (["solve", "--method", "oracle"], "--out"),
        (["compare", "--methods", "oracle"], "--csv"),
        (["generate", "--ships", "2", "--visits", "8", "--demands", "4"], "--out"),
    ],
    ids=["solve", "compare", "generate"],
)
def test_unwritable_output_is_usage_error(t1_path, tmp_path, capsys, args, flag):
    target = str(tmp_path / "missing" / "out.txt")
    instance = [] if args[0] == "generate" else ["--instance", t1_path]
    assert main([args[0], *instance, *args[1:], flag, target]) == 64
    assert f"cannot write {target}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda doc: {"schema": doc["schema"], "sink": "t", "visits": [1]}, "visits[0]"),
        (lambda doc: {**doc, "arcs": [{**doc["arcs"][0], "sail_cost": {"T0": "x"}}]},
         "arcs[0].sail_cost"),
        (lambda doc: {**doc, "visits": [{**doc["visits"][0], "port_fee": 12.5}] + doc["visits"][1:]},
         "visits[0].port_fee"),
    ],
    ids=["visit-entry", "sail-cost", "fractional-money"],
)
def test_solve_malformed_instance_entry_is_usage_error(t1_path, tmp_path, capsys, edit, where):
    with open(t1_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(edit(doc)))
    assert main(["solve", "--instance", str(p), "--method", "colgen"]) == 64
    assert where in capsys.readouterr().err


def test_oracle_budget_refusal_exit(t1_path):
    code = main(["solve", "--instance", t1_path, "--method", "oracle", "--oracle-budget", "1"])
    assert code == 3


def test_no_disjoint_routing_exit(tmp_path, capsys):
    p = tmp_path / "clash.json"
    p.write_bytes(write_instance(shared_corridor()))
    code = main(["solve", "--instance", str(p), "--method", "colgen", "--out", str(tmp_path / "o.json")])
    assert code == 3
    assert main(["solve", "--instance", str(p), "--method", "revised"]) == 3
    # every method reports the one outcome in the one word
    csv_path = tmp_path / "clash.csv"
    assert main(["compare", "--instance", str(p), "--oracle", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert [r["method"] for r in rows] == list(METHODS)
    assert all(r["status"] == NO_DISJOINT_ROUTING and r["mismatch"] == "0" for r in rows)
    assert "infeasible" not in out and "MISMATCH" not in out


def test_ships_sharing_a_start_are_rejected(tmp_path, capsys):
    from lsfrp.instance import validate

    assert "ships 's0' and 's1' share start visit 'o'" in validate(shared_start()).violations
    with pytest.raises(ParseError, match="share start visit"):
        parse_instance(write_instance(shared_start()))
    p = tmp_path / "shared.json"
    p.write_bytes(write_instance(shared_start()))
    assert main(["solve", "--instance", str(p), "--method", "revised"]) == 64
    assert "share start visit" in capsys.readouterr().err


def test_empty_revenue_monotone(tmp_path):
    p = tmp_path / "e.json"
    p.write_bytes(write_instance(empty_repos19()))
    lo = tmp_path / "lo.json"
    hi = tmp_path / "hi.json"
    assert main(["solve", "--instance", str(p), "--method", "colgen-lazy", "--out", str(lo)]) == 0
    assert main([
        "solve", "--instance", str(p), "--method", "colgen-lazy",
        "--empty-revenue", "30000", "--out", str(hi),
    ]) == 0
    a = parse_solution(lo.read_bytes())
    b = parse_solution(hi.read_bytes())
    assert b.objective >= a.objective
    assert b.objective == pytest.approx(20000.0)


def test_solve_deterministic_output(t1_path, tmp_path):
    o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["solve", "--instance", t1_path, "--method", "colgen-lazy", "--out", str(o1)])
    main(["solve", "--instance", t1_path, "--method", "colgen-lazy", "--out", str(o2)])
    assert _strip_timing(o1.read_bytes()) == _strip_timing(o2.read_bytes())


def test_compare_all_methods_agree(t1_path, tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    code = main([
        "compare", "--instance", t1_path, "--oracle", "--csv", str(csv_path),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "colgen-lazy" in text and "MISMATCH" not in text
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0].startswith("label,method,status,objective")
    assert len(rows) == 7  # header + five methods + oracle


def test_compare_prints_every_diagnostics_field(t1_path, tmp_path, capsys):
    report, out = tmp_path / "report.csv", tmp_path / "sol.json"
    assert main(["compare", "--instance", t1_path, "--methods", "colgen-lazy", "--csv", str(report)]) == 0
    text = capsys.readouterr().out
    with open(report, newline="", encoding="utf-8") as fh:
        header, row = csv.reader(fh)
    names = [f.name for f in fields(Diagnostics)]
    assert header == ["label", "method", "status", "objective", *names, "mismatch"]
    # the text table shows the same cells, the mismatch cell blank
    assert [line.split() for line in text.splitlines()] == [header, row[:-1]]
    assert main(["solve", "--instance", t1_path, "--method", "colgen-lazy", "--out", str(out)]) == 0
    diag = parse_solution(out.read_bytes()).diagnostics
    assert diag.rmp_iterations > 0 and diag.pricing_bnb_nodes > 0
    cells = dict(zip(header, row))
    for name in names:
        if name != "wall_time_sec":
            value = getattr(diag, name)
            assert cells[name] == str(sum(value.values()) if isinstance(value, dict) else value), name


@pytest.mark.parametrize("method", METHODS)
def test_run_method_times_every_result(method):
    assert run_method(t1(), method).diagnostics.wall_time_sec > 0.0


def test_run_method_times_an_oracle_refusal():
    sol = run_method(t1(), "oracle", oracle_budget=0)
    assert sol.status == REFUSED
    assert sol.diagnostics.wall_time_sec > 0.0


@pytest.mark.parametrize(
    "method, model_name, named",
    [("colgen", "rmp", "relaxed master"), ("colgen-lazy", "rmp", "relaxed master"),
     ("oracle", "cargo", "cargo LP")],
)
def test_a_breakdown_in_the_master_or_the_cargo_lp_is_status_breakdown(
    t1_path, tmp_path, monkeypatch, method, model_name, named
):
    real = lp.solve_lp

    def breaks_down(model, *args, **kwargs):
        if model.name == model_name:
            return lp.LpSolution(lp.BREAKDOWN)
        return real(model, *args, **kwargs)

    monkeypatch.setattr(lp, "solve_lp", breaks_down)
    sol = run_method(t1(), method)
    assert sol.status == BREAKDOWN
    assert named in sol.meta["refusal"] and "breakdown" in sol.meta["refusal"]
    code = main(["solve", "--instance", t1_path, "--method", method, "--out", str(tmp_path / "b.json")])
    assert code == 3


def test_compare_empty_revenue_pair(tmp_path, capsys):
    p = tmp_path / "e.json"
    p.write_bytes(write_instance(empty_repos19()))
    code = main([
        "compare", "--instance", str(p), "--methods", "colgen-lazy", "--oracle",
        "--empty-revenue", "0", "--empty-revenue", "30000",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "rev=0" in out and "rev=30000" in out


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_colgen_on_empty_points_is_usage_error(tmp_path, capsys, command):
    p = tmp_path / "e.json"
    p.write_bytes(write_instance(empty_repos19()))
    flag = "--method" if command == "solve" else "--methods"
    assert main([command, "--instance", str(p), flag, "colgen"]) == 64
    assert "colgen-lazy" in capsys.readouterr().err


def test_compare_rejects_unknown_method(t1_path):
    assert main(["compare", "--instance", t1_path, "--methods", "magic"]) == 64


def test_generate_stats_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "--ships", "3", "--visits", "14", "--demands", "10", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    err = capsys.readouterr().err
    assert "|S|=3" in err and "|V|=14" in err and "|M|=10" in err
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_zero_demands_solvable(tmp_path):
    p = tmp_path / "g.json"
    assert main(["generate", "--ships", "2", "--visits", "8", "--demands", "0",
                 "--seed", "3", "--out", str(p)]) == 0
    out = p.with_suffix(".sol.json")
    for method in ("reduced", "colgen", "colgen-lazy", "oracle"):
        assert main(["solve", "--instance", str(p), "--method", method,
                     "--out", str(out)]) == 0


def test_generate_infeasible_params(tmp_path):
    assert main(["generate", "--ships", "0", "--visits", "0", "--demands", "5",
                 "--out", str(tmp_path / "x.json")]) == 64


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--empty-revenue", "-5"], "empty_revenue"),
        (["--amount-range", "0,0"], "amount_range"),
        (["--empty-amount-range", "0,5"], "empty_amount_range"),
        (["--revenue-range=-1,5"], "revenue_range"),
        (["--move-cost-range=-1,5"], "move_cost_range"),
        (["--sail-cost-range=-1,5"], "sail_cost_range"),
        (["--capacity-range=-5,-1"], "capacity_dc_range"),
        (["--dest-count-max", "0"], "dest_count_max"),
    ],
)
def test_generate_invalid_params_name_the_field(tmp_path, capsys, flags, field):
    code = main(["generate", "--ships", "2", "--visits", "8", "--demands", "4", "--empty-points", "2",
                 "--seed", "3", "--out", str(tmp_path / "x.json"), *flags])
    assert code == 64
    assert field in capsys.readouterr().err


def test_generate_has_one_flag_per_generator_field():
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {a.dest: a for a in sub.choices["generate"]._actions if a.dest != "help"}
    assert set(options) == {f.name for f in fields(GeneratorParams)} | {"out"}
    assert all(len(a.option_strings) == 1 for a in options.values())
    for f in fields(GeneratorParams):
        assert options[f.name].default == f.default, f.name


def test_generate_writes_the_generators_instance(tmp_path):
    p = tmp_path / "g.json"
    assert main(["generate", "--ships", "3", "--visits", "12", "--density", "0.35",
                 "--capacity-range", "25,60", "--amount-range", "10,45", "--empty-points", "4",
                 "--seed", "5", "--out", str(p)]) == 0
    params = GeneratorParams(
        ships=3, visits=12, arc_density=0.35, capacity_dc_range=(25, 60),
        amount_range=(10, 45), empty_points=4, seed=5,
    )
    assert p.read_bytes() == write_instance(generate_random(params))


def test_generate_table1_shape(tmp_path, capsys):
    # stats row in |S| |V| |A| |M| shape at repos1p-like magnitudes
    p = tmp_path / "g.json"
    code = main(["generate", "--ships", "3", "--visits", "36", "--demands", "28",
                 "--seed", "7", "--out", str(p)])
    assert code == 0
    err = capsys.readouterr().err
    assert "|S|=3" in err and "|V|=36" in err and "|M|=28" in err and "|A|=" in err


def test_compare_flags_mismatch(t1_path, monkeypatch, capsys):
    import lsfrp.cli as cli

    real = cli.run_method

    def shifted(sol):
        sol.objective += 5.0

    def no_routing(sol):
        sol.status, sol.objective = NO_DISJOINT_ROUTING, None

    for skew in (shifted, no_routing):  # revised's answer: another optimum, or none

        def skewed(instance, method, time_limit=None, oracle_budget=10**6, skew=skew):
            sol = real(instance, method, time_limit, oracle_budget)
            if method == "revised" and sol.objective is not None:
                skew(sol)
            return sol

        monkeypatch.setattr(cli, "run_method", skewed)
        code = main(["compare", "--instance", t1_path, "--methods", "reduced,revised"])
        assert code == 1
        assert "MISMATCH" in capsys.readouterr().out


def test_time_limit_exit_codes(t1_path, tmp_path):
    # a zero budget times out before the first incumbent: no solution, exit 3
    code = main(["solve", "--instance", t1_path, "--method", "reduced",
                 "--time-limit", "0", "--out", str(tmp_path / "t.json")])
    assert code == 3

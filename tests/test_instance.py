import pytest

from lsfrp.instance import (
    Demand,
    EmptyPoint,
    Instance,
    InvalidInstanceError,
    Ship,
    Visit,
    build_reach_index,
    enumerate_paths,
    make_arc,
    path_count,
    validate,
)

from fixtures import chain4, t1, T1_PATHS

Z0 = {"T0": 0}


def test_t1_is_valid():
    report = validate(t1())
    assert report.ok, str(report)


def test_cycle_detected():
    ins = Instance(
        [Ship("s1", "v1", 10, 0, "T0")],
        [Visit("v1"), Visit("v2")],
        "tau",
        [
            make_arc("v1", "v2", Z0),
            make_arc("v2", "v1", Z0),
            make_arc("v2", "tau", Z0),
        ],
    )
    report = validate(ins)
    assert any("cycle" in v for v in report.violations)


def test_capacity_ordering_violation():
    ins = Instance(
        [Ship("s1", "v1", 20, 30, "T0")],
        [Visit("v1")],
        "tau",
        [make_arc("v1", "tau", Z0)],
    )
    report = validate(ins)
    assert any("capacity ordering" in v for v in report.violations)


def test_unknown_visit_reference():
    ins = Instance(
        [Ship("s1", "v1", 10, 0, "T0")],
        [Visit("v1")],
        "tau",
        [make_arc("v1", "tau", Z0), make_arc("v1", "v9", Z0)],
    )
    report = validate(ins)
    assert any("v9" in v for v in report.violations)


def test_arc_into_start_visit_rejected():
    ins = Instance(
        [Ship("s1", "v1", 10, 0, "T0")],
        [Visit("v1"), Visit("v2")],
        "tau",
        [
            make_arc("v1", "v2", Z0),
            make_arc("v2", "tau", Z0),
            make_arc("v1", "tau", Z0),
        ],
    )
    assert validate(ins).ok
    ins2 = Instance(
        [Ship("s1", "v2", 10, 0, "T0")],
        [Visit("v1"), Visit("v2")],
        ins.sink,
        ins.arcs,
    )
    report = validate(ins2)
    assert any("start visit" in v for v in report.violations)


def test_same_type_ships_must_share_capacities():
    ins = Instance(
        [Ship("s1", "v1", 10, 0, "T0"), Ship("s2", "v2", 20, 0, "T0")],
        [Visit("v1"), Visit("v2")],
        "tau",
        [make_arc("v1", "tau", Z0), make_arc("v2", "tau", Z0)],
    )
    report = validate(ins)
    assert any("unequal capacities" in v for v in report.violations)


@pytest.mark.parametrize(
    "record",
    [
        Ship("s1", "v1", 10, 0, "T0"),
        Visit("v1"),
        make_arc("v1", "tau", Z0),
        Demand("m1", "v1", frozenset({"v2"}), "dc", 5, 10),
        EmptyPoint("v1", "dc", 5),
    ],
    ids=lambda r: type(r).__name__,
)
def test_records_are_slotted(record):
    # no per-object dict, so an instance's many arcs and demands stay small,
    # and no ad-hoc attribute, even past the frozen __setattr__
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        object.__setattr__(record, "note", 1)


def test_reach_index_t1():
    ins = t1()
    reach = build_reach_index(ins)
    assert sorted(reach.demand_arcs["m1"]) == [("v1", "v2")]
    assert reach.movable["s1"] == frozenset({"m1"})


def test_reach_index_chain():
    ins = chain4()
    reach = build_reach_index(ins)
    arcs = reach.demand_arcs["m1"]
    assert ("v0", "v1") not in arcs
    assert ("v1", "v2") in arcs and ("v2", "v3") in arcs


def test_demand_arcs_ride_through_a_destination():
    # o -> {d1, d2} with an arc d1 -> d2: demand_arcs keeps the ride-through
    # arc, carry_arc_set (unload at the first destination) drops it
    ins = Instance(
        [Ship("s1", "o", 10, 0, "T0")],
        [Visit("o"), Visit("d1", time_index=1), Visit("d2", time_index=2)],
        "tau",
        [make_arc("o", "d1", {"T0": 1}), make_arc("d1", "d2", {"T0": 1})]
        + [make_arc(v, "tau", Z0) for v in ("o", "d1", "d2")],
        [Demand("m1", "o", frozenset({"d1", "d2"}), "dc", 5, 10)],
    )
    reach = build_reach_index(ins)
    assert reach.demand_arcs["m1"] == {("o", "d1"), ("d1", "d2")}
    assert reach.carry_arc_set("o", {"d1", "d2"}) == {("o", "d1")}


def test_reach_index_requires_valid_instance():
    ins = Instance(
        [Ship("s1", "v1", 10, 20, "T0")],  # rf above dc
        [Visit("v1")],
        "tau",
        [make_arc("v1", "tau", Z0)],
    )
    for _ in range(2):  # an invalid instance keeps no index, and raises again
        with pytest.raises(InvalidInstanceError):
            build_reach_index(ins)
        assert ins._reach is None


def test_reach_index_is_built_once_per_instance():
    ins = t1()
    reach = build_reach_index(ins)
    assert build_reach_index(ins) is reach
    # a copy with another empty revenue is another instance, with its own index
    other = ins.with_empty_revenue({"dc": 5.0})
    assert build_reach_index(other) is not reach
    assert build_reach_index(other).demand_arcs == reach.demand_arcs


def test_every_method_reads_one_reach_index(monkeypatch):
    from lsfrp import instance
    from lsfrp.cli import METHODS, run_method

    builds = []
    real = instance.ReachIndex.__init__
    monkeypatch.setattr(instance.ReachIndex, "__init__", lambda self, i: builds.append(i) or real(self, i))
    # the index validates the instance once and keeps validation's reach masks
    calls = {"validate": 0, "_reach_masks": 0}

    def counted(name, f):
        def call(i):
            calls[name] += 1
            return f(i)

        return call

    for name in calls:
        monkeypatch.setattr(instance, name, counted(name, getattr(instance, name)))
    ins = t1()
    for method in METHODS:
        assert run_method(ins, method).status == "optimal", method
    assert builds == [ins]
    assert calls == {"validate": 1, "_reach_masks": 1}


def test_solved_instance_freed_without_the_cyclic_collector():
    import gc
    import weakref

    from lsfrp.cli import METHODS, run_method

    gc.disable()
    try:
        ins = t1()
        for method in METHODS:
            run_method(ins, method)
        assert ins._reach is not None
        freed = weakref.ref(ins)
        del ins
        assert freed() is None  # reference counting alone: no cycle holds it
    finally:
        gc.enable()


def test_path_count_examples():
    ins = t1()
    assert path_count(ins, "s1") == T1_PATHS
    single = Instance(
        [Ship("s1", "a", 1, 0, "T0")], [Visit("a")], "tau", [make_arc("a", "tau", Z0)]
    )
    assert path_count(single, "s1") == 1
    diamond = Instance(
        [Ship("s1", "s", 1, 0, "T0")],
        [Visit(v) for v in ("s", "a", "b", "c")],
        "tau",
        [
            make_arc("s", "a", Z0),
            make_arc("s", "b", Z0),
            make_arc("a", "c", Z0),
            make_arc("b", "c", Z0),
            make_arc("c", "tau", Z0),
        ],
    )
    assert path_count(diamond, "s1") == 2
    with pytest.raises(KeyError):
        path_count(ins, "nope")


def test_path_count_matches_enumeration():
    from lsfrp.io import GeneratorParams, generate_random

    for seed in range(10):
        ins = generate_random(GeneratorParams(ships=2, visits=9, demands=0, seed=seed))
        for s in ins.ships:
            paths = enumerate_paths(ins, s.start_visit)
            assert len(paths) == path_count(ins, s.id)


def test_movable_demands():
    movable = build_reach_index(t1()).movable
    assert movable["s1"] == frozenset({"m1"})
    with pytest.raises(KeyError):
        movable["ghost"]


def test_movable_demands_unreachable_origin():
    # a visit no ship can reach fails validation outright
    ins = Instance(
        [Ship("s1", "b", 10, 0, "T0")],
        [Visit("a"), Visit("b")],
        "tau",
        [make_arc("b", "tau", Z0)],
        [Demand("m1", "a", frozenset({"b"}), "dc", 5, 5)],
    )
    report = validate(ins)
    assert any("lies on no" in v for v in report.violations)

    two = Instance(
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
        [Demand("m1", "b", frozenset({"c"}), "dc", 5, 5)],
    )
    movable = build_reach_index(two).movable
    assert movable["s2"] == frozenset({"m1"})
    assert movable["s1"] == frozenset()


def test_topological_order_agrees_with_arcs():
    from lsfrp.io import GeneratorParams, generate_random

    for seed in range(10):
        ins = generate_random(GeneratorParams(ships=3, visits=12, demands=4, seed=100 + seed))
        order = ins.topological_order()
        rank = {n: k for k, n in enumerate(order)}
        for a in ins.arcs:
            assert rank[a.src] < rank[a.dst]


def test_reach_monotone_under_arc_removal():
    from lsfrp.io import GeneratorParams, generate_random

    base = generate_random(GeneratorParams(ships=2, visits=10, demands=6, seed=5))
    reach = build_reach_index(base)
    for drop in range(len(base.arcs)):
        arcs = [a for k, a in enumerate(base.arcs) if k != drop]
        smaller = Instance(
            base.ships, base.visits, base.sink, arcs, base.demands, base.empty_points,
            base.empty_revenue,
        )
        if not validate(smaller).ok:
            continue
        sub = build_reach_index(smaller)
        for m in base.demands:
            assert sub.demand_arcs[m.id] <= reach.demand_arcs[m.id]
        for s in base.ships:
            assert sub.movable[s.id] <= reach.movable[s.id]

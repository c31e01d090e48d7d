"""Instance/solution serialization and the seeded random-instance generator.

File schemas (see docs/formats.md for normative examples):
  lsfrp-instance-v1  -- problem data; money fields are integer cents
  lsfrp-solution-v1  -- solver output incl. diagnostics

Both writers emit canonical JSON (sorted keys, two-space indent) so that
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import asdict, dataclass, field, fields

from .instance import (
    CARGO_TYPES,
    Demand,
    EmptyPoint,
    Instance,
    Ship,
    Visit,
    make_arc,
    validate,
)
from .solution import DemandFlow, Diagnostics, EmptyFlow, Solution

INSTANCE_SCHEMA = "lsfrp-instance-v1"
SOLUTION_SCHEMA = "lsfrp-solution-v1"


class ParseError(ValueError):
    pass


def _canonical(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n").encode("utf-8")


def _money_out(value: float, where: str) -> int:
    cents = round(value)
    if abs(value - cents) > 1e-6:
        raise ValueError(f"{where}: money value {value!r} is not an integral cent count")
    return int(cents)


def _num(value: float):
    """Canonical JSON number: integral floats emit as ints."""
    return int(value) if float(value).is_integer() else float(value)


def _document(data: bytes | str, schema: str) -> dict:
    """The JSON object in data, UTF-8 if bytes, whose "schema" field must
    be the given one; anything else is a ParseError."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}") from exc
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    if doc.get("schema") != schema:
        raise ParseError(f"unsupported schema {doc.get('schema')!r}, expected {schema!r}")
    return doc


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _string(obj: dict, key: str, where: str) -> str:
    """The field obj[key] as _text reads it: one shared string, or a
    ParseError naming the field."""
    return _text(_need(obj, key, where), f"{where}.{key}")


def _text(value, where: str) -> str:
    """value, which must be a string, as its one shared object (see _name),
    or a ParseError naming where."""
    return _name(_typed(value, str, where))


def _name(text: str) -> str:
    """The one object for this text: every id, visit reference and type
    that an instance holds is interned, so records naming one visit share
    its id object, within an instance and across instances.  An interned
    string is still freed once nothing refers to it."""
    return sys.intern(text)


def _number(obj: dict, key: str, where: str, kind=float) -> float:
    """The field obj[key] as a float; it must be a finite kind (see
    _typed), or a ParseError names it."""
    return _finite(_need(obj, key, where), kind, f"{where}.{key}")


def _finite(value, kind, where: str) -> float:
    """value as a float; it must be a finite kind (see _typed), or a
    ParseError names where."""
    value = _typed(value, kind, where)
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ParseError(f"{where}: {value!r} is not finite")


def _typed(value, kind, where: str):
    """value when it is a kind (an int counts as a float, a bool as
    neither), or a ParseError naming where; the value is kept as it is."""
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds):
        noun = {int: "an integer", float: "a number", str: "a string"}[kind]
        raise ParseError(f"{where}: {value!r} is not {noun}")
    return value


def _mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be an object")
    return value


def _entries(doc: dict, key: str):
    """(location, entry) for each object of the list doc[key]; absent is empty."""
    items = doc.get(key, [])
    if not isinstance(items, list):
        raise ParseError(f"{key} must be a list")
    return [(f"{key}[{i}]", _mapping(item, f"{key}[{i}]")) for i, item in enumerate(items)]


# -- instance files -------------------------------------------------------------


def write_instance(instance: Instance) -> bytes:
    payload = {
        "schema": INSTANCE_SCHEMA,
        "sink": instance.sink,
        "visits": [
            {
                "id": v.id,
                "port_fee": _money_out(v.port_fee, f"visit {v.id}"),
                "move_cost": _money_out(v.move_cost, f"visit {v.id}"),
                "time_index": v.time_index,
            }
            for v in instance.visits
        ],
        "ships": [
            {
                "id": s.id,
                "start_visit": s.start_visit,
                "capacity_dc": _num(s.capacity_dc),
                "capacity_rf": _num(s.capacity_rf),
                "ship_type": s.ship_type,
            }
            for s in instance.ships
        ],
        "arcs": [
            {
                "from": a.src,
                "to": a.dst,
                "sail_cost": {t: _money_out(c, f"arc {a.src}->{a.dst}") for t, c in a.sail_cost},
            }
            for a in instance.arcs
        ],
        "demands": [
            {
                "id": m.id,
                "origin": m.origin,
                "destinations": sorted(m.destinations),
                "cargo_type": m.cargo_type,
                "amount": _num(m.amount),
                "revenue_per_teu": _money_out(m.revenue, f"demand {m.id}"),
            }
            for m in instance.demands
        ],
        "empty_points": [
            {"visit": p.visit, "cargo_type": p.cargo_type, "amount": _num(p.amount)}
            for p in instance.empty_points
        ],
        "empty_revenue": {
            q: _money_out(r, f"empty_revenue[{q}]") for q, r in sorted(instance.empty_revenue.items())
        },
    }
    return _canonical(payload)


def parse_instance(data: bytes | str) -> Instance:
    """The validated instance in an instance file, or a ParseError.  Its
    records are frozen and slotted, and each identifier, visit reference
    and type is one shared, interned string (see _name)."""
    doc = _document(data, INSTANCE_SCHEMA)

    visits = [
        Visit(
            id=_string(v, "id", where),
            port_fee=_number(v, "port_fee", where, int),
            move_cost=_number(v, "move_cost", where, int),
            time_index=_typed(v.get("time_index", 0), int, f"{where}.time_index"),
        )
        for where, v in _entries(doc, "visits")
    ]
    ships = [
        Ship(
            id=_string(s, "id", where),
            start_visit=_string(s, "start_visit", where),
            capacity_dc=_number(s, "capacity_dc", where),
            capacity_rf=_number(s, "capacity_rf", where),
            ship_type=_text(s.get("ship_type", "T0"), f"{where}.ship_type"),
        )
        for where, s in _entries(doc, "ships")
    ]
    arcs = []
    for where, a in _entries(doc, "arcs"):
        cost = _need(a, "sail_cost", where)
        if not isinstance(cost, dict):
            raise ParseError(f"{where}: sail_cost must map ship type to cost")
        arcs.append(
            make_arc(
                _string(a, "from", where),
                _string(a, "to", where),
                {_text(t, f"{where}.sail_cost"): _number(cost, t, f"{where}.sail_cost", int) for t in cost},
            )
        )
    demands = []
    for where, m in _entries(doc, "demands"):
        dests = _need(m, "destinations", where)
        if not isinstance(dests, list):
            raise ParseError(f"{where}: destinations must be a list")
        demands.append(
            Demand(
                id=_string(m, "id", where),
                origin=_string(m, "origin", where),
                destinations=frozenset(_text(d, f"{where}.destinations[{k}]") for k, d in enumerate(dests)),
                cargo_type=_string(m, "cargo_type", where),
                amount=_number(m, "amount", where),
                revenue=_number(m, "revenue_per_teu", where, int),
            )
        )
    points = [
        EmptyPoint(
            visit=_string(p, "visit", where),
            cargo_type=_string(p, "cargo_type", where),
            amount=_number(p, "amount", where),
        )
        for where, p in _entries(doc, "empty_points")
    ]
    revenue = _mapping(doc.get("empty_revenue", {}), "empty_revenue")
    revenue = {_text(q, "empty_revenue"): _number(revenue, q, "empty_revenue", int) for q in revenue}

    instance = Instance(
        ships, visits, _string(doc, "sink", "instance"), arcs, demands, points, revenue
    )
    report = validate(instance)
    if not report.ok:
        raise ParseError("invalid instance:\n" + str(report))
    return instance


# -- solution files -------------------------------------------------------------


def write_solution(solution: Solution) -> bytes:
    """The solution's file; a value that is not finite, which no solver
    result holds, is a ValueError rather than a silent null."""
    payload = {
        "schema": SOLUTION_SCHEMA,
        "method": solution.method,
        "status": solution.status,
        "objective": solution.objective,
        "bound": solution.bound,
        "ship_paths": {s: list(p) for s, p in solution.ship_paths.items()},
        "demand_flows": [
            {"demand": f.demand, "ship": f.ship, "destination": f.destination, "amount": f.amount}
            for f in solution.demand_flows
        ],
        "empty_flows": [
            {"cargo_type": f.cargo_type, "ship": f.ship, "from": f.src, "to": f.dst, "amount": f.amount}
            for f in solution.empty_flows
        ],
        "diagnostics": asdict(solution.diagnostics),
        "meta": solution.meta,
    }
    return _canonical(payload)


def _diagnostics(value) -> Diagnostics:
    """Diagnostics from its object; each field must have its default's
    type, and a float field must be finite."""
    diag = _mapping(value, "diagnostics")
    checked = {}
    for f in fields(Diagnostics):
        if f.name in diag:
            where = f"diagnostics.{f.name}"
            if f.default_factory is dict:  # per-ship cut counts
                counts = _mapping(diag[f.name], where)
                checked[f.name] = {k: _typed(n, int, f"{where}.{k}") for k, n in counts.items()}
            elif isinstance(f.default, float):
                checked[f.name] = _finite(diag[f.name], float, where)
            else:
                checked[f.name] = _typed(diag[f.name], type(f.default), where)
    return Diagnostics(**checked)


def parse_solution(data: bytes | str) -> Solution:
    doc = _document(data, SOLUTION_SCHEMA)
    paths = _mapping(doc.get("ship_paths", {}), "ship_paths")
    for s, p in paths.items():
        if not isinstance(p, list):
            raise ParseError(f"ship_paths.{s} must be a list of visits")
        for i, v in enumerate(p):
            _typed(v, str, f"ship_paths.{s}[{i}]")
    scalars = {k: None if doc.get(k) is None else _finite(doc[k], float, k) for k in ("objective", "bound")}
    return Solution(
        method=_typed(doc.get("method", ""), str, "method"),
        status=_typed(doc.get("status", ""), str, "status"),
        objective=scalars["objective"],
        bound=scalars["bound"],
        ship_paths={s: tuple(p) for s, p in paths.items()},
        demand_flows=[
            DemandFlow(
                _string(f, "demand", where), _string(f, "ship", where), _string(f, "destination", where),
                _number(f, "amount", where),
            )
            for where, f in _entries(doc, "demand_flows")
        ],
        empty_flows=[
            EmptyFlow(
                _string(f, "cargo_type", where), _string(f, "ship", where), _string(f, "from", where),
                _string(f, "to", where), _number(f, "amount", where),
            )
            for where, f in _entries(doc, "empty_flows")
        ],
        diagnostics=_diagnostics(doc.get("diagnostics", {})),
        meta=_mapping(doc.get("meta", {}), "meta"),
    )


# -- random generator -----------------------------------------------------------


@dataclass
class GeneratorParams:
    ships: int = 3
    ship_types: int = 1
    visits: int = 12  # excludes the sink, includes ship start visits
    arc_density: float = 0.5
    demands: int = 8
    reefer_fraction: float = 0.25
    empty_points: int = 0
    seed: int = 0
    sail_cost_range: tuple[int, int] = (5, 40)
    port_fee_range: tuple[int, int] = (0, 10)
    move_cost_range: tuple[int, int] = (1, 8)
    revenue_range: tuple[int, int] = (20, 90)
    amount_range: tuple[int, int] = (5, 60)
    capacity_dc_range: tuple[int, int] = (60, 160)
    empty_amount_range: tuple[int, int] = (5, 40)
    empty_revenue: int = 150
    dest_count_max: int = 3

    def check(self) -> None:
        if self.ships < 0 or self.visits < 0 or self.demands < 0 or self.empty_points < 0:
            raise ValueError("counts must be nonnegative")
        if self.ship_types not in (1, 2):
            raise ValueError("ship_types must be 1 or 2")
        if not 0 < self.arc_density <= 1:
            raise ValueError("arc_density must be in (0, 1]")
        if not 0 <= self.reefer_fraction <= 1:
            raise ValueError("reefer_fraction must be in [0, 1]")
        if self.ships > 0 and self.visits < self.ships + 1:
            raise ValueError("need at least one non-start visit per instance")
        if self.demands > 0 and self.visits - self.ships < 2:
            raise ValueError("demands need at least two non-start visits")
        if self.empty_points > 0 and self.visits - self.ships < 2:
            raise ValueError("empty points need at least two non-start visits")
        # the least lower bound of each range: amounts are positive; costs,
        # revenues and capacities nonnegative; port fees may be negative
        least = {
            "sail_cost_range": 0, "port_fee_range": -math.inf, "move_cost_range": 0,
            "revenue_range": 0, "amount_range": 1, "capacity_dc_range": 0, "empty_amount_range": 1,
        }
        for name, low in least.items():
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name}: inverted range ({lo}, {hi})")
            if lo < low:
                raise ValueError(f"{name}: lower bound {lo} is below {low}")
        if self.empty_revenue < 0:
            raise ValueError(f"empty_revenue: {self.empty_revenue} is negative")
        if self.dest_count_max < 1:
            raise ValueError(f"dest_count_max: {self.dest_count_max} is below 1")


def generate_random(params: GeneratorParams) -> Instance:
    """Build a layered time-space instance; identical params give identical
    instances byte for byte.  As in parse_instance, each identifier is one
    shared, interned string."""
    params.check()
    rng = random.Random(params.seed)
    sink = "tau"
    types = [_name(f"T{k}") for k in range(params.ship_types)] if params.ships else []

    # layered skeleton: ship starts, middle layers, every visit has a sink arc
    n_mid = params.visits - params.ships
    width = max(2, params.ships + 1)
    # at least two middle layers whenever possible so demands have room
    n_layers = max(1 if n_mid < 2 else 2, math.ceil(n_mid / width)) if n_mid else 0
    layers: list[list[str]] = [[_name(f"o{k}") for k in range(params.ships)]]
    mid_ids = [_name(f"v{k}") for k in range(n_mid)]
    for li in range(n_layers):
        layers.append([m for i, m in enumerate(mid_ids) if i % n_layers == li])

    visits = []
    for li, layer in enumerate(layers):
        for vid in layer:
            visits.append(
                Visit(
                    id=vid,
                    port_fee=rng.randint(*params.port_fee_range),
                    move_cost=rng.randint(*params.move_cost_range),
                    time_index=li,
                )
            )

    ships = []
    caps: dict[str, tuple[int, int]] = {}
    for t in types:
        dc = rng.randint(*params.capacity_dc_range)
        rf = rng.randint(0, dc // 3)
        caps[t] = (dc, rf)
    for k in range(params.ships):
        t = types[k % len(types)]
        ships.append(Ship(_name(f"s{k}"), layers[0][k], caps[t][0], caps[t][1], t))

    def draw_sail_costs() -> dict[str, float]:
        return {t: float(rng.randint(*params.sail_cost_range)) for t in sorted(types)} or {"T0": 0.0}

    arc_pairs: list[tuple[str, str, dict[str, float]]] = []
    seen: set[tuple[str, str]] = set()

    def add_arc(u: str, v: str, cost: dict[str, float] | None = None) -> None:
        if (u, v) not in seen and u != v:
            seen.add((u, v))
            arc_pairs.append((u, v, cost if cost is not None else draw_sail_costs()))

    for li in range(len(layers) - 1):
        src_layer, dst_layer = layers[li], layers[li + 1]
        for u in src_layer:
            linked = False
            for v in dst_layer:
                if rng.random() < params.arc_density:
                    add_arc(u, v)
                    linked = True
            if not linked and dst_layer:
                add_arc(u, rng.choice(dst_layer))
        if src_layer:
            for v in dst_layer:
                if not any(p[1] == v for p in arc_pairs):
                    add_arc(rng.choice(src_layer), v)
        # sparse skip arcs one layer ahead (start visits stay layer-1 only)
        if li >= 1 and li + 2 < len(layers):
            for u in src_layer:
                for v in layers[li + 2]:
                    if rng.random() < params.arc_density / 3:
                        add_arc(u, v)
    zero = {t: 0.0 for t in sorted(types)} or {"T0": 0.0}
    for layer in layers:
        for u in layer:
            add_arc(u, sink, dict(zero))

    arcs = [make_arc(u, v, c) for u, v, c in arc_pairs]

    # forward reachability over the generated arcs (for demand placement)
    succ: dict[str, set[str]] = {v.id: set() for v in visits}
    out: dict[str, list[str]] = {v.id: [] for v in visits}
    for u, v, _ in arc_pairs:
        if v != sink:
            out[u].append(v)
    order = [vid for layer in layers for vid in layer]
    for u in reversed(order):
        for v in out[u]:
            succ[u] |= {v} | succ[v]

    non_start = [vid for layer in layers[1:] for vid in layer]
    demands = []
    for k in range(params.demands):
        origin = None
        for _ in range(50):
            cand = rng.choice(non_start) if non_start else None
            if cand and succ[cand]:
                origin = cand
                break
        if origin is None:
            candidates = [v for v in non_start if succ[v]] or [v for v in order if succ[v]]
            if not candidates:
                raise ValueError("generated graph admits no demand placement")
            origin = candidates[0]
        pool = sorted(succ[origin])
        n_dest = rng.randint(1, min(params.dest_count_max, len(pool)))
        dests = rng.sample(pool, n_dest)
        q = "rf" if rng.random() < params.reefer_fraction else "dc"
        demands.append(
            Demand(
                id=_name(f"m{k}"),
                origin=origin,
                destinations=frozenset(dests),
                cargo_type=q,
                amount=float(rng.randint(*params.amount_range)),
                revenue=float(rng.randint(*params.revenue_range)),
            )
        )

    points: list[EmptyPoint] = []
    taken: set[tuple[str, str]] = set()
    for k in range(params.empty_points):
        placed = False
        for _ in range(80):
            q = "rf" if rng.random() < params.reefer_fraction else "dc"
            if k % 2 == 0:
                visit = rng.choice(non_start)
                ok = bool(succ[visit]) and (visit, q) not in taken
                amount = float(rng.randint(*params.empty_amount_range))
            else:
                surpluses = [p for p in points if p.amount > 0 and p.cargo_type == q]
                if not surpluses:
                    continue
                src = rng.choice(surpluses)
                pool2 = [v for v in sorted(succ[src.visit]) if (v, q) not in taken]
                if not pool2:
                    continue
                visit = rng.choice(pool2)
                ok = True
                amount = -float(rng.randint(*params.empty_amount_range))
            if ok:
                points.append(EmptyPoint(visit, q, amount))
                taken.add((visit, q))
                placed = True
                break
        if not placed:
            break

    revenue = {q: float(params.empty_revenue) for q in CARGO_TYPES}
    instance = Instance(ships, visits, sink, arcs, demands, points, revenue)
    report = validate(instance)
    if not report.ok:
        raise AssertionError(f"generator produced invalid instance (seed {params.seed}):\n{report}")
    return instance

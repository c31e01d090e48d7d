"""Problem data model: ships, visits, arcs, demands and empty equipment.

An instance lives on a time-space graph: visits are (port, time) events,
arcs are feasible sailings, and one artificial sink collects every ship at
the end of its repositioning window.  All monetary fields are plain floats
(files store them as integer cents, see lsfrp.io).

Ship, Visit, Arc, Demand and EmptyPoint are frozen, slotted records: they
take no attribute beyond their fields and carry no per-object dict.  A
parsed or generated instance holds each identifier as one shared string
object (lsfrp.io interns them), so an arc end, a demand's origin and a
ship's start are the visit's own id.

This module owns validation, reachability precomputation (one ReachIndex per
instance, kept on it) and the per-ship derived sets used by every solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

CARGO_TYPES = ("dc", "rf")  # dry container / reefer

# Path-count saturation: ordering ships only needs comparisons.
PATH_COUNT_CAP = 10**18


@dataclass(frozen=True, slots=True)
class Ship:
    id: str
    start_visit: str
    capacity_dc: float
    capacity_rf: float
    ship_type: str = "T0"


@dataclass(frozen=True, slots=True)
class Visit:
    id: str
    port_fee: float = 0.0  # charged when a ship enters; may be negative
    move_cost: float = 0.0  # per TEU moved on or off the ship
    time_index: int = 0  # advisory; acyclicity is checked structurally


@dataclass(frozen=True, slots=True)
class Arc:
    src: str
    dst: str
    # sail cost per ship type; ships of the same type share arc costs
    sail_cost: tuple[tuple[str, float], ...] = ()

    def cost_for(self, ship_type: str) -> float:
        for t, c in self.sail_cost:
            if t == ship_type:
                return c
        raise KeyError(f"arc {self.src}->{self.dst} has no sail cost for type {ship_type!r}")


def make_arc(src: str, dst: str, sail_cost: dict[str, float] | None = None) -> Arc:
    items = tuple(sorted((sail_cost or {}).items()))
    return Arc(src, dst, items)


@dataclass(frozen=True, slots=True)
class Demand:
    id: str
    origin: str
    destinations: frozenset[str]
    cargo_type: str
    amount: float
    revenue: float  # per TEU delivered


@dataclass(frozen=True, slots=True)
class EmptyPoint:
    visit: str
    cargo_type: str
    amount: float  # positive = equipment surplus, negative = deficit


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    # per-node reach bitmasks of the checked graph, once it is a DAG
    reach: dict[str, int] | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def __str__(self) -> str:
        if self.ok:
            return "instance valid"
        return "\n".join(self.violations)


class InvalidInstanceError(ValueError):
    """Raised when an operation requires a validated instance."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


class Instance:
    """Immutable problem instance with id-based lookup tables.

    ``out_arcs`` and ``in_arcs`` are its one arc index, the arcs whose ends
    are both known per node in input order; ``arc`` looks a hop up there.
    Construction never raises on semantic problems; run validate() to get
    the full list of violations before handing the instance to a solver.
    """

    def __init__(
        self,
        ships: Iterable[Ship],
        visits: Iterable[Visit],
        sink: str,
        arcs: Iterable[Arc],
        demands: Iterable[Demand] = (),
        empty_points: Iterable[EmptyPoint] = (),
        empty_revenue: dict[str, float] | None = None,
    ):
        self.ships = tuple(ships)
        self.visits = tuple(visits)
        self.sink = sink
        self.arcs = tuple(arcs)
        self.demands = tuple(demands)
        self.empty_points = tuple(empty_points)
        self.empty_revenue = {q: 0.0 for q in CARGO_TYPES}
        self.empty_revenue.update(empty_revenue or {})

        self.visit_by_id = {v.id: v for v in self.visits}
        self.ship_by_id = {s.id: s for s in self.ships}
        self.demand_by_id = {m.id: m for m in self.demands}
        self.ship_types = tuple(sorted({s.ship_type for s in self.ships}))

        # adjacency over visits + sink, in input arc order
        nodes = [v.id for v in self.visits] + [sink]
        self.node_ids = tuple(nodes)
        self.out_arcs: dict[str, list[Arc]] = {n: [] for n in nodes}
        self.in_arcs: dict[str, list[Arc]] = {n: [] for n in nodes}
        for a in self.arcs:
            if a.src in self.out_arcs and a.dst in self.in_arcs:
                self.out_arcs[a.src].append(a)
                self.in_arcs[a.dst].append(a)

        # computed eagerly: the instance is immutable and shareable afterwards
        self._topo = self._compute_topo()
        self._reach: ReachIndex | None = None  # built on first use, by build_reach_index

    # -- basic graph helpers -------------------------------------------------

    def with_empty_revenue(self, revenue: dict[str, float]) -> "Instance":
        """Copy with a different empty-equipment revenue table."""
        return Instance(
            self.ships, self.visits, self.sink, self.arcs,
            self.demands, self.empty_points, revenue,
        )

    def _compute_topo(self) -> tuple[str, ...] | None:
        indeg = {n: 0 for n in self.node_ids}
        for a in self.arcs:
            if a.src in indeg and a.dst in indeg:
                indeg[a.dst] += 1
        queue = [n for n in self.node_ids if indeg[n] == 0]
        order: list[str] = []
        while queue:
            n = queue.pop(0)
            order.append(n)
            for a in self.out_arcs[n]:
                indeg[a.dst] -= 1
                if indeg[a.dst] == 0:
                    queue.append(a.dst)
        return tuple(order) if len(order) == len(self.node_ids) else None

    def topological_order(self) -> tuple[str, ...] | None:
        """Topological order over visits + sink, or None if the graph has a cycle."""
        return self._topo

    def is_acyclic(self) -> bool:
        return self.topological_order() is not None

    def arc(self, src: str, dst: str) -> Arc | None:
        """The first arc src->dst of the adjacency, or None."""
        for a in self.out_arcs.get(src, ()):
            if a.dst == dst:
                return a
        return None

    def path_cost(self, ship: Ship, path: list[str] | tuple[str, ...]) -> float:
        """Sail costs plus port fees along a start->sink walk (fees on entry);
        a hop that is not an arc is a KeyError naming its pair."""
        cost = 0.0
        for src, dst in zip(path, path[1:]):
            a = self.arc(src, dst)
            if a is None:
                raise KeyError((src, dst))
            cost += a.cost_for(ship.ship_type)
        for node in path[1:]:
            if node != self.sink:
                cost += self.visit_by_id[node].port_fee
        return cost


# -- validation ---------------------------------------------------------------


def validate(instance: Instance) -> ValidationReport:
    """Check every structural invariant; an empty report means every solver
    in this package accepts the instance."""
    rep = ValidationReport()
    known = set(instance.node_ids)

    if instance.sink in instance.visit_by_id:
        rep.add(f"sink {instance.sink!r} must not appear in the visit list")
    if len(instance.visit_by_id) != len(instance.visits):
        rep.add("duplicate visit ids")
    if len(instance.ship_by_id) != len(instance.ships):
        rep.add("duplicate ship ids")
    if len(instance.demand_by_id) != len(instance.demands):
        rep.add("duplicate demand ids")

    start_visits = {s.start_visit for s in instance.ships}
    seen_pairs = set()
    for a in instance.arcs:
        if a.src not in known:
            rep.add(f"arc references undefined visit {a.src!r}")
        if a.dst not in known:
            rep.add(f"arc references undefined visit {a.dst!r}")
        if a.src == a.dst:
            rep.add(f"self-loop arc at {a.src!r}")
        if (a.src, a.dst) in seen_pairs:
            rep.add(f"duplicate arc {a.src}->{a.dst}")
        seen_pairs.add((a.src, a.dst))
        if a.src == instance.sink:
            rep.add(f"sink has outgoing arc to {a.dst!r}")
        if a.dst in start_visits:
            # start visits open a ship's repositioning window; ship flow
            # conservation is undefined for entered start visits
            rep.add(f"arc {a.src}->{a.dst} enters a ship start visit")
        if a.dst == instance.sink:
            for t, c in a.sail_cost:
                if c != 0:
                    rep.add(f"sink arc {a.src}->{a.dst} carries nonzero cost for type {t!r}")
        else:
            for ship_type in instance.ship_types:
                try:
                    c = a.cost_for(ship_type)
                except KeyError:
                    rep.add(f"arc {a.src}->{a.dst} missing sail cost for ship type {ship_type!r}")
                else:
                    if c < 0:
                        rep.add(f"arc {a.src}->{a.dst} has negative sail cost for type {ship_type!r}")

    if not instance.is_acyclic():
        rep.add("graph has a cycle (time-space graph must be a DAG)")

    for v in instance.visits:
        if v.move_cost < 0:
            rep.add(f"visit {v.id!r} has negative move_cost")

    caps_by_type: dict[str, tuple[float, float]] = {}
    starter: dict[str, str] = {}  # start visit -> first ship; node-once rows miss a shared start
    for s in instance.ships:
        if s.start_visit in starter:
            rep.add(f"ships {starter[s.start_visit]!r} and {s.id!r} share start visit {s.start_visit!r}")
        starter.setdefault(s.start_visit, s.id)
        if s.start_visit not in instance.visit_by_id:
            rep.add(f"ship {s.id!r} starts at undefined visit {s.start_visit!r}")
        elif not instance.out_arcs[s.start_visit]:
            rep.add(f"ship {s.id!r} start visit {s.start_visit!r} has no outgoing arc")
        if s.capacity_rf < 0 or s.capacity_dc < 0:
            rep.add(f"ship {s.id!r} has negative capacity")
        if s.capacity_rf > s.capacity_dc:
            rep.add(
                f"ship {s.id!r} capacity ordering violated: "
                f"capacity_rf={s.capacity_rf} > capacity_dc={s.capacity_dc}"
            )
        caps = (s.capacity_dc, s.capacity_rf)
        if s.ship_type in caps_by_type and caps_by_type[s.ship_type] != caps:
            rep.add(f"ships of type {s.ship_type!r} have unequal capacities")
        caps_by_type.setdefault(s.ship_type, caps)

    for m in instance.demands:
        if m.origin not in instance.visit_by_id:
            rep.add(f"demand {m.id!r} references undefined visit {m.origin!r}")
        if not m.destinations:
            rep.add(f"demand {m.id!r} has no destinations")
        for d in m.destinations:
            if d not in instance.visit_by_id:
                rep.add(f"demand {m.id!r} references undefined visit {d!r}")
        if m.origin in m.destinations:
            rep.add(f"demand {m.id!r} origin {m.origin!r} is also a destination")
        if m.amount <= 0:
            rep.add(f"demand {m.id!r} amount must be positive")
        if m.revenue < 0:
            rep.add(f"demand {m.id!r} revenue must be nonnegative")
        if m.cargo_type not in CARGO_TYPES:
            rep.add(f"demand {m.id!r} has unknown cargo type {m.cargo_type!r}")

    seen_points = set()
    for p in instance.empty_points:
        if p.visit not in instance.visit_by_id:
            rep.add(f"empty point references undefined visit {p.visit!r}")
        if p.amount == 0:
            rep.add(f"empty point at {p.visit!r} has zero amount")
        if p.cargo_type not in CARGO_TYPES:
            rep.add(f"empty point at {p.visit!r} has unknown cargo type {p.cargo_type!r}")
        if (p.visit, p.cargo_type) in seen_points:
            rep.add(f"duplicate empty point at {p.visit!r} for type {p.cargo_type!r}")
        seen_points.add((p.visit, p.cargo_type))
    for q, r in instance.empty_revenue.items():
        if r < 0:
            rep.add(f"empty revenue for type {q!r} must be nonnegative")

    # connectivity checks only make sense on a well-formed DAG
    if rep.ok:
        fwd = rep.reach = _reach_masks(instance)
        idx = {n: i for i, n in enumerate(instance.node_ids)}
        sink_bit = 1 << idx[instance.sink]
        from_starts = 0
        for s in instance.ships:
            from_starts |= fwd[s.start_visit]
        for v in instance.visits:
            on_path = bool(from_starts & (1 << idx[v.id])) and bool(fwd[v.id] & sink_bit)
            if instance.ships and not on_path:
                rep.add(f"visit {v.id!r} lies on no ship-start to sink path")
    return rep


# -- reachability -------------------------------------------------------------


def _reach_masks(instance: Instance) -> dict[str, int]:
    """Per-node bitmask of the nodes it reaches (inclusive of the node
    itself), on a graph that validate found acyclic."""
    order = instance.topological_order()
    idx = {n: i for i, n in enumerate(instance.node_ids)}
    masks = {n: 1 << idx[n] for n in instance.node_ids}
    for n in reversed(order):
        for a in instance.out_arcs[n]:
            masks[n] |= masks[a.dst]
    return masks


class ReachIndex:
    """Precomputed reachability and the derived per-demand / per-ship sets.

    demand_arcs[m] is ``arc_set`` of the demand: every arc whose tail the
    origin reaches and from whose head some destination is reachable.  It
    keeps arcs departing a destination toward another one, on purpose: the
    arc-flow models absorb cargo at any destination it enters.  The arcs
    the cargo rides when it unloads at the first destination visited, as
    the lazy solver's column reader assumes and its capacity cuts count,
    are ``carry_arc_set``.
    """

    def __init__(self, instance: Instance):
        report = validate(instance)
        if not report.ok:
            raise InvalidInstanceError(report)
        # the graph, not the instance, which keeps this index: no reference cycle
        self.node_ids = instance.node_ids
        self.out_arcs = instance.out_arcs
        self.sink = instance.sink
        self._idx = {n: i for i, n in enumerate(instance.node_ids)}
        self.fwd = report.reach  # the masks validation computed

        self.demand_arcs: dict[str, frozenset[tuple[str, str]]] = {}
        for m in instance.demands:
            self.demand_arcs[m.id] = self.arc_set(m.origin, m.destinations)

        self.movable: dict[str, frozenset[str]] = {
            s.id: frozenset(
                m.id
                for m in instance.demands
                if self.can_reach(s.start_visit, m.origin) and self.demand_arcs[m.id]
            )
            for s in instance.ships
        }

    def can_reach(self, src: str, dst: str) -> bool:
        """True when dst is reachable from src by zero or more arcs."""
        return bool(self.fwd[src] & (1 << self._idx[dst]))

    def reach_avoiding(self, src: str, blocked: Iterable[str]) -> set[str]:
        """Nodes reachable from src without expanding any blocked node.

        src is always included; blocked nodes may be *entered* but the walk
        stops there (cargo absorbed at a destination cannot travel on).
        """
        blocked = set(blocked)
        seen = {src}
        stack = [src] if src not in blocked else []
        while stack:
            n = stack.pop()
            for a in self.out_arcs[n]:
                if a.dst not in seen:
                    seen.add(a.dst)
                    if a.dst not in blocked:
                        stack.append(a.dst)
        return seen

    def arc_set(self, origin: str, destinations: Iterable[str]) -> frozenset[tuple[str, str]]:
        """Arcs a demand with this origin/destination set can travel across:
        the tail must be reachable from the origin and some destination must
        be reachable from the head (endpoints i=origin and j in d included)."""
        tails = (i for i in self.node_ids if i != self.sink and self.can_reach(origin, i))
        return self._arcs_toward(tails, set(destinations))

    def carry_arc_set(self, origin: str, destinations: Iterable[str]) -> frozenset[tuple[str, str]]:
        """Arcs the demand can be aboard a ship on when it unloads at the
        first visited destination: walks from the origin stop at destination
        nodes, so arcs departing a destination are excluded."""
        dests = set(destinations)
        return self._arcs_toward(self.reach_avoiding(origin, dests) - dests, dests)

    def _arcs_toward(self, tails: Iterable[str], dests: set[str]) -> frozenset[tuple[str, str]]:
        """Arcs out of the tails, other than into the sink, from whose head
        some destination is reachable."""
        arcs = set()
        for i in tails:
            for a in self.out_arcs[i]:
                if a.dst != self.sink and any(self.can_reach(a.dst, d) for d in dests):
                    arcs.add((i, a.dst))
        return frozenset(arcs)


def build_reach_index(instance: Instance) -> ReachIndex:
    """The instance's one reach index, built and kept on the first call; an
    invalid instance raises InvalidInstanceError on every call."""
    if instance._reach is None:
        instance._reach = ReachIndex(instance)
    return instance._reach


def path_count(instance: Instance, ship_id: str) -> int:
    """Exact number of start->sink directed paths (saturating at a cap)."""
    ship = instance.ship_by_id.get(ship_id)
    if ship is None:
        raise KeyError(f"unknown ship {ship_id!r}")
    order = instance.topological_order()
    if order is None:
        raise InvalidInstanceError(ValidationReport(["graph has a cycle"]))
    counts = {n: 0 for n in instance.node_ids}
    counts[instance.sink] = 1
    for n in reversed(order):
        if n == instance.sink:
            continue
        total = 0
        for a in instance.out_arcs[n]:
            total += counts[a.dst]
        counts[n] = min(total, PATH_COUNT_CAP)
    return counts[ship.start_visit]


def enumerate_paths(instance: Instance, start: str) -> list[tuple[str, ...]]:
    """All simple start->sink paths in deterministic (arc input) order."""
    sink = instance.sink
    paths: list[tuple[str, ...]] = []
    stack: list[tuple[str, tuple[str, ...]]] = [(start, (start,))]
    # DFS with explicit stack, expanding arcs in reverse so output order is
    # the natural depth-first order over the arc lists
    while stack:
        node, path = stack.pop()
        if node == sink:
            paths.append(path)
            continue
        for a in reversed(instance.out_arcs[node]):
            stack.append((a.dst, path + (a.dst,)))
    return paths

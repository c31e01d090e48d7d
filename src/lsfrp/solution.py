"""Solver result container shared by every method."""

from __future__ import annotations

from dataclasses import dataclass, field

# solver statuses
OPTIMAL = "optimal"
TIME_LIMIT = "time_limit"
INFEASIBLE = "infeasible"
NO_DISJOINT_ROUTING = "no_disjoint_routing"
REFUSED = "refused"  # oracle enumeration budget exceeded
BREAKDOWN = "breakdown"  # the embedded LP kernel failed numerically


@dataclass
class DemandFlow:
    demand: str
    ship: str
    destination: str
    amount: float


@dataclass
class EmptyFlow:
    cargo_type: str
    ship: str
    src: str
    dst: str
    amount: float


@dataclass
class Diagnostics:
    columns_generated: int = 0
    rmp_iterations: int = 0
    bnb_nodes: int = 0
    pricing_bnb_nodes: int = 0  # summed over every pricing MIP
    cuts_dc: dict[str, int] = field(default_factory=dict)  # per ship
    cuts_rf: dict[str, int] = field(default_factory=dict)
    splits: int = 0
    model_rows: int = 0
    model_cols: int = 0
    model_nonzeros: int = 0
    wall_time_sec: float = 0.0


@dataclass
class Solution:
    method: str
    status: str
    objective: float | None = None
    bound: float | None = None
    ship_paths: dict[str, tuple[str, ...]] = field(default_factory=dict)
    demand_flows: list[DemandFlow] = field(default_factory=list)
    empty_flows: list[EmptyFlow] = field(default_factory=list)
    diagnostics: Diagnostics = field(default_factory=Diagnostics)
    meta: dict = field(default_factory=dict)

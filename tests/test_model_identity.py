"""Every model builder pinned entry for entry.

Each model is reduced to a digest of its dense coefficient matrix,
right-hand sides, senses, bounds, objective and integrality, in row and
column order; row and variable names are left out.  The digests were
frozen from the builders as they stood before the per-ship builders were
shared, so a refactor of the builders must leave every model unchanged.
The "many" instance has more than ten demands, so its ids do not sort in
instance order ("m10" before "m2"): its reduced digests record the one
cargo order of every model, demands sorted by id.
"""

import hashlib
import random

import numpy as np

from lsfrp.formulations import build_reduced, build_revised, build_ship_revised
from lsfrp.io import GeneratorParams, generate_random
from lsfrp.lazy import build_compact_pricing

INSTANCES = {
    "one": GeneratorParams(ships=1, visits=8, demands=6, seed=11),
    "two": GeneratorParams(ships=2, visits=10, demands=8, reefer_fraction=0.5,
                           capacity_dc_range=(25, 60), amount_range=(10, 45), seed=12),
    "three": GeneratorParams(ships=3, ship_types=2, visits=12, demands=10, seed=13),
    "empties": GeneratorParams(ships=3, visits=12, demands=8, empty_points=4, seed=14),
    "many": GeneratorParams(ships=2, ship_types=2, visits=12, demands=12, reefer_fraction=0.5,
                            seed=16),
}

PINNED = {
    "one/reduced": "71e37f05598fe4c7",
    "one/reduced-tight": "64d4cad234989b26",
    "one/revised": "64d4cad234989b26",
    "one/arcflow/s0/plain": "585363c3c3958ae3",
    "one/compact/s0/plain": "b610275b5da7e2b8",
    "one/arcflow/s0/priced": "90a5e33c86f265a0",
    "one/compact/s0/priced": "e83c8130e0b18cb8",
    "one/arcflow/s0/excluded": "0c8dc0cd3e4062d4",
    "one/compact/s0/excluded": "d6cf4b85519bcc8d",
    "two/reduced": "4f15f48cedc2c7cd",
    "two/reduced-tight": "a6286619ef0585a9",
    "two/revised": "097576f404887518",
    "two/arcflow/s0/plain": "ce94df09907f452b",
    "two/compact/s0/plain": "3e7ebcd721b9580b",
    "two/arcflow/s0/priced": "96a6a19f05767199",
    "two/compact/s0/priced": "c764ac0e678d525a",
    "two/arcflow/s0/excluded": "b83d60d7a9a02f40",
    "two/compact/s0/excluded": "15cbed81ec0ded86",
    "two/arcflow/s1/plain": "54a19adefeaca63b",
    "two/compact/s1/plain": "bb54e1e06900fc8c",
    "two/arcflow/s1/priced": "69a6c068a3659693",
    "two/compact/s1/priced": "3698f9e49d7ffde4",
    "two/arcflow/s1/excluded": "d53e87f248682a9c",
    "two/compact/s1/excluded": "b6f04101b8257c9f",
    "three/reduced": "ced295f12b909275",
    "three/reduced-tight": "e93947ad85a748a3",
    "three/revised": "7c6de73be2cb9c28",
    "three/arcflow/s0/plain": "78aec8563a291f26",
    "three/compact/s0/plain": "f77687baf648e1f8",
    "three/arcflow/s0/priced": "828095509bd6a809",
    "three/compact/s0/priced": "2e0b1abd29663e6d",
    "three/arcflow/s0/excluded": "39d9f24d35643fa6",
    "three/compact/s0/excluded": "6ada437c19f76411",
    "three/arcflow/s1/plain": "cc866e4817a6d4e4",
    "three/compact/s1/plain": "e561e4f17384d497",
    "three/arcflow/s1/priced": "64e1c9f5cc17ccb2",
    "three/compact/s1/priced": "d2c8f29493d1b275",
    "three/arcflow/s1/excluded": "64e1c9f5cc17ccb2",
    "three/compact/s1/excluded": "d2c8f29493d1b275",
    "three/arcflow/s2/plain": "317d2cab4fa1f01d",
    "three/compact/s2/plain": "9f0987cb937f5b23",
    "three/arcflow/s2/priced": "080d9bbe9a86ad47",
    "three/compact/s2/priced": "ad57b3215fdb846b",
    "three/arcflow/s2/excluded": "c5a545de13eae4ee",
    "three/compact/s2/excluded": "3f0cc2ca89db5767",
    "empties/compact/s0/plain": "2bd51664c594f8d8",
    "empties/compact/s0/priced": "fb8cbaa787a7ba67",
    "empties/compact/s0/excluded": "b2f8a91680528c51",
    "empties/compact/s1/plain": "87fb4579b2026528",
    "empties/compact/s1/priced": "81f900cce15cf2b5",
    "empties/compact/s1/excluded": "88ef67f60d1e825f",
    "empties/compact/s2/plain": "f4e492eccd9d2316",
    "empties/compact/s2/priced": "b8d1595a7f4ce145",
    "empties/compact/s2/excluded": "634283f08173d78b",
    "many/reduced": "603265663896f058",
    "many/reduced-tight": "0f4cd701a317a088",
    "many/revised": "2bc47cb437600463",
    "many/arcflow/s0/plain": "2cfa363c3e3c7db8",
    "many/compact/s0/plain": "4b7fc5ee515277a8",
    "many/arcflow/s0/priced": "8741321c40fa3c61",
    "many/compact/s0/priced": "30cd2044dc03b8f4",
    "many/arcflow/s0/excluded": "768aa4707df85558",
    "many/compact/s0/excluded": "d18aefe88e4124af",
    "many/arcflow/s1/plain": "d53a19e288a17f99",
    "many/compact/s1/plain": "907cafb1a9654a38",
    "many/arcflow/s1/priced": "b23d88da9e6ab1f1",
    "many/compact/s1/priced": "ee0307dc7cabeaee",
    "many/arcflow/s1/excluded": "f9aa85a529c0bc48",
    "many/compact/s1/excluded": "cb1ea92ef3839302",
}


def model_digest(model) -> str:
    if model is None:
        return "none"
    A = np.zeros((model.num_rows, model.num_vars))
    for i, r in enumerate(model.rows):
        for j, c in r.coeffs.items():
            A[i, j] = c
    h = hashlib.sha256(f"{model.num_rows}x{model.num_vars}".encode())
    for values in (A, [r.rhs for r in model.rows], model.lb, model.ub, model.obj):
        h.update((np.asarray(values, dtype=float) + 0.0).tobytes())  # folds -0.0 into 0.0
    h.update("".join(r.sense for r in model.rows).encode())
    h.update(bytes(model.is_int))
    return h.hexdigest()[:16]


def _pricing_options(instance, seed):
    """Per ship: no options, node prices, and node prices with two
    visits other than the ship's start excluded."""
    rng = random.Random(seed)
    prices = {v.id: rng.uniform(-10.0, 40.0) for v in instance.visits}
    for ship in instance.ships:
        others = sorted(v.id for v in instance.visits if v.id != ship.start_visit)
        excluded = frozenset(rng.sample(others, 2))
        yield ship, "plain", {}, frozenset()
        yield ship, "priced", prices, frozenset()
        yield ship, "excluded", prices, excluded


def digests() -> dict[str, str]:
    out = {}
    for label, params in INSTANCES.items():
        ins = generate_random(params)
        if not ins.empty_points:
            out[f"{label}/reduced"] = model_digest(build_reduced(ins)[0])
            out[f"{label}/reduced-tight"] = model_digest(build_reduced(ins, tighten=True)[0])
            out[f"{label}/revised"] = model_digest(build_revised(ins)[0])
        for ship, variant, prices, excluded in _pricing_options(ins, params.seed):
            if not ins.empty_points:
                built = build_ship_revised(ins, ship, prices, excluded)
                out[f"{label}/arcflow/{ship.id}/{variant}"] = model_digest(
                    None if built is None else built[0]
                )
            ctx = build_compact_pricing(ins, ship.id, prices, excluded=excluded)
            out[f"{label}/compact/{ship.id}/{variant}"] = model_digest(
                None if ctx is None else ctx.model
            )
    return out


def test_every_model_matches_its_pinned_digest():
    assert digests() == PINNED

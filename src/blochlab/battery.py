"""Curated and randomized symbol batteries.

The curated entries are config dictionaries (the same shape the CLI
parses) with expected headline verdicts where a closed-form argument
pins them down; entries without an expectation are classified and
cross-checked only.  The randomized battery draws Blaschke-type and
affine self-maps with low-degree polynomial multipliers from a seeded
generator, for classifier/oracle agreement sweeps.
"""

from __future__ import annotations

import numpy as np

from .disk_functions import (
    Affine,
    BlaschkeFactor,
    FiniteBlaschkeProduct,
    MonomialPower,
    PowerSeries,
    ScaledMap,
    SymbolPair,
)

__all__ = ["CURATED", "random_pairs"]

_ALL_TASKS = [
    "bounded_bloch",
    "compact_bloch",
    "bounded_little_bloch",
    "compact_little_bloch",
    "lemma_probes",
    "oracle",
]

CURATED: dict[str, dict] = {
    "half-scale": {
        "config": {
            "symbol": {"u": {"constant": 1.0}, "phi": {"monomial": {"degree": 1, "scale": 0.5}}},
            "space": "bergman:2",
            "tasks": _ALL_TASKS,
        },
        "expect": {"bounded_bloch": True, "compact_bloch": True,
                   "bounded_little_bloch": True, "compact_little_bloch": True},
    },
    "identity-into-bloch": {
        "config": {
            "symbol": {"u": {"constant": 1.0}, "phi": "identity"},
            "space": "bergman:2",
            "tasks": ["bounded_bloch", "lemma_probes", "oracle"],
        },
        "expect": {"bounded_bloch": False},
    },
    "zero-multiplier": {
        "config": {
            "symbol": {"u": {"constant": 0.0}, "phi": {"monomial": {"degree": 1, "scale": 0.5}}},
            "space": "bergman:2",
            "tasks": _ALL_TASKS,
        },
        "expect": {"bounded_bloch": True, "compact_bloch": True,
                   "bounded_little_bloch": True, "compact_little_bloch": True},
    },
    "blaschke-rotor": {
        "config": {
            "symbol": {"u": {"power_series": [0.0, 1.0]}, "phi": {"blaschke": {"base": 0.4}}},
            "space": "bergman:2",
            "tasks": ["bounded_bloch", "lemma_probes", "oracle"],
        },
        "expect": {"bounded_bloch": False},
    },
    "boundary-touch": {
        "config": {
            "symbol": {
                "u": {"power_series": [1.0, -2.0, 1.0]},
                "phi": {"affine": {"a": 0.5, "b": 0.5}},
            },
            "space": "bergman:2",
            "tasks": ["bounded_bloch", "compact_bloch", "oracle"],
        },
        # no preassigned labels: the touch point reaches the boundary, so the
        # verdicts are whatever the profiles and the oracle trend say
        "expect": {},
    },
    "constant-target": {
        "config": {
            "symbol": {"u": {"power_series": [0.0, 1.0]}, "phi": {"affine": {"a": 0.0, "b": 0.0}}},
            "space": "bergman:2",
            "tasks": _ALL_TASKS,
        },
        "expect": {"bounded_bloch": True, "compact_bloch": True},
    },
}


def _random_disk_point(rng, max_mod=0.9):
    radius = max_mod * np.sqrt(rng.uniform(0.05, 1.0))
    return radius * np.exp(2j * np.pi * rng.uniform())


def _random_polynomial(rng) -> PowerSeries:
    degree = int(rng.integers(0, 4))
    coeffs = rng.uniform(-1.0, 1.0, degree + 1) + 1j * rng.uniform(-1.0, 1.0, degree + 1)
    # keep the constant term away from zero so the multiplier does not
    # accidentally vanish along the whole boundary chase
    coeffs[0] += 0.5 * np.sign(coeffs[0].real or 1.0)
    return PowerSeries(coeffs)


def _random_self_map(rng, kind: str):
    if kind == "affine_strict":
        a = _random_disk_point(rng, 0.6)
        b = _random_disk_point(rng, max(1e-3, 0.9 - abs(a)))
        return Affine(a, b)
    if kind == "affine_touching":
        frac = rng.uniform(0.3, 0.7)
        pa, pb = np.exp(2j * np.pi * rng.uniform(size=2))
        return Affine(frac * pa, (1.0 - frac) * pb)
    if kind == "blaschke":
        return BlaschkeFactor(_random_disk_point(rng, 0.7))
    if kind == "blaschke_product":
        bases = [_random_disk_point(rng, 0.6) for _ in range(2)]
        return FiniteBlaschkeProduct(bases, np.exp(2j * np.pi * rng.uniform()))
    if kind == "scaled_blaschke":
        return ScaledMap(rng.uniform(0.5, 0.9), BlaschkeFactor(_random_disk_point(rng, 0.6)))
    if kind == "monomial":
        return MonomialPower(int(rng.integers(2, 5)), 1.0)
    raise ValueError(kind)


_KINDS = ("affine_strict", "blaschke", "scaled_blaschke", "monomial",
          "affine_touching", "blaschke_product")


def random_pairs(seed: int = 7, count: int = 20) -> list[tuple[str, SymbolPair]]:
    """Seeded battery of (label, symbol pair), cycling the map families."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        kind = _KINDS[i % len(_KINDS)]
        phi = _random_self_map(rng, kind)
        u = _random_polynomial(rng)
        out.append((f"{kind}-{i:02d}", SymbolPair(u, phi)))
    return out

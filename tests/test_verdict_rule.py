"""The one verdict rule of ``blochlab.criteria`` against the separate rule
bodies it replaced (``golden_reference``), and the facts about sample-table
profiles that make the two agree.

The separate bodies selected the divergence bands without the ``modulus < 1``
filter of the slope fit, and the stand-alone tail rule also decided profiles
with fewer than three nonempty values.  Neither difference is reachable from
a sample table: every ``|z|`` profile is full and every band supremum is
attained below modulus 1, which ``test_table_profiles_are_full_in_z_and_attained_below_one``
pins on the curated configs, the ``deep-classify`` configs of seed 1 and
the curated Blaschke rotor at depth 50, where an unclipped ``|phi|`` rounds
to 1.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochlab import RadialGrid, SpaceSpec
from blochlab.battery import CURATED, random_pairs
from blochlab.cli import parse_config
from blochlab.criteria import SampleTable, _limit_type_verdict, _tail_holds
from blochlab.norms import TRIGGER_PHI, TRIGGER_Z, boundary_profile
from bench_module import bench_workloads
from golden_reference import (
    reference_is_little_bloch,
    reference_limit_verdict,
    reference_sup_verdict,
    reference_u_tail,
)

QUOTIENTS = ("u_prime", "u_phi_prime")
QUANTITIES = QUOTIENTS + ("u_prime_plain", "u_phi_prime_plain")
# the grids at which the random battery's pairs are classified and probed
PAIR_GRIDS = (RadialGrid(12, 128, 8), RadialGrid(16, 128, 8))
# deep enough that the rotor's |phi| rounds to 1 on some samples unless clipped
DEPTH_50 = {"depth": 50, "angular_nodes": 256, "panel_order": 8}
CASES = ([f"curated/{name}" for name in sorted(CURATED)]
         + ["depth-50/blaschke-rotor", "deep/1", "pairs/1", "pairs/2", "pairs/3"])


def _deep_configs(seed: int) -> list:
    """The ``deep-classify`` benchmark configs of ``seed``: 40x2048x12."""
    texts = bench_workloads().deep_config_texts(seed)
    return [(label, parse_config(text)) for label, text in texts]


def _tables(case: str):
    """The sample tables of a case, one at a time, with their labels."""
    kind, _, key = case.partition("/")
    if kind == "pairs":
        for label, sym in random_pairs(int(key)):
            for grid in PAIR_GRIDS:
                yield f"{label}@{grid.depth}", SampleTable(sym, SpaceSpec.bergman(2), grid)
        return
    if kind == "deep":
        configs = _deep_configs(int(key))
    else:
        doc = dict(CURATED[key]["config"], **({"grid": DEPTH_50} if kind == "depth-50" else {}))
        configs = [(key, parse_config(doc))]
    for label, config in configs:
        yield label, SampleTable(config.symbol, config.space, config.grid)


@functools.lru_cache(maxsize=None)
def _readings(case: str) -> list:
    """Per table of a case: its label, every verdict read by the merged rule
    and by the reference as ``(rule, repr, reference repr)``, and every
    profile keyed by ``(quantity, trigger)``."""
    readings = []
    for label, table in _tables(case):
        profiles = {(name, trigger): table.profile(name, trigger)
                    for name in QUANTITIES for trigger in (TRIGGER_Z, TRIGGER_PHI)}
        pairs = [("u_tail", table.u_tail, reference_u_tail(table))]
        pairs += [(f"sup {name}", table._sup_type_verdict(name), reference_sup_verdict(table, name))
                  for name in QUOTIENTS]
        pairs += [(f"limit {name} {trigger}", _limit_type_verdict(name, prof), reference_limit_verdict(name, prof))
                  for (name, trigger), prof in profiles.items()]
        readings.append((label, [(rule, repr(a.to_dict()), repr(b.to_dict())) for rule, a, b in pairs], profiles))
    return readings


@pytest.mark.parametrize("case", CASES)
def test_the_verdict_rule_reads_every_table_as_the_separate_rules(case):
    for label, pairs, _ in _readings(case):
        for rule, got, want in pairs:
            assert got == want, f"{case} {label}: {rule}"


@pytest.mark.parametrize("case", [case for case in CASES if not case.startswith("pairs/")])
def test_table_profiles_are_full_in_z_and_attained_below_one(case):
    for label, _, profiles in _readings(case):
        for (name, trigger), profile in profiles.items():
            where = f"{case} {label}: {name} {trigger}"
            if trigger == TRIGGER_Z:
                assert not profile.empty.any(), where
            moduli = profile.band_moduli[np.isfinite(profile.band_moduli)]
            assert np.all(moduli < 1.0), where


@st.composite
def limit_profiles(draw):
    """A ``|phi|`` profile from a few samples at moduli below 1, as in every
    sample table: zeros, NaN samples (NaN bands), power laws that climb or
    decay, and regions left empty, down to fewer than three nonempty values."""
    depth = draw(st.integers(4, 12))
    size = draw(st.integers(0, 40))
    # 1 - modulus, log-uniform or uniform, at least 2**-(depth + 2)
    gaps = st.floats(0.0, depth + 2.0).map(lambda e: 2.0 ** -e) | st.floats(2.0 ** -(depth + 2), 1.0)
    reach = draw(st.sampled_from([1.0, 1.0, 1.0, 0.8]))  # 0.8: the first two bands at most
    moduli = reach * (1.0 - np.array(draw(st.lists(gaps, min_size=size, max_size=size))))
    kind = draw(st.sampled_from(["power", "mixed", "zero"]))
    if kind == "power":
        exponent, scale = draw(st.floats(-1.0, 2.0)), draw(st.floats(1e-12, 1e3))
        quantity = scale * (1.0 - moduli) ** -exponent
    else:
        value = st.just(0.0) if kind == "zero" else st.sampled_from([0.0, math.nan]) | st.floats(0.0, 1e6)
        quantity = np.array(draw(st.lists(value, min_size=size, max_size=size)), dtype=float)
    return boundary_profile(quantity, moduli, depth, TRIGGER_PHI)


@given(profile=limit_profiles(), reference=st.floats(0.0, 1e3))
@settings(max_examples=200, deadline=None)
def test_the_limit_rule_reads_generated_profiles_as_the_separate_rule(profile, reference):
    assert repr(_limit_type_verdict("q", profile).to_dict()) == repr(reference_limit_verdict("q", profile).to_dict())
    vals = profile.nonempty_values
    if vals.size >= 3:  # the stand-alone tail rule also decided shorter profiles, which no table has
        assert _tail_holds(vals, reference) == reference_is_little_bloch(profile, reference)

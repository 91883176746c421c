"""Tests for the signature accuracy harness (Figure 15 machinery)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import accuracy
from repro.analysis.accuracy import (
    AccuracyRow,
    average_compressed_bits,
    collect_tm_samples,
    false_positive_fraction,
    sweep_signature_configs,
)
from repro.core.backend import backend_names
from repro.core.permutation import BitPermutation
from repro.core.rle import rle_size_bits
from repro.core.signature import Signature, flat_intersects
from repro.core.signature_config import (
    SignatureConfig,
    TABLE8_CONFIGS,
    default_tm_config,
    table8_config,
)
from repro.mem.address import Granularity
from repro.sim.rng import SubstreamRng


def hand_samples():
    """Samples with known-disjoint sets (clustered, like real traffic)."""
    samples = []
    for i in range(40):
        base_w = (i * 977) << 8
        base_r = ((i * 977) << 8) + 0x100000
        wc = frozenset(base_w + j for j in range(8))
        rr = frozenset(base_r + j for j in range(20))
        samples.append((wc, rr, frozenset()))
    return samples


class TestFalsePositiveFraction:
    def test_empty_samples(self):
        assert false_positive_fraction(default_tm_config(), []) == 0.0

    def test_tiny_signature_aliases_more(self):
        tiny = SignatureConfig.make((4, 4), Granularity.LINE, name="tiny")
        big = default_tm_config()
        samples = hand_samples()
        assert false_positive_fraction(tiny, samples) >= (
            false_positive_fraction(big, samples)
        )

    def test_true_dependences_always_fire(self):
        # Not a "false" positive: overlapping sets must intersect.
        config = default_tm_config()
        overlap = [(frozenset({1, 2}), frozenset({2}), frozenset())]
        assert false_positive_fraction(config, overlap) == 1.0


class TestSweep:
    def test_rows_cover_requested_configs(self):
        subset = {k: TABLE8_CONFIGS[k] for k in ("S1", "S14")}
        rows = sweep_signature_configs(
            subset, hand_samples(), permutations_per_config=1
        )
        assert [row.name for row in rows] == ["S1", "S14"]
        for row in rows:
            assert row.fp_best <= row.fp_nominal <= row.fp_worst
            assert row.full_size_bits == TABLE8_CONFIGS[row.name].size_bits

    def test_compressed_smaller_than_full(self):
        config = TABLE8_CONFIGS["S14"]
        assert 0 < average_compressed_bits(config, hand_samples()) < 2048


def reference_rows(configs, samples, permutations_per_config, seed):
    """The sweep, written naively: every sample's three signatures built
    one by one, Equation 1 through ``Signature.intersects``, and every
    sample's committed-write signature sized on its own."""

    def fp_fraction(config):
        if not samples:
            return 0.0
        positives = 0
        for committed_writes, receiver_reads, receiver_writes in samples:
            w_c = Signature.from_addresses(config, committed_writes)
            r_r = Signature.from_addresses(config, receiver_reads)
            w_r = Signature.from_addresses(config, receiver_writes)
            if w_c.intersects(r_r) or w_c.intersects(w_r):
                positives += 1
        return positives / len(samples)

    rng = SubstreamRng(seed)
    rows = []
    for name in sorted(configs, key=lambda n: (len(n), n)):
        config = configs[name]
        fractions = [fp_fraction(config)]
        for index in range(permutations_per_config):
            permutation = BitPermutation.shuffled(
                config.granularity.address_bits,
                rng.stream("figure15", name, index),
            )
            fractions.append(fp_fraction(config.with_permutation(permutation)))
        compressed = 0.0
        if samples:
            compressed = sum(
                rle_size_bits(Signature.from_addresses(config, writes))
                for writes, _, _ in samples
            ) / len(samples)
        rows.append(AccuracyRow(
            name=name,
            full_size_bits=config.size_bits,
            avg_compressed_bits=compressed,
            fp_nominal=fractions[0],
            fp_best=min(fractions),
            fp_worst=max(fractions),
        ))
    return rows


def _tiny(chunks, granularity):
    return SignatureConfig.make(chunks, granularity, name="tiny")


#: Tiny layouts alias constantly (so both Equation 1 outcomes occur),
#: plus Table 8 extremes, each at both granularities.
SWEEP_CONFIGS = {
    f"{label}-{granularity.value}": make(granularity)
    for granularity in (Granularity.LINE, Granularity.WORD)
    for label, make in (
        ("T22", lambda g: _tiny((2, 2), g)),
        ("T3", lambda g: _tiny((3,), g)),
        ("S1", lambda g: table8_config("S1", g)),
        ("S14", lambda g: table8_config("S14", g)),
        ("S23", lambda g: table8_config("S23", g)),
    )
}

# Clustered addresses (like real traffic) plus arbitrary 26-bit ones,
# which fit both granularities.
sweep_addresses = st.one_of(
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=(1 << 26) - 1),
)
# A small pool of sides, so samples repeat sides and share addresses
# (true overlaps); the empty side is always in the pool.
side_pools = st.lists(
    st.frozensets(sweep_addresses, max_size=6), min_size=1, max_size=6
).map(lambda pool: [frozenset()] + pool)


@st.composite
def sweep_samples(draw):
    pool = draw(side_pools)
    picks = st.integers(min_value=0, max_value=len(pool) - 1)
    triples = draw(st.lists(st.tuples(picks, picks, picks), max_size=12))
    return [(pool[c], pool[r], pool[w]) for c, r, w in triples]


@settings(max_examples=60, deadline=None)
@given(
    names=st.lists(st.sampled_from(sorted(SWEEP_CONFIGS)), min_size=1,
                   max_size=3, unique=True),
    samples=sweep_samples(),
    permutations=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=2**16),
)
# W_C {0} and R_R {4} share V_1 bit 0 but not V_2 under (2, 2) chunks:
# Equation 1 must say "no" on the last field's emptiness alone.
@example(names=["T22-line"],
         samples=[(frozenset({0}), frozenset({4}), frozenset())],
         permutations=0, seed=0)
def test_sweep_matches_per_sample_reference(names, samples, permutations, seed):
    """The batched kernel's rows equal the naive per-sample sweep's."""
    configs = {name: SWEEP_CONFIGS[name] for name in names}
    assert sweep_signature_configs(
        configs, samples, permutations_per_config=permutations, seed=seed
    ) == reference_rows(configs, samples, permutations, seed)


def test_differential_test_catches_planted_intersect_bug(monkeypatch):
    """Mutation check: an Equation 1 helper that skips the last field's
    emptiness test, planted where the sweep looks it up, must make the
    differential test fail (the reference's ``Signature.intersects`` is
    left intact)."""

    def skips_last_field(field_masks, register, other):
        return flat_intersects(field_masks[:-1], register, other)

    monkeypatch.setattr(accuracy, "flat_intersects", skips_last_field)
    with pytest.raises(AssertionError):
        test_sweep_matches_per_sample_reference()


class TestBackend:
    @pytest.mark.parametrize("backend", backend_names())
    def test_rows_identical_under_every_backend(self, backend):
        subset = {k: TABLE8_CONFIGS[k] for k in ("S2", "S14", "S23")}
        packed = sweep_signature_configs(
            subset, hand_samples(), permutations_per_config=1
        )
        assert sweep_signature_configs(
            subset, hand_samples(), permutations_per_config=1, backend=backend
        ) == packed

    def test_sample_collection_runs_under_the_backend(self):
        packed = collect_tm_samples(
            apps=["series"], txns_per_thread=3, max_samples_per_app=50
        )
        assert collect_tm_samples(
            apps=["series"], txns_per_thread=3, max_samples_per_app=50,
            backend="numpy",
        ) == packed


class TestSampleCollection:
    def test_samples_have_disjoint_exact_sets(self):
        samples = collect_tm_samples(
            apps=["series"], txns_per_thread=4, max_samples_per_app=100
        )
        assert samples
        for wc, rr, wr in samples:
            assert wc  # empty write sets are filtered
            assert not (wc & rr) and not (wc & wr)

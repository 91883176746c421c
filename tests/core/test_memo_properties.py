"""Hypothesis property tests for the hot-path fast lanes.

The PR's batching and memoisation layers are only admissible because
they are *strictly semantics-preserving*; these properties pin that:

* ``Signature.add_many`` (and the ``flat_mask_many`` batch encode under
  it) must be bit-identical to a sequential ``add`` loop, across every
  Table 8 configuration and both address granularities;
* :class:`~repro.core.decode.CachedDecoder` must return exactly what the
  uncached :class:`~repro.core.decode.DeltaDecoder` computes, including
  across cache-eviction boundaries (exercised with a deliberately tiny
  capacity);
* the memo-free table encode ``flat_masks`` and the flat-register
  Equation 1 helper ``flat_intersects`` (the accuracy sweep's kernels)
  must agree with the memoised single and batch encodes and with
  ``Signature.intersects``, under random permutations too, and
  ``flat_masks`` must leave the encode memo exactly as it found it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backend.pure import PureSignature
from repro.core.decode import CachedDecoder, DeltaDecoder
from repro.core.permutation import BitPermutation
from repro.core.signature import Signature, flat_intersects
from repro.core.signature_config import TABLE8_CHUNKS, table8_config
from repro.mem.address import Granularity

# Every Table 8 chunk layout at both granularities.  Built once: config
# construction precomputes layouts and each carries its own bounded
# address-encode memo, so reusing instances also exercises memo reuse.
ALL_CONFIGS = [
    table8_config(name, granularity)
    for name in sorted(TABLE8_CHUNKS)
    for granularity in (Granularity.LINE, Granularity.WORD)
]

configs = st.sampled_from(ALL_CONFIGS)
# Wide enough for 30-bit word addresses; masked per-config in the tests.
raw_addresses = st.integers(min_value=0, max_value=(1 << 30) - 1)
address_lists = st.lists(raw_addresses, max_size=48)


def _mask_for(config):
    return (1 << config.granularity.address_bits) - 1


@settings(max_examples=60, deadline=None)
@given(configs, address_lists)
def test_add_many_matches_sequential_add(config, raw):
    """Batch insertion is bit-identical to the per-address loop."""
    mask = _mask_for(config)
    address_list = [address & mask for address in raw]

    sequential = Signature(config)
    for address in address_list:
        sequential.add(address)

    batched = Signature(config)
    batched.add_many(address_list)

    assert batched == sequential
    assert batched.to_flat_int() == sequential.to_flat_int()
    assert batched.fields == sequential.fields


@settings(max_examples=60, deadline=None)
@given(configs, address_lists)
def test_flat_mask_many_is_or_of_flat_masks(config, raw):
    """The batch encode kernel equals the OR-fold of single encodes."""
    mask = _mask_for(config)
    address_list = [address & mask for address in raw]
    folded = 0
    for address in address_list:
        folded |= config.flat_mask(address)
    assert config.flat_mask_many(address_list) == folded


@settings(max_examples=60, deadline=None)
@given(configs, st.lists(address_lists, max_size=6), st.integers(0, 2**32))
def test_cached_decoder_matches_delta_decoder(config, raw_sets, salt):
    """The decode memo never changes a bitmask, whatever the fill."""
    mask = _mask_for(config)
    reference = DeltaDecoder(config, num_sets=64)
    cached = CachedDecoder(config, num_sets=64)
    for raw in raw_sets:
        signature = Signature(config)
        signature.add_many([address & mask for address in raw])
        expected = reference.decode(signature)
        # Twice: the first call may populate the memo, the second hits it.
        assert cached.decode(signature) == expected
        assert cached.decode(signature) == expected


@pytest.mark.parametrize("name", ["S14", "S5", "S21"])
def test_cached_decoder_exact_across_eviction_boundaries(name):
    """A capacity-2 memo keeps returning exact masks while it thrashes."""
    config = table8_config(name, Granularity.LINE)
    reference = DeltaDecoder(config, num_sets=64)
    cached = CachedDecoder(config, num_sets=64, capacity=2)
    cache = cached._decode_cache
    evictions_before = cache.evictions

    rng = random.Random(0xB0B + len(name))
    signatures = []
    for _ in range(8):
        signature = Signature(config)
        signature.add_many(
            [rng.randrange(1 << 26) for _ in range(rng.randrange(1, 24))]
        )
        signatures.append(signature)

    # Cycle through far more distinct signatures than the memo can hold,
    # revisiting each several times so hits, misses, and evictions all
    # interleave.
    for _ in range(3):
        for signature in signatures:
            assert cached.decode(signature) == reference.decode(signature)

    assert cache.evictions > evictions_before
    assert len(cache) <= 2


# None keeps the configuration's own (identity) permutation; a seed
# rewires it with a random one.
permutation_seeds = st.one_of(st.none(), st.integers(min_value=0, max_value=2**32))


def _permuted(config, seed):
    if seed is None:
        return config
    return config.with_permutation(BitPermutation.shuffled(
        config.granularity.address_bits, random.Random(seed)
    ))


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: (
    f"{c.name}-{c.granularity.value}"
))
@settings(max_examples=10, deadline=None)
@given(seed=permutation_seeds, shared=address_lists, xs=address_lists,
       ys=address_lists)
def test_encode_kernels_agree(config, seed, shared, xs, ys):
    """``flat_masks`` is the per-address ``flat_mask``; its OR-fold is
    ``flat_mask_many``; ``flat_intersects`` is ``Signature.intersects``
    and the per-field definition of Equation 1."""
    config = _permuted(config, seed)
    mask = _mask_for(config)
    a = [address & mask for address in shared + xs]
    b = [address & mask for address in shared + ys]

    masks = config.flat_masks(a)
    assert masks == [config.flat_mask(address) for address in a]
    folded = 0
    for value in masks:
        folded |= value
    assert folded == config.flat_mask_many(a)

    left = Signature.from_addresses(config, a)
    right = Signature.from_addresses(config, b)
    per_field = all(
        x & y
        for x, y in zip(
            PureSignature.from_addresses(config, a).fields,
            PureSignature.from_addresses(config, b).fields,
        )
    )
    assert flat_intersects(
        config.layout.field_masks, left.to_flat_int(), right.to_flat_int()
    ) == left.intersects(right) == per_field


@settings(max_examples=40, deadline=None)
@given(configs, permutation_seeds, address_lists, address_lists)
def test_flat_masks_leaves_the_memo_untouched(config, seed, warm, raw):
    """The memo-free kernel neither reads, fills, nor counts in the
    ``flat_mask`` memo — whether its addresses are memoised or not."""
    config = _permuted(config, seed)
    mask = _mask_for(config)
    for address in warm:
        config.flat_mask(address & mask)
    cache = config._flat_mask_cache
    before = (list(cache._data.items()), cache.hits, cache.misses,
              cache.evictions)
    config.flat_masks([address & mask for address in warm + raw])
    assert (list(cache._data.items()), cache.hits, cache.misses,
            cache.evictions) == before

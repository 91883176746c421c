"""Tests for signature expansion over a cache (Section 3.3)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache
from repro.cache.geometry import TM_L1_GEOMETRY, TLS_L1_GEOMETRY
from repro.core.decode import DeltaDecoder
from repro.core.expansion import (
    _line_masks,
    count_expansion_work,
    expand_signature,
    line_may_be_in,
    matched_lines,
)
from repro.core.permutation import BitPermutation
from repro.core.signature import Signature
from repro.core.signature_config import (
    TABLE8_CHUNKS,
    default_tls_config,
    default_tm_config,
    table8_config,
)
from repro.mem.address import Granularity, words_of_line

LINE = tuple(range(16))


def fill_lines(cache, line_addresses):
    for line_address in line_addresses:
        cache.fill(line_address, LINE)


class TestLineMayBeIn:
    def test_line_granularity_direct(self, tm_config):
        signature = Signature.from_addresses(tm_config, {0x123})
        assert line_may_be_in(signature, 0x123)

    def test_word_granularity_lifts_over_words(self, tls_config):
        signature = Signature(tls_config)
        signature.add((0x55 << 4) + 9)  # word 9 of line 0x55
        assert line_may_be_in(signature, 0x55)

    def test_untouched_line_usually_rejected(self, tm_config):
        signature = Signature.from_addresses(tm_config, {0x100})
        assert not line_may_be_in(signature, 0x347261)


class TestExpansion:
    def test_finds_all_matching_cached_lines(self):
        config = default_tm_config()
        cache = Cache(TM_L1_GEOMETRY)
        decoder = DeltaDecoder(config, TM_L1_GEOMETRY.num_sets)
        inserted = {0x10, 0x90, 0x1234}
        fill_lines(cache, inserted | {0x5555, 0x2020})
        signature = Signature.from_addresses(config, inserted)
        found = {line.line_address for _, line in expand_signature(
            signature, cache, decoder
        )}
        assert inserted <= found  # no false negatives among cached lines

    def test_empty_signature_expands_to_nothing(self):
        config = default_tm_config()
        cache = Cache(TM_L1_GEOMETRY)
        decoder = DeltaDecoder(config, TM_L1_GEOMETRY.num_sets)
        fill_lines(cache, {1, 2, 3})
        assert list(expand_signature(Signature(config), cache, decoder)) == []

    def test_expansion_only_walks_selected_sets(self):
        """The Figure 4 point: delta-directed expansion reads far fewer
        tags than a full walk."""
        config = default_tm_config()
        cache = Cache(TM_L1_GEOMETRY)
        decoder = DeltaDecoder(config, TM_L1_GEOMETRY.num_sets)
        fill_lines(cache, set(range(0x100, 0x200)))  # 256 lines cached
        signature = Signature.from_addresses(config, {0x100})
        sets_walked, tags_read, matched = count_expansion_work(
            signature, cache, decoder
        )
        assert sets_walked == 1
        assert tags_read <= TM_L1_GEOMETRY.associativity
        assert matched >= 1

    def test_word_granularity_expansion(self):
        config = default_tls_config()
        cache = Cache(TLS_L1_GEOMETRY)
        decoder = DeltaDecoder(config, TLS_L1_GEOMETRY.num_sets)
        fill_lines(cache, {0x77, 0x99})
        signature = Signature(config)
        signature.add((0x77 << 4) + 3)
        found = {line.line_address for _, line in expand_signature(
            signature, cache, decoder
        )}
        assert 0x77 in found


class TestLineMaskMemo:
    def test_miss_leaves_the_flat_mask_memo_untouched(self):
        """Expansion encodes a line's words memo-free: the per-access
        ``flat_mask`` memo keeps its contents, order and counters."""
        config = table8_config("S14", Granularity.WORD)
        for word in list(words_of_line(0x42)) + [7, 9999]:
            config.flat_mask(word)
        memo = config._flat_mask_cache
        before = (list(memo._data.items()), memo.hits, memo.misses,
                  memo.evictions)
        line_masks = config._line_mask_cache
        misses = line_masks.misses
        for line_address in (0x42, 0x43, 0x1234):
            union, masks = _line_masks(config, line_address)
            assert list(masks) == config.flat_masks(words_of_line(line_address))
        assert line_masks.misses == misses + 3
        assert (list(memo._data.items()), memo.hits, memo.misses,
                memo.evictions) == before


def _scalar_reference(signature, cache, decoder):
    return [
        (set_index, line)
        for set_index in decoder.selected_sets(signature)
        for line in cache.lines_in_set(set_index)
        if line_may_be_in(signature, line.line_address)
    ]


@pytest.mark.parametrize("granularity", [Granularity.LINE, Granularity.WORD])
@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(TABLE8_CHUNKS)),
    seed=st.integers(min_value=0, max_value=2**32),
    cached=st.lists(st.integers(0, (1 << 12) - 1), min_size=1, max_size=64,
                    unique=True),
    picks=st.lists(st.integers(0, 63), max_size=12),
    extra=st.lists(st.integers(0, (1 << 30) - 1), max_size=12),
)
def test_matched_lines_scalar_path_is_line_may_be_in(
    granularity, name, seed, cached, picks, extra
):
    """The batched scalar pass equals the per-candidate lift, over
    random signatures and permuted Table 8 configurations."""
    bits = granularity.address_bits
    config = table8_config(name, granularity).with_permutation(
        BitPermutation.shuffled(bits, random.Random(seed))
    )
    geometry = TLS_L1_GEOMETRY if granularity is Granularity.WORD else (
        TM_L1_GEOMETRY
    )
    cache = Cache(geometry)
    lines = [0x5000 + line for line in cached]
    fill_lines(cache, lines)
    per_line = 16 if granularity is Granularity.WORD else 1
    addresses = [
        lines[pick % len(lines)] * per_line + pick % per_line for pick in picks
    ]
    addresses += [address & ((1 << bits) - 1) for address in extra]
    # The packed class: no vectorised codec, so the scalar path runs.
    signature = Signature.from_addresses(config, addresses)
    assert signature._codec is None
    decoder = DeltaDecoder(config, geometry.num_sets)
    matched = matched_lines(signature, cache, decoder)
    assert matched == _scalar_reference(signature, cache, decoder)
    # No false negatives among the inserted lines still cached.
    found = {line.line_address for _, line in matched}
    inserted = {address // per_line for address in addresses[: len(picks)]}
    assert {
        line for line in inserted if cache.lookup(line, touch=False) is not None
    } <= found

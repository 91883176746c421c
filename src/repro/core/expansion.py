"""Signature expansion over a cache (Section 3.3, Figure 4).

Expansion finds the lines *present in a cache* that may belong to a
signature: ``H^{-1}(S) ∩ T`` where ``T`` is the set of cached line
addresses.  The naive implementation — apply the membership test to every
valid tag — is wasteful; the hardware instead decodes the signature into a
cache-set bitmask with delta, and a small FSM walks only the selected
sets, reading each set's valid line addresses and membership-testing them.

This module reproduces that structure: :func:`matched_lines` (and its
generator wrapper :func:`expand_signature`) walks the
:class:`~repro.core.decode.DeltaDecoder`-selected sets of a
:class:`~repro.cache.Cache` and returns the lines that pass membership.

The membership pass is the codec seam's expansion kernel
(:mod:`repro.core.backend.codec`): all selected sets' resident line tags
are gathered into one batch and, when the signature's backend ships a
vectorised codec, membership-tested against the register in a single
broadcast instead of per-line ``__contains__`` calls.  The scalar path
is :func:`line_may_be_in` per candidate — itself a single flat-mask
intersect per word, with the line→mask encodings memoised per
configuration (one bounded LRU per config, label ``line_mask``).
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.cache.cache import Cache
from repro.cache.line import CacheLine
from repro.core.backend.codec import EXPANSION_VECTOR_MIN_LINES, note_codec
from repro.core.decode import DeltaDecoder
from repro.core.signature import Signature
from repro.core.signature_config import SignatureConfig
from repro.mem.address import Granularity, words_of_line

_LINE_MASK_MISS = object()


def _line_masks(config: SignatureConfig, line_address: int) -> tuple:
    """``(union_mask, per-word flat masks)`` of a line's 16 words.

    The union mask is a cheap negative pre-filter: a signature that
    shares no bit with it cannot contain any word of the line (every
    per-word mask is non-empty, one bit per V_i field).  Memoised in the
    configuration's ``line_mask`` LRU; a miss encodes the words through
    the memo-free :meth:`SignatureConfig.flat_masks`, so expansion never
    evicts the per-access encodes held by the ``flat_mask`` memo.
    """
    cache = config._line_mask_cache
    entry = cache.get(line_address, _LINE_MASK_MISS)
    if entry is _LINE_MASK_MISS:
        masks = tuple(config.flat_masks(words_of_line(line_address)))
        union = 0
        for mask in masks:
            union |= mask
        entry = (union, masks)
        cache.put(line_address, entry)
    return entry


def _word_line_in_flat(config: SignatureConfig, flat: int, line_address: int) -> bool:
    """Whether any word of the line is in the word-granularity
    signature whose flat register is ``flat``."""
    union, masks = _line_masks(config, line_address)
    if not flat & union:
        return False
    for mask in masks:
        if flat & mask == mask:
            return True
    return False


def line_may_be_in(signature: Signature, line_address: int) -> bool:
    """Membership test lifted to line addresses.

    For line-granularity signatures this is the plain membership test.
    For word-granularity signatures a line may be in the signature if *any*
    of its words is — the natural lift the TLS configuration uses when
    walking cache tags.  The per-word test is one flat-mask intersect
    against the memoised line→mask encoding, behind a single-AND
    negative pre-filter on the union of the word masks.
    """
    config = signature.config
    if config.granularity is Granularity.LINE:
        return line_address in signature
    return _word_line_in_flat(config, signature.to_flat_int(), line_address)


def matched_lines(
    signature: Signature,
    cache: Cache,
    decoder: DeltaDecoder,
) -> List[Tuple[int, CacheLine]]:
    """``(set_index, line)`` for cached lines possibly in ``signature``.

    The batched form of Figure 4's walk: decode once, gather every
    selected set's resident lines, then run the membership pass over the
    whole batch — through the backend's vectorised codec when present
    and the batch is large enough to profit, else the scalar
    :func:`line_may_be_in` per candidate (bit-identical either way).

    The result is a snapshot taken before anything is returned, so
    callers may invalidate or replace lines as they consume it (bulk
    invalidation does).
    """
    candidates: List[Tuple[int, CacheLine]] = []
    for set_index in decoder.selected_sets(signature):
        for line in cache.lines_in_set(set_index):
            candidates.append((set_index, line))
    if not candidates:
        return candidates
    codec = signature._codec
    if codec is not None and len(candidates) >= EXPANSION_VECTOR_MIN_LINES:
        note_codec("expansion_vectorised")
        flags = codec.match_lines(
            signature, [line.line_address for _, line in candidates]
        )
    else:
        note_codec("fallback")
        # line_may_be_in per candidate, with the granularity, config and
        # flat register read once for the whole batch.
        config = signature.config
        if config.granularity is Granularity.LINE:
            flags = [line.line_address in signature for _, line in candidates]
        else:
            flat = signature.to_flat_int()
            flags = [
                _word_line_in_flat(config, flat, line.line_address)
                for _, line in candidates
            ]
    return [pair for pair, flag in zip(candidates, flags) if flag]


def expand_signature(
    signature: Signature,
    cache: Cache,
    decoder: DeltaDecoder,
) -> Iterator[Tuple[int, CacheLine]]:
    """Yield ``(set_index, line)`` for cached lines possibly in ``signature``.

    Generator wrapper over :func:`matched_lines` (which see); lines are
    yielded from a pre-walk snapshot, so callers may invalidate or
    replace lines as they iterate (bulk invalidation does).
    """
    yield from matched_lines(signature, cache, decoder)


def count_expansion_work(
    signature: Signature,
    cache: Cache,
    decoder: DeltaDecoder,
) -> Tuple[int, int, int]:
    """Instrumentation: (sets walked, tags read, lines matched).

    Used by the characterisation benchmarks to show how much tag traffic
    delta-directed expansion saves over a full tag walk.
    """
    sets_walked = 0
    tags_read = 0
    matched = 0
    for set_index in decoder.selected_sets(signature):
        sets_walked += 1
        lines = cache.lines_in_set(set_index)
        tags_read += len(lines)
        matched += sum(
            1 for line in lines if line_may_be_in(signature, line.line_address)
        )
    return sets_walked, tags_read, matched

"""Address bit permutations (Figure 2, "Permute" stage).

Before an address is chunked into the C_i bit-fields, its bits are
permuted.  A good permutation groups high-entropy bits together and maps
them into large chunks, which Section 7.5 shows can matter more than raw
signature size.  Table 5 gives the permutations the paper used for TM and
TLS; they are published in the spec format accepted by
:meth:`BitPermutation.from_spec`.

Conventions
-----------
A permutation over ``width`` bits is stored as a tuple ``sources`` where
``sources[i]`` is the *source* bit index whose value lands in *destination*
position ``i`` of the permuted address.  The paper's specs list only the
low destination positions; higher bits stay in place ("The high-order bits
not shown in the permutation stay in their original position").
"""

from __future__ import annotations

import random
from typing import Iterable, List, Sequence, Tuple, Union

from repro.errors import ConfigurationError

#: A spec entry is either a single source bit index or an inclusive
#: ``(low, high)`` range of source bit indices, as in Table 5's notation
#: where ``0-6`` means bits 0 through 6.
SpecEntry = Union[int, Tuple[int, int]]


def _expand_spec(spec: Iterable[SpecEntry]) -> List[int]:
    """Expand a Table 5 style spec into a flat list of source bit indices."""
    sources: List[int] = []
    for entry in spec:
        if isinstance(entry, tuple):
            low, high = entry
            if low > high:
                raise ConfigurationError(f"bad range in permutation spec: {entry}")
            sources.extend(range(low, high + 1))
        else:
            sources.append(entry)
    return sources


class BitPermutation:
    """A bijective rewiring of the bits of an address.

    In hardware this is free (pure wiring); in this model applying a
    permutation costs one table-driven pass over the set bits of the
    address.
    """

    __slots__ = ("width", "sources", "_dest_of", "_byte_tables")

    def __init__(self, width: int, sources: Sequence[int]) -> None:
        if width <= 0:
            raise ConfigurationError(f"permutation width must be positive: {width}")
        if len(sources) != width:
            raise ConfigurationError(
                f"permutation has {len(sources)} entries for width {width}"
            )
        if sorted(sources) != list(range(width)):
            raise ConfigurationError(
                "permutation is not a bijection over bit positions "
                f"0..{width - 1}: {sources!r}"
            )
        self.width = width
        self.sources: Tuple[int, ...] = tuple(sources)
        # dest_of[src] = destination position of source bit `src`.
        dest_of = [0] * width
        for dest, src in enumerate(self.sources):
            dest_of[src] = dest
        self._dest_of: Tuple[int, ...] = tuple(dest_of)
        # Byte-indexed lookup tables: applying the permutation becomes a
        # handful of table lookups and ORs instead of a per-bit loop.
        # This is the hottest operation of the whole library (every load
        # and store of every simulated thread encodes an address).
        # Each entry extends the entry without its lowest set bit by that
        # bit's destination (bits past ``width`` in the top byte map to
        # nothing), so a table costs 255 steps, not 8 per entry.
        num_tables = (width + 7) // 8
        tables = []
        for table_index in range(num_tables):
            low = table_index * 8
            dest_bits = [
                1 << dest_of[low + bit] if low + bit < width else 0
                for bit in range(8)
            ]
            table = [0] * 256
            for value in range(1, 256):
                table[value] = table[value & (value - 1)] | dest_bits[
                    (value & -value).bit_length() - 1
                ]
            tables.append(tuple(table))
        self._byte_tables: Tuple[Tuple[int, ...], ...] = tuple(tables)

    @classmethod
    def identity(cls, width: int) -> "BitPermutation":
        """The permutation that leaves every bit in place."""
        return cls(width, range(width))

    @classmethod
    def from_spec(cls, width: int, spec: Iterable[SpecEntry]) -> "BitPermutation":
        """Build a permutation from Table 5's notation.

        ``spec`` lists the source bits for destination positions 0, 1, ...
        Any bit positions above the spec stay in their original place.
        """
        sources = _expand_spec(spec)
        if len(sources) > width:
            raise ConfigurationError(
                f"permutation spec covers {len(sources)} bits, width is {width}"
            )
        covered = set(sources)
        if len(covered) != len(sources):
            raise ConfigurationError(f"duplicate source bit in spec: {spec!r}")
        for tail in range(len(sources), width):
            if tail in covered:
                raise ConfigurationError(
                    f"source bit {tail} appears in the spec but its destination "
                    "position is above the spec — not an identity tail"
                )
            sources.append(tail)
        return cls(width, sources)

    @classmethod
    def shuffled(cls, width: int, rng: random.Random) -> "BitPermutation":
        """A uniformly random permutation (for the Figure 15 sweeps)."""
        sources = list(range(width))
        rng.shuffle(sources)
        return cls(width, sources)

    def is_identity(self) -> bool:
        """True if this permutation leaves all bits in place."""
        return all(src == dest for dest, src in enumerate(self.sources))

    def apply(self, address: int) -> int:
        """Permute an address's bits.

        Bits above ``width`` are dropped — the address must fit, which the
        signature configuration validates once at construction time.
        """
        result = 0
        for table_index, table in enumerate(self._byte_tables):
            result |= table[(address >> (table_index * 8)) & 0xFF]
        return result

    def destination_of(self, source_bit: int) -> int:
        """Destination position of one source bit (used by delta decode)."""
        if not 0 <= source_bit < self.width:
            raise IndexError(f"source bit {source_bit} out of range")
        return self._dest_of[source_bit]

    def inverse(self) -> "BitPermutation":
        """The permutation undoing this one."""
        return BitPermutation(self.width, self._dest_of)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitPermutation):
            return NotImplemented
        return self.width == other.width and self.sources == other.sources

    def __hash__(self) -> int:
        return hash((self.width, self.sources))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "identity" if self.is_identity() else "custom"
        return f"BitPermutation(width={self.width}, {kind})"

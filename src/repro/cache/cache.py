"""The set-associative write-back cache.

The cache is a passive structure: it answers lookups, accepts fills, and
reports evictions.  *Where* evicted dirty data goes (memory or a
speculative overflow area) and *whether* an access is legal (Set
Restriction, speculative-data nacks) are decided by the layer above — the
BDM plus the protocol glue — exactly as in the paper's hardware split.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Sequence

from repro.cache.geometry import CacheGeometry
from repro.cache.line import CacheLine
from repro.cache.stats import CacheStats
from repro.errors import SimulationError


class Cache:
    """A set-associative, write-back, write-allocate cache with LRU."""

    __slots__ = ("geometry", "stats", "_sets", "_set_mask", "_associativity",
                 "directory", "directory_bit")

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.stats = CacheStats()
        # The geometry's num_sets/set_index are derived properties (a
        # division per call); lookup runs per memory access, so the
        # power-of-two mask and the associativity are pinned here once.
        self._set_mask = geometry.num_sets - 1
        self._associativity = geometry.associativity
        # One OrderedDict per set: line_address -> CacheLine, most recently
        # used last.
        self._sets: List["OrderedDict[int, CacheLine]"] = [
            OrderedDict() for _ in range(geometry.num_sets)
        ]
        #: Optional line-holder directory shared by a machine's caches
        #: (line address -> bitmask of holders), kept by fill/removal.
        self.directory: Optional[Dict[int, int]] = None
        self.directory_bit = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def set_index(self, line_address: int) -> int:
        """Set index of a line address."""
        return line_address & self._set_mask

    def lookup(self, line_address: int, touch: bool = True) -> Optional[CacheLine]:
        """Find a line; optionally refresh its LRU position."""
        cache_set = self._sets[line_address & self._set_mask]
        line = cache_set.get(line_address)
        if line is not None and touch:
            cache_set.move_to_end(line_address)
        return line

    def contains(self, line_address: int) -> bool:
        """Presence test without touching LRU state."""
        return line_address in self._sets[line_address & self._set_mask]

    # ------------------------------------------------------------------
    # Fill and eviction
    # ------------------------------------------------------------------

    def fill(
        self,
        line_address: int,
        words: Sequence[int],
        dirty: bool = False,
    ) -> Optional[CacheLine]:
        """Insert a line, evicting the LRU victim if the set is full.

        Returns the evicted line (the caller decides where its data goes),
        or ``None`` if no eviction was needed.  Filling an already-present
        line is an error — callers must use :meth:`lookup` first.
        """
        index = line_address & self._set_mask
        cache_set = self._sets[index]
        if line_address in cache_set:
            raise SimulationError(
                f"fill of line 0x{line_address:x} already present in set {index}"
            )
        victim: Optional[CacheLine] = None
        directory = self.directory
        if len(cache_set) >= self._associativity:
            victim_address, victim = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_evictions += 1
            if directory is not None:
                self._leave_directory(directory, victim_address)
        cache_set[line_address] = CacheLine(line_address, words, dirty)
        self.stats.fills += 1
        if directory is not None:
            # XOR, not OR (the bit is clear here): a bit a missed removal
            # left behind turns into a missing holder, i.e. a stale read.
            directory[line_address] = (
                directory.get(line_address, 0) ^ self.directory_bit
            )
        return victim

    def _leave_directory(self, directory: Dict[int, int], line_address: int) -> None:
        holders = directory[line_address] ^ self.directory_bit
        if holders:
            directory[line_address] = holders
        else:
            del directory[line_address]

    def victim_if_full(self, line_address: int) -> Optional[CacheLine]:
        """Peek at the line that :meth:`fill` would evict, without evicting.

        The BDM uses this to apply the Set Restriction *before* a fill
        happens (e.g. to write back a non-speculative dirty victim).
        """
        cache_set = self._sets[line_address & self._set_mask]
        if line_address in cache_set or len(cache_set) < self._associativity:
            return None
        return next(iter(cache_set.values()))

    def invalidate(self, line_address: int) -> Optional[CacheLine]:
        """Remove a line, returning it (or ``None`` if absent)."""
        cache_set = self._sets[line_address & self._set_mask]
        line = cache_set.pop(line_address, None)
        if line is not None:
            self.stats.invalidations += 1
            if self.directory is not None:
                self._leave_directory(self.directory, line_address)
        return line

    def clean(self, line_address: int) -> None:
        """Clear a line's dirty bit (after a writeback or downgrade)."""
        line = self.lookup(line_address, touch=False)
        if line is None:
            raise SimulationError(
                f"clean of absent line 0x{line_address:x}"
            )
        line.dirty = False

    # ------------------------------------------------------------------
    # Iteration (used by signature expansion and the protocol glue)
    # ------------------------------------------------------------------

    def lines_in_set(self, set_index: int) -> List[CacheLine]:
        """All valid lines in one set (a stable snapshot list).

        Returning a list, not a view, lets callers invalidate lines while
        iterating — exactly what bulk invalidation does.
        """
        return list(self._sets[set_index].values())

    def dirty_lines_in_set(self, set_index: int) -> List[CacheLine]:
        """The dirty lines of one set."""
        return [line for line in self._sets[set_index].values() if line.dirty]

    def all_lines(self) -> Iterator[CacheLine]:
        """Every valid line in the cache."""
        for cache_set in self._sets:
            yield from cache_set.values()

    def valid_line_count(self) -> int:
        """Number of valid lines currently cached."""
        return sum(len(cache_set) for cache_set in self._sets)

    def flush_all(self) -> List[CacheLine]:
        """Drop every line, returning the dirty ones (for writeback)."""
        dirty: List[CacheLine] = []
        for cache_set in self._sets:
            for line in cache_set.values():
                if line.dirty:
                    dirty.append(line)
                if self.directory is not None:
                    self._leave_directory(self.directory, line.line_address)
            cache_set.clear()
        return dirty

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.geometry.size_bytes // 1024} KB, "
            f"{self.geometry.associativity}-way, "
            f"{self.valid_line_count()} lines valid)"
        )

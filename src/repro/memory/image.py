"""Flat, word-addressed memory image shared by all execution models.

The image stores one numeric value per word.  For cache-geometry purposes
(line splitting, bank interleaving) a word occupies
:data:`WORD_BYTES` bytes, matching the 32-bit words of the modelled
hardware; values themselves are kept as Python/numpy doubles so that
integer indices up to 2**53 and 32-bit float data round-trip exactly and
golden comparisons are bit-simple.

The image also provides a tiny region allocator so kernels and workloads
can lay out their arrays symbolically.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

import numpy as np

from repro.resilience.errors import SimulationError

#: Bytes per machine word (for cache line / bank geometry).
WORD_BYTES = 4

Number = Union[int, float, bool]


class MemoryError_(SimulationError):
    """Out-of-bounds or allocator misuse."""


class MemoryImage:
    """A flat array of words with a bump allocator.

    Addresses are word indices.  ``read``/``write`` are the functional
    interface used by the interpreter and by the simulators' load/store
    paths (timing is modelled separately by the cache hierarchy).
    """

    def __init__(self, size_words: int = 1 << 20):
        if size_words <= 0:
            raise MemoryError_("memory size must be positive")
        self.size = size_words
        self.data = np.zeros(size_words, dtype=np.float64)
        self._next_free = 0
        self._regions: Dict[str, range] = {}

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, name: str, n_words: int) -> int:
        """Reserve ``n_words`` words under ``name``; return the base address."""
        if name in self._regions:
            raise MemoryError_(f"region {name!r} already allocated")
        if n_words < 0:
            raise MemoryError_("allocation size must be non-negative")
        base = self._next_free
        if base + n_words > self.size:
            raise MemoryError_(
                f"out of memory allocating {n_words} words for {name!r}"
            )
        self._next_free += n_words
        self._regions[name] = range(base, base + n_words)
        return base

    def region(self, name: str) -> range:
        """The word-address range of a named region."""
        return self._regions[name]

    def alloc_array(self, name: str, values: Sequence[Number]) -> int:
        """Allocate a region and initialise it from ``values``."""
        base = self.alloc(name, len(values))
        self.write_block(base, values)
        return base

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def _check(self, addr: int) -> int:
        addr = int(addr)
        if not 0 <= addr < self.size:
            raise MemoryError_(f"address {addr} out of bounds [0, {self.size})")
        return addr

    def read(self, addr: int) -> float:
        """The word at ``addr`` (bounds-checked)."""
        return float(self.data[self._check(addr)])

    def write(self, addr: int, value: Number) -> None:
        """Store ``value`` as a double at ``addr`` (bounds-checked)."""
        self.data[self._check(addr)] = float(value)

    def read_block(self, base: int, n: int) -> np.ndarray:
        """A copy of the ``n`` words from ``base`` (bounds-checked)."""
        self._check(base)
        if n:
            self._check(base + n - 1)
        return self.data[base : base + n].copy()

    def write_block(self, base: int, values: Sequence[Number]) -> None:
        """Store ``values`` from ``base`` on, as doubles (bounds-checked)."""
        values = np.asarray(values, dtype=np.float64)
        self._check(base)
        if len(values):
            self._check(base + len(values) - 1)
        self.data[base : base + len(values)] = values

    def read_region(self, name: str) -> np.ndarray:
        """A copy of the named region's words."""
        r = self._regions[name]
        return self.data[r.start : r.stop].copy()

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def clone(self) -> "MemoryImage":
        """Deep copy, including allocator state (for golden comparisons)."""
        other = MemoryImage(self.size)
        other.data[:] = self.data
        other._next_free = self._next_free
        other._regions = dict(self._regions)
        return other

    def byte_address(self, word_addr: int) -> int:
        """The byte address of a word (for cache-line arithmetic)."""
        return int(word_addr) * WORD_BYTES

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryImage):
            return NotImplemented
        return self.size == other.size and bool(np.array_equal(self.data, other.data))

    __hash__ = None

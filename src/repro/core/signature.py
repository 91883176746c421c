"""Address signatures and the primitive bulk operations of Table 1.

A signature is the paper's hash-encoded superset representation of a set
of addresses.  The primitive operations are:

========================  ===================================================
Operation                 Implementation here
========================  ===================================================
intersection (``&``)      one bitwise AND of the packed registers
union (``|``)             one bitwise OR of the packed registers
emptiness                 *any* V_i field all-zero  (every insertion sets one
                          bit in every field, so a non-empty signature has at
                          least one bit set in each field)
membership (``in``)       encode the address, AND with the signature, check
                          emptiness — equivalently, test one bit per field
decode (delta)            see :mod:`repro.core.decode`
========================  ===================================================

Superset semantics: for an address set ``A``, ``H(A)`` contains every
member of ``A`` (no false negatives) and possibly aliases (false
positives).  Aliasing hurts performance, never correctness — the test
suite's property tests pin both halves of that contract.

Representation and backends
---------------------------
This class is the **packed** storage backend: the register is one Python
integer — all V_i fields concatenated, V_1 at the low end, exactly the
wire format of :meth:`Signature.to_flat_int`.  Intersection, union, and
the hot :meth:`Signature.intersects` are then single big-int bitwise
operations; per-field views are rebuilt lazily (and cached) only when a
caller actually needs them (:attr:`Signature.fields`,
:meth:`Signature.field_values`, the delta decode).

Alternative storage backends (:mod:`repro.core.backend`) subclass this
and replace the storage while keeping the public surface: every mutation
funnels through the single :meth:`Signature.add_mask` mutation point,
every derived read goes through :meth:`Signature.to_flat_int` /
:meth:`Signature._load_flat`, and binary operations read the *other*
operand only through its wire format — so mixed-backend operands are
well-defined and a backend overrides a handful of methods, not all of
them.  The per-field list semantics are unchanged everywhere — the
property tests run every operation, on every registered backend, against
a per-field-list reference implementation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Set

from repro.core.bitvector import iter_set_bits, popcount
from repro.core.signature_config import SignatureConfig
from repro.errors import ConfigurationError


def flat_intersects(
    field_masks: Sequence[int], register: int, other: int
) -> bool:
    """Equation 1 on two flat registers: is ``register & other`` non-empty?

    One AND, then the per-field emptiness scan of the result — the
    intersection is empty iff *any* V_i field of it is all-zero.
    ``field_masks`` is the layout's
    :attr:`~repro.core.fields.ChunkLayout.field_masks`.  The single
    flat-register form of the test: :meth:`Signature.intersects` and the
    offline accuracy sweep both call it.
    """
    both = register & other
    if not both:
        return False
    for mask in field_masks:
        if not both & mask:
            return False
    return True


class Signature:
    """A mutable signature register of a fixed configuration.

    The register is stored packed: one Python integer holding every V_i
    field at its :attr:`~repro.core.fields.ChunkLayout.field_offsets`
    position.  All operations between two signatures require the same
    :class:`~repro.core.signature_config.SignatureConfig` — hardware
    registers of different shapes cannot be combined.
    """

    __slots__ = ("config", "_flat", "_fields")

    #: Registry name of the storage backend this class implements; the
    #: base class *is* the default ``packed`` backend.
    backend_name = "packed"

    #: The vectorised codec kernels serving this storage
    #: (:class:`repro.core.backend.codec.CodecKernels`), or ``None`` to
    #: take the scalar reference paths in decode/RLE/expansion.  Set as
    #: a class attribute by backends that ship a codec, so codec
    #: selection follows the ``--sig-backend`` choice automatically.
    _codec = None

    def __init__(self, config: SignatureConfig) -> None:
        self.config = config
        self._flat = 0
        self._fields: "List[int] | None" = None

    @classmethod
    def from_addresses(
        cls, config: SignatureConfig, addresses: Iterable[int]
    ) -> "Signature":
        """Encode a whole address set at once."""
        signature = cls(config)
        signature.add_many(addresses)
        return signature

    @property
    def fields(self) -> List[int]:
        """The V_i fields as a list of per-field bit vectors.

        Rebuilt lazily from the packed register and cached until the next
        mutation.  Treat the list as a read-only snapshot — mutating it
        does not write back into the register.
        """
        if self._fields is None:
            flat = self.to_flat_int()
            layout = self.config.layout
            self._fields = [
                (flat >> offset) & ((1 << size) - 1)
                for offset, size in zip(layout.field_offsets, layout.field_sizes)
            ]
        return self._fields

    @fields.setter
    def fields(self, values: List[int]) -> None:
        layout = self.config.layout
        if len(values) != layout.num_fields:
            raise ConfigurationError(
                f"expected {layout.num_fields} fields, got {len(values)}"
            )
        flat = 0
        for offset, size, value in zip(
            layout.field_offsets, layout.field_sizes, values
        ):
            if value < 0 or value >> size:
                raise ConfigurationError(
                    f"field value does not fit in a {size}-bit V_i field"
                )
            flat |= value << offset
        self._load_flat(flat, list(values))

    def _load_flat(self, flat: int, fields: Optional[List[int]] = None) -> None:
        """Replace the register contents with an already-validated flat
        value (the storage-assignment primitive backends override)."""
        self._flat = flat
        self._fields = fields

    def add(self, address: int) -> None:
        """Insert one address (at the configuration's granularity)."""
        self.add_mask(self.config.flat_mask(address))

    def add_many(self, addresses: Iterable[int]) -> None:
        """Insert a whole address iterable with one register OR.

        The batched build kernel: the configuration dedupes the iterable
        and accumulates a single mask
        (:meth:`~repro.core.signature_config.SignatureConfig.flat_mask_many`),
        so the register is touched once.  Bit-identical to calling
        :meth:`add` per address.
        """
        self.add_mask(self.config.flat_mask_many(addresses))

    def add_mask(self, mask: int) -> None:
        """OR a precomputed flat mask into the register.

        This is the **single mutation point**: :meth:`add` and
        :meth:`add_many` both reduce their input to a flat mask (through
        the configuration's memoised encode paths) and funnel it here, so
        interleaving the three in any order leaves the register — and the
        lazy per-field view's invalidation — in the identical state.  It
        is also the single-address fast lane for callers that already
        hold the address's
        :meth:`~repro.core.signature_config.SignatureConfig.flat_mask`
        (the BDM computes it once per access and feeds every signature
        that records the access).  An empty mask is a no-op and leaves
        the cached per-field view intact.
        """
        if mask:
            self._flat |= mask
            self._fields = None

    def clear(self) -> None:
        """Gang-clear the register — this is how Bulk commits (Table 2)."""
        self._flat = 0
        self._fields = None

    def is_empty(self) -> bool:
        """Emptiness test: true iff some V_i field is all-zero."""
        flat = self.to_flat_int()
        if flat == 0:
            return True
        for mask in self.config.layout.field_masks:
            if not flat & mask:
                return True
        return False

    def __contains__(self, address: int) -> bool:
        """Membership test for one address (Table 1's element-of)."""
        mask = self.config.flat_mask(address)
        return self.to_flat_int() & mask == mask

    def _check_compatible(self, other: "Signature") -> None:
        if self.config is other.config:
            return
        if self.config != other.config:
            raise ConfigurationError(
                "cannot combine signatures with different configurations: "
                f"{self.config.name} vs {other.config.name}"
            )

    def __and__(self, other: "Signature") -> "Signature":
        """Signature intersection (bitwise AND of the packed registers)."""
        self._check_compatible(other)
        result = type(self)(self.config)
        result._load_flat(self.to_flat_int() & other.to_flat_int())
        return result

    def __or__(self, other: "Signature") -> "Signature":
        """Signature union (bitwise OR of the packed registers)."""
        self._check_compatible(other)
        result = type(self)(self.config)
        result._load_flat(self.to_flat_int() | other.to_flat_int())
        return result

    def union_update(self, other: "Signature") -> None:
        """In-place union (used when flattening nested transactions)."""
        self._check_compatible(other)
        self.add_mask(other.to_flat_int())

    def intersects(self, other: "Signature") -> bool:
        """True iff the intersection is non-empty.

        This is the hot operation of bulk disambiguation: one AND of the
        packed registers, then a per-field emptiness scan of the result —
        no intersection signature is allocated.
        """
        self._check_compatible(other)
        return flat_intersects(
            self.config.layout.field_masks,
            self.to_flat_int(),
            other.to_flat_int(),
        )

    def copy(self) -> "Signature":
        """An independent copy of the register."""
        duplicate = type(self)(self.config)
        duplicate._load_flat(self.to_flat_int())
        return duplicate

    def popcount(self) -> int:
        """Total number of set bits across all fields."""
        return popcount(self.to_flat_int())

    def to_flat_int(self) -> int:
        """The signature flattened to one integer, V_1 at the low end.

        This is the wire format: what RLE compression operates on and what
        a commit broadcast carries.  It is also the packed backend's
        storage format, so here it is free; other backends derive (and
        memoise) it.
        """
        return self._flat

    @classmethod
    def from_flat_int(cls, config: SignatureConfig, flat: int) -> "Signature":
        """Rebuild a signature from its wire format."""
        if flat < 0 or flat >> config.size_bits:
            raise ConfigurationError(
                f"flat value does not fit in a {config.size_bits}-bit signature"
            )
        signature = cls(config)
        signature._load_flat(flat)
        return signature

    def set_bit_positions(self) -> Iterator[int]:
        """Positions of set bits in the flattened wire format, ascending."""
        return iter_set_bits(self.to_flat_int())

    def field_values(self, index: int) -> Set[int]:
        """The exact set of chunk-``index`` values inserted so far.

        V_i is a one-hot-decoded accumulation, so its set bits *are* the
        chunk values — the property the exact delta decode relies on.
        """
        layout = self.config.layout
        field = (self.to_flat_int() >> layout.field_offsets[index]) & (
            (1 << layout.field_sizes[index]) - 1
        )
        return set(iter_set_bits(field))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return (
            self.config == other.config
            and self.to_flat_int() == other.to_flat_int()
        )

    def __hash__(self) -> int:
        return hash((self.config, self.to_flat_int()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.config.name}, "
            f"{self.config.size_bits} bits, popcount={self.popcount()})"
        )


def signature_of(
    config: SignatureConfig, byte_addresses: Iterable[int]
) -> Signature:
    """Encode *byte* addresses into a signature at its granularity.

    Convenience for callers that work in byte addresses (the simulators'
    native unit); :meth:`Signature.add` takes already-converted addresses.
    """
    signature = Signature(config)
    signature.add_many(map(config.granularity.from_byte, byte_addresses))
    return signature

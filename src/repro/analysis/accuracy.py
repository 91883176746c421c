"""Signature size-vs-accuracy study (Section 7.5, Figure 15, Table 8).

The paper's methodology: run the TM applications, sample every bulk
address disambiguation event *known* (by exact information) to have no
dependence, and measure how often each signature configuration reports
one anyway — the false-positive fraction.  Bars use no initial bit
permutation; error segments sweep permutations, best and worst.

The sampling here reuses the same mechanism: exact Lazy runs record
``(W_C, R_R, W_R)`` address-set triples whose exact intersection is
empty; configurations are then evaluated *offline* against the recorded
samples, which keeps the sweep over 23 configurations × many
permutations cheap.

The offline kernel exploits how redundant the samples are (a few
thousand distinct line addresses and about a thousand distinct sides
across tens of thousands of recorded addresses): the samples are
interned once per call (:class:`_SampleTable`), and each configuration
then encodes every distinct address once
(:meth:`~repro.core.signature_config.SignatureConfig.flat_masks`),
builds every distinct side's register with one OR-reduction, and runs
Equation 1 once per distinct (W_C, receiver side) pair.  The rows are
exactly those of building each sample's signatures one by one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import reduce
from operator import or_
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Type

from repro.core.backend import resolve_backend
from repro.core.permutation import BitPermutation
from repro.core.rle import rle_size_bits
from repro.core.signature import Signature, flat_intersects
from repro.core.signature_config import SignatureConfig
from repro.sim.rng import SubstreamRng
from repro.tm.lazy import LazyScheme
from repro.tm.params import TM_DEFAULTS, TmParams
from repro.tm.system import DisambiguationSample, TmSystem
from repro.workloads.kernels import TM_KERNELS, build_tm_workload


def collect_tm_samples(
    apps: Optional[Sequence[str]] = None,
    txns_per_thread: int = 10,
    seed: int = 7,
    params: TmParams = TM_DEFAULTS,
    max_samples_per_app: int = 1500,
    backend: Optional[str] = None,
) -> List[DisambiguationSample]:
    """Collect dependence-free disambiguation samples from TM runs.

    ``backend`` names the signature backend the runs use (default:
    ``params.sig_backend``); the samples are exact address sets, so they
    do not depend on it.
    """
    if apps is None:
        apps = sorted(TM_KERNELS)
    if backend is not None:
        params = replace(params, sig_backend=backend)
    samples: List[DisambiguationSample] = []
    for app in apps:
        traces = build_tm_workload(
            app,
            num_threads=params.num_processors,
            txns_per_thread=txns_per_thread,
            seed=seed,
        )
        system = TmSystem(
            traces,
            LazyScheme(),
            params,
            collect_samples=True,
            max_samples=max_samples_per_app,
        )
        result = system.run()
        samples.extend(
            sample for sample in result.samples if sample[0]
        )
    return samples


class _SampleTable:
    """Disambiguation samples interned into distinct addresses, sides and
    (W_C, receiver side) pairs — built once per sweep call, shared by
    every configuration and permutation evaluated against it."""

    __slots__ = ("num_samples", "addresses", "sides", "pairs", "sample_pairs",
                 "committed")

    def __init__(self, samples: Iterable[DisambiguationSample]) -> None:
        # Sample sides are frozensets, so they key the intern dicts as is.
        side_ids: Dict[FrozenSet[int], int] = {}
        pair_ids: Dict[Tuple[int, int], int] = {}
        side_id = side_ids.setdefault
        pair_id = pair_ids.setdefault
        sample_pairs: List[Tuple[int, int]] = []
        committed: Counter = Counter()
        for committed_writes, receiver_reads, receiver_writes in samples:
            writes = side_id(committed_writes, len(side_ids))
            reads_pair = (writes, side_id(receiver_reads, len(side_ids)))
            writes_pair = (writes, side_id(receiver_writes, len(side_ids)))
            committed[writes] += 1
            sample_pairs.append((
                pair_id(reads_pair, len(pair_ids)),
                pair_id(writes_pair, len(pair_ids)),
            ))
        self.num_samples = len(sample_pairs)
        #: Distinct address sets, indexed by side id.
        self.sides: List[FrozenSet[int]] = list(side_ids)
        #: Every distinct address of every side, ascending.
        self.addresses: List[int] = sorted(set().union(*self.sides))
        #: Distinct (W_C side id, receiver side id) pairs, by pair id.
        self.pairs: List[Tuple[int, int]] = list(pair_ids)
        #: Per sample: the pair ids of its (W_C, R_R) and (W_C, W_R) tests.
        self.sample_pairs = sample_pairs
        #: W_C side id -> number of samples committing it.
        self.committed = committed

    def registers(self, config: SignatureConfig) -> List[int]:
        """Every side's flat signature register under ``config``: each
        distinct address encoded once, then one OR-reduction per side."""
        masks = dict(zip(self.addresses, config.flat_masks(self.addresses)))
        mask_of = masks.__getitem__
        return [reduce(or_, map(mask_of, side), 0) for side in self.sides]

    def false_positive_fraction(
        self, config: SignatureConfig, registers: Sequence[int]
    ) -> float:
        """Fraction of samples where Equation 1 fires on ``registers``."""
        if not self.num_samples:
            return 0.0
        field_masks = config.layout.field_masks
        fires = [
            flat_intersects(field_masks, registers[writes], registers[receiver])
            for writes, receiver in self.pairs
        ]
        positives = sum(1 for read, write in self.sample_pairs
                        if fires[read] or fires[write])
        return positives / self.num_samples

    def average_compressed_bits(
        self,
        config: SignatureConfig,
        registers: Sequence[int],
        signature_class: Type[Signature] = Signature,
    ) -> float:
        """Mean RLE size of the samples' W_C registers: each distinct
        register sized once, weighted by how many samples commit it."""
        if not self.num_samples:
            return 0.0
        total = sum(
            count * rle_size_bits(
                signature_class.from_flat_int(config, registers[writes])
            )
            for writes, count in self.committed.items()
        )
        return total / self.num_samples


def false_positive_fraction(
    config: SignatureConfig,
    samples: Sequence[DisambiguationSample],
) -> float:
    """Fraction of known-dependence-free samples where Equation 1 fires.

    Each sample's address sets are already at the configuration's
    granularity (line addresses, from the TM runs).
    """
    table = _SampleTable(samples)
    return table.false_positive_fraction(config, table.registers(config))


def average_compressed_bits(
    config: SignatureConfig,
    samples: Sequence[DisambiguationSample],
) -> float:
    """Average RLE-compressed size of the committed write signatures —
    Table 8's *Compressed Size* column, measured on this workload."""
    table = _SampleTable(samples)
    return table.average_compressed_bits(config, table.registers(config))


@dataclass(frozen=True)
class AccuracyRow:
    """One configuration's Figure 15 / Table 8 measurements."""

    name: str
    full_size_bits: int
    avg_compressed_bits: float
    #: False-positive fraction with no initial permutation (the bar).
    fp_nominal: float
    #: Best / worst over the permutation sweep (the error segment).
    fp_best: float
    fp_worst: float


def sweep_signature_configs(
    configs: Dict[str, SignatureConfig],
    samples: Sequence[DisambiguationSample],
    permutations_per_config: int = 4,
    seed: int = 11,
    backend: Optional[str] = None,
) -> List[AccuracyRow]:
    """Evaluate each configuration bare and under random permutations.

    Matches Figure 15's structure: the nominal (no-permutation) fraction
    per configuration plus the min/max over a permutation sweep.
    ``backend`` names the signature backend whose registers (and codec)
    size Table 8's compressed column (default: packed); the rows are
    identical under every backend.
    """
    signature_class = (
        Signature if backend is None else resolve_backend(backend).signature_class
    )
    table = _SampleTable(samples)
    rng = SubstreamRng(seed)
    rows: List[AccuracyRow] = []
    for name in sorted(configs, key=lambda n: (len(n), n)):
        config = configs[name]
        registers = table.registers(config)
        nominal = table.false_positive_fraction(config, registers)
        fractions = [nominal]
        for index in range(permutations_per_config):
            permuted = config.with_permutation(BitPermutation.shuffled(
                config.granularity.address_bits,
                rng.stream("figure15", name, index),
            ))
            fractions.append(table.false_positive_fraction(
                permuted, table.registers(permuted)
            ))
        rows.append(
            AccuracyRow(
                name=name,
                full_size_bits=config.size_bits,
                avg_compressed_bits=table.average_compressed_bits(
                    config, registers, signature_class
                ),
                fp_nominal=nominal,
                fp_best=min(fractions),
                fp_worst=max(fractions),
            )
        )
    return rows

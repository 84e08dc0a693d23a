"""Genetic algorithm for tricluster mining with sequential covering.

A candidate is a binary chromosome over the three tensor axes (one bit per
gene, condition and time point).  One run evolves a population toward low
fitness; the outer loop repeats the run, archiving each run's best candidate
when its LSL clears the threshold, so the archive's coverage steers later
runs toward unexplored coordinates through the distinction term and the
overlap-avoiding initialization.

One shared seeded generator drives a whole run in a fixed call order, so a
(tensor, config, seed) triple reproduces archives and traces bit for bit.
Fitness evaluation consumes no randomness and may be parallelized as long as
results are collected in population order.

Scores are memoised per run: fitness is pure and a run scores every candidate
against one frozen archive snapshot, so each distinct chromosome is decoded
and scored once and later copies reuse its breakdown.  The memo dies with
the run, because the next run sees a grown archive.
"""

import math
from dataclasses import dataclass, field
from statistics import fmean

import numpy as np

from .quality import (
    MODE_OLS,
    SLOPE_MODES,
    FitnessBreakdown,
    QualityWeights,
    TriclusterCoords,
    fitness,
    _values,
)


@dataclass
class Chromosome:
    """Binary mask over the concatenated gene | condition | time axes."""

    bits: np.ndarray
    segments: tuple[int, int, int]

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=bool)
        if self.bits.shape != (sum(self.segments),):
            raise ValueError(
                f"bit string length {self.bits.size} != sum of segments "
                f"{self.segments}"
            )

    def copy(self) -> "Chromosome":
        return Chromosome(self.bits.copy(), self.segments)

    def segment_slices(self) -> tuple[slice, slice, slice]:
        x, y, z = self.segments
        return slice(0, x), slice(x, x + y), slice(x + y, x + y + z)

    def segment_counts(self) -> tuple[int, int, int]:
        return tuple(int(self.bits[s].sum()) for s in self.segment_slices())


def encode(coords: TriclusterCoords, dims: tuple[int, int, int]) -> Chromosome:
    """Chromosome with exactly the coords' bits set."""
    bits = np.zeros(sum(dims), dtype=bool)
    x, y, z = dims
    if coords.genes[-1] >= x or coords.conditions[-1] >= y or coords.times[-1] >= z:
        raise ValueError(f"coords {coords} do not fit in dims {dims}")
    bits[list(coords.genes)] = True
    bits[[x + c for c in coords.conditions]] = True
    bits[[x + y + t for t in coords.times]] = True
    return Chromosome(bits, tuple(dims))


def decode(chrom: Chromosome) -> TriclusterCoords:
    """Set-bit indices per segment; requires a repaired chromosome."""
    counts = chrom.segment_counts()
    if min(counts) < 2:
        raise ValueError(
            f"chromosome has segment sizes {counts}; repair must run first"
        )
    sg, sc, st = chrom.segment_slices()
    return TriclusterCoords(
        genes=tuple(np.flatnonzero(chrom.bits[sg]).tolist()),
        conditions=tuple(np.flatnonzero(chrom.bits[sc]).tolist()),
        times=tuple(np.flatnonzero(chrom.bits[st]).tolist()),
    )


@dataclass(frozen=True)
class GAConfig:
    """Run parameters; the defaults are the standard setting."""

    population_size: int = 20
    generations: int = 100
    p_crossover: float = 0.95
    p_mutation: float = 0.50
    quality_weights: QualityWeights = field(default_factory=QualityWeights)
    delta: float = 1050.0
    n_triclusters: int = 20
    slope_mode: str = MODE_OLS
    seed: int = 0
    elite_count: int = 1

    def __post_init__(self):
        if self.population_size < 1 or self.generations < 1 or self.n_triclusters < 1:
            raise ValueError("population_size, generations, n_triclusters must be >= 1")
        for name in ("p_crossover", "p_mutation"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        # delta = 0 is allowed: it legitimately yields an empty archive.  An
        # infinite one could not be written to the JSON manifest.
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        if self.slope_mode not in SLOPE_MODES:
            raise ValueError(f"slope_mode must be one of {SLOPE_MODES}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 1 <= self.elite_count <= max(1, self.population_size - 1):
            raise ValueError(
                "elite_count must satisfy 1 <= elite_count < population_size"
            )

    def accepts(self, breakdown: FitnessBreakdown) -> bool:
        """The sequential-covering guard: LSL strictly below ``delta``."""
        return breakdown.lsl < self.delta


@dataclass(frozen=True)
class ArchiveEntry:
    coords: TriclusterCoords
    # None for an entry read back from its coordinates alone.
    breakdown: FitnessBreakdown | None


class Archive:
    """Accepted triclusters plus per-axis coverage of their coordinates.

    Coverage feeds the distinction term and the overlap-avoiding
    initialization of later runs.
    """

    def __init__(self):
        self.entries: list[ArchiveEntry] = []
        self.covered_genes: set[int] = set()
        self.covered_conditions: set[int] = set()
        self.covered_times: set[int] = set()

    def add(
        self, coords: TriclusterCoords, breakdown: FitnessBreakdown | None
    ) -> None:
        self.entries.append(ArchiveEntry(coords, breakdown))
        self.covered_genes.update(coords.genes)
        self.covered_conditions.update(coords.conditions)
        self.covered_times.update(coords.times)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_f: float
    mean_f: float
    best: FitnessBreakdown


@dataclass(frozen=True)
class GenerationTrace:
    """Per-generation convergence record of one run; generation 0 is the
    freshly initialized population.

    ``evaluations`` counts the distinct chromosomes scored and ``memo_hits``
    the candidates that reused an earlier score of the same run.
    """

    records: tuple[GenerationRecord, ...]
    evaluations: int = 0
    memo_hits: int = 0

    def best_f_series(self) -> list[float]:
        return [r.best_f for r in self.records]


def _draw_axis_subset(n: int, size: int, used: set[int], rng) -> np.ndarray:
    # Prefer indices unused by earlier individuals and the archive; fall back
    # to uniform draws from the used pool once the unused pool is exhausted.
    unused = np.array([i for i in range(n) if i not in used], dtype=np.int64)
    if size <= unused.size:
        return rng.choice(unused, size=size, replace=False)
    taken = [unused]
    shortfall = size - unused.size
    pool = np.array([i for i in range(n) if i in used], dtype=np.int64)
    taken.append(rng.choice(pool, size=shortfall, replace=False))
    return np.concatenate(taken)


def init_population(
    dims: tuple[int, int, int], config: GAConfig, archive: Archive | None, rng
) -> list[Chromosome]:
    """Random population whose individuals prefer coordinates unused by both
    the archive and the individuals initialized before them."""
    x, y, z = dims
    used_g = set(archive.covered_genes) if archive else set()
    used_c = set(archive.covered_conditions) if archive else set()
    used_t = set(archive.covered_times) if archive else set()
    population = []
    for _ in range(config.population_size):
        bits = np.zeros(x + y + z, dtype=bool)
        for n, used, offset in ((x, used_g, 0), (y, used_c, x), (z, used_t, x + y)):
            size = int(rng.integers(2, n + 1))
            chosen = _draw_axis_subset(n, size, used, rng)
            bits[offset + chosen] = True
            used.update(int(i) for i in chosen)
        population.append(repair(Chromosome(bits, dims), rng))
    return population


def _tournament_index(fitness_values, rng) -> int:
    # Size-2 tournament: draw two distinct individuals, keep the fitter.
    if len(fitness_values) == 1:
        return 0
    i, j = (int(k) for k in rng.choice(len(fitness_values), size=2, replace=False))
    # Lower f wins; ties go to the lower population index.
    if (fitness_values[i], i) <= (fitness_values[j], j):
        return i
    return j


def _crossover_segment(a: np.ndarray, b: np.ndarray, cut: int):
    return (
        np.concatenate([a[:cut], b[cut:]]),
        np.concatenate([b[:cut], a[cut:]]),
    )


def crossover(
    p1: Chromosome, p2: Chromosome, p_c: float, rng
) -> tuple[Chromosome, Chromosome]:
    """Per-segment single-point tail swap, applied with probability p_c.

    Each of the three segments draws its own crosspoint, so segment
    boundaries are never crossed.  Offspring are not repaired here.
    """
    if p1.segments != p2.segments:
        raise ValueError("parents encode different tensor shapes")
    if rng.random() >= p_c:
        return p1.copy(), p2.copy()
    o1 = np.empty_like(p1.bits)
    o2 = np.empty_like(p2.bits)
    for seg in p1.segment_slices():
        a, b = p1.bits[seg], p2.bits[seg]
        if a.size == 1:
            o1[seg], o2[seg] = a, b
            continue
        cut = int(rng.integers(1, a.size))
        o1[seg], o2[seg] = _crossover_segment(a, b, cut)
    return Chromosome(o1, p1.segments), Chromosome(o2, p2.segments)


def mutate(chrom: Chromosome, p_m: float, rng) -> Chromosome:
    """With probability p_m flip exactly one uniformly chosen bit."""
    out = chrom.copy()
    if rng.random() < p_m:
        pos = int(rng.integers(0, out.bits.size))
        out.bits[pos] = not out.bits[pos]
    return out


def repair(chrom: Chromosome, rng) -> Chromosome:
    """Flip uniformly chosen unset bits on until every segment has >= 2."""
    counts = chrom.segment_counts()
    if min(counts) >= 2:
        return chrom
    out = chrom.copy()
    for seg, count in zip(out.segment_slices(), counts):
        if count >= 2:
            continue
        unset = np.flatnonzero(~out.bits[seg])
        picked = rng.choice(unset, size=2 - count, replace=False)
        out.bits[seg.start + picked] = True
    return out


def _evaluate(values, chrom, config, archive, memo):
    # ``memo`` maps a chromosome's bits to its breakdown for one run.
    key = chrom.bits.tobytes()
    breakdown = memo.get(key)
    if breakdown is None:
        breakdown = fitness(
            values,
            decode(chrom),
            config.quality_weights,
            archive,
            config.slope_mode,
        )
        memo[key] = breakdown
    return breakdown


def _best_index(fitness_values) -> int:
    return min(range(len(fitness_values)), key=lambda i: (fitness_values[i], i))


def evolve_one_tricluster(
    tensor, config: GAConfig, archive: Archive | None = None, rng=None
) -> tuple[tuple[TriclusterCoords, FitnessBreakdown], GenerationTrace]:
    """One elitist GA run against a frozen archive snapshot.

    The trace holds exactly ``config.generations`` records; record 0 is the
    evaluated initial population, so a single-generation run performs no
    evolution and returns the initial argmin.  The best-ever individual is
    returned, which under elitism equals the final generation's best.
    """
    values = _values(tensor)
    dims = values.shape
    if min(dims) < 2:
        raise ValueError(f"every tensor axis needs length >= 2, got {dims}")
    if rng is None:
        rng = np.random.default_rng(config.seed)

    memo: dict[bytes, FitnessBreakdown] = {}
    population = init_population(dims, config, archive, rng)
    evals = [_evaluate(values, ch, config, archive, memo) for ch in population]
    lookups = len(evals)
    f_vals = [e.f for e in evals]

    best_i = _best_index(f_vals)
    best_coords = decode(population[best_i])
    best_eval = evals[best_i]
    records = [
        GenerationRecord(0, best_eval.f, fmean(f_vals), best_eval)
    ]

    n = config.population_size
    for gen in range(1, config.generations):
        order = sorted(range(n), key=lambda i: (f_vals[i], i))
        next_pop = [population[i].copy() for i in order[: config.elite_count]]
        next_evals = [evals[i] for i in order[: config.elite_count]]
        while len(next_pop) < n:
            i = _tournament_index(f_vals, rng)
            j = _tournament_index(f_vals, rng)
            for child in crossover(
                population[i], population[j], config.p_crossover, rng
            ):
                if len(next_pop) >= n:
                    break
                child = repair(mutate(child, config.p_mutation, rng), rng)
                next_pop.append(child)
                next_evals.append(_evaluate(values, child, config, archive, memo))
                lookups += 1
        population, evals = next_pop, next_evals
        f_vals = [e.f for e in evals]
        gen_best = _best_index(f_vals)
        if f_vals[gen_best] < best_eval.f:
            best_eval = evals[gen_best]
            best_coords = decode(population[gen_best])
        records.append(
            GenerationRecord(gen, best_eval.f, fmean(f_vals), best_eval)
        )
    trace = GenerationTrace(tuple(records), len(memo), lookups - len(memo))
    return (best_coords, best_eval), trace


def run_triea(tensor, config: GAConfig, rng=None, trace_sink=None) -> Archive:
    """Sequential covering: repeat the GA run, archiving each best candidate
    whose LSL is strictly below the threshold.

    A run failing the threshold guard stores nothing but still consumes its
    iteration, so the archive may end up smaller than ``n_triclusters``.
    ``trace_sink(run_index, trace)`` is invoked for every run when given.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    archive = Archive()
    for k in range(config.n_triclusters):
        (coords, breakdown), trace = evolve_one_tricluster(
            tensor, config, archive, rng
        )
        if trace_sink is not None:
            trace_sink(k, trace)
        if config.accepts(breakdown):
            archive.add(coords, breakdown)
    return archive

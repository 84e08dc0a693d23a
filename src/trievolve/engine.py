"""Genetic algorithm for tricluster mining with sequential covering.

A candidate is a plain 1-D bool array over the concatenated gene | condition |
time axes (one bit per gene, condition and time point), and a population is
one ``(P, X+Y+Z)`` bool matrix with a candidate per row.  Functions that need
the segment boundaries take the tensor's ``dims``.  One run evolves a
population toward low fitness; the outer loop repeats the run, archiving each
run's best candidate when its LSL clears the threshold, so the archive's
coverage steers later runs toward unexplored coordinates through the
distinction term and the overlap-avoiding initialization.

Each generation after the first takes two steps.  *Breed*: the previous
generation's best keeps row 0, and tournament selection, crossover, mutation
and repair write every child into rows 1..P-1.  *Score*: one call scores
those rows.  One shared seeded generator drives a whole run in a fixed call
order, so a (tensor, config, seed) triple reproduces archives and traces bit
for bit.  Scoring consumes no randomness and reads only the finished rows,
so it may be batched or parallelized as long as results come back in row
order.

Scores are memoised per run: fitness is pure and a run scores every candidate
against one frozen archive snapshot, so each distinct candidate is decoded
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


def _segments(bits: np.ndarray, dims: tuple[int, int, int]):
    """The gene, condition and time views of one candidate's bits."""
    x, y, z = dims
    if bits.shape != (x + y + z,):
        raise ValueError(
            f"bit string length {bits.size} != sum of segments {tuple(dims)}"
        )
    return bits[:x], bits[x : x + y], bits[x + y :]


def encode(coords: TriclusterCoords, dims: tuple[int, int, int]) -> np.ndarray:
    """Candidate with exactly the coords' bits set."""
    x, y, z = dims
    if coords.genes[-1] >= x or coords.conditions[-1] >= y or coords.times[-1] >= z:
        raise ValueError(f"coords {coords} do not fit in dims {dims}")
    bits = np.zeros(x + y + z, dtype=bool)
    axes = (coords.genes, coords.conditions, coords.times)
    for seg, idx in zip(_segments(bits, dims), axes):
        seg[list(idx)] = True
    return bits


def decode(bits: np.ndarray, dims: tuple[int, int, int]) -> TriclusterCoords:
    """Set-bit indices per segment; requires a repaired candidate."""
    indices = [tuple(np.flatnonzero(seg).tolist()) for seg in _segments(bits, dims)]
    if min(map(len, indices)) < 2:
        raise ValueError(
            f"chromosome has segment sizes {tuple(map(len, indices))}; "
            "repair must run first"
        )
    # flatnonzero yields sorted, unique, non-negative ints.
    return TriclusterCoords._trusted(*indices)


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
    mean_f: float
    best: FitnessBreakdown


@dataclass(frozen=True)
class GenerationTrace:
    """Per-generation convergence record of one run; record 0 is the
    freshly initialized population.

    ``evaluations`` counts the distinct chromosomes scored and ``memo_hits``
    the candidates that reused an earlier score of the same run.
    """

    records: tuple[GenerationRecord, ...]
    evaluations: int = 0
    memo_hits: int = 0

    def best_f_series(self) -> list[float]:
        return [r.best.f for r in self.records]


def _draw_axis_subset(size: int, used: np.ndarray, rng) -> np.ndarray:
    # Prefer indices unused by earlier individuals and the archive; fall back
    # to uniform draws from the used pool once the unused pool is exhausted.
    unused = np.flatnonzero(~used)
    if size <= unused.size:
        return rng.choice(unused, size=size, replace=False)
    pool = np.flatnonzero(used)
    return np.concatenate(
        [unused, rng.choice(pool, size=size - unused.size, replace=False)]
    )


def init_population(
    dims: tuple[int, int, int], config: GAConfig, archive: Archive | None, rng
) -> np.ndarray:
    """Random ``(P, X+Y+Z)`` population whose individuals prefer coordinates
    unused by both the archive and the individuals initialized before them."""
    used = np.zeros(sum(dims), dtype=bool)
    used_segs = _segments(used, dims)
    if archive:
        covered = (
            archive.covered_genes, archive.covered_conditions, archive.covered_times
        )
        for seg, idx in zip(used_segs, covered):
            seg[list(idx)] = True
    population = np.zeros((config.population_size, used.size), dtype=bool)
    for row in population:
        for seg, used_seg in zip(_segments(row, dims), used_segs):
            size = int(rng.integers(2, seg.size + 1))
            chosen = _draw_axis_subset(size, used_seg, rng)
            seg[chosen] = True
            used_seg[chosen] = True
    # Every segment holds >= 2 bits, so the rows need no repair.
    return population


def _tournament_index(fitness_values, rng) -> int:
    # Size-2 tournament: draw two distinct individuals, keep the fitter.
    i, j = rng.choice(len(fitness_values), size=2, replace=False).tolist()
    # Lower f wins; ties go to the lower population index.
    if (fitness_values[i], i) <= (fitness_values[j], j):
        return i
    return j


def crossover(
    p1: np.ndarray, p2: np.ndarray, dims: tuple[int, int, int], p_c: float, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment single-point tail swap, applied with probability p_c.

    Each of the three segments draws its own crosspoint, so segment
    boundaries are never crossed.  Offspring are fresh arrays either way and
    are not repaired here.
    """
    o1, o2 = p1.copy(), p2.copy()
    segment_pairs = zip(_segments(o1, dims), _segments(o2, dims))
    if rng.random() >= p_c:
        return o1, o2
    for a, b in segment_pairs:
        if a.size == 1:
            continue
        cut = int(rng.integers(1, a.size))
        a[cut:], b[cut:] = b[cut:].copy(), a[cut:].copy()
    return o1, o2


def mutate(bits: np.ndarray, p_m: float, rng) -> np.ndarray:
    """With probability p_m flip exactly one uniformly chosen bit."""
    out = bits.copy()
    if rng.random() < p_m:
        pos = int(rng.integers(0, out.size))
        out[pos] = not out[pos]
    return out


def repair(bits: np.ndarray, dims: tuple[int, int, int], rng) -> np.ndarray:
    """Flip uniformly chosen unset bits on until every segment has >= 2."""
    counts = [np.count_nonzero(seg) for seg in _segments(bits, dims)]
    if min(counts) >= 2:
        return bits
    out = bits.copy()
    for seg, count in zip(_segments(out, dims), counts):
        if count >= 2:
            continue
        unset = np.flatnonzero(~seg)
        seg[rng.choice(unset, size=2 - count, replace=False)] = True
    return out


def _score(values, rows, config: GAConfig, archive, memo) -> list[FitnessBreakdown]:
    """Breakdowns of ``rows`` in row order; ``memo`` maps a candidate's bits
    to its breakdown for one run, so only unseen rows are decoded and scored."""
    dims = values.shape
    scores = []
    for bits in rows:
        key = bits.tobytes()
        breakdown = memo.get(key)
        if breakdown is None:
            breakdown = memo[key] = fitness(
                values, decode(bits, dims), config.quality_weights, archive,
                config.slope_mode,
            )
        scores.append(breakdown)
    return scores


def evolve_one_tricluster(
    tensor, config: GAConfig, archive: Archive | None = None, rng=None
) -> tuple[tuple[TriclusterCoords, FitnessBreakdown], GenerationTrace]:
    """One elitist GA run against a frozen archive snapshot.

    The trace holds exactly ``config.generations`` records; record 0 is the
    scored initial population, so a single-generation run performs no
    evolution and returns the initial argmin.  Each later generation breeds,
    then scores: the previous best keeps row 0 and wins ties there, children
    fill rows 1..P-1 (a pair's second child is dropped unmutated when one row
    is left), and one ``_score`` call scores them.  So every generation's
    best is the best so far and the final one is returned.
    """
    values = _values(tensor)
    dims = values.shape
    if min(dims) < 2:
        raise ValueError(f"every tensor axis needs length >= 2, got {dims}")
    if rng is None:
        rng = np.random.default_rng(config.seed)

    n = config.population_size
    memo: dict[bytes, FitnessBreakdown] = {}
    population = init_population(dims, config, archive, rng)
    scores = _score(values, population, config, archive, memo)
    records = []
    for gen in range(config.generations):
        if gen:
            # Breed: rank order, so row 0 holds the elite; tournaments read
            # the previous rows and scores.
            children = population[order]
            for row in range(1, n, 2):
                i = _tournament_index(f_vals, rng)
                j = _tournament_index(f_vals, rng)
                pair = crossover(
                    population[i], population[j], dims, config.p_crossover, rng
                )
                for r, child in zip(range(row, n), pair):
                    children[r] = repair(
                        mutate(child, config.p_mutation, rng), dims, rng
                    )
            # Score: the elite keeps its breakdown.
            population = children
            scores = [
                scores[order[0]],
                *_score(values, children[1:], config, archive, memo),
            ]
        f_vals = [s.f for s in scores]
        # Lower f ranks first; ties go to the lower row.
        order = sorted(range(n), key=lambda i: (f_vals[i], i))
        records.append(GenerationRecord(fmean(f_vals), scores[order[0]]))
    # Every generation after the first looks up its n - 1 children.
    memo_hits = n + (config.generations - 1) * (n - 1) - len(memo)
    trace = GenerationTrace(tuple(records), len(memo), memo_hits)
    return (decode(population[order[0]], dims), scores[order[0]]), trace


def run_triea(tensor, config: GAConfig, trace_sink=None) -> Archive:
    """Sequential covering: repeat the GA run, archiving each best candidate
    whose LSL is strictly below the threshold.

    A run failing the threshold guard stores nothing but still consumes its
    iteration, so the archive may end up smaller than ``n_triclusters``.
    ``trace_sink(run_index, trace)`` is invoked for every run when given.
    """
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

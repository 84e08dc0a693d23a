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
generation's best keeps row 0, and one call per operator breeds the block of
children in rows 1..P-1: tournament selection, crossover, mutation and
repair each take the whole block.  *Score*: one call scores those rows.  One
shared seeded generator drives a whole run in a fixed order; per bred
generation it draws the tournament pairs, the crossover coins and cuts, the
mutation coins and positions, then the repair draws of each row that needs
them, so a (tensor, config, seed) triple reproduces archives and traces bit
for bit.  Scoring consumes no randomness and reads only the finished rows,
so it may be batched or parallelized as long as results come back in row
order.

Scores are memoised per run: fitness is pure and a run scores every candidate
against one frozen archive snapshot, so each distinct candidate is decoded
and scored once and later copies reuse its breakdown.  The memo dies with
the run, because the next run sees a grown archive.
"""

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
    _check_bounds,
    _check_finite_reward,
    _choice,
    _integer,
    _nonnegative,
    _values,
)


def _segments(bits: np.ndarray, dims: tuple[int, int, int]):
    """The gene, condition and time views of one candidate's bits, or of each
    row of a block: slices of the last axis."""
    x, y, z = dims
    if bits.shape[-1] != x + y + z:
        raise ValueError(
            f"bit string length {bits.shape[-1]} != sum of segments {tuple(dims)}"
        )
    return bits[..., :x], bits[..., x : x + y], bits[..., x + y :]


def encode(coords: TriclusterCoords, dims: tuple[int, int, int]) -> np.ndarray:
    """Candidate with exactly the coords' bits set."""
    _check_bounds(dims, coords)
    bits = np.zeros(sum(dims), dtype=bool)
    axes = (coords.genes, coords.conditions, coords.times)
    for seg, idx in zip(_segments(bits, dims), axes):
        seg[list(idx)] = True
    return bits


def decode(bits: np.ndarray, dims: tuple[int, int, int]) -> TriclusterCoords:
    """Set-bit indices per segment; requires a repaired candidate."""
    indices = [tuple(seg.nonzero()[0].tolist()) for seg in _segments(bits, dims)]
    if min(map(len, indices)) < 2:
        raise ValueError(
            f"chromosome has segment sizes {tuple(map(len, indices))}; "
            "repair must run first"
        )
    # nonzero of a 1-D row yields sorted, unique, non-negative ints.
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
        # numpy would take True as 1 and fail on a float only mid-run.
        lows = {"population_size": 1, "generations": 1, "n_triclusters": 1, "seed": 0}
        for name, low in lows.items():
            object.__setattr__(self, name, _integer(getattr(self, name), name, low))
        for name in ("p_crossover", "p_mutation"):
            object.__setattr__(self, name, _nonnegative(getattr(self, name), name, 1))
        if not isinstance(self.quality_weights, QualityWeights):
            got = self.quality_weights
            raise TypeError(f"quality_weights: expected a QualityWeights, got {got!r}")
        # delta = 0 is allowed: it legitimately yields an empty archive.
        object.__setattr__(self, "delta", _nonnegative(self.delta, "delta"))
        _choice(self.slope_mode, SLOPE_MODES, "slope_mode")

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
    initialization of later runs.  ``runs`` holds each covering run's trace
    in run order, accepted or not; it is empty for an archive read back
    from its entries.
    """

    def __init__(self):
        self.entries: list[ArchiveEntry] = []
        self.runs: list[GenerationTrace] = []
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


def _distinct_pairs(n: int, size: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """``size`` uniform ordered pairs ``(i, j)`` of distinct indices below n."""
    i = rng.integers(n, size=size)
    return i, (i + rng.integers(1, n, size=size)) % n


def _tournament(fitness_values, size: int, rng) -> np.ndarray:
    """Winners of ``size`` size-2 tournaments over the scored individuals.

    Each tournament draws two distinct individuals and keeps the fitter:
    lower f wins, ties go to the lower population index.
    """
    f = np.asarray(fitness_values)
    i, j = _distinct_pairs(f.size, size, rng)
    i_wins = (f[i] < f[j]) | ((f[i] == f[j]) & (i < j))
    return np.where(i_wins, i, j)


def crossover(
    p1: np.ndarray, p2: np.ndarray, dims: tuple[int, int, int], p_c: float, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment single-point tail swap, applied with probability p_c.

    ``p1`` and ``p2`` are two candidates or two blocks paired row by row.
    Every pair draws its coin, then every pair draws one cut per segment, so
    segment boundaries are never crossed.  A cut lies in ``[1, size)`` and
    swaps the segment's tail from the cut on; a 1-wide segment's cut is 1,
    past its end, so it never swaps.  Offspring are fresh arrays either way
    and are not repaired here.
    """
    o1, o2 = p1.copy(), p2.copy()
    # The copies are contiguous, so their 2-D reshapes are views.
    segs1, segs2 = (_segments(o.reshape(-1, o.shape[-1]), dims) for o in (o1, o2))
    if o1.shape != o2.shape:
        raise ValueError(f"parents of shapes {p1.shape} and {p2.shape} do not pair")
    coins = rng.random(len(segs1[0])) < p_c
    cuts = rng.integers(1, np.maximum(dims, 2), size=(len(segs1[0]), 3))
    for s1, s2, cut in zip(segs1, segs2, cuts.T):
        d = (s1 ^ s2) & coins[:, None] & (np.arange(s1.shape[1]) >= cut[:, None])
        s1 ^= d
        s2 ^= d
    return o1, o2


def mutate(bits: np.ndarray, p_m: float, rng) -> np.ndarray:
    """With probability p_m flip exactly one uniformly chosen bit per row.

    Every row draws its coin, then every row draws its position.
    """
    out = bits.copy()
    rows = out.reshape(-1, out.shape[-1])
    flip = np.flatnonzero(rng.random(len(rows)) < p_m)
    pos = rng.integers(0, rows.shape[1], size=len(rows))[flip]
    rows[flip, pos] = ~rows[flip, pos]
    return out


def repair(bits: np.ndarray, dims: tuple[int, int, int], rng) -> np.ndarray:
    """Flip uniformly chosen unset bits on until every segment has >= 2.

    Takes one candidate or a block.  Only rows with a short segment draw,
    in row order; when no row needs repair the input itself comes back and
    nothing is drawn.
    """
    rows = bits.reshape(-1, bits.shape[-1])
    counts = np.stack(
        [np.count_nonzero(seg, axis=1) for seg in _segments(rows, dims)], axis=1
    )
    short = np.flatnonzero(counts.min(axis=1) < 2)
    if not short.size:
        return bits
    out = bits.copy()
    out_rows = out.reshape(rows.shape)
    for r in short.tolist():
        for seg, count in zip(_segments(out_rows[r], dims), counts[r].tolist()):
            if count >= 2:
                continue
            unset = np.flatnonzero(~seg)
            seg[rng.choice(unset, size=2 - count, replace=False)] = True
    return out


def _check_dims(dims: tuple[int, int, int]) -> None:
    """ValueError unless every axis holds the 2 indices a tricluster needs."""
    if min(dims) < 2:
        raise ValueError(f"every tensor axis needs length >= 2, got {dims}")


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
    then scores: the previous best keeps row 0 and wins ties there, and the
    P - 1 children fill rows 1..P-1.  They are bred as one block, one call
    per operator, and draw in this order: the ``2 * (P // 2)`` tournaments
    (every first contestant, then every offset to the second), the
    crossover of the ``P // 2`` parent pairs (every coin, then every cut),
    the mutation of the children (every coin, then every position; a pair's
    second child is dropped unmutated when one row is left), then the repair
    of each row that needs it, in row order.  A population of one breeds
    empty blocks, which draw nothing.  One ``_score`` call scores the
    children.  So every generation's best is the best so far and the final
    one is returned.
    """
    values = _values(tensor)
    dims = values.shape
    _check_dims(dims)
    if rng is None:
        rng = np.random.default_rng(config.seed)

    n = config.population_size
    memo: dict[bytes, FitnessBreakdown] = {}
    population = init_population(dims, config, archive, rng)
    scores = _score(values, population, config, archive, memo)
    records = []
    for gen in range(config.generations):
        if gen:
            # Breed: tournaments read the previous rows and scores.  A
            # population of one gets empty blocks, which draw nothing.
            parents = population[_tournament(f_vals, n // 2 * 2, rng)]
            pairs = crossover(
                parents[0::2], parents[1::2], dims, config.p_crossover, rng
            )
            # Interleave each pair's two children, then keep n - 1 rows.
            children = np.stack(pairs, axis=1).reshape(-1, population.shape[1])
            children = mutate(children[: n - 1], config.p_mutation, rng)
            children = repair(children, dims, rng)
            # Score: the elite keeps row 0 and its breakdown.
            population = np.concatenate([population[best : best + 1], children])
            scores = [scores[best], *_score(values, children, config, archive, memo)]
        f_vals = [s.f for s in scores]
        # Lower f wins; min keeps the first of equal keys, the lower row.
        best = min(range(n), key=f_vals.__getitem__)
        records.append(GenerationRecord(fmean(f_vals), scores[best]))
    # Every generation after the first looks up its n - 1 children.
    memo_hits = n + (config.generations - 1) * (n - 1) - len(memo)
    trace = GenerationTrace(tuple(records), len(memo), memo_hits)
    return (decode(population[best], dims), scores[best]), trace


def run_triea(tensor, config: GAConfig) -> Archive:
    """Sequential covering: repeat the GA run, archiving each best candidate
    whose LSL is strictly below the threshold.

    A run failing the threshold guard stores nothing but still consumes its
    iteration, so the archive may end up smaller than ``n_triclusters``;
    its ``runs`` keep all ``n_triclusters`` traces in run order.  Weights
    whose largest reward at the tensor's shape overflows are a ValueError,
    raised before any draw.
    """
    _check_finite_reward(config.quality_weights, _values(tensor).shape)
    rng = np.random.default_rng(config.seed)
    archive = Archive()
    for _ in range(config.n_triclusters):
        (coords, breakdown), trace = evolve_one_tricluster(
            tensor, config, archive, rng
        )
        archive.runs.append(trace)
        if config.accepts(breakdown):
            archive.add(coords, breakdown)
    return archive

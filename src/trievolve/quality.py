"""Quality measures for triclusters.

A tricluster is a subtensor of a (gene, condition, time) expression tensor,
addressed by three sorted index subsets.  Candidate quality combines:

* ``msr3d`` -- the three-way mean squared residue.  Zero exactly when the
  subtensor follows an additive model ``a_g + b_c + d_t``; lower means more
  homogeneous.
* ``lsl`` -- the least-squares-line measure: the average pairwise distance
  between fitted line slopes across three orthogonal views of the subtensor.
  Zero when all patterns within each view are parallel.
* ``weights_term`` -- a size reward, linear in the number of selected
  genes/conditions/times.
* ``distinction_term`` -- a novelty reward proportional to the fraction of a
  candidate's coordinates unused by already-archived triclusters.

The combined fitness is ``msr + lsl - weights - distinction`` and is
minimized.

``fitness`` gathers a candidate once, sums the block over times, conditions
and genes, and passes it to ``msr3d`` and ``lsl`` in place of ``(tensor,
coords)``.  The gather reads the tensor as one row per gene.  A candidate
with every condition and time takes only its gene rows.  Any other takes its
gene rows and its (condition, time) columns in two takes, and the first take
is the one that copies fewer cells: the selected columns of every gene, or
the selected genes' whole rows (the columns on a tie).  Either order gives
the same C-contiguous block.  The residual is
the block minus one term per pair of axes, folded from the three pairwise
means; each LSL slope is one pairwise sum's product with the centred x
positions.  Given ``(tensor, coords)``, ``msr3d`` and ``lsl`` gather their
own block.

Every sum and dot product is one call of numpy's einsum C entry,
``c_einsum``, bound once at import.  ``np.einsum`` without an ``optimize``
path makes this same call after its ``__array_function__`` dispatch and its
Python wrapper, which on a candidate's small operands cost about as much as
the sum itself, eleven times a candidate.  Calling it directly skips them
and runs the same C loops on the same operands, so every score keeps its
bits.

All functions are pure and operate on immutable inputs, so evaluating many
candidates concurrently against one shared tensor is safe.  ``tensor``
arguments accept either an :class:`~trievolve.tensor_io.ExpressionTensor` or
a bare 3D ``numpy`` array.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

try:
    from numpy._core.multiarray import c_einsum as _c_einsum
except ImportError:  # numpy 1.x, where importing numpy.core does not warn
    from numpy.core.multiarray import c_einsum as _c_einsum

MODE_OLS = "ols"
MODE_PAPER_LITERAL = "paper-literal"
SLOPE_MODES = (MODE_OLS, MODE_PAPER_LITERAL)


class SizePreconditionError(ValueError):
    """Coordinates too small for the requested measure (< 2 on some axis)."""


def _integer(value, name: str, low: int | None = None) -> int:
    """``value`` as a plain int; TypeError for a bool or a non-integer like
    4.5, ValueError when it is below ``low``."""
    if type(value) is not int:  # skips the far slower abstract-class check
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise TypeError(f"{name}: expected an integer, got {value!r}")
        value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _nonnegative(value, name: str, high: float = math.inf) -> float:
    """``value`` as a plain float; TypeError for a bool or a non-number,
    ValueError unless it is finite and in [0, ``high``] (JSON has no infinity)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range
        number = math.inf
    if not 0 <= number < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    if number > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return number


def _choice(value, choices: tuple, name: str):
    """``value`` itself; ValueError unless it is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}; expected one of {choices}")
    return value


@dataclass(frozen=True)
class TriclusterCoords:
    """Three sorted, duplicate-free index subsets addressing a subtensor.

    Indices must be integers: a bool (``np.True_`` included), a float or a
    string is a TypeError, not taken as 0 or 1, truncated or parsed.
    """

    genes: tuple[int, ...]
    conditions: tuple[int, ...]
    times: tuple[int, ...]

    def __post_init__(self):
        for name in ("genes", "conditions", "times"):
            idx = tuple(sorted({_integer(i, name, 0) for i in getattr(self, name)}))
            if not idx:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, idx)

    @classmethod
    def _trusted(cls, genes, conditions, times) -> "TriclusterCoords":
        """Coords from tuples of plain ints that are already sorted, unique,
        non-empty and non-negative, built without ``__post_init__``'s
        checks; the caller vouches for them (``engine.decode``)."""
        coords = object.__new__(cls)
        coords.__dict__.update(genes=genes, conditions=conditions, times=times)
        return coords

    @property
    def n_genes(self) -> int:
        return len(self.genes)

    @property
    def n_conditions(self) -> int:
        return len(self.conditions)

    @property
    def n_times(self) -> int:
        return len(self.times)

    @property
    def volume(self) -> int:
        """Number of cells in the addressed subtensor."""
        return self.n_genes * self.n_conditions * self.n_times

    def to_dict(self) -> dict:
        # Not dataclasses.asdict, which deep-copies every index first.
        return {
            "genes": list(self.genes),
            "conditions": list(self.conditions),
            "times": list(self.times),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TriclusterCoords":
        """Coords of a parsed JSON object."""
        return cls(d["genes"], d["conditions"], d["times"])


def jaccard_cells(a: TriclusterCoords, b: TriclusterCoords) -> float:
    """3D Jaccard overlap: |cells(a) & cells(b)| / |cells(a) | cells(b)|.

    Cell sets are Cartesian products, so the intersection size factorizes
    into per-axis intersection sizes.
    """
    inter = (
        len(set(a.genes) & set(b.genes))
        * len(set(a.conditions) & set(b.conditions))
        * len(set(a.times) & set(b.times))
    )
    union = a.volume + b.volume - inter
    return inter / union


def _values(tensor) -> np.ndarray:
    vals = np.asarray(getattr(tensor, "values", tensor), dtype=np.float64)
    if vals.ndim != 3:
        raise ValueError(f"expected a 3D tensor, got shape {vals.shape}")
    return vals


def _check_bounds(shape, coords: TriclusterCoords) -> None:
    """IndexError naming the first axis of ``shape`` that ``coords`` overrun."""
    axes = (coords.genes, coords.conditions, coords.times)
    for name, idx, limit in zip(("gene", "condition", "time"), axes, shape):
        if idx[-1] >= limit:
            raise IndexError(
                f"{name} index {idx[-1]} out of bounds for axis of length {limit}"
            )


def _subtensor(values: np.ndarray, coords: TriclusterCoords) -> np.ndarray:
    _check_bounds(values.shape, coords)
    # The same C-contiguous block as ``values[np.ix_(genes, conditions,
    # times)]``, from two takes on a (gene, condition * time) matrix: the
    # gene rows and the ``c * n_t + t`` column offsets.  The block must stay
    # C-contiguous: its einsum sums round differently over another memory
    # layout.  Coords are sorted and unique, so when both subsets are as
    # long as their axes every column is kept and the column take is
    # skipped.  Otherwise the take that copies fewer cells goes first: the
    # columns of every gene (n_g * k cells) or the rows of the selected
    # genes (g * n_c * n_t); the second take copies g * k cells either way.
    # A take always copies, so ``_residual`` never writes into ``values``.
    n_g, n_c, n_t = values.shape
    genes, conditions, times = coords.genes, coords.conditions, coords.times
    rows = values.reshape(n_g, n_c * n_t)
    # fromiter converts a tuple about twice as fast as take's own path.
    gene_rows = np.fromiter(genes, np.intp, len(genes))
    if len(conditions) == n_c and len(times) == n_t:
        block = rows.take(gene_rows, 0)
    else:
        kept_c = np.fromiter(conditions, np.intp, len(conditions))
        kept_t = np.fromiter(times, np.intp, len(times))
        columns = np.add.outer(np.multiply(kept_c, n_t), kept_t).ravel()
        if n_g * columns.size <= len(genes) * n_c * n_t:
            block = rows.take(columns, 1).take(gene_rows, 0)
        else:
            block = rows.take(gene_rows, 0).take(columns, 1)
    return block.reshape(len(genes), len(conditions), len(times))


class _Block(NamedTuple):
    """A gathered subtensor and its sums over times, conditions and genes.
    ``_residual`` overwrites ``sub``; the slopes read only the sums."""

    sub: np.ndarray  # (genes, conditions, times)
    s_gc: np.ndarray  # summed over times
    s_gt: np.ndarray  # summed over conditions
    s_ct: np.ndarray  # summed over genes


def _block(tensor, coords: TriclusterCoords | None) -> _Block:
    # A ready block passes through, so ``fitness`` gathers once yet still
    # scores through the module globals ``msr3d`` and ``lsl``, which a
    # tracer may patch.
    if isinstance(tensor, _Block):
        return tensor
    sub = _subtensor(_values(tensor), coords)
    # einsum sums a short or strided axis several times faster than
    # ``sum(axis=...)``.  Unlike BLAS products, it rounds the same whatever
    # the thread count, so scores do not depend on the machine's cores.
    # ``_c_einsum`` is the C function ``np.einsum`` returns from when no
    # optimize path is asked for: the same sums, bit for bit, without the
    # dispatch and wrapper in front of it.
    return _Block(
        sub,
        _c_einsum("gct->gc", sub),
        _c_einsum("gct->gt", sub),
        _c_einsum("gct->ct", sub),
    )


def _residual(b: _Block) -> np.ndarray:
    # The residue x - m_gc - m_gt - m_ct + m_g + m_c + m_t - m, formed in
    # place in the block's gather: the single-axis means and the grand mean
    # are folded into the three pairwise means, one subtraction per pair.
    # The pairwise means are fresh arrays, so the folds run in place in
    # them, in the order ``(m_gc - m_g)``, ``(m_gt - m_t)`` and ``(m_ct -
    # m_c) + m``; the block's sums stay as they are for ``lsl``.
    n_g, n_c, n_t = b.sub.shape
    m_gc = np.true_divide(b.s_gc, n_t)
    m_gt = np.true_divide(b.s_gt, n_c)
    m_ct = np.true_divide(b.s_ct, n_g)
    # The ufuncs are called directly: ``ndarray.sum`` and ``-=`` wrap the
    # same calls in more Python.
    m_g = _c_einsum("gc->g", m_gc) / n_c
    m_c, m_t = np.add.reduce(m_ct, 1) / n_t, np.add.reduce(m_ct, 0) / n_c
    np.subtract(m_gc, m_g[:, None], out=m_gc)
    np.subtract(m_gt, m_t, out=m_gt)
    np.subtract(m_ct, m_c[:, None], out=m_ct)
    np.add(m_ct, np.add.reduce(m_t) / n_t, out=m_ct)
    r = b.sub
    np.subtract(r, m_gc[:, :, None], out=r)
    np.subtract(r, m_gt[:, None, :], out=r)
    np.subtract(r, m_ct, out=r)
    return r


def msr3d(tensor, coords: TriclusterCoords | None = None) -> float:
    """Mean squared residue over all cells of the subtensor.

    Zero iff the subtensor is exactly additive across its three axes; the
    measure is invariant under constant shifts and scales quadratically.
    """
    r = _residual(_block(tensor, coords))
    return float(_c_einsum("gct,gct->", r, r)) / r.size


def _centred(n: int) -> tuple[np.ndarray, float]:
    """The centred positions 0..n-1 and their sum of squares.  They hold
    exact halves or integers, so the closed form n * (n*n - 1) / 12 is
    ``xc @ xc`` bit for bit."""
    return np.arange(-(n - 1) / 2, n / 2), n * (n * n - 1) / 12


def _view_slopes(b: _Block, ols: bool) -> tuple[np.ndarray, ...]:
    """The slopes of the time, condition and gene views, in that order (see
    ``lsl``); each line's y is summed over the view's replication axis, whose
    length scales the OLS slope and is dropped for paper-literal ones."""
    # With x centred, (n*sum_xy - sum_x*sum_y) / (n*sum_xx - sum_x**2) is
    # ys @ xc / (replication * xc @ xc).  The time and condition views both
    # fit over gene positions, so they share one xc.
    n_g, n_c, n_t = b.sub.shape
    x_g, ss_g = _centred(n_g)
    x_t, ss_t = _centred(n_t)
    r_c, r_t, r_g = (n_c, n_t, n_g) if ols else (1, 1, 1)
    return (
        _c_einsum("lx,x->l", b.s_gt.T, x_g) / (r_c * ss_g),
        _c_einsum("lx,x->l", b.s_gc.T, x_g) / (r_t * ss_g),
        _c_einsum("lx,x->l", b.s_ct, x_t) / (r_g * ss_t),
    )


def _mean_pairwise_distance(s: np.ndarray) -> float:
    # Sum of |s_i - s_j| over ordered pairs, divided by (n-1)*n: the k-th
    # smallest (0-based) enters with a net weight of 2k - n + 1.  Shifting
    # by the smallest keeps a large common offset out of the weighted sum.
    # ``s`` is sorted and shifted in place: ``lsl`` hands over fresh slopes,
    # and ``s.sort()`` is the quicksort ``np.sort`` runs after a copy.
    n = s.size
    s.sort()
    s -= s[0]
    return 2.0 * float(_c_einsum("k,k->", np.arange(1 - n, n, 2.0), s)) / ((n - 1) * n)


def lsl(tensor, coords: TriclusterCoords | None = None, mode: str = MODE_OLS) -> float:
    """Least-squares-line measure: mean over the three views of the average
    pairwise distance between that view's fitted slopes.

    Each view fits one regression line per coordinate of one axis.  y is
    always the expression value and x a 0-based position within the sorted
    coords subset, so the slopes do not depend on which absolute rows were
    selected:

    * time-view: one line per selected time, x = gene position, points ranging
      over genes x conditions.
    * condition-view: one line per selected condition, x = gene position,
      points ranging over times x genes.
    * gene-view: one line per selected condition, x = time position, points
      ranging over times x genes.

    ``mode="ols"`` fits the exact ordinary-least-squares slope over the full
    point set.  ``mode="paper-literal"`` evaluates the accumulator formulas
    with the point count and x-sums taken over the x-axis subset only, i.e.
    without the replication factor of the second summation index; the two
    modes differ by exactly that factor.

    Requires at least 2 selected genes, conditions and times; callers must
    repair degenerate candidates first.
    """
    b = _block(tensor, coords)
    if min(b.sub.shape) < 2:
        raise SizePreconditionError(
            f"lsl needs >= 2 selected indices per axis, got {b.sub.shape}"
        )
    ols = _choice(mode, SLOPE_MODES, "slope mode") == MODE_OLS
    t_r, c_r, g_r = map(_mean_pairwise_distance, _view_slopes(b, ols))
    return (t_r + c_r + g_r) / 3.0


@dataclass(frozen=True)
class QualityWeights:
    """Per-axis size weights (w_*) and distinction weights (wd_*)."""

    w_g: float = 0.1
    w_c: float = 0.1
    w_t: float = 0.1
    wd_g: float = 0.1
    wd_c: float = 0.1
    wd_t: float = 0.1

    def __post_init__(self):
        for name in ("w_g", "w_c", "w_t", "wd_g", "wd_c", "wd_t"):
            object.__setattr__(self, name, _nonnegative(getattr(self, name), name))


def weights_term(coords: TriclusterCoords, w: QualityWeights) -> float:
    """Size reward: G_l*w_g + C_l*w_c + T_l*w_t (subtracted from fitness)."""
    return (
        coords.n_genes * w.w_g
        + coords.n_conditions * w.w_c
        + coords.n_times * w.w_t
    )


def _check_finite_reward(w: QualityWeights, counts) -> None:
    """ValueError when the largest reward a candidate of ``counts`` genes,
    conditions and times can score, its size reward plus every distinction
    weight, is not finite: scoring would then overflow whatever the values."""
    n_g, n_c, n_t = counts
    reward = n_g * w.w_g + n_c * w.w_c + n_t * w.w_t
    largest = reward + w.wd_g + w.wd_c + w.wd_t
    if not math.isfinite(largest):
        raise ValueError(
            f"weights too large: the size reward of {n_g} genes, {n_c} conditions "
            f"and {n_t} times plus the distinction weights is {largest!r}"
        )


def distinction_term(coords: TriclusterCoords, archive, w: QualityWeights) -> float:
    """Novelty reward against already-archived triclusters.

    For each axis, counts the candidate's coordinates absent from every
    archived tricluster and weights the novel fraction.  ``archive`` is None
    for an empty archive, or any object with ``covered_genes``,
    ``covered_conditions`` and ``covered_times`` sets of the indices its
    entries use: an :class:`~trievolve.engine.Archive`, or a namespace of
    such sets.  Larger means more novel, and the term is subtracted from
    fitness so novelty is rewarded.
    """
    axes = (coords.genes, coords.conditions, coords.times)
    covered = (frozenset(),) * 3 if archive is None else (
        archive.covered_genes, archive.covered_conditions, archive.covered_times
    )
    # idx is duplicate-free, so its novel count is its length less its
    # covered count.
    return sum(
        (len(idx) - len(cov.intersection(idx))) / len(idx) * wd
        for idx, cov, wd in zip(axes, covered, (w.wd_g, w.wd_c, w.wd_t))
    )


@dataclass(frozen=True)
class FitnessBreakdown:
    """One candidate's quality components and their combined value."""

    msr: float
    lsl: float
    weights: float
    distinction: float
    f: float

    @classmethod
    def compose(
        cls, msr: float, lsl: float, weights: float, distinction: float
    ) -> "FitnessBreakdown":
        # f is defined by exactly this expression; tests assert the identity
        # bit-for-bit, so it must not be recomputed any other way.
        return cls(msr, lsl, weights, distinction, msr + lsl - weights - distinction)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def fitness(
    tensor,
    coords: TriclusterCoords,
    w: QualityWeights,
    archive=None,
    mode: str = MODE_OLS,
) -> FitnessBreakdown:
    """Evaluate a candidate: f = msr + lsl - weights - distinction (minimize).

    May be negative: the size and novelty rewards can exceed the residue
    terms for large, near-perfect candidates.
    """
    # One gather per call: msr3d and lsl read the same block.
    block = _block(tensor, coords)
    return FitnessBreakdown.compose(
        msr=msr3d(block),
        lsl=lsl(block, mode=mode),
        weights=float(weights_term(coords, w)),
        distinction=float(distinction_term(coords, archive, w)),
    )

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trievolve import (
    FitnessBreakdown,
    QualityWeights,
    SizePreconditionError,
    TriclusterCoords,
    distinction_term,
    fitness,
    jaccard_cells,
    lsl,
    msr3d,
    residual,
    view_slopes,
    weights_term,
)
from trievolve.engine import Archive
from trievolve import naive
from trievolve import quality
from trievolve.quality import _mean_pairwise_distance, _subtensor

from conftest import make_tensor, random_coords


def additive_tensor(a, b, d):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    d = np.asarray(d, float)
    return a[:, None, None] + b[None, :, None] + d[None, None, :]


# Seeded fixture; expected values below were computed once with the naive
# oracles and frozen.
FROZEN_TENSOR = np.random.default_rng(20240611).random((6, 5, 4))
FROZEN_COORDS = TriclusterCoords((0, 2, 3, 5), (1, 2, 4), (0, 1, 3))
FROZEN_MSR = 0.019331889468296528
FROZEN_LSL_OLS = 0.07758279897842081
FROZEN_LSL_LITERAL = 0.268063142754969
FROZEN_RESIDUAL_243 = -0.04138147341014131
FROZEN_TIME_SLOPES_OLS = (
    -0.06185887886061296,
    0.055696541784640737,
    0.07413081988366968,
)


class TestCoords:
    def test_sorted_and_deduped(self):
        c = TriclusterCoords((3, 1, 1), (2, 0), (5, 4))
        assert c.genes == (1, 3)
        assert c.conditions == (0, 2)
        assert c.times == (4, 5)
        assert (c.n_genes, c.n_conditions, c.n_times) == (2, 2, 2)
        assert c.volume == 8

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError):
            TriclusterCoords((), (0, 1), (0, 1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TriclusterCoords((-1, 2), (0, 1), (0, 1))

    def test_from_dict_rejects_bools(self):
        with pytest.raises(TypeError, match="expected an integer"):
            TriclusterCoords.from_dict(
                {"genes": [0, 1], "conditions": [0, 1], "times": [0, True]}
            )

    def test_jaccard(self):
        a = TriclusterCoords((0, 1), (0, 1), (0, 1))
        assert jaccard_cells(a, a) == 1.0
        b = TriclusterCoords((2, 3), (0, 1), (0, 1))
        assert jaccard_cells(a, b) == 0.0
        c = TriclusterCoords((0, 1, 2, 3), (0, 1), (0, 1))
        assert jaccard_cells(a, c) == pytest.approx(0.5)


class TestResidual:
    def test_constant_subtensor_zero(self):
        tensor = make_tensor(np.full((4, 4, 4), 5.0))
        coords = TriclusterCoords((0, 1), (1, 2), (2, 3))
        for g in coords.genes:
            for c in coords.conditions:
                for t in coords.times:
                    assert residual(tensor, coords, g, c, t) == pytest.approx(0.0)

    def test_additive_subtensor_zero(self, rng):
        values = additive_tensor(rng.normal(size=5), rng.normal(size=4), rng.normal(size=4))
        coords = TriclusterCoords((0, 2, 4), (0, 1, 3), (1, 2))
        for g in coords.genes:
            for c in coords.conditions:
                for t in coords.times:
                    assert residual(values, coords, g, c, t) == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        values = rng.random((3, 3, 3))
        coords = TriclusterCoords((0, 1, 2), (0, 1, 2), (0, 1, 2))
        for g in range(3):
            for c in range(3):
                for t in range(3):
                    assert residual(values, coords, g, c, t) == pytest.approx(
                        naive.residual_naive(values, coords, g, c, t), abs=1e-12
                    )

    def test_frozen_value(self):
        got = residual(FROZEN_TENSOR, FROZEN_COORDS, 2, 4, 3)
        assert got == pytest.approx(FROZEN_RESIDUAL_243, abs=1e-12)

    def test_outside_coords_errors(self):
        coords = TriclusterCoords((0, 1), (0, 1), (0, 1))
        with pytest.raises(ValueError, match="outside"):
            residual(FROZEN_TENSOR, coords, 5, 0, 0)

    def test_residuals_sum_to_zero(self, rng):
        # Algebraic identity of the residue decomposition.
        for _ in range(25):
            values = rng.random((6, 5, 4))
            coords = random_coords(rng, (6, 5, 4))
            total = math.fsum(
                residual(values, coords, g, c, t)
                for g in coords.genes
                for c in coords.conditions
                for t in coords.times
            )
            scale = sum(
                abs(residual(values, coords, g, c, t))
                for g in coords.genes
                for c in coords.conditions
                for t in coords.times
            )
            assert abs(total) <= 1e-6 * max(scale, 1e-12)


@st.composite
def tensor_and_coords(draw):
    shape = tuple(draw(st.integers(1, 7)) for _ in range(3))
    values = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
    values = draw(st.sampled_from([values, np.sqrt(values) - 3.5]))
    picks = [
        tuple(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        for n in shape
    ]
    return values, TriclusterCoords(*picks)


class TestSubtensor:
    @settings(max_examples=300, deadline=None)
    @given(tensor_and_coords())
    def test_matches_ix_gather_and_is_c_contiguous(self, case):
        # msr3d and lsl reduce over this block; their last bits depend on
        # its layout, so it must equal the np.ix_ gather in values and
        # stay C-contiguous.
        values, coords = case
        got = _subtensor(values, coords)
        want = values[np.ix_(coords.genes, coords.conditions, coords.times)]
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous

    def test_out_of_bounds(self):
        with pytest.raises(IndexError):
            _subtensor(np.zeros((3, 3, 3)), TriclusterCoords((0, 1), (0, 3), (0,)))

    @pytest.mark.parametrize("layout", ["transposed", "fortran"])
    def test_non_c_contiguous_values(self, rng, layout):
        # The gather reads values as a (gene, condition * time) matrix; a
        # bare array in another layout must give the same block, still
        # C-contiguous and still a copy.
        shape = (7, 4, 5)
        if layout == "transposed":
            values = rng.random(shape[::-1]).T
        else:
            values = np.asfortranarray(rng.random(shape))
        assert not values.flags.c_contiguous
        for _ in range(30):
            coords = random_coords(rng, shape, min_size=1)
            got = _subtensor(values, coords)
            want = values[np.ix_(coords.genes, coords.conditions, coords.times)]
            assert got.tobytes() == want.tobytes() and got.shape == want.shape
            assert got.flags.c_contiguous
            assert not np.shares_memory(got, values)

    # Axes whose coords select every index, so _subtensor skips their take.
    @pytest.mark.parametrize("full", [
        ("conditions",), ("times",), ("conditions", "times"),
        ("genes", "conditions", "times"),
    ])
    @pytest.mark.parametrize("full_width", [2, 4])
    def test_full_axes_leave_values_untouched(self, rng, full, full_width):
        # _residual works in place in the block; the block must never be
        # (a view of) the caller's tensor.
        names = ("genes", "conditions", "times")
        shape = tuple(full_width if n in full else 5 for n in names)
        values = rng.random(shape)
        before = values.copy()
        coords = TriclusterCoords(*(
            range(width) if n in full else (0, 2, 4) for n, width in zip(names, shape)
        ))
        block = _subtensor(values, coords)
        assert block.flags.c_contiguous
        assert not np.shares_memory(block, values)
        for mode in MODES:
            fitness(values, coords, QualityWeights(), mode=mode)
            lsl(values, coords, mode)
        msr3d(values, coords)
        residual(values, coords, coords.genes[-1], coords.conditions[0], coords.times[1])
        assert values.tobytes() == before.tobytes()


class TestMsr3d:
    def test_constant_zero(self):
        coords = TriclusterCoords((0, 1), (0, 1), (0, 1))
        assert msr3d(np.full((3, 3, 3), 7.0), coords) == 0.0

    def test_additive_integer_pattern_zero(self):
        # x(g,c,t) = g + 2c + 3t on a full 3x3x3 grid
        values = additive_tensor(np.arange(3), 2.0 * np.arange(3), 3.0 * np.arange(3))
        coords = TriclusterCoords((0, 1, 2), (0, 1, 2), (0, 1, 2))
        assert msr3d(values, coords) <= 1e-9

    def test_frozen_value(self):
        assert msr3d(FROZEN_TENSOR, FROZEN_COORDS) == pytest.approx(
            FROZEN_MSR, abs=1e-12
        )

    def test_matches_naive_oracle(self, rng):
        values = rng.random((6, 5, 4))
        for _ in range(100):
            coords = random_coords(rng, (6, 5, 4))
            assert msr3d(values, coords) == pytest.approx(
                naive.msr3d_naive(values, coords), abs=1e-9
            )

    def test_out_of_bounds(self):
        coords = TriclusterCoords((0, 9), (0, 1), (0, 1))
        with pytest.raises(IndexError):
            msr3d(np.zeros((3, 3, 3)), coords)


class TestViewSlopes:
    def test_constant_all_zero_both_modes(self):
        coords = TriclusterCoords((0, 1, 2), (0, 1), (0, 1, 2))
        values = np.full((4, 3, 4), 2.5)
        for axis in ("time-view", "condition-view", "gene-view"):
            for mode in ("ols", "paper-literal"):
                slopes = view_slopes(values, coords, axis, mode)
                assert all(s == pytest.approx(0.0) for s in slopes)

    def test_linear_in_gene_position_gives_slope_two(self):
        # x(g,c,t) = 2 * gene position; every time-view line has slope 2.
        values = np.broadcast_to(
            2.0 * np.arange(5)[:, None, None], (5, 3, 4)
        ).copy()
        coords = TriclusterCoords((0, 1, 2, 3, 4), (0, 1, 2), (0, 1, 2, 3))
        slopes = view_slopes(values, coords, "time-view", "ols")
        assert all(s == pytest.approx(2.0) for s in slopes)

    def test_positions_not_raw_indices(self):
        # Slopes must not depend on which absolute rows were selected.
        rng = np.random.default_rng(5)
        block = rng.random((3, 2, 3))
        big = np.zeros((30, 20, 30))
        lo = TriclusterCoords((0, 1, 2), (0, 1), (0, 1, 2))
        hi = TriclusterCoords((10, 20, 25), (5, 15), (4, 9, 29))
        big[np.ix_(lo.genes, lo.conditions, lo.times)] = block
        big2 = np.zeros((30, 20, 30))
        big2[np.ix_(hi.genes, hi.conditions, hi.times)] = block
        for axis in ("time-view", "condition-view", "gene-view"):
            a = view_slopes(big, lo, axis, "ols")
            b = view_slopes(big2, hi, axis, "ols")
            assert a == pytest.approx(b)

    def test_frozen_time_view(self):
        slopes = view_slopes(FROZEN_TENSOR, FROZEN_COORDS, "time-view", "ols")
        assert slopes == pytest.approx(FROZEN_TIME_SLOPES_OLS, abs=1e-12)

    @pytest.mark.parametrize("axis", ["time-view", "condition-view", "gene-view"])
    @pytest.mark.parametrize("mode", ["ols", "paper-literal"])
    def test_matches_point_list_oracle(self, rng, axis, mode):
        values = rng.random((5, 4, 4))
        for _ in range(40):
            coords = random_coords(rng, (5, 4, 4))
            got = view_slopes(values, coords, axis, mode)
            want = naive.view_slopes_naive(values, coords, axis, mode)
            assert got == pytest.approx(want, abs=1e-9)

    def test_modes_differ_by_replication_factor(self, rng):
        values = rng.random((5, 4, 4))
        coords = random_coords(rng, (5, 4, 4))
        literal = view_slopes(values, coords, "time-view", "paper-literal")
        exact = view_slopes(values, coords, "time-view", "ols")
        for lit, ex in zip(literal, exact):
            assert lit == pytest.approx(ex * coords.n_conditions, rel=1e-9)

    def test_size_precondition(self):
        values = np.zeros((4, 4, 4))
        thin_genes = TriclusterCoords((0,), (0, 1), (0, 1))
        with pytest.raises(SizePreconditionError):
            view_slopes(values, thin_genes, "time-view")
        thin_times = TriclusterCoords((0, 1), (0, 1), (2,))
        with pytest.raises(SizePreconditionError):
            view_slopes(values, thin_times, "gene-view")

    def test_centred_positions_and_closed_form_sum_of_squares(self):
        # _slopes builds the centred x positions with one arange and takes
        # xc @ xc from its closed form; both must equal the direct forms
        # bit for bit at every line length.
        for n in range(2, 5001):
            xc = np.arange(-(n - 1) / 2, n / 2)
            assert xc.tobytes() == (np.arange(n) - (n - 1) / 2).tobytes(), n
            assert n * (n * n - 1) / 12 == float(xc @ xc), n

    def test_unknown_axis_and_mode(self):
        coords = TriclusterCoords((0, 1), (0, 1), (0, 1))
        with pytest.raises(ValueError):
            view_slopes(np.zeros((3, 3, 3)), coords, "diagonal-view")
        with pytest.raises(ValueError):
            view_slopes(np.zeros((3, 3, 3)), coords, "time-view", "wls")


class TestLsl:
    def test_constant_zero(self):
        coords = TriclusterCoords((0, 1), (0, 1), (0, 1))
        assert lsl(np.full((3, 3, 3), 1.0), coords) == 0.0

    def test_parallel_pattern_zero_in_ols(self):
        values = np.broadcast_to(2.0 * np.arange(6)[:, None, None], (6, 4, 5)).copy()
        coords = TriclusterCoords(tuple(range(6)), (0, 2, 3), (0, 1, 4))
        assert lsl(values, coords, "ols") == pytest.approx(0.0, abs=1e-12)

    def test_frozen_values(self):
        assert lsl(FROZEN_TENSOR, FROZEN_COORDS, "ols") == pytest.approx(
            FROZEN_LSL_OLS, abs=1e-12
        )
        assert lsl(FROZEN_TENSOR, FROZEN_COORDS, "paper-literal") == pytest.approx(
            FROZEN_LSL_LITERAL, abs=1e-12
        )

    @pytest.mark.parametrize("mode", ["ols", "paper-literal"])
    def test_matches_point_list_oracle(self, rng, mode):
        values = rng.random((6, 5, 4))
        for _ in range(100):
            coords = random_coords(rng, (6, 5, 4))
            assert lsl(values, coords, mode) == pytest.approx(
                naive.lsl_naive(values, coords, mode), abs=1e-9
            )

    @pytest.mark.parametrize("mode", ["ols", "paper-literal"])
    def test_matches_point_list_oracle_at_large_offset(self, rng, mode):
        values = rng.random((6, 5, 4)) + 1e6
        for _ in range(300):
            coords = random_coords(rng, (6, 5, 4))
            assert lsl(values, coords, mode) == pytest.approx(
                naive.lsl_naive(values, coords, mode), abs=1e-9
            )

    def test_size_precondition(self):
        coords = TriclusterCoords((0, 1), (0,), (0, 1))
        with pytest.raises(SizePreconditionError):
            lsl(np.zeros((3, 3, 3)), coords)


VIEW_NAMES = ("time-view", "condition-view", "gene-view")
MODES = ("ols", "paper-literal")


@st.composite
def ill_conditioned(draw):
    """A random tensor, an input class and coords selecting 2 or more indices
    per axis; axes may be only 2 wide."""
    shape = tuple(draw(st.integers(2, 6)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.random(shape)
    kind = draw(st.sampled_from(
        ["plain", "uniform", "gene", "condition", "time", "near-constant"]
    ))
    if kind == "uniform":
        values = u + draw(st.floats(-1e6, 1e6))
    elif kind == "near-constant":
        values = 3.3 + 1e-7 * u
    elif kind != "plain":
        axis = ("gene", "condition", "time").index(kind)
        offsets = rng.uniform(-1e6, 1e6, shape[axis])
        values = u + np.expand_dims(offsets, [a for a in range(3) if a != axis])
    else:
        values = u
    picks = [
        tuple(draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n)))
        for n in shape
    ]
    return kind, values, TriclusterCoords(*picks)


def exact_residual(values, coords, g, c, t):
    gs, cs, ts = coords.genes, coords.conditions, coords.times
    x = {
        (i, j, k): Fraction(float(values[i, j, k]))
        for i in gs for j in cs for k in ts
    }

    def mean(cells):
        cells = list(cells)
        return sum(x[cell] for cell in cells) / len(cells)

    return (
        x[g, c, t]
        + mean((i, j, t) for i in gs for j in cs)
        + mean((i, c, k) for i in gs for k in ts)
        + mean((g, j, k) for j in cs for k in ts)
        - mean((i, c, t) for i in gs)
        - mean((g, j, t) for j in cs)
        - mean((g, c, k) for k in ts)
        - mean(x)
    )


# The axis each view's lines are replicated over.  A paper-literal slope is
# the OLS slope times that axis's length, and so is its rounding.
REPLICATION = {
    "time-view": "n_conditions", "condition-view": "n_times", "gene-view": "n_genes",
}


def tolerance(coords, mode, views=VIEW_NAMES) -> float:
    """1e-9 in OLS slope units."""
    if mode == "ols":
        return 1e-9
    return 1e-9 * max(getattr(coords, REPLICATION[v]) for v in views)


class TestOracleFuzz:
    """The one-gather kernel against naive.py on ill-conditioned inputs.

    At offsets of 1e6 the oracle's own rounding reaches 1e-9 in the
    eight-term residue.  There the kernel is held to exact arithmetic over
    the same points instead, a stricter reference.  The oracle's
    paper-literal slopes are exact already, rounded once.
    """

    @settings(max_examples=150, deadline=None)
    @given(ill_conditioned())
    def test_msr3d_and_lsl(self, case):
        _, values, coords = case
        assert msr3d(values, coords) == pytest.approx(
            naive.msr3d_naive(values, coords), abs=1e-9
        )
        for mode in MODES:
            got = lsl(values, coords, mode)
            want = naive.lsl_naive(values, coords, mode)
            assert got == pytest.approx(want, abs=tolerance(coords, mode)), mode

    @settings(max_examples=150, deadline=None)
    @given(ill_conditioned())
    def test_view_slopes(self, case):
        # Per-axis offsets make slopes as large as the offsets, so slopes
        # are compared relative to the largest one when that exceeds 1.
        _, values, coords = case
        for mode in MODES:
            for axis in VIEW_NAMES:
                got = view_slopes(values, coords, axis, mode)
                want = naive.view_slopes_naive(values, coords, axis, mode)
                tol = tolerance(coords, mode, [axis]) * max(1.0, *map(abs, want))
                assert got == pytest.approx(want, abs=tol), (mode, axis)

    @settings(max_examples=150, deadline=None)
    @given(ill_conditioned(), st.data())
    def test_residual(self, case, data):
        kind, values, coords = case
        g, c, t = (data.draw(st.sampled_from(axis)) for axis in (
            coords.genes, coords.conditions, coords.times
        ))
        if kind in ("plain", "near-constant"):
            want = naive.residual_naive(values, coords, g, c, t)
        else:
            want = float(exact_residual(values, coords, g, c, t))
        assert residual(values, coords, g, c, t) == pytest.approx(want, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-3, 3).map(float),
        min_size=2, max_size=12,
    ))
    def test_sorted_mean_pairwise_distance(self, slopes):
        want = naive._mean_pairwise(slopes)
        got = _mean_pairwise_distance(np.array(slopes))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-9)

    def test_fitness_gathers_once(self, rng, monkeypatch):
        calls = []

        def counting(values, coords):
            calls.append(coords)
            return _subtensor(values, coords)

        monkeypatch.setattr(quality, "_subtensor", counting)
        values = rng.random((6, 5, 4))
        for mode in MODES:
            calls.clear()
            coords = random_coords(rng, (6, 5, 4))
            b = fitness(values, coords, QualityWeights(), mode=mode)
            assert calls == [coords]
            assert b.msr == msr3d(values, coords)
            assert b.lsl == lsl(values, coords, mode)


class TestScalingAndShift:
    def test_msr_scales_quadratically_lsl_linearly(self, rng):
        for _ in range(20):
            values = rng.random((6, 5, 4))
            coords = random_coords(rng, (6, 5, 4))
            k = float(rng.uniform(-3.0, 3.0))
            if abs(k) < 1e-3:
                k = 1.7
            assert msr3d(k * values, coords) == pytest.approx(
                k * k * msr3d(values, coords), rel=1e-9
            )
            for mode in ("ols", "paper-literal"):
                assert lsl(k * values, coords, mode) == pytest.approx(
                    abs(k) * lsl(values, coords, mode), rel=1e-9
                )

    def test_shift_invariance(self, rng):
        for _ in range(20):
            values = rng.random((6, 5, 4))
            coords = random_coords(rng, (6, 5, 4))
            s = float(rng.uniform(-10.0, 10.0))
            assert msr3d(values + s, coords) == pytest.approx(
                msr3d(values, coords), rel=1e-9, abs=1e-12
            )
            assert lsl(values + s, coords) == pytest.approx(
                lsl(values, coords), rel=1e-9, abs=1e-12
            )


class TestWeightsTerm:
    def test_basic_arithmetic(self):
        coords = TriclusterCoords(tuple(range(5)), (0, 1), (0, 1, 2))
        w = QualityWeights()
        assert weights_term(coords, w) == pytest.approx(1.0)

    def test_zero_weights(self):
        coords = TriclusterCoords(tuple(range(5)), (0, 1), (0, 1, 2))
        w = QualityWeights(w_g=0, w_c=0, w_t=0)
        assert weights_term(coords, w) == 0.0

    def test_inversion_consistency(self):
        # A reported weights value of 7.7 under 0.1 per-axis weights implies
        # 77 selected indices in total.
        assert 7.7 / 0.1 == pytest.approx(77)
        coords = TriclusterCoords(tuple(range(70)), tuple(range(4)), (0, 1, 2))
        assert weights_term(coords, QualityWeights()) == pytest.approx(7.7)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            QualityWeights(w_g=-0.1)


class TestDistinctionTerm:
    def test_empty_archive_full_novelty(self):
        coords = TriclusterCoords((0, 1, 2), (0, 1), (0, 1))
        w = QualityWeights()
        assert distinction_term(coords, None, w) == pytest.approx(0.3)
        assert distinction_term(coords, Archive(), w) == pytest.approx(0.3)

    def test_self_in_archive_zero(self):
        coords = TriclusterCoords((0, 1, 2), (0, 1), (0, 1))
        archive = Archive()
        archive.add(coords, FitnessBreakdown.compose(0, 0, 0, 0))
        assert distinction_term(coords, archive, QualityWeights()) == 0.0

    def test_partial_overlap(self):
        # 3 of 6 genes, 1 of 2 conditions, 2 of 4 times unseen, wd all 0.1.
        candidate = TriclusterCoords(tuple(range(6)), (0, 1), (0, 1, 2, 3))
        archived = TriclusterCoords((0, 1, 2), (0,), (0, 1))
        archive = Archive()
        archive.add(archived, FitnessBreakdown.compose(0, 0, 0, 0))
        got = distinction_term(candidate, archive, QualityWeights())
        assert got == pytest.approx(0.15)

    def test_monotone_under_archive_growth(self, rng):
        w = QualityWeights()
        candidate = random_coords(rng, (10, 6, 6))
        archive = Archive()
        prev = distinction_term(candidate, archive, w)
        for _ in range(8):
            archive.add(random_coords(rng, (10, 6, 6)), FitnessBreakdown.compose(0, 0, 0, 0))
            cur = distinction_term(candidate, archive, w)
            assert cur <= prev + 1e-15
            prev = cur


class TestFitness:
    def test_constant_subtensor_forced_components(self):
        coords = TriclusterCoords((0, 1, 2), (0, 1), (0, 1))
        b = fitness(np.full((4, 4, 4), 3.0), coords, QualityWeights())
        assert b.msr == 0.0
        assert b.lsl == 0.0
        assert b.weights == pytest.approx(0.7)
        assert b.distinction == pytest.approx(0.3)
        assert b.f == pytest.approx(-1.0)
        assert b.f < 0

    def test_breakdown_identity_bit_for_bit(self, rng):
        values = rng.random((6, 5, 4))
        for _ in range(50):
            coords = random_coords(rng, (6, 5, 4))
            b = fitness(values, coords, QualityWeights())
            assert b.f == b.msr + b.lsl - b.weights - b.distinction

    @pytest.mark.parametrize(
        "msr_v,lsl_v,w_v,d_v,f_v",
        [
            (417.64, 12.59, 0.8, 0.0280, 429.41),
            (6228.04, 19.74, 1.0, 0.0505, 6246.74),
        ],
    )
    def test_reference_breakdown_rows(self, msr_v, lsl_v, w_v, d_v, f_v):
        b = FitnessBreakdown.compose(msr_v, lsl_v, w_v, d_v)
        assert abs(b.f - f_v) <= 0.05

    def test_roundtrips_through_dict(self):
        b = FitnessBreakdown.compose(1.5, 0.25, 0.6, 0.05)
        assert FitnessBreakdown.from_dict(b.to_dict()) == b

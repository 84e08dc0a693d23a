import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trievolve import (
    Archive,
    FitnessBreakdown,
    GAConfig,
    QualityWeights,
    SyntheticSpec,
    TriclusterCoords,
    crossover,
    decode,
    encode,
    evolve_one_tricluster,
    generate_synthetic,
    impute_missing,
    init_population,
    limit_genes,
    lsl,
    mutate,
    repair,
    run_triea,
)
from trievolve import engine
from trievolve.engine import _distinct_pairs, _segments, _tournament
from trievolve.quality import SLOPE_MODES

from conftest import make_tensor, random_coords


def bits_from(text: str) -> np.ndarray:
    return np.array([b == "1" for b in text.replace("|", "")], dtype=bool)


def segment_counts(bits, dims) -> tuple[int, int, int]:
    return tuple(int(seg.sum()) for seg in _segments(bits, dims))


class TestChromosome:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            _segments(np.zeros(7, bool), (2, 2, 2))

    def test_segment_counts(self):
        ch = bits_from("10110|10001|11001")
        assert segment_counts(ch, (5, 5, 5)) == (3, 2, 3)


class TestDecodeEncode:
    def test_reference_genotype(self):
        ch = bits_from("10110|10001|11001")
        coords = decode(ch, (5, 5, 5))
        assert coords.genes == (0, 2, 3)
        assert coords.conditions == (0, 4)
        assert coords.times == (0, 1, 4)

    def test_all_ones_full_tensor(self):
        ch = np.ones(12, bool)
        coords = decode(ch, (5, 4, 3))
        assert coords.genes == tuple(range(5))
        assert coords.conditions == tuple(range(4))
        assert coords.times == tuple(range(3))

    def test_undersized_segment_rejected(self):
        ch = bits_from("10000|11000|11000")
        with pytest.raises(ValueError, match="repair"):
            decode(ch, (5, 5, 5))

    def test_roundtrip(self, rng):
        dims = (12, 6, 8)
        for _ in range(100):
            coords = random_coords(rng, dims)
            assert decode(encode(coords, dims), dims) == coords

    def test_encode_bounds(self):
        with pytest.raises(IndexError):
            encode(TriclusterCoords((0, 9), (0, 1), (0, 1)), (5, 4, 3))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_decode_equals_checked_constructor(self, data):
        # decode skips TriclusterCoords' checks; its coords must still be
        # indistinguishable from checked ones, since the archive JSON and
        # the tracer's (coords, archive size) keys are built from them.
        dims = tuple(data.draw(st.integers(2, 9)) for _ in range(3))
        raw = data.draw(st.lists(st.booleans(), min_size=sum(dims), max_size=sum(dims)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        bits = repair(np.array(raw, dtype=bool), dims, rng)
        got = decode(bits, dims)
        indices = [
            [i for i, bit in enumerate(seg) if bit] for seg in _segments(bits, dims)
        ]
        want = TriclusterCoords(*indices)
        assert got == want
        assert hash(got) == hash(want)
        assert got.to_dict() == want.to_dict()
        for axis in (got.genes, got.conditions, got.times):
            assert type(axis) is tuple
            assert all(type(i) is int for i in axis)


class TestInitPopulation:
    def test_all_valid_with_default_size(self, rng):
        config = GAConfig(seed=0)
        pop = init_population((30, 5, 8), config, None, rng)
        assert len(pop) == 20
        for ch in pop:
            assert min(segment_counts(ch, (30, 5, 8))) >= 2
            decode(ch, (30, 5, 8))

    def test_overlap_avoidance_until_pool_exhausted(self, rng):
        config = GAConfig(population_size=3, seed=0)
        pop = init_population((6, 4, 4), config, None, rng)
        seen: set[int] = set()
        for ch in pop:
            genes = set(decode(ch, (6, 4, 4)).genes)
            overlap = genes & seen
            shortfall = max(0, len(genes) - (6 - len(seen)))
            # overlap appears only once the unused pool is exhausted
            assert len(overlap) == shortfall
            seen |= genes

    def test_fallback_when_archive_covers_everything(self, rng):
        archive = Archive()
        archive.add(
            TriclusterCoords(tuple(range(6)), tuple(range(4)), tuple(range(4))),
            FitnessBreakdown.compose(0, 0, 0, 0),
        )
        config = GAConfig(population_size=4, seed=0)
        pop = init_population((6, 4, 4), config, archive, rng)
        assert len(pop) == 4
        for ch in pop:
            assert min(segment_counts(ch, (6, 4, 4))) >= 2


class TestTournament:
    def test_lower_f_wins(self):
        class PairRng:
            # First contestants 0 and 1, each offset by one to the other.
            def integers(self, low, high=None, size=None):
                return np.array([0, 1]) if high is None else np.array([1, 1])

        assert _tournament([5.0, 3.0], 2, PairRng()).tolist() == [1, 1]
        # tie -> lower index, whichever contestant was drawn first
        assert _tournament([2.0, 2.0], 2, PairRng()).tolist() == [0, 0]

    def test_selection_frequency_decreases_with_rank(self, rng):
        fs = [1.0, 2.0, 3.0, 4.0]
        wins = np.bincount(_tournament(fs, 10000, rng), minlength=4)
        assert wins[0] > wins[1] > wins[2] > wins[3]

    def test_selection_pressure(self, rng):
        fs = np.random.default_rng(8).random(10)
        winner_fs = fs[_tournament(fs, 5000, rng)]
        assert winner_fs.mean() <= fs.mean()

    def test_pairs_distinct_and_uniform(self, rng):
        n, draws = 5, 100_000
        i, j = _distinct_pairs(n, draws, rng)
        assert np.all(i != j)
        counts = np.bincount(i * n + j, minlength=n * n).reshape(n, n)
        assert np.all(np.diag(counts) == 0)
        observed = counts[~np.eye(n, dtype=bool)]
        expected = draws / (n * (n - 1))
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        # 19 degrees of freedom: P(chi2 > 43.8) = 0.001
        assert chi2 < 43.8


class TestCrossover:
    def test_disabled_yields_copies(self, rng):
        p1 = bits_from("11100|11000|10100")
        p2 = bits_from("00011|00110|01010")
        o1, o2 = crossover(p1, p2, (5, 5, 5), 0.0, rng)
        np.testing.assert_array_equal(o1, p1)
        np.testing.assert_array_equal(o2, p2)
        assert o1 is not p1  # fresh arrays either way
        assert not np.shares_memory(o1, p1) and not np.shares_memory(o2, p2)

    def test_segment_tail_swap(self):
        # The gene cut is pinned to 2, so the tails swap from gene 2 on; a
        # 1-wide segment's cut is 1, past its end, so it swaps nothing.
        class CutRng:
            def random(self, size):
                return np.zeros(size)

            def integers(self, low, high, size):
                assert (low, high.tolist(), size) == (1, [5, 2, 2], (1, 3))
                return np.array([[2, 1, 1]])

        p1 = bits_from("11100|1|1")
        p2 = bits_from("00011|0|0")
        o1, o2 = crossover(p1, p2, (5, 1, 1), 1.0, CutRng())
        assert o1[:5].tolist() == bits_from("11011").tolist()
        assert o2[:5].tolist() == bits_from("00100").tolist()

    def test_conserves_per_segment_totals(self, rng):
        dims = (8, 5, 6)
        for _ in range(1000):
            p1 = encode(random_coords(rng, dims), dims)
            p2 = encode(random_coords(rng, dims), dims)
            o1, o2 = crossover(p1, p2, dims, 1.0, rng)
            for s1, s2, c1, c2 in zip(*(_segments(b, dims) for b in (p1, p2, o1, o2))):
                parents = np.stack([s1, s2])
                children = np.stack([c1, c2])
                # positional multiset conservation, not just counts
                np.testing.assert_array_equal(
                    np.sort(parents, axis=0), np.sort(children, axis=0)
                )

    def test_length_one_segment_copied(self, rng):
        p1 = np.array([1, 1, 0, 1, 1, 0], bool)
        p2 = np.array([0, 1, 1, 0, 1, 1], bool)
        for _ in range(20):
            o1, o2 = crossover(p1, p2, (2, 1, 3), 1.0, rng)
            assert o1[2] == p1[2]
            assert o2[2] == p2[2]
        a = rng.random((50, 6)) < 0.5
        o1, o2 = crossover(a, ~a, (2, 1, 3), 1.0, rng)
        np.testing.assert_array_equal(o1[:, 2], a[:, 2])
        np.testing.assert_array_equal(o2[:, 2], ~a[:, 2])
        assert (o1[:, 3:] != a[:, 3:]).any()  # the wider segments do swap

    def test_block_conserves_each_pair(self, rng):
        dims = (8, 5, 6)
        for _ in range(100):
            a = rng.random((7, 19)) < 0.5
            b = rng.random((7, 19)) < 0.5
            o1, o2 = crossover(a, b, dims, 0.5, rng)
            assert o1.shape == o2.shape == (7, 19)
            # positional multiset conservation, per pair
            np.testing.assert_array_equal(
                np.sort(np.stack([a, b]), axis=0), np.sort(np.stack([o1, o2]), axis=0)
            )

    def test_block_pairs_cross_as_single_rows(self):
        # Pair r of a block crosses with coin r and cut row r, exactly as a
        # single-row call given that coin and those cuts.
        class FixedRng:
            def __init__(self, coins, cuts):
                self.coins, self.cuts = coins, cuts

            def random(self, size):
                assert size == len(self.coins)
                return np.array(self.coins)

            def integers(self, low, high, size):
                assert size == (len(self.cuts), 3)
                return np.array(self.cuts)

        dims = (5, 2, 3)
        a, b = bits_from("11100|10|110"), bits_from("00011|01|001")
        coins, cuts = [0.0, 0.9, 0.2], [[1, 1, 2], [3, 1, 1], [4, 1, 1]]
        o1, o2 = crossover(
            np.stack([a] * 3), np.stack([b] * 3), dims, 0.5, FixedRng(coins, cuts)
        )
        want = [
            ("10011|11|111", "01100|00|000"),
            ("11100|10|110", "00011|01|001"),  # coin 0.9 >= 0.5: copies
            ("11101|11|101", "00010|00|010"),
        ]
        for r, (w1, w2) in enumerate(want):
            assert o1[r].tolist() == bits_from(w1).tolist()
            assert o2[r].tolist() == bits_from(w2).tolist()
            one_pair = FixedRng(coins[r : r + 1], cuts[r : r + 1])
            r1, r2 = crossover(a, b, dims, 0.5, one_pair)
            np.testing.assert_array_equal(r1, o1[r])
            np.testing.assert_array_equal(r2, o2[r])

    def test_mismatched_parents_rejected(self, rng):
        p1 = np.ones(6, bool)
        p2 = np.ones(7, bool)
        with pytest.raises(ValueError, match="length"):
            crossover(p1, p2, (2, 2, 2), 1.0, rng)
        with pytest.raises(ValueError, match="length"):
            crossover(p2, p1, (2, 2, 2), 1.0, rng)
        with pytest.raises(ValueError, match="pair"):
            crossover(np.ones((2, 6), bool), np.ones((3, 6), bool), (2, 2, 2), 1.0, rng)


class TestMutate:
    def test_zero_probability_is_identity(self, rng):
        ch = bits_from("10110|10001|11001")
        out = mutate(ch, 0.0, rng)
        np.testing.assert_array_equal(out, ch)

    def test_certain_mutation_flips_exactly_one(self, rng):
        ch = bits_from("10110|10001|11001")
        for _ in range(200):
            out = mutate(ch, 1.0, rng)
            assert int((out != ch).sum()) == 1

    def test_flip_rate_at_half(self):
        rng = np.random.default_rng(123)
        ch = np.zeros(30, bool)
        flips = sum(1 for _ in range(10000) if (mutate(ch, 0.5, rng) != ch).any())
        assert 4850 <= flips <= 5150

    def test_certain_block_mutation_flips_one_bit_per_row(self, rng):
        block = rng.random((40, 15)) < 0.5
        out = mutate(block, 1.0, rng)
        assert out.shape == block.shape
        assert (out != block).sum(axis=1).tolist() == [1] * 40


class TestRepair:
    def test_valid_untouched(self, rng):
        ch = bits_from("10110|10001|11001")
        out = repair(ch, (5, 5, 5), rng)
        assert out is ch

    def test_valid_block_untouched_without_draws(self):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"repair drew with rng.{name}")

        block = np.stack([bits_from("10110|10001|11001"), np.ones(15, bool)])
        assert repair(block, (5, 5, 5), NoDraws()) is block

    def test_block_repairs_short_rows_in_order(self):
        # Each short row draws as it would alone, in row order; valid rows
        # draw nothing and come back as they were.
        dims = (5, 5, 5)
        block = np.stack([
            bits_from("00000|11000|11000"),
            bits_from("10110|10001|11001"),
            bits_from("11000|10000|00000"),
        ])
        got = repair(block, dims, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        want = [repair(row, dims, rng) for row in block]
        np.testing.assert_array_equal(got, np.stack(want))
        np.testing.assert_array_equal(got[1], block[1])

    def test_all_zero_segment_gets_two(self, rng):
        ch = bits_from("00000|11000|11000")
        out = repair(ch, (5, 5, 5), rng)
        assert segment_counts(out, (5, 5, 5)) == (2, 2, 2)
        # other segments untouched
        np.testing.assert_array_equal(out[5:], ch[5:])

    def test_random_degenerates_become_decodable(self, rng):
        for _ in range(1000):
            ch = rng.random(14) < 0.15
            fixed = repair(ch, (6, 4, 4), rng)
            assert min(segment_counts(fixed, (6, 4, 4))) >= 2
            decode(fixed, (6, 4, 4))
            # repair only sets bits, never clears
            assert bool(np.all(fixed >= ch))


class TestRngCallOrder:
    """SHA-256 of the bits the variation operators return from fixed seeds.

    The digests pin the generator's call order: an extra, missing or
    reordered draw changes them.  The ``init_population`` digest was recorded
    before the population became a bool matrix; the variation digest when
    breeding became one call per operator on a block of rows, which draws
    every crossover coin before any cut and every mutation coin before any
    position.
    """

    def test_init_population_bits(self):
        # The archives cover none, part and all of the gene axis; the
        # 2-wide condition axis runs out of unused indices after one
        # individual, so the shortfall branch runs in every case.
        dims = (9, 2, 6)
        part, full = Archive(), Archive()
        part.add(TriclusterCoords((0, 2, 4, 6), (0, 1), (1, 3)), None)
        full.add(TriclusterCoords(tuple(range(9)), (0, 1), (0, 5)), None)
        h = hashlib.sha256()
        for archive in (Archive(), part, full):
            rng = np.random.default_rng(31)
            pop = init_population(dims, GAConfig(population_size=6), archive, rng)
            h.update(pop.tobytes())
        assert h.hexdigest() == (
            "7ef85549db44a1d0a9919e54b4340b23201c2242cd6751a04e1b4a4a307434a7"
        )

    def test_variation_bits(self):
        # Both certain and impossible crossover and mutation are included,
        # so skipping a draw at probability 0 or 1 shows too.  Each step
        # breeds an odd block, so the unmutated second child is dropped, and
        # then crosses, mutates and repairs one row alone.
        rng = np.random.default_rng(47)
        dims = (7, 2, 5)
        pop = repair(rng.random((8, 14)) < 0.3, dims, rng)
        h = hashlib.sha256()
        for step in range(300):
            p_c, p_m = (0.0, 0.8, 1.0)[step % 3], (0.0, 0.5, 1.0, 0.5)[step % 4]
            i, j = rng.integers(0, 8, size=(2, 3))
            children = np.stack(crossover(pop[i], pop[j], dims, p_c, rng), axis=1)
            pop[1:6] = repair(mutate(children.reshape(6, 14)[:5], p_m, rng), dims, rng)
            o1, _ = crossover(pop[1], pop[2], dims, p_c, rng)
            pop[0] = repair(mutate(o1, p_m, rng), dims, rng)
            h.update(pop.tobytes())
            pop = np.roll(pop, 3, axis=0)
        assert h.hexdigest() == (
            "f47a52a5328eefa26cbb204c6bbc516a80279e103a248f0c217c0998f2b59362"
        )


@pytest.fixture(scope="module")
def small_tensor():
    spec = SyntheticSpec(dims=(15, 5, 6), seed=3)
    tensor, _ = generate_synthetic(spec)
    return tensor


class TestEvolve:
    def test_single_generation_returns_initial_argmin(self, small_tensor):
        config = GAConfig(generations=1, seed=5)
        (coords, bd), trace = evolve_one_tricluster(small_tensor, config)
        assert len(trace.records) == 1
        assert trace.records[0].best == bd

    def test_trace_monotone_over_seeds(self, small_tensor):
        for seed in range(20):
            config = GAConfig(generations=30, seed=seed)
            (_, bd), trace = evolve_one_tricluster(small_tensor, config)
            series = trace.best_f_series()
            assert len(series) == 30
            assert all(b <= a + 1e-15 for a, b in zip(series, series[1:]))
            assert bd.f == series[-1]

    def test_deterministic(self, small_tensor):
        config = GAConfig(generations=12, seed=9)
        r1 = evolve_one_tricluster(small_tensor, config)
        r2 = evolve_one_tricluster(small_tensor, config)
        assert r1[0][0] == r2[0][0]
        assert r1[0][1] == r2[0][1]
        assert r1[1] == r2[1]

    def test_population_stays_valid(self, small_tensor):
        # every recorded best decodes; sizes respected indirectly via decode
        config = GAConfig(generations=15, seed=2)
        (coords, _), _ = evolve_one_tricluster(small_tensor, config)
        assert coords.n_genes >= 2
        assert coords.n_conditions >= 2
        assert coords.n_times >= 2

    def test_each_distinct_chromosome_scored_once(self, small_tensor, monkeypatch):
        scored = []
        real_fitness = engine.fitness

        def counting_fitness(values, coords, *args):
            scored.append(coords)
            return real_fitness(values, coords, *args)

        monkeypatch.setattr(engine, "fitness", counting_fitness)
        config = GAConfig(population_size=12, generations=25, seed=6)
        _, trace = evolve_one_tricluster(small_tensor, config)
        assert len(scored) == len(set(scored)) == trace.evaluations
        assert trace.memo_hits > 0
        p, g = config.population_size, config.generations
        # One elite per generation keeps its score without a lookup.
        assert trace.evaluations + trace.memo_hits == p + (g - 1) * (p - 1)

    def test_memo_leaves_results_unchanged(self, small_tensor, monkeypatch):
        config = GAConfig(generations=20, seed=8)
        memoised = evolve_one_tricluster(small_tensor, config)

        scored_rows = []

        def fresh_score(values, rows, config, archive, memo):
            scored_rows.append(len(rows))
            return [
                engine.fitness(
                    values, engine.decode(bits, values.shape),
                    config.quality_weights, archive, config.slope_mode,
                )
                for bits in rows
            ]

        monkeypatch.setattr(engine, "_score", fresh_score)
        unmemoised = evolve_one_tricluster(small_tensor, config)
        assert memoised[0] == unmemoised[0]
        assert memoised[1].records == unmemoised[1].records
        # One call per generation: the initial rows, then each generation's
        # children.
        p = config.population_size
        assert scored_rows == [p] + [p - 1] * (config.generations - 1)

    def test_population_of_one_breeds_nothing(self, small_tensor):
        # The lone individual is carried forward; no generation draws.
        config = GAConfig(population_size=1, generations=6, seed=3)
        rng = np.random.default_rng(config.seed)
        (coords, bd), trace = evolve_one_tricluster(small_tensor, config, rng=rng)
        after_init = np.random.default_rng(config.seed)
        first = init_population(small_tensor.values.shape, config, None, after_init)
        assert rng.bit_generator.state == after_init.bit_generator.state
        assert coords == decode(first[0], small_tensor.values.shape)
        assert trace.evaluations == 1
        assert len({r.best for r in trace.records}) == 1

    def test_axis_of_one_rejected(self):
        with pytest.raises(ValueError):
            evolve_one_tricluster(np.zeros((4, 1, 4)), GAConfig(generations=2))


class TestRunTriea:
    def test_delta_zero_empty_archive(self, small_tensor):
        # no candidate has negative LSL, so nothing clears a zero threshold
        config = GAConfig(generations=3, n_triclusters=3, delta=0.0, seed=4)
        archive = run_triea(small_tensor, config)
        assert len(archive) == 0

    def test_guard_and_coverage(self, small_tensor):
        config = GAConfig(generations=6, n_triclusters=4, seed=4)
        archive = run_triea(small_tensor, config)
        assert 0 < len(archive) <= 4
        genes = set()
        for entry in archive:
            assert entry.breakdown.lsl < config.delta
            genes |= set(entry.coords.genes)
        assert archive.covered_genes == genes

    def test_archive_keeps_a_trace_per_run(self, small_tensor):
        config = GAConfig(generations=4, n_triclusters=5, seed=1)
        archive = run_triea(small_tensor, config)
        assert len(archive.runs) == 5
        assert all(len(t.records) == 4 for t in archive.runs)
        # In run order: each accepted run's best is its last record's best.
        accepted = [t.records[-1].best for t in archive.runs if config.accepts(t.records[-1].best)]
        assert accepted == [e.breakdown for e in archive]

    def test_bit_identical_archives(self, small_tensor):
        config = GAConfig(generations=8, n_triclusters=3, seed=11)
        a1 = run_triea(small_tensor, config)
        a2 = run_triea(small_tensor, config)
        assert len(a1) == len(a2)
        for e1, e2 in zip(a1, a2):
            assert e1.coords == e2.coords
            assert e1.breakdown == e2.breakdown

    @pytest.mark.parametrize("weights", [
        QualityWeights(w_g=1e308, w_c=1e308),  # the size reward is inf
        QualityWeights(wd_g=1e308, wd_c=1e308),  # only the distinction sum overflows
    ], ids=["size", "distinction"])
    def test_overflowing_weights_raise_before_ga_work(
        self, small_tensor, monkeypatch, weights
    ):
        def no_ga(*args, **kwargs):
            raise AssertionError("the GA ran")

        monkeypatch.setattr(engine, "init_population", no_ga)
        config = GAConfig(quality_weights=weights, generations=2, n_triclusters=1)
        with pytest.raises(ValueError, match="^weights too large: the size reward of "
                           "15 genes, 5 conditions and 6 times plus the distinction "
                           "weights is inf$"):
            run_triea(small_tensor, config)
        # Finite weights reach the patched initialisation.
        with pytest.raises(AssertionError, match="the GA ran"):
            run_triea(small_tensor, GAConfig(generations=2, n_triclusters=1))

    def test_distinction_uses_running_archive(self, small_tensor):
        # once the archive covers coordinates, later candidates repeating them
        # earn less distinction; verify via the stored breakdowns
        config = GAConfig(generations=5, n_triclusters=6, seed=7)
        archive = run_triea(small_tensor, config)
        if len(archive) >= 2:
            first, later = archive.entries[0], archive.entries[-1]
            assert later.breakdown.distinction <= first.breakdown.distinction + 1e-12


def _ga_digest(n_cases: int) -> str:
    """SHA-256 over the archives, per-generation bests and means and memo
    counts of ``run_triea`` on ``n_cases`` random small configs.

    Floats enter as their float64 bytes and ints as decimal text, so the
    digest depends on the values alone, not on how the records print.
    """
    h = hashlib.sha256()

    def put_floats(*xs):
        h.update(np.array(xs, dtype=np.float64).tobytes())

    def put_breakdown(bd):
        put_floats(bd.msr, bd.lsl, bd.weights, bd.distinction, bd.f)

    def put_ints(*xs):
        h.update(",".join(map(str, xs)).encode() + b";")


    rng = np.random.default_rng(2024)
    probabilities = (0.0, 0.5, 1.0)
    for case in range(n_cases):
        dims = tuple(int(d) for d in rng.integers(2, 9, size=3))
        tensor = make_tensor(rng.random(dims))
        config = GAConfig(
            population_size=int(rng.integers(1, 9)),
            generations=int(rng.integers(1, 7)),
            p_crossover=probabilities[int(rng.integers(3))],
            p_mutation=probabilities[int(rng.integers(3))],
            delta=(0.0, 0.1, 0.2, 1050.0)[int(rng.integers(4))],
            n_triclusters=int(rng.integers(1, 4)),
            slope_mode=SLOPE_MODES[case % 2],
            seed=int(rng.integers(1000)),
        )
        put_ints(case)
        archive = run_triea(tensor, config)
        for k, trace in enumerate(archive.runs):
            put_ints(k, len(trace.records), trace.evaluations, trace.memo_hits)
            for rec in trace.records:
                put_breakdown(rec.best)
                put_floats(rec.mean_f)
        put_ints(len(archive))
        for entry in archive:
            coords = entry.coords
            for axis in (coords.genes, coords.conditions, coords.times):
                put_ints(*axis)
            put_breakdown(entry.breakdown)
    return h.hexdigest()


def test_ga_digest_over_random_configs():
    # Pins the GA's results across refactors of the generation loop: 48
    # configs with populations 1-8, p_c and p_m in {0, 0.5, 1}, both slope
    # modes and thresholds that accept and reject.  Recorded with numpy 2.4
    # on x86-64 from the loop that breeds each generation as one block.
    assert _ga_digest(48) == (
        "0f22be0e71b42aa10a6319d6dd95c3314185b4b8490e3c66b2b5f16078d52356"
    )


class TestFitnessLandscape:
    """Executable record of how the default weights shape the search.

    On data in [0, 1] the residue terms are bounded by ~0.1 while the size
    reward pays 0.1 per selected index, so the global optimum of the default
    fitness is (near) the all-ones chromosome regardless of any planted
    structure.  These tests pin that down: the optimizer is doing its job;
    recovering planted regions under the default weights is not a property
    the fitness function has.
    """

    def test_full_tensor_beats_planted_region_under_default_weights(self):
        plant = TriclusterCoords(tuple(range(20)), (0, 1, 2), tuple(range(5)))
        spec = SyntheticSpec(
            dims=(100, 6, 10), planted=((plant, "additive"),),
            noise_sigma=0.01, seed=31,
        )
        tensor, _ = generate_synthetic(spec)
        from trievolve import fitness

        w = QualityWeights()
        full = TriclusterCoords(tuple(range(100)), tuple(range(6)), tuple(range(10)))
        f_full = fitness(tensor, full, w).f
        f_plant = fitness(tensor, plant, w).f
        assert f_full < f_plant  # size reward dominates coherence

    def test_evolved_best_reaches_the_landscape_optimum(self):
        # the GA should find (essentially) that all-ones optimum
        plant = TriclusterCoords(tuple(range(20)), (0, 1, 2), tuple(range(5)))
        spec = SyntheticSpec(
            dims=(100, 6, 10), planted=((plant, "additive"),),
            noise_sigma=0.01, seed=31,
        )
        tensor, _ = generate_synthetic(spec)
        from trievolve import fitness

        w = QualityWeights()
        full = TriclusterCoords(tuple(range(100)), tuple(range(6)), tuple(range(10)))
        (coords, bd), _ = evolve_one_tricluster(tensor, GAConfig(seed=31))
        assert bd.f <= fitness(tensor, full, w).f + 0.05
        assert coords.volume >= 0.9 * full.volume


class TestConfigValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            GAConfig(p_crossover=1.5)
        with pytest.raises(ValueError):
            GAConfig(p_mutation=-0.1)

    def test_counts(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=0)
        with pytest.raises(ValueError):
            GAConfig(generations=0)

    @pytest.mark.parametrize(
        "name", ["population_size", "generations", "n_triclusters"]
    )
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
    def test_counts_must_be_integers(self, name, value):
        # numpy would reject a float only once the run starts, and would
        # take True as 1.
        with pytest.raises(TypeError, match=f"{name}: expected an integer"):
            GAConfig(**{name: value})

    def test_slope_mode(self):
        with pytest.raises(ValueError):
            GAConfig(slope_mode="huber")

    def test_seed_nonnegative(self):
        GAConfig(seed=0)
        with pytest.raises(ValueError, match="seed"):
            GAConfig(seed=-1)

    @pytest.mark.parametrize("seed", [1.5, "1", True])
    def test_seed_must_be_an_integer(self, seed):
        # numpy would reject a float or string only once the run starts,
        # and would take True as seed 1.
        with pytest.raises(TypeError, match="seed: expected an integer"):
            GAConfig(seed=seed)

    @pytest.mark.parametrize("kind", [np.int64, np.uint32])
    def test_numpy_integers_stored_as_ints(self, kind):
        names = ("population_size", "generations", "n_triclusters", "seed")
        floats = ("p_crossover", "p_mutation", "delta")
        weight_names = ("w_g", "w_c", "w_t", "wd_g", "wd_c", "wd_t")
        weights = QualityWeights(**{name: np.float32(0.25) for name in weight_names})
        config = GAConfig(
            quality_weights=weights,
            **{name: kind(3) for name in names},
            **{name: np.float32(0.5) for name in floats},
        )
        assert config == GAConfig(
            quality_weights=QualityWeights(*[0.25] * 6),
            **{name: 3 for name in names},
            **{name: 0.5 for name in floats},
        )
        assert all(type(getattr(config, name)) is int for name in names)
        assert all(type(getattr(config, name)) is float for name in floats)
        assert all(type(getattr(weights, name)) is float for name in weight_names)
        json.dumps(dataclasses.asdict(config))  # the manifest's config

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: TriclusterCoords((True, 0), (0, 1), (0, 1)), id="coords"),
        pytest.param(lambda: TriclusterCoords((0, 1), (np.True_, 0), (0, 1)),
                     id="coords-numpy"),
        *(pytest.param(lambda name=name: GAConfig(**{name: True}), id=name)
          for name in ("delta", "p_crossover", "p_mutation")),
        *(pytest.param(lambda name=name: QualityWeights(**{name: True}), id=name)
          for name in ("w_g", "w_c", "w_t", "wd_g", "wd_c", "wd_t")),
    ])
    def test_bools_are_not_numbers(self, make):
        # True would otherwise be taken as index, probability or weight 1.
        with pytest.raises(TypeError, match="expected an? (integer|number)"):
            make()

    def test_delta_nonnegative(self):
        GAConfig(delta=0.0)  # zero is legal: empty-archive threshold floor
        with pytest.raises(ValueError):
            GAConfig(delta=-1.0)
        with pytest.raises(ValueError, match="finite"):
            GAConfig(delta=float("inf"))

    @pytest.mark.parametrize("weights", [None, {"w_g": 1}])
    def test_quality_weights_must_be_quality_weights(self, weights):
        # run_triea would otherwise fail mid-run reading weights.w_g.
        with pytest.raises(
            TypeError, match="quality_weights: expected a QualityWeights"
        ):
            GAConfig(quality_weights=weights)


_PAIR = TriclusterCoords((0, 1), (0, 1), (0, 1))
_TWO_GENES = make_tensor(np.zeros((2, 2, 2)))  # no missing cell


@pytest.mark.parametrize("make, value, error, name", [
    *(pytest.param(lambda v, n=n: GAConfig(**{n: v}), 0, ValueError, n, id=n)
      for n in ("population_size", "generations", "n_triclusters")),
    pytest.param(lambda v: GAConfig(seed=v), -1, ValueError, "seed", id="seed"),
    pytest.param(lambda v: GAConfig(p_crossover=v), 1.5, ValueError, "p_crossover",
                 id="p_crossover"),
    pytest.param(lambda v: GAConfig(slope_mode=v), "huber", ValueError, "slope_mode",
                 id="slope_mode"),
    pytest.param(lambda v: SyntheticSpec(dims=(4, v, 3)), 0, ValueError, "dims",
                 id="spec-dim"),
    pytest.param(lambda v: SyntheticSpec(dims=(4, 4, 4), seed=v), -1, ValueError,
                 "seed", id="spec-seed"),
    pytest.param(lambda v: SyntheticSpec(dims=(4, 4, 4), planted=((_PAIR, v),)),
                 "sinusoidal", ValueError, "pattern", id="spec-pattern"),
    pytest.param(lambda v: SyntheticSpec(dims=(4, 4, 4), background=v), "poisson",
                 ValueError, "background", id="spec-background"),
    pytest.param(lambda v: TriclusterCoords((v, 2), (0, 1), (0, 1)), -1, ValueError,
                 "genes", id="coords-index"),
    # Two genes: a limit of 2.5 must fail even where it would cut nothing.
    pytest.param(lambda v: limit_genes(_TWO_GENES, v), 1,
                 ValueError, "gene limit", id="limit-1"),
    pytest.param(lambda v: limit_genes(_TWO_GENES, v), 2.5,
                 TypeError, "gene limit", id="limit-float"),
    # No cell is missing: the seed must be checked before the early return.
    pytest.param(lambda v: impute_missing(_TWO_GENES, v), -1,
                 ValueError, "seed", id="impute-negative"),
    pytest.param(lambda v: impute_missing(_TWO_GENES, v), True,
                 TypeError, "seed", id="impute-bool"),
    pytest.param(lambda v: lsl(np.zeros((3, 3, 3)), _PAIR, mode=v), "x", ValueError,
                 "slope mode", id="lsl-mode"),
])
def test_bounded_inputs_name_the_value(make, value, error, name):
    # Each bound is one helper's: the message opens with the value's name
    # ("seed must be >= 0, ...", "seed: expected an integer, ...") or, for a
    # named choice, "unknown <name> ...".
    with pytest.raises(error, match=rf"^(unknown )?{re.escape(name)}\b"):
        make(value)

import numpy as np
import pytest

from trievolve import (
    Archive,
    Chromosome,
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
    init_population,
    mutate,
    repair,
    run_triea,
)
from trievolve import engine
from trievolve.engine import _crossover_segment, _tournament_index

from conftest import random_coords


def bits_from(text: str) -> np.ndarray:
    return np.array([b == "1" for b in text.replace("|", "")], dtype=bool)


class TestChromosome:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            Chromosome(np.zeros(7, bool), (2, 2, 2))

    def test_segment_counts(self):
        ch = Chromosome(bits_from("10110|10001|11001"), (5, 5, 5))
        assert ch.segment_counts() == (3, 2, 3)


class TestDecodeEncode:
    def test_reference_genotype(self):
        ch = Chromosome(bits_from("10110|10001|11001"), (5, 5, 5))
        coords = decode(ch)
        assert coords.genes == (0, 2, 3)
        assert coords.conditions == (0, 4)
        assert coords.times == (0, 1, 4)

    def test_all_ones_full_tensor(self):
        ch = Chromosome(np.ones(12, bool), (5, 4, 3))
        coords = decode(ch)
        assert coords.genes == tuple(range(5))
        assert coords.conditions == tuple(range(4))
        assert coords.times == tuple(range(3))

    def test_undersized_segment_rejected(self):
        ch = Chromosome(bits_from("10000|11000|11000"), (5, 5, 5))
        with pytest.raises(ValueError, match="repair"):
            decode(ch)

    def test_roundtrip(self, rng):
        dims = (12, 6, 8)
        for _ in range(100):
            coords = random_coords(rng, dims)
            assert decode(encode(coords, dims)) == coords

    def test_encode_bounds(self):
        with pytest.raises(ValueError):
            encode(TriclusterCoords((0, 9), (0, 1), (0, 1)), (5, 4, 3))


class TestInitPopulation:
    def test_all_valid_with_default_size(self, rng):
        config = GAConfig(seed=0)
        pop = init_population((30, 5, 8), config, None, rng)
        assert len(pop) == 20
        for ch in pop:
            assert min(ch.segment_counts()) >= 2
            decode(ch)

    def test_overlap_avoidance_until_pool_exhausted(self, rng):
        config = GAConfig(population_size=3, seed=0)
        pop = init_population((6, 4, 4), config, None, rng)
        seen: set[int] = set()
        for ch in pop:
            genes = set(decode(ch).genes)
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
            assert min(ch.segment_counts()) >= 2


class TestTournament:
    def test_lower_f_wins(self):
        class PairRng:
            def choice(self, n, size, replace):
                return np.array([0, 1])

        assert _tournament_index([5.0, 3.0], PairRng()) == 1
        assert _tournament_index([2.0, 2.0], PairRng()) == 0  # tie -> lower index

    def test_single_individual(self, rng):
        assert _tournament_index([1.0], rng) == 0

    def test_selection_frequency_decreases_with_rank(self, rng):
        fs = [1.0, 2.0, 3.0, 4.0]
        pop = [Chromosome(np.ones(6, bool), (2, 2, 2)) for _ in fs]
        wins = [0, 0, 0, 0]
        for _ in range(10000):
            winner = _tournament_index(fs, rng)
            wins[winner] += 1
        assert wins[0] > wins[1] > wins[2] > wins[3]

    def test_selection_pressure(self, rng):
        fs = list(np.random.default_rng(8).random(10))
        mean_f = sum(fs) / len(fs)
        winner_fs = [fs[_tournament_index(fs, rng)] for _ in range(5000)]
        assert sum(winner_fs) / len(winner_fs) <= mean_f


class TestCrossover:
    def test_disabled_yields_copies(self, rng):
        p1 = Chromosome(bits_from("11100|11000|10100"), (5, 5, 5))
        p2 = Chromosome(bits_from("00011|00110|01010"), (5, 5, 5))
        o1, o2 = crossover(p1, p2, 0.0, rng)
        np.testing.assert_array_equal(o1.bits, p1.bits)
        np.testing.assert_array_equal(o2.bits, p2.bits)
        assert o1 is not p1  # fresh objects either way

    def test_segment_tail_swap(self):
        a = bits_from("11100")
        b = bits_from("00011")
        o1, o2 = _crossover_segment(a, b, 2)
        assert o1.tolist() == bits_from("11011").tolist()
        assert o2.tolist() == bits_from("00100").tolist()

    def test_conserves_per_segment_totals(self, rng):
        dims = (8, 5, 6)
        for _ in range(1000):
            p1 = encode(random_coords(rng, dims), dims)
            p2 = encode(random_coords(rng, dims), dims)
            o1, o2 = crossover(p1, p2, 1.0, rng)
            for s in p1.segment_slices():
                parents = np.stack([p1.bits[s], p2.bits[s]])
                children = np.stack([o1.bits[s], o2.bits[s]])
                # positional multiset conservation, not just counts
                np.testing.assert_array_equal(
                    np.sort(parents, axis=0), np.sort(children, axis=0)
                )

    def test_length_one_segment_copied(self, rng):
        p1 = Chromosome(np.array([1, 1, 0, 1, 1, 0], bool), (2, 1, 3))
        p2 = Chromosome(np.array([0, 1, 1, 0, 1, 1], bool), (2, 1, 3))
        for _ in range(20):
            o1, o2 = crossover(p1, p2, 1.0, rng)
            assert o1.bits[2] == p1.bits[2]
            assert o2.bits[2] == p2.bits[2]

    def test_mismatched_parents_rejected(self, rng):
        p1 = Chromosome(np.ones(6, bool), (2, 2, 2))
        p2 = Chromosome(np.ones(7, bool), (3, 2, 2))
        with pytest.raises(ValueError):
            crossover(p1, p2, 1.0, rng)


class TestMutate:
    def test_zero_probability_is_identity(self, rng):
        ch = Chromosome(bits_from("10110|10001|11001"), (5, 5, 5))
        out = mutate(ch, 0.0, rng)
        np.testing.assert_array_equal(out.bits, ch.bits)

    def test_certain_mutation_flips_exactly_one(self, rng):
        ch = Chromosome(bits_from("10110|10001|11001"), (5, 5, 5))
        for _ in range(200):
            out = mutate(ch, 1.0, rng)
            assert int((out.bits != ch.bits).sum()) == 1

    def test_flip_rate_at_half(self):
        rng = np.random.default_rng(123)
        ch = Chromosome(np.zeros(30, bool), (10, 10, 10))
        flips = sum(
            1 for _ in range(10000) if (mutate(ch, 0.5, rng).bits != ch.bits).any()
        )
        assert 4850 <= flips <= 5150


class TestRepair:
    def test_valid_untouched(self, rng):
        ch = Chromosome(bits_from("10110|10001|11001"), (5, 5, 5))
        out = repair(ch, rng)
        assert out is ch

    def test_all_zero_segment_gets_two(self, rng):
        ch = Chromosome(bits_from("00000|11000|11000"), (5, 5, 5))
        out = repair(ch, rng)
        assert out.segment_counts() == (2, 2, 2)
        # other segments untouched
        np.testing.assert_array_equal(out.bits[5:], ch.bits[5:])

    def test_random_degenerates_become_decodable(self, rng):
        for _ in range(1000):
            bits = rng.random(14) < 0.15
            ch = Chromosome(bits, (6, 4, 4))
            fixed = repair(ch, rng)
            assert min(fixed.segment_counts()) >= 2
            decode(fixed)
            # repair only sets bits, never clears
            assert bool(np.all(fixed.bits >= ch.bits))


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
        assert trace.records[0].generation == 0
        assert bd.f == trace.records[0].best_f
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

    @pytest.mark.parametrize("elite_count", [1, 3])
    def test_each_distinct_chromosome_scored_once(
        self, small_tensor, monkeypatch, elite_count
    ):
        scored = []
        real_fitness = engine.fitness

        def counting_fitness(values, coords, *args):
            scored.append(coords)
            return real_fitness(values, coords, *args)

        monkeypatch.setattr(engine, "fitness", counting_fitness)
        config = GAConfig(
            population_size=12, generations=25, seed=6, elite_count=elite_count
        )
        _, trace = evolve_one_tricluster(small_tensor, config)
        assert len(scored) == len(set(scored)) == trace.evaluations
        assert trace.memo_hits > 0
        p, g = config.population_size, config.generations
        assert trace.evaluations + trace.memo_hits == p + (g - 1) * (p - elite_count)

    def test_memo_leaves_results_unchanged(self, small_tensor, monkeypatch):
        config = GAConfig(generations=20, seed=8)
        memoised = evolve_one_tricluster(small_tensor, config)

        def fresh_evaluate(values, chrom, config, archive, memo):
            return engine.fitness(
                values, engine.decode(chrom), config.quality_weights, archive,
                config.slope_mode,
            )

        monkeypatch.setattr(engine, "_evaluate", fresh_evaluate)
        unmemoised = evolve_one_tricluster(small_tensor, config)
        assert memoised[0] == unmemoised[0]
        assert memoised[1].records == unmemoised[1].records

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

    def test_trace_sink_called_per_run(self, small_tensor):
        config = GAConfig(generations=4, n_triclusters=5, seed=1)
        seen = []
        run_triea(small_tensor, config, trace_sink=lambda k, t: seen.append((k, len(t.records))))
        assert [k for k, _ in seen] == [0, 1, 2, 3, 4]
        assert all(n == 4 for _, n in seen)

    def test_bit_identical_archives(self, small_tensor):
        config = GAConfig(generations=8, n_triclusters=3, seed=11)
        a1 = run_triea(small_tensor, config)
        a2 = run_triea(small_tensor, config)
        assert len(a1) == len(a2)
        for e1, e2 in zip(a1, a2):
            assert e1.coords == e2.coords
            assert e1.breakdown == e2.breakdown

    def test_distinction_uses_running_archive(self, small_tensor):
        # once the archive covers coordinates, later candidates repeating them
        # earn less distinction; verify via the stored breakdowns
        config = GAConfig(generations=5, n_triclusters=6, seed=7)
        archive = run_triea(small_tensor, config)
        if len(archive) >= 2:
            first, later = archive.entries[0], archive.entries[-1]
            assert later.breakdown.distinction <= first.breakdown.distinction + 1e-12


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
        with pytest.raises(ValueError):
            GAConfig(elite_count=20, population_size=20)

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
        with pytest.raises(ValueError, match="seed must be an integer"):
            GAConfig(seed=seed)

    def test_delta_nonnegative(self):
        GAConfig(delta=0.0)  # zero is legal: empty-archive threshold floor
        with pytest.raises(ValueError):
            GAConfig(delta=-1.0)
        with pytest.raises(ValueError, match="finite"):
            GAConfig(delta=float("inf"))

"""The benchmark's workloads, their inputs and their output checks.

Every workload drives ``trievolve.cli.main`` in-process, exactly as a user
runs the command line, and gives the program only the spec JSON, CSV and
coordinate files it generates here from the seed.

* ``paper_small``: the paper's reference scale.  ``run`` on the
  acceptance-criterion-8 dataset (200x4x14, one 30x2x6 additive plant) at the
  standard GA setting (population 20, 100 generations), two covering runs.
  Candidates hold about 10k cells, so the per-candidate Python cost of
  ``engine`` shows beside ``quality``.
* ``wide_fitness``: ``run`` on a 2000x10x15 tensor (300k cells, two additive
  plants) with two covering runs of 5 generations.  Candidates average
  60-100k cells, so the ``quality`` kernels dominate, and the 300k-row CSV
  makes ingest (set-up) cost most of a second.  Two short covering runs vary
  less in work from seed to seed than one long one.
* ``io_roundtrip``: ``generate`` writes a 2000x10x15 tensor, the benchmark
  blanks about 5% of its value fields, and ``evaluate --normalize
  --archive`` reads it back and scores one region.  ``engine`` never runs and
  ``quality`` runs once: this bypasses every GA optimisation and stresses
  CSV export, CSV load, normalisation and imputation.
"""

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from clock import SpeedClock

from trievolve import cli, naive, tensor_io
from trievolve.quality import QualityWeights, TriclusterCoords, fitness, msr3d

# The CLI's defaults, which every workload uses.
WEIGHTS = QualityWeights()
DELTA = 1050.0
TRACE_HEADER = "generation,best_f,mean_f"
REL_TOL = 1e-9

# After every operation each auxiliary step (ingest, and generate and
# evaluate on the GA workloads) repeats until it has taken this long, so its
# samples spread over the whole measuring window like the operation's.
AUX_SECONDS = 0.4

BLANK_SHARE = 0.05


@dataclass(frozen=True)
class Shape:
    """A synthetic tensor and its planted regions; ``plants`` holds
    (genes range, conditions, times range) triples, all additive."""

    dims: tuple[int, int, int]
    plants: tuple[tuple[range, tuple[int, ...], range], ...]

    def coords(self, k: int) -> TriclusterCoords:
        genes, conditions, times = self.plants[k]
        return TriclusterCoords(tuple(genes), tuple(conditions), tuple(times))

    def spec(self, seed: int) -> dict:
        planted = []
        for k in range(len(self.plants)):
            record = self.coords(k).to_dict()
            record["pattern"] = "additive"
            planted.append(record)
        return {
            "dims": list(self.dims),
            "planted": planted,
            "noise_sigma": 0.01,
            "background": "uniform01",
            "seed": seed,
        }


@dataclass(frozen=True)
class GASize:
    shape: Shape
    pop: int
    generations: int
    n_triclusters: int
    naive_check: bool  # compare the first archived entry with naive.py


CRITERION_8 = Shape((200, 4, 14), ((range(30), (0, 1), range(6)),))
WIDE = Shape(
    (2000, 10, 15),
    ((range(300), (0, 1, 2, 3), range(6)), (range(1000, 1200), (5, 6, 7), range(8, 13))),
)
TINY = Shape((24, 4, 6), ((range(6), (0, 1), range(3)), (range(12, 18), (2, 3), range(3, 6))))

SIZES = {
    "paper_small": GASize(CRITERION_8, 20, 100, 2, naive_check=True),
    "wide_fitness": GASize(WIDE, 20, 5, 2, naive_check=False),
    "io_roundtrip": WIDE,
}
TINY_SIZES = {
    "paper_small": GASize(TINY, 6, 5, 2, naive_check=True),
    "wide_fitness": GASize(TINY, 6, 4, 2, naive_check=False),
    "io_roundtrip": TINY,
}


def derive_seeds(seed: int) -> tuple[int, int, int]:
    """Spec seed, run seed (GA and imputation) and blanking seed."""
    return tuple(int(s) for s in np.random.SeedSequence(seed).generate_state(3))


def ga_seed(seed: int, k: int) -> int:
    """GA seed of the k-th untraced ``run`` of a benchmark run: the run seed
    for k = 0, so golden digests hold, then seeds drawn from (seed, k)."""
    if k == 0:
        return derive_seeds(seed)[1]
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def repeat(fn) -> list[float]:
    """Durations returned by ``fn()``, called until they sum to AUX_SECONDS."""
    times = [fn()]
    while sum(times) < AUX_SECONDS:
        times.append(fn())
    return times


def ingest(path, seed: int):
    """The ingest sequence of ``cmd_run``/``cmd_evaluate`` with normalisation
    on: load, min-max normalise, impute."""
    tensor = tensor_io.load_dataset(path)
    tensor = tensor_io.normalize_minmax(tensor)
    return tensor_io.impute_missing(tensor, seed)


def timed_ingest(clock: SpeedClock, path, seed: int) -> float:
    """Reference seconds of one ingest."""
    return clock.time("objects", ingest, path, seed)[2]


def coverage(coords_list) -> SimpleNamespace:
    """Archive stand-in exposing the coverage sets the distinction term reads."""
    cov = SimpleNamespace(
        covered_genes=set(), covered_conditions=set(), covered_times=set()
    )
    for c in coords_list:
        cov.covered_genes.update(c.genes)
        cov.covered_conditions.update(c.conditions)
        cov.covered_times.update(c.times)
    return cov


def sha256_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def breakdown_problems(what: str, got: dict, want) -> list[str]:
    return [
        f"{what}: {key} {got[key]!r} != recomputed {getattr(want, key)!r}"
        for key in ("msr", "lsl", "weights", "distinction", "f")
        if not close(got[key], getattr(want, key))
    ]


@dataclass
class Call:
    code: int | None
    stdout: str
    seconds: float  # reference seconds (clock.py); wall seconds when traced
    wall: float  # wall seconds, less the clock's probes


class Bench:
    """State shared by one benchmark run: work directory, tracer, and the
    count of operations attempted and failed with the reasons."""

    def __init__(self, work: Path, tracer):
        self.work = work
        self.tracer = tracer
        self.clock = SpeedClock()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def cli(self, argv, traced: bool = False) -> Call:
        """One in-process ``trievolve`` invocation; counts as attempted."""
        self.attempted += 1
        out = io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(out):
                    if traced:
                        return self.tracer.root(cli.main, argv)
                    return cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                return exc.code
            except Exception:  # a crash is a failed operation, not a harness stop
                traceback.print_exc(file=sys.stderr)
                return None

        if traced:  # the tracer's spans take wall time; no probes among them
            start = time.perf_counter()
            code = call()
            wall = seconds = time.perf_counter() - start
        else:
            kind = "numeric" if argv[0] == "run" else "objects"
            code, wall, seconds = self.clock.time(kind, call)
        return Call(code, out.getvalue(), seconds, wall)

    def settle(self, call: Call, argv0: str, problems: list[str]) -> None:
        """Count ``call`` as failed when it exited non-zero or its output
        checks found ``problems``."""
        if call.code != 0:
            problems = [f"{argv0} exited with {call.code}"] + problems
        if problems:
            self.failed += 1
            self.problems.extend(problems)


class Workload:
    """Inputs shared by every workload: the spec JSON and ``generate``."""

    def __init__(self, bench: Bench, shape: Shape, seed: int):
        self.bench, self.shape, self.seed = bench, shape, seed
        self.spec_seed, self.run_seed, self.blank_seed = derive_seeds(seed)
        self.gen_dir = bench.work / "gen"
        self.csv_digest: str | None = None
        # Durations of the auxiliary steps, by end-to-end metric name.
        self.samples: dict[str, list[float]] = defaultdict(list)
        write_json(bench.work / "spec.json", shape.spec(self.spec_seed))

    def generate(self, traced: bool = False) -> Call:
        """``trievolve generate`` of the spec; every call must write the same
        CSV, and the first must list the planted regions as ground truth."""
        argv = ["generate", "--spec", str(self.bench.work / "spec.json"),
                "--out", str(self.gen_dir)]
        call = self.bench.cli(argv, traced)
        problems = []
        if call.code == 0:
            digest = sha256_files([self.gen_dir / "tensor.csv"])
            if self.csv_digest is None:
                self.csv_digest = digest
                truth = json.loads((self.gen_dir / "ground_truth.json").read_text())
                want = [self.shape.coords(k).to_dict() for k in range(len(self.shape.plants))]
                if truth != {"triclusters": want}:
                    problems.append("ground_truth.json does not list the planted regions")
            elif digest != self.csv_digest:
                problems.append("generate wrote a different CSV for the same spec")
        self.bench.settle(call, "generate", problems)
        return call

    def golden_digest(self) -> str | None:
        return None


class GAWorkload(Workload):
    """``trievolve run`` on a generated tensor (paper_small, wide_fitness).

    How long a run takes depends on its GA seed, which sets the sizes of the
    candidates scored (cells scored spread 11% over seeds 1-7 on
    wide_fitness).  Each untraced run therefore takes the next GA seed of
    ``ga_seed``, and ``op_s``, their mean, averages over several GA seeds.
    A traced run repeats the seed of the untraced run before it and must
    write the same bytes.
    """

    def __init__(self, bench: Bench, size: GASize, seed: int):
        super().__init__(bench, size.shape, seed)
        self.size = size
        self.csv = self.gen_dir / "tensor.csv"
        self.out = bench.work / "run"
        self.runs = 0  # untraced runs started
        self.last_digest: str | None = None  # of the last untraced run, if it passed
        self.digest: str | None = None  # of the first run, if it passed its checks
        self.evaluate_argv: list[str] | None = None
        self.gains: list[float] = []  # minus the mean f of each checked archive

    def prepare(self) -> None:
        self.generate()
        # The generated CSV has no missing cells, so imputation, whose seed
        # is the GA seed, leaves this tensor the same for every GA seed.
        self.tensor = ingest(self.csv, self.run_seed)
        if self.tensor.n_missing():
            raise RuntimeError("the generated CSV has missing cells")

    def aux(self) -> None:
        """The set-up steps timed after every operation."""
        self.samples["setup_s"] += repeat(
            lambda: timed_ingest(self.bench.clock, self.csv, self.run_seed))
        self.samples["generate_s"] += repeat(lambda: self.generate().seconds)
        if self.evaluate_argv is not None:
            self.samples["evaluate_s"] += repeat(
                lambda: evaluate_once(self.bench, self.evaluate_argv, self.evaluate_want).seconds
            )

    def op(self, traced: bool) -> Call:
        s = self.size
        if not traced:
            self.runs += 1
            self.last_digest = None
        first = self.runs == 1
        argv = ["run", "--input", str(self.csv), "--out", str(self.out),
                "--seed", str(ga_seed(self.seed, self.runs - 1)), "--pop", str(s.pop),
                "--generations", str(s.generations),
                "--n-triclusters", str(s.n_triclusters)]
        call = self.bench.cli(argv, traced)
        problems = []
        if call.code == 0:
            digest = self.outputs_digest()
            if traced:
                if digest != self.last_digest:
                    problems = ["traced run outputs differ from the untraced run "
                                "with the same seed"]
            else:
                problems = self.check_outputs(naive_check=first and s.naive_check)
                if not problems:
                    self.last_digest = digest
                    self.gains.append(-statistics.fmean(e["f"] for e in self.entries()))
                    if first:
                        self.digest = digest
                        self.prepare_evaluate()
        self.bench.settle(call, "run", problems)
        return call

    def outputs_digest(self) -> str:
        """SHA-256 of triclusters.json followed by every trace CSV."""
        paths = [self.out / "triclusters.json"]
        paths += [self.out / f"trace_{k}.csv" for k in range(1, self.size.n_triclusters + 1)]
        return sha256_files(paths)

    def entries(self) -> list[dict]:
        with open(self.out / "triclusters.json", encoding="utf-8") as fh:
            return json.load(fh)["entries"]

    def check_outputs(self, naive_check: bool) -> list[str]:
        entries = self.entries()
        if not entries:
            return ["run exited 0 with an empty archive"]
        problems = []
        coords = [TriclusterCoords.from_dict(e) for e in entries]
        for i, (entry, c) in enumerate(zip(entries, coords)):
            # The stored distinction was scored against the archive as it
            # stood before this entry was added.
            want = fitness(self.tensor, c, WEIGHTS, coverage(coords[:i]))
            problems += breakdown_problems(f"archived entry {i}", entry, want)
            if not entry["lsl"] < DELTA:
                problems.append(f"archived entry {i}: lsl {entry['lsl']} >= {DELTA}")
        for k in range(1, self.size.n_triclusters + 1):
            problems += self.trace_problems(self.out / f"trace_{k}.csv")
        if naive_check:
            problems += self.naive_problems(entries[0], coords[0])
        return problems

    def trace_problems(self, path: Path) -> list[str]:
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines or lines[0] != TRACE_HEADER:
            return [f"{path.name}: header is not {TRACE_HEADER!r}"]
        if len(lines) != self.size.generations + 1:
            return [f"{path.name}: {len(lines)} lines, want {self.size.generations + 1}"]
        best = [float(line.split(",")[1]) for line in lines[1:]]
        if any(b > a for a, b in zip(best, best[1:])):
            return [f"{path.name}: best_f increases"]
        return []

    def naive_problems(self, entry: dict, coords: TriclusterCoords) -> list[str]:
        problems = []
        lsl = naive.lsl_naive(self.tensor, coords)
        if not close(entry["lsl"], lsl):
            problems.append(f"first entry: lsl {entry['lsl']!r} != naive {lsl!r}")
        # msr3d_naive recomputes the grand mean for every cell, so it is
        # quadratic in volume (about 90 s for a 7k-cell entry).  It checks a
        # seeded sub-tricluster of at most 8 x 4 x 6 cells of the entry.
        rng = np.random.default_rng(self.run_seed)
        sub = TriclusterCoords(*(
            rng.choice(axis, size=min(len(axis), cap), replace=False)
            for axis, cap in zip((coords.genes, coords.conditions, coords.times), (8, 4, 6))
        ))
        fast, slow = msr3d(self.tensor, sub), naive.msr3d_naive(self.tensor, sub)
        if not close(fast, slow):
            problems.append(f"msr3d {fast!r} != naive {slow!r} on {sub}")
        return problems

    def prepare_evaluate(self) -> None:
        """Set up ``evaluate`` of planted region 0 against the first run's
        archive, and the benchmark's own score its stdout must equal.  The
        region is the same for every seed, so the work of ``evaluate`` is."""
        archived = [TriclusterCoords.from_dict(e) for e in self.entries()]
        coords_path = self.bench.work / "coords.json"
        archive_path = self.bench.work / "archive.json"
        write_json(coords_path, self.shape.coords(0).to_dict())
        shutil.copyfile(self.out / "triclusters.json", archive_path)
        self.evaluate_want = fitness(self.tensor, self.shape.coords(0), WEIGHTS, coverage(archived))
        self.evaluate_argv = [
            "evaluate", "--input", str(self.csv), "--coords", str(coords_path),
            "--archive", str(archive_path), "--normalize",
            "--seed", str(self.run_seed),
        ]

    def fitness_gain(self) -> float:
        """Mean over the untraced runs, so it varies less from seed to seed
        than one run's archive does."""
        return statistics.fmean(self.gains) if self.gains else 0.0

    def golden_digest(self) -> str | None:
        return self.digest


def evaluate_once(bench: Bench, argv, want, traced: bool = False) -> Call:
    call = bench.cli(argv, traced)
    problems = []
    if call.code == 0:
        try:
            got = json.loads(call.stdout)
        except json.JSONDecodeError:
            got = call.stdout
        if got != want.to_dict():
            problems.append(f"evaluate printed {got!r}, benchmark scored {want.to_dict()}")
    bench.settle(call, "evaluate", problems)
    return call


def blank_values(src: Path, dst: Path, seed: int) -> int:
    """Copy a long-format CSV, emptying the value field of a seeded ~5% of
    its data rows; returns the number of rows blanked."""
    lines = src.read_text(encoding="utf-8").splitlines()
    rows = lines[1:]
    picked = np.flatnonzero(np.random.default_rng(seed).random(len(rows)) < BLANK_SHARE)
    for i in picked:
        rows[i] = rows[i].rsplit(",", 1)[0] + ","
    dst.write_text("\n".join([lines[0]] + rows) + "\n", encoding="utf-8")
    return len(picked)


class IOWorkload(Workload):
    """``generate`` then ``evaluate --normalize --archive`` (io_roundtrip)."""

    def __init__(self, bench: Bench, shape: Shape, seed: int):
        super().__init__(bench, shape, seed)
        self.csv = bench.work / "blanked.csv"

    def prepare(self) -> None:
        work = self.bench.work
        # The region scored is plant 0; the archive holds plant 1, so the
        # distinction term reads a JSON archive.
        write_json(work / "coords.json", self.shape.coords(0).to_dict())
        write_json(work / "archive.json", {"entries": [self.shape.coords(1).to_dict()]})
        self.generate()
        if self.csv_digest is None:
            raise RuntimeError("generate failed during set-up; see the problems above")
        n_blank = blank_values(self.gen_dir / "tensor.csv", self.csv, self.blank_seed)
        tensor = ingest(self.csv, self.run_seed)
        if tensor.n_missing() != n_blank:
            self.bench.failed += 1
            self.bench.problems.append(
                f"load_dataset found {tensor.n_missing()} missing cells, {n_blank} were blanked"
            )
        self.want = fitness(tensor, self.shape.coords(0), WEIGHTS, coverage([self.shape.coords(1)]))
        self.argv = ["evaluate", "--input", str(self.csv),
                     "--coords", str(work / "coords.json"),
                     "--archive", str(work / "archive.json"), "--normalize",
                     "--seed", str(self.run_seed)]

    def aux(self) -> None:
        """The set-up step timed after every operation."""
        self.samples["setup_s"] += repeat(
            lambda: timed_ingest(self.bench.clock, self.csv, self.run_seed))

    def op(self, traced: bool) -> Call:
        # generate rewrites the same bytes every time (checked by digest), so
        # evaluate reads the copy blanked once during set-up.
        gen = self.generate(traced)
        ev = evaluate_once(self.bench, self.argv, self.want, traced)
        if not traced:
            self.samples["generate_s"].append(gen.seconds)
            self.samples["evaluate_s"].append(ev.seconds)
        code = 0 if gen.code == ev.code == 0 else None
        return Call(code, ev.stdout, gen.seconds + ev.seconds, gen.wall + ev.wall)

    def fitness_gain(self) -> float:
        return -self.want.f


def make(bench: Bench, name: str, seed: int, tiny: bool) -> Workload:
    size = (TINY_SIZES if tiny else SIZES)[name]
    if name == "io_roundtrip":
        return IOWorkload(bench, size, seed)
    return GAWorkload(bench, size, seed)


WORKLOADS = tuple(SIZES)

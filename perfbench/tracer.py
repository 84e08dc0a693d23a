"""Per-layer tracing of trievolve from outside the program.

The tracer wraps the public functions of trievolve's layers at the module
attributes their callers look up (``cli.run_triea``, ``engine.fitness``,
``quality.msr3d``, ...), keeps one stack of open spans and accumulates, per
function, the call count, total time and self time.  A span's self time is
its duration minus the durations of the spans it caused, so the self times of
every span under one root sum to the root's duration.

Spans are named ``<layer>.<function>`` after the module that defines the
function, so ``engine.fitness`` and ``cli.fitness`` both record as
``quality.fitness``.
"""

import math
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from trievolve import cli, engine, quality

LAYERS = ("cli", "engine", "quality", "tensor_io")

# (module whose attribute the caller looks up, attribute name).  Every call
# from cli into the lower layers, from engine into quality and from
# quality.fitness into its two kernels goes through one of these.
PATCH_POINTS = (
    (cli, "load_dataset"),
    (cli, "normalize_minmax"),
    (cli, "impute_missing"),
    (cli, "limit_genes"),
    (cli, "export_csv"),
    (cli, "generate_synthetic"),
    (cli, "run_triea"),
    (cli, "fitness"),
    (engine, "evolve_one_tricluster"),
    (engine, "init_population"),
    (engine, "crossover"),
    (engine, "mutate"),
    (engine, "repair"),
    (engine, "decode"),
    (engine, "fitness"),
    (quality, "msr3d"),
    (quality, "lsl"),
)

ROOT = "cli.main"
FITNESS = "quality.fitness"
EVOLVE = "engine.evolve_one_tricluster"
INIT = "engine.init_population"
VARIATION = ("engine.crossover", "engine.mutate", "engine.repair")
LOAD = "tensor_io.load_dataset"
EXPORT = "tensor_io.export_csv"

# Per-layer metrics in the order they are reported; BENCHMARK.json lists the
# same names.  trace.overhead_ratio is added by the runner, which holds the
# untraced timings.
METRIC_UNITS = {
    "quality.fitness.calls": "count",
    "quality.fitness.s": "s",
    "quality.fitness.us_p50": "us",
    "quality.fitness.us_p99": "us",
    "quality.fitness.self_s": "s",
    "quality.msr3d.s": "s",
    "quality.lsl.s": "s",
    "quality.cells_per_eval": "count",
    "quality.computed_bytes_per_eval": "B",
    "quality.fitness.repeat_share": "1",
    "quality.share": "1",
    "engine.decode.calls": "count",
    "engine.decode.s": "s",
    "engine.init_population.s": "s",
    "engine.variation.s": "s",
    "engine.self_s": "s",
    "engine.runs_accepted": "count",
    "engine.runs_rejected": "count",
    "engine.share": "1",
    "tensor_io.load_dataset.s": "s",
    "tensor_io.load_dataset.rows_per_s": "1/s",
    "tensor_io.export_csv.s": "s",
    "tensor_io.export_csv.rows_per_s": "1/s",
    "tensor_io.normalize_minmax.s": "s",
    "tensor_io.impute_missing.s": "s",
    "tensor_io.generate_synthetic.s": "s",
    "tensor_io.csv_bytes": "B",
    "tensor_io.share": "1",
    "cli.self_s": "s",
    "cli.share": "1",
    "trace.self_sum_ratio": "1",
    "trace.overhead_ratio": "1",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Span stack and per-function accumulators for one traced operation.

    ``reset`` starts a new operation; ``root`` runs one top-level call under
    the tracer; ``metrics`` turns the accumulators into per-layer metrics.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.variation_s = 0.0
        self.fitness_us: list[float] = []
        self.cells = 0
        self.repeats = 0
        self.seen: set = set()  # (coords, archive size) scored this covering run
        self.rows: Counter = Counter()
        self.csv_bytes = 0
        self.runs_accepted = 0
        self.runs_rejected = 0
        self.stack: list[list] = []  # [span name, seconds covered by children]

    def _span(self, name, fn, args, kwargs):
        if name == EVOLVE:
            self.seen = set()
        parent = self.stack[-1][0] if self.stack else None
        frame = [name, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self.stack.pop()
            if self.stack:
                self.stack[-1][1] += duration
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - frame[1]
        self._count(name, parent, duration, args, kwargs, result)
        return result

    def _count(self, name, parent, duration, args, kwargs, result) -> None:
        if name == FITNESS:
            coords = args[1]
            archive = args[3] if len(args) > 3 else kwargs.get("archive")
            key = (coords, len(getattr(archive, "entries", ())))
            if key in self.seen:
                self.repeats += 1
            else:
                self.seen.add(key)
            self.fitness_us.append(duration * 1e6)
            self.cells += coords.volume
        elif name in VARIATION and parent != INIT:
            self.variation_s += duration
        elif name == "engine.run_triea":
            self.runs_accepted += len(result)
            self.runs_rejected += args[1].n_triclusters - len(result)
        elif name == LOAD:
            self.rows[LOAD] += result.values.size
            self.csv_bytes += os.path.getsize(args[0])
        elif name == EXPORT:
            self.rows[EXPORT] += args[0].values.size
            self.csv_bytes += os.path.getsize(args[1])

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Patch every PATCH_POINTS attribute; restore them on exit."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr in PATCH_POINTS]
        try:
            for mod, attr, fn in originals:
                setattr(mod, attr, self._wrap(fn))
            yield self
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def root(self, fn, *args):
        """Run ``fn(*args)`` as a ``cli.main`` root span."""
        return self._span(ROOT, fn, args, {})

    def layer_self(self, layer: str) -> float:
        return sum(
            s for name, s in self.self_time.items() if name.startswith(layer + ".")
        )

    def metrics(self, wall: float) -> dict[str, float]:
        """Per-layer metrics of the operation traced since ``reset``;
        ``wall`` is its wall time as measured around the root calls."""
        n_fit = self.calls[FITNESS]
        us = sorted(self.fitness_us)
        cells_per_eval = _ratio(self.cells, n_fit)
        m = {
            "quality.fitness.calls": n_fit,
            "quality.fitness.s": self.total[FITNESS],
            "quality.fitness.us_p50": statistics.median(us) if us else 0.0,
            # Nearest-rank 99th percentile.
            "quality.fitness.us_p99": us[math.ceil(0.99 * len(us)) - 1] if us else 0.0,
            "quality.fitness.self_s": self.self_time[FITNESS],
            "quality.msr3d.s": self.total["quality.msr3d"],
            "quality.lsl.s": self.total["quality.lsl"],
            "quality.cells_per_eval": cells_per_eval,
            "quality.computed_bytes_per_eval": 8 * cells_per_eval,
            "quality.fitness.repeat_share": _ratio(self.repeats, n_fit),
            "engine.decode.calls": self.calls["engine.decode"],
            "engine.decode.s": self.total["engine.decode"],
            "engine.init_population.s": self.total[INIT],
            "engine.variation.s": self.variation_s,
            "engine.self_s": self.self_time[EVOLVE],
            "engine.runs_accepted": self.runs_accepted,
            "engine.runs_rejected": self.runs_rejected,
            "tensor_io.load_dataset.s": self.total[LOAD],
            "tensor_io.load_dataset.rows_per_s": _ratio(
                self.rows[LOAD], self.total[LOAD]
            ),
            "tensor_io.export_csv.s": self.total[EXPORT],
            "tensor_io.export_csv.rows_per_s": _ratio(
                self.rows[EXPORT], self.total[EXPORT]
            ),
            "tensor_io.normalize_minmax.s": self.total["tensor_io.normalize_minmax"],
            "tensor_io.impute_missing.s": self.total["tensor_io.impute_missing"],
            "tensor_io.generate_synthetic.s": self.total[
                "tensor_io.generate_synthetic"
            ],
            "tensor_io.csv_bytes": self.csv_bytes,
            "cli.self_s": self.self_time[ROOT],
            "trace.self_sum_ratio": _ratio(sum(self.self_time.values()), wall),
        }
        for layer in LAYERS:
            m[f"{layer}.share"] = _ratio(self.layer_self(layer), wall)
        return m

"""Benchmark of trievolve: end-to-end metrics, or per-layer metrics from a
traced run, for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_small --seed 1 --seconds 30 --trace 0

``--seed`` makes every input (synthetic spec, GA seed, blanked cells); the
same seed gives the same inputs.  The default seed is 1; claims must also
hold on the held-out seed 2.  The workload's CLI operation repeats for
``--seconds`` seconds, each followed by the auxiliary set-up steps.  The
end-to-end timings are in reference seconds (``clock.py``): wall time scaled
to a fixed CPU speed sampled during the call.  ``op_s`` is the mean over the
operations, which on the GA workloads run different GA seeds; the other
timings are medians of their samples.  With ``--trace 0`` the result holds
the end-to-end metrics; with ``--trace 1`` untraced and traced operations
alternate and the result holds the per-layer metrics, which are in wall
seconds.  Every line but the last is a readable report; the last line is the
result as one JSON object.  ``perfbench/selftest.py`` runs every workload at
tiny sizes.
"""

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
HELDOUT_SEED = 2
GOLDEN = Path(__file__).with_name("golden.json")
# Self times of all traced spans must sum to the traced wall time within this
# share; the remainder is the harness's own code around the root calls.
SELF_SUM_TOL = 0.01

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "generate_s": "s",
    "evaluate_s": "s",
    "fitness_gain": "1",
    "peak_rss_mb": "MB",
}


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def measure(wl, bench, tracer, seconds: float, trace: bool):
    """Repeat rounds of the workload's operation and its auxiliary steps
    while another round fits in ``seconds``.

    Returns the untraced ops (``workloads.Call``), the traced ops' wall times
    and the per-layer metrics of each traced op.  With ``trace`` on,
    untraced and traced ops alternate.
    """
    untraced, traced, layers, rounds = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        if trace and len(untraced) > len(traced):
            tracer.reset()
            with tracer.installed():
                wall = wl.op(traced=True).wall
            m = tracer.metrics(wall)
            if abs(m["trace.self_sum_ratio"] - 1.0) > SELF_SUM_TOL:
                bench.failed += 1
                bench.problems.append(
                    f"traced self times sum to {m['trace.self_sum_ratio']:.4f} "
                    f"of the traced wall time (tolerance {SELF_SUM_TOL})"
                )
            traced.append(wall)
            layers.append(m)
        else:
            untraced.append(wl.op(traced=False))
        wl.aux()
        rounds.append(time.perf_counter() - start)
        if trace and not traced:
            continue
        if time.perf_counter() + median(rounds) > deadline:
            return untraced, traced, layers


def golden_status(workload: str, seed: int, digest) -> str:
    if digest is None:
        return "golden digest: not applicable"
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if seed != recorded["seed"] or workload not in recorded["digests"]:
        return f"golden digest: none recorded for seed {seed} (got {digest})"
    if digest == recorded["digests"][workload]:
        return f"golden digest: match ({digest})"
    return (f"golden digest: MISMATCH, got {digest}, recorded "
            f"{recorded['digests'][workload]} (reported, not counted as a failure)")


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result dict, report lines)."""
    # Both import trievolve, so they load after add_program_path.
    import workloads
    from tracer import METRIC_UNITS, Tracer

    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{trace:d}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        tracer = Tracer()
        bench = workloads.Bench(work, tracer)
        wl = workloads.make(bench, workload, seed, tiny)
        wl.prepare()
        untraced, traced, layers = measure(wl, bench, tracer, seconds, trace)
    finally:
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    samples = wl.samples
    if trace:
        units = METRIC_UNITS
        values = {name: median([m[name] for m in layers]) for name in layers[0]}
        values["trace.overhead_ratio"] = median(traced) / median([c.wall for c in untraced])
        counts = f"{len(traced)} traced and {len(untraced)} untraced ops"
    else:
        units = END_TO_END_UNITS
        values = {
            "setup_s": median(samples["setup_s"]),
            "op_s": statistics.fmean(c.seconds for c in untraced),
            "generate_s": median(samples["generate_s"]),
            "evaluate_s": median(samples["evaluate_s"]),
            "fitness_gain": wl.fitness_gain(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wall = median([c.wall for c in untraced])
        counts = f"{len(untraced)} ops (wall median {wall:.4f} s); " + ", ".join(
            f"{name} x{len(samples[name])}" for name in ("setup_s", "generate_s", "evaluate_s")
        )

    report = [f"workload {workload}, seed {seed} (default {DEFAULT_SEED}, held-out "
              f"{HELDOUT_SEED}), trace {trace:d}: {counts}"]
    report += [f"  {name:36s} {values[name]!r} {unit}" for name, unit in units.items()]
    report.append(f"  error_rate {bench.failed}/{bench.attempted} operations failed")
    if not tiny:
        report.append(golden_status(workload, seed, wl.golden_digest()))
    report += [f"problem: {p}" for p in bench.problems]
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    return result, report


def add_program_path() -> bool:
    """Put the checkout's own ``src`` first on the import path; False, with
    a message, when the checkout holds no trievolve sources."""
    src = ROOT / "src"
    if not (src / "trievolve" / "__init__.py").is_file():
        print(f"error: no trievolve sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    return True


def main(argv=None) -> int:
    if not add_program_path():
        return 2
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report))
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

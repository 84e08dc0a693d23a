"""Fast self-test of the benchmark harness.

Runs every workload at tiny sizes, untraced and traced, and fails when a
workload reports a failed operation or an incorrect result, or prints a
metric set, unit or value that does not match BENCHMARK.json.  Takes a few
seconds.  Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import math
import sys

import run


def main() -> int:
    if not run.add_program_path():
        return 2
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, report = run.run_benchmark(name, run.DEFAULT_SEED, 0.05, trace, tiny=True)
            where = f"{name} trace={trace:d}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: " + "; ".join(
                    line.strip() for line in report if line.startswith(("problem", "  error_rate"))
                ))
            metrics = result["metrics"]
            got = {n: m["unit"] for n, m in metrics.items()}
            if got != declared[trace]:
                errors.append(f"{where}: metrics {got} != BENCHMARK.json {declared[trace]}")
            for n, m in metrics.items():
                v = m["value"]
                if not math.isfinite(v) or v < 0 or (not trace and v == 0):
                    errors.append(f"{where}: {n} = {v}")
            print(f"{where}: {result['attempted']} operations, {result['failed']} failed")
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

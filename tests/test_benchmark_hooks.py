"""The benchmark tracer patches trievolve functions by module attribute.

``perfbench/tracer.py`` names each hook in ``PATCH_POINTS``; a renamed or
deleted hook, or a call that stops going through one, would break only the
benchmark, so tier-1 checks them here.  The tracer module is imported, never
modified.
"""

import importlib.util
import json
from dataclasses import astuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from trievolve import (
    Archive, QualityWeights, SyntheticSpec, cli, export_csv, fitness, generate_synthetic,
)

from conftest import random_coords

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Spans each command must record.  cli.fitness and engine.fitness both record
# as quality.fitness, so evaluate (cli.fitness) and run (engine.fitness) are
# traced apart.
SPANS = {
    "generate": {"tensor_io.generate_synthetic", "tensor_io.export_csv"},
    "run": {
        "tensor_io.load_dataset", "tensor_io.limit_genes",
        "tensor_io.normalize_minmax", "tensor_io.impute_missing",
        "engine.run_triea", "engine.evolve_one_tricluster",
        "engine.init_population", "engine.crossover", "engine.mutate",
        "engine.repair", "engine.decode",
        "quality.fitness", "quality.msr3d", "quality.lsl",
    },
    "evaluate": {
        "tensor_io.load_dataset", "tensor_io.normalize_minmax",
        "tensor_io.impute_missing",
        "quality.fitness", "quality.msr3d", "quality.lsl",
    },
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def test_every_patch_point_is_a_callable_attribute():
    tracer = load_tracer()
    assert tracer.PATCH_POINTS
    for module, attr in tracer.PATCH_POINTS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_traced_commands_reach_every_patch_point(tmp_path):
    tracer_module = load_tracer()
    hooks = {span_name(getattr(m, a)) for m, a in tracer_module.PATCH_POINTS}
    assert set().union(*SPANS.values()) == hooks

    spec, gen = tmp_path / "spec.json", tmp_path / "gen"
    csv = gen / "tensor.csv"
    spec.write_text(json.dumps({"dims": [8, 3, 4], "seed": 5}))
    coords = tmp_path / "coords.json"
    coords.write_text(json.dumps({"genes": [0, 1, 2], "conditions": [0, 1], "times": [1, 2]}))
    archive = tmp_path / "archive.json"
    archive.write_text(json.dumps(
        {"entries": [{"genes": [3, 4], "conditions": [0, 2], "times": [0, 3]}]}
    ))
    commands = {
        "generate": ["generate", "--spec", str(spec), "--out", str(gen)],
        "run": ["run", "--input", str(csv), "--out", str(tmp_path / "run"),
                "--genes-limit", "6", "--pop", "4", "--generations", "3",
                "--n-triclusters", "1", "--seed", "1"],
        "evaluate": ["evaluate", "--input", str(csv), "--coords", str(coords),
                     "--normalize", "--archive", str(archive)],
    }
    for name, argv in commands.items():
        tracer = tracer_module.Tracer()
        with tracer.installed():
            assert tracer.root(cli.main, argv) in (0, 4), name
        missing = {s for s in SPANS[name] if not tracer.calls[s]}
        assert not missing, f"{name} recorded no call of {sorted(missing)}"


def test_traced_run_breeds_one_block_per_generation(tmp_path):
    # Each generation after the first breeds all its children with one call
    # of each variation operator, so a rows-per-call count can divide by
    # these call counts.
    tensor, _ = generate_synthetic(SyntheticSpec(dims=(8, 3, 4), seed=5))
    csv = tmp_path / "tensor.csv"
    export_csv(tensor, csv)
    runs, generations = 3, 4
    argv = ["run", "--input", str(csv), "--out", str(tmp_path / "run"),
            "--pop", "5", "--generations", str(generations),
            "--n-triclusters", str(runs), "--seed", "1"]
    tracer = load_tracer().Tracer()
    with tracer.installed():
        assert tracer.root(cli.main, argv) in (0, 4)
    for op in ("engine.crossover", "engine.mutate", "engine.repair"):
        assert tracer.calls[op] == runs * (generations - 1), op


def test_traced_run_scores_and_decodes_once_per_distinct_candidate(tmp_path):
    # The tracer's fitness and decode spans are per candidate: each memo
    # miss is decoded and scored once, and each covering run decodes its
    # best once more.  A batch scorer that bypassed these hooks would make
    # the per-layer metrics read zero work.
    tensor, _ = generate_synthetic(SyntheticSpec(dims=(8, 3, 4), seed=5))
    csv = tmp_path / "tensor.csv"
    export_csv(tensor, csv)
    out, runs = tmp_path / "run", 3
    argv = ["run", "--input", str(csv), "--out", str(out), "--pop", "5",
            "--generations", "4", "--n-triclusters", str(runs), "--seed", "1"]
    tracer = load_tracer().Tracer()
    with tracer.installed():
        assert tracer.root(cli.main, argv) in (0, 4)
    manifest = json.loads((out / "manifest.json").read_text())
    evaluations = sum(r["evaluations"] for r in manifest["runs"])
    assert len(manifest["runs"]) == runs and evaluations > runs
    assert tracer.calls["quality.fitness"] == evaluations
    assert tracer.calls["engine.decode"] == evaluations + runs


@pytest.mark.parametrize("delta, code", [(None, 0), (0.0, 4)])
def test_traced_run_counts_the_manifests_runs(tmp_path, delta, code):
    # The tracer reads the accepted count as len(run_triea(...)) and the
    # rejected count as n_triclusters less it.
    tensor, _ = generate_synthetic(SyntheticSpec(dims=(8, 3, 4), seed=5))
    csv = tmp_path / "tensor.csv"
    export_csv(tensor, csv)
    out = tmp_path / "run"
    argv = ["run", "--input", str(csv), "--out", str(out), "--pop", "5",
            "--generations", "3", "--n-triclusters", "4", "--seed", "1"]
    if delta is not None:
        argv += ["--delta", str(delta)]
    tracer = load_tracer().Tracer()
    with tracer.installed():
        assert tracer.root(cli.main, argv) == code
    runs = json.loads((out / "manifest.json").read_text())["runs"]
    accepted = sum(r["accepted"] for r in runs)
    assert len(runs) == 4 and (accepted > 0) == (code == 0)
    assert tracer.runs_accepted == accepted
    assert tracer.runs_rejected == len(runs) - accepted


def test_fitness_reads_a_namespace_of_coverage_sets_as_an_archive():
    # The benchmark's output checks score against a SimpleNamespace holding
    # only the covered_genes / covered_conditions / covered_times sets.
    rng = np.random.default_rng(3)
    values = rng.random((9, 5, 6))
    weights = QualityWeights()
    archived = [random_coords(rng, values.shape) for _ in range(3)]
    archive = Archive()
    namespace = SimpleNamespace(covered_genes=set(), covered_conditions=set(), covered_times=set())
    for coords in archived:
        archive.add(coords, None)
        namespace.covered_genes.update(coords.genes)
        namespace.covered_conditions.update(coords.conditions)
        namespace.covered_times.update(coords.times)
    for _ in range(20):
        coords = random_coords(rng, values.shape)
        got, want = (
            np.array(astuple(fitness(values, coords, weights, a))).tobytes()
            for a in (namespace, archive)
        )
        assert got == want

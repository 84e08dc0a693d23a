"""Golden digest of a full ``trievolve run``.

The contract is ``(tensor, config, seed)`` -> bit-identical archive and
traces.  This test pins it across changes to the code, not only between two
runs of the same code: a refactor of the quality kernels or of the GA must
reproduce these digests byte for byte, or change them on purpose and say why.

The digests were recorded with numpy 2.4 on x86-64.  A numpy build that
rounds its reductions differently may change the last bits of a score and so
the digest; the scores still agree with ``naive.py`` there.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from trievolve import (
    Archive, QualityWeights, SyntheticSpec, TriclusterCoords, export_csv, fitness,
    generate_synthetic,
)
from trievolve.cli import main
from trievolve.quality import SLOPE_MODES

from conftest import random_coords

# SHA-256 of triclusters.json followed by trace_1.csv and trace_2.csv.
GOLDEN = {
    "ols": "a05cceccc5ae29acda32712cb5a8b58d10201c00bc22a354ffc18906b366c94e",
    "paper-literal": "052bc326738131f03fb4690b11b8a3b1d9a603332038dc055f7eb5b89fd57f3c",
}

# Archive coordinates of the golden runs on the 40x5x8 tensor, recorded with
# the digests above when breeding became one call per operator on a block of
# children.  Both modes first archive the tensor without gene 26 (OLS also
# without condition 0); then OLS archives the full tensor and paper-literal
# the full tensor without time 7.
_GENES, _CONDS, _TIMES = list(range(40)), list(range(5)), list(range(8))
_NO_GENE_26 = [g for g in _GENES if g != 26]
GOLDEN_COORDS = {
    "ols": [[_NO_GENE_26, _CONDS[1:], _TIMES], [_GENES, _CONDS, _TIMES]],
    "paper-literal": [[_NO_GENE_26, _CONDS, _TIMES], [_GENES, _CONDS, _TIMES[:7]]],
}

# SHA-256 of the golden tensor.csv that ``export_csv`` writes.  The run
# digests cannot see a change to the CSV bytes that loads to the same floats
# (quoting, line endings, another float spelling); this can.
GOLDEN_CSV = "5d0abb2db056bb87aeaa24d40c33c52837ef74111a590d426a2083ea3e7ca2e8"

# SHA-256 of the float64 bytes of every breakdown ``_fitness_corpus`` scores.
# The run digests see a score only through the search it steers; this pins
# the bits of msr, lsl, weights, distinction and f directly, so a kernel
# rewrite must reproduce each of them.
GOLDEN_FITNESS = "cbc63d7598cb6535367e15701ab930da2ace55117cb48195b94d7866ad89c984"


@pytest.fixture(scope="module")
def golden_csv(tmp_path_factory):
    plant = TriclusterCoords(tuple(range(12)), (0, 1, 2), (1, 2, 3, 4, 5))
    spec = SyntheticSpec(
        dims=(40, 5, 8), planted=((plant, "additive"),), noise_sigma=0.01, seed=11
    )
    tensor, _ = generate_synthetic(spec)
    path = tmp_path_factory.mktemp("golden") / "tensor.csv"
    export_csv(tensor, path)
    return path


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def golden_run(request, golden_csv, tmp_path_factory):
    """(slope mode, output directory) of one golden run."""
    out = tmp_path_factory.mktemp("run") / "out"
    code = main([
        "run", "--input", str(golden_csv), "--out", str(out), "--seed", "1",
        "--generations", "20", "--n-triclusters", "2", "--slope-mode", request.param,
    ])
    assert code == 0
    return request.param, out


def test_exported_csv_matches_golden_digest(golden_csv):
    assert hashlib.sha256(golden_csv.read_bytes()).hexdigest() == GOLDEN_CSV


def test_run_outputs_match_golden_digest(golden_run):
    mode, out = golden_run
    h = hashlib.sha256()
    for name in ("triclusters.json", "trace_1.csv", "trace_2.csv"):
        h.update((out / name).read_bytes())
    assert h.hexdigest() == GOLDEN[mode]


def test_run_archive_matches_golden_coords(golden_run):
    # A digest change with these unchanged moved score bits, not the search.
    mode, out = golden_run
    entries = json.loads((out / "triclusters.json").read_text())["entries"]
    got = [[e["genes"], e["conditions"], e["times"]] for e in entries]
    assert got == GOLDEN_COORDS[mode]


def _fitness_corpus():
    """(values, coords, archive, mode) of a seeded corpus: 200 candidates on
    each of a 200x4x14 tensor, a tensor with 2-wide axes and the first
    tensor offset by 1e6, each scored in both slope modes against an empty
    archive, a 3-entry Archive and a namespace of coverage sets."""
    rng = np.random.default_rng(18)
    base = rng.normal(size=(200, 4, 14))
    for values in (base, rng.normal(size=(9, 2, 2)), base + 1e6):
        archive, namespace = Archive(), SimpleNamespace(
            covered_genes=set(), covered_conditions=set(), covered_times=set()
        )
        for _ in range(3):
            archive.add(random_coords(rng, values.shape), None)
            coords = random_coords(rng, values.shape)
            namespace.covered_genes.update(coords.genes)
            namespace.covered_conditions.update(coords.conditions)
            namespace.covered_times.update(coords.times)
        for _ in range(200):
            coords = random_coords(rng, values.shape)
            for mode in SLOPE_MODES:
                for covered in (None, archive, namespace):
                    yield values, coords, covered, mode


def test_fitness_bits_match_golden_digest():
    h = hashlib.sha256()
    weights = QualityWeights()
    for values, coords, archive, mode in _fitness_corpus():
        breakdown = fitness(values, coords, weights, archive, mode)
        h.update(np.array(astuple(breakdown), dtype=np.float64).tobytes())
    assert h.hexdigest() == GOLDEN_FITNESS


# Prints numpy's dispatched SIMD targets (those beyond its build baseline)
# that the CPU runs and NPY_DISABLE_CPU_FEATURES leaves on.
_PRINT_SIMD_TARGETS = """
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath
print(" ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)))
"""


def _simd_targets_on(env=None) -> list[str]:
    probe = subprocess.run(
        [sys.executable, "-c", _PRINT_SIMD_TARGETS],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return probe.stdout.split()


def test_fitness_bits_hold_with_dispatched_simd_targets_off():
    # The bit contract must not hang on this CPU's SIMD tier: in a fresh
    # process with every dispatched target that is on turned off, numpy
    # runs its baseline kernels, and the fitness digest must still hold.
    targets = _simd_targets_on()
    if not targets:
        pytest.skip("numpy dispatches no SIMD target on this CPU")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    assert _simd_targets_on(env) == []
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_fitness_bits_match_golden_digest"],
        env=env, capture_output=True, text=True, timeout=600,
        cwd=Path(__file__).parent.parent,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "1 passed" in run.stdout

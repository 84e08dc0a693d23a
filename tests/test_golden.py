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

import pytest

from trievolve import SyntheticSpec, TriclusterCoords, export_csv, generate_synthetic
from trievolve.cli import main

# SHA-256 of triclusters.json followed by trace_1.csv and trace_2.csv.
GOLDEN = {
    "ols": "a22a1db9ef8477dd3e3f2e308531a221a21fb23eb6dcd8a2befed5d97f127444",
    "paper-literal": "8975721dd859802100f148ac62f7bb4fa52ba13c212964230f9da68d694fe486",
}


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


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_run_outputs_match_golden_digest(golden_csv, tmp_path, mode):
    out = tmp_path / "out"
    code = main([
        "run", "--input", str(golden_csv), "--out", str(out), "--seed", "1",
        "--generations", "20", "--n-triclusters", "2", "--slope-mode", mode,
    ])
    assert code == 0
    h = hashlib.sha256()
    for name in ("triclusters.json", "trace_1.csv", "trace_2.csv"):
        h.update((out / name).read_bytes())
    assert h.hexdigest() == GOLDEN[mode]

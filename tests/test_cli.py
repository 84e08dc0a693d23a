import contextlib
import csv
import hashlib
import io
import json
import math
import platform
from itertools import combinations, product
from pathlib import Path
from statistics import fmean

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trievolve import (
    Archive,
    GAConfig,
    QualityWeights,
    SyntheticSpec,
    TriclusterCoords,
    export_csv,
    fitness,
    generate_synthetic,
    load_dataset,
)
from trievolve import cli
from trievolve.cli import main

from conftest import make_tensor, pipe_path


@pytest.fixture(scope="module")
def dataset_csv(tmp_path_factory):
    spec = SyntheticSpec(dims=(12, 4, 5), seed=21)
    tensor, _ = generate_synthetic(spec)
    path = tmp_path_factory.mktemp("data") / "tensor.csv"
    export_csv(tensor, path)
    return path


@pytest.fixture(scope="module")
def huge_csv(tmp_path_factory):
    values = np.random.default_rng(0).random((6, 3, 4)) * 1e200
    path = tmp_path_factory.mktemp("data") / "huge.csv"
    export_csv(make_tensor(values), path)
    return path


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def overlap_of(entries, shape) -> dict:
    """The manifest's archive overlap fields, from the entries' cell sets."""
    cells = [
        set(product(e["genes"], e["conditions"], e["times"])) for e in entries
    ]
    pairs = [len(a & b) / len(a | b) for a, b in combinations(cells, 2)]
    keys = [(tuple(e["genes"]), tuple(e["conditions"]), tuple(e["times"])) for e in entries]
    return {
        "cell_coverage": len(set().union(*cells)) / math.prod(shape),
        "jaccard_mean": fmean(pairs) if pairs else None,
        "jaccard_max": max(pairs) if pairs else None,
        "duplicates": sum(key in keys[:k] for k, key in enumerate(keys)),
    }


class TestRun:
    def test_writes_outputs(self, dataset_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", "--input", str(dataset_csv), "--out", str(out),
            "--seed", "3", "--generations", "6", "--n-triclusters", "3",
        ])
        assert code == 0
        payload = read_json(out / "triclusters.json")
        assert 0 < len(payload["entries"]) <= 3
        for entry in payload["entries"]:
            assert entry["f"] == entry["msr"] + entry["lsl"] - entry["weights"] - entry["distinction"]
            assert entry["lsl"] < 1050.0
            assert len(entry["gene_labels"]) == len(entry["genes"])
        for k in range(1, 4):
            lines = (out / f"trace_{k}.csv").read_text().splitlines()
            assert lines[0] == "generation,best_f,mean_f"
            assert len(lines) == 1 + 6  # header + one row per generation
            best = [float(l.split(",")[1]) for l in lines[1:]]
            assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["seed"] == 3
        assert manifest["archive"]["count"] == len(payload["entries"])
        assert len(manifest["input_sha256"]) == 64
        runs = manifest["runs"]
        assert [r["index"] for r in runs] == [1, 2, 3]
        accepted = [r for r in runs if r["accepted"]]
        assert [r["best_lsl"] for r in accepted] == [e["lsl"] for e in payload["entries"]]
        # pop 20, 6 generations, one elite: 20 + 5 * 19 candidates per run
        for r in runs:
            assert r["accepted"] == (r["best_lsl"] < 1050.0)
            assert r["evaluations"] >= 1 and r["memo_hits"] >= 0
            assert r["evaluations"] + r["memo_hits"] == 20 + 5 * 19

    def test_manifest_lists_rejected_runs(self, dataset_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", "--input", str(dataset_csv), "--out", str(out),
            "--seed", "1", "--generations", "3", "--n-triclusters", "2",
            "--delta", "0",
        ])
        assert code == 4
        runs = read_json(out / "manifest.json")["runs"]
        assert [(r["index"], r["accepted"]) for r in runs] == [(1, False), (2, False)]
        assert all(r["best_lsl"] >= 0.0 for r in runs)

    @pytest.mark.parametrize("delta", ["1050", "0", "1e-320"])
    def test_manifest_run_reason_and_lsl_over_delta(self, dataset_csv, tmp_path, delta):
        # On normalised input every best LSL clears the default delta, none
        # clears 0, and against a subnormal delta the ratio overflows.
        out = tmp_path / "out"
        code = main([
            "run", "--input", str(dataset_csv), "--out", str(out),
            "--seed", "1", "--generations", "3", "--n-triclusters", "2",
            "--delta", delta,
        ])
        assert code == (0 if delta == "1050" else 4)
        runs = read_json(out / "manifest.json")["runs"]
        for r in runs:
            assert r["accepted"] == (delta == "1050")
            assert r["reason"] == (None if r["accepted"] else "lsl")
            assert r["best_lsl"] > 0.0
            want = r["best_lsl"] / 1050.0 if r["accepted"] else None
            assert r["best_lsl_over_delta"] == want
        assert list(runs[0]) == [
            "index", "accepted", "reason", "best_lsl", "best_lsl_over_delta",
            "evaluations", "memo_hits",
        ]

    def test_manifest_digest_and_archive_means(self, dataset_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", "--input", str(dataset_csv), "--out", str(out),
            "--seed", "3", "--generations", "4", "--n-triclusters", "3",
        ])
        assert code == 0
        entries = read_json(out / "triclusters.json")["entries"]
        manifest = read_json(out / "manifest.json")
        assert manifest["input_sha256"] == hashlib.sha256(dataset_csv.read_bytes()).hexdigest()
        assert manifest["archive"] == {
            "count": len(entries),
            "mean_lsl": fmean([e["lsl"] for e in entries]),
            "mean_msr": fmean([e["msr"] for e in entries]),
            **overlap_of(entries, (12, 4, 5)),
        }

    def test_manifest_archive_overlap_recomputed_from_entries(self, dataset_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", "--input", str(dataset_csv), "--out", str(out),
            "--seed", "5", "--generations", "4", "--n-triclusters", "6",
        ])
        assert code == 0
        entries = read_json(out / "triclusters.json")["entries"]
        archive = read_json(out / "manifest.json")["archive"]
        assert len(entries) >= 2
        want = overlap_of(entries, (12, 4, 5))
        assert archive["jaccard_mean"] == pytest.approx(want.pop("jaccard_mean"), rel=1e-12)
        for key, value in want.items():
            assert archive[key] == value, key

    def test_archive_overlap_counts_partial_cover_and_duplicates(self):
        # Two equal 2x2x2 entries and one shifted by a gene, in a 4x2x3
        # tensor: 12 of 24 cells covered, pair overlaps 1, 1/3 and 1/3.
        archive = Archive()
        for genes in ((0, 1), (0, 1), (1, 2)):
            archive.add(TriclusterCoords(genes, (0, 1), (0, 1)), None)
        overlap = cli._archive_overlap(archive, (4, 2, 3))
        assert overlap == {
            "cell_coverage": 0.5,
            "jaccard_mean": pytest.approx(5 / 9, rel=1e-12),
            "jaccard_max": 1.0,
            "duplicates": 1,
        }

    def test_manifest_names_the_numpy_and_python_builds(self, dataset_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", "--input", str(dataset_csv), "--out", str(out),
            "--seed", "3", "--generations", "2", "--n-triclusters", "1",
        ])
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["numpy_version"] == np.__version__
        assert manifest["python_version"] == platform.python_version()

    def test_manifest_seconds_per_step(self, dataset_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", "--input", str(dataset_csv), "--out", str(out),
            "--seed", "3", "--generations", "2", "--n-triclusters", "1",
        ])
        assert code == 0
        manifest = read_json(out / "manifest.json")
        seconds = manifest["seconds"]
        assert list(seconds) == ["load", "preprocess", "mine", "write"]
        assert all(type(s) is float and s >= 0.0 for s in seconds.values())
        assert manifest["duration_seconds"] >= 0.0
        assert list(manifest).index("seconds") == list(manifest).index("duration_seconds") + 1

    def test_pipe_input_digest_null(self, dataset_csv, tmp_path):
        # The load drains the pipe; hashing it again would read zero bytes.
        out = tmp_path / "out"
        with pipe_path(dataset_csv.read_text(encoding="utf-8")) as fd_path:
            code = main([
                "run", "--input", fd_path, "--out", str(out),
                "--seed", "3", "--generations", "4", "--n-triclusters", "3",
            ])
        assert code == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["input"] == fd_path
        assert manifest["input_sha256"] is None

    def test_manifest_means_null_for_empty_archive(self, dataset_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", "--input", str(dataset_csv), "--out", str(out),
            "--seed", "1", "--generations", "3", "--n-triclusters", "2",
            "--delta", "0",
        ])
        assert code == 4
        archive = read_json(out / "manifest.json")["archive"]
        assert archive == {
            "count": 0, "mean_lsl": None, "mean_msr": None, "cell_coverage": 0.0,
            "jaccard_mean": None, "jaccard_max": None, "duplicates": 0,
        }

    def test_byte_identical_reruns(self, dataset_csv, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "run", "--input", str(dataset_csv), "--out", str(out),
                "--seed", "7", "--generations", "4", "--n-triclusters", "2",
            ])
            assert code == 0
            outs.append(out)
        a, b = outs
        assert (a / "triclusters.json").read_bytes() == (b / "triclusters.json").read_bytes()
        for k in (1, 2):
            assert (a / f"trace_{k}.csv").read_bytes() == (b / f"trace_{k}.csv").read_bytes()

    def test_delta_zero_empty_archive_exit_4(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "run", "--input", str(dataset_csv), "--out", str(out),
            "--seed", "1", "--generations", "3", "--n-triclusters", "2",
            "--delta", "0",
        ])
        assert code == 4
        assert read_json(out / "triclusters.json") == {"entries": []}
        assert (out / "manifest.json").exists()  # warning semantics
        assert (out / "trace_1.csv").exists()

    def test_missing_input_exit_3(self, tmp_path):
        assert main(["run", "--input", str(tmp_path / "nope.csv")]) == 3

    def test_malformed_input_exit_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("gene,condition,time,value\na,x,1,oops\n")
        assert main(["run", "--input", str(bad), "--out", str(tmp_path / "o")]) == 3

    def test_non_finite_input_exit_3(self, tmp_path):
        bad = tmp_path / "nan.csv"
        bad.write_text("gene,condition,time,value\na,x,1,0.5\na,x,2,nan\n")
        assert main(["run", "--input", str(bad), "--out", str(tmp_path / "o")]) == 3

    def test_undersized_tensor_exit_3_before_out(self, tmp_path, capsys):
        # One condition cannot hold a tricluster; --out is never made.
        path = tmp_path / "one_condition.csv"
        export_csv(make_tensor(np.random.default_rng(0).random((4, 1, 3))), path)
        out = tmp_path / "out"
        assert main(["run", "--input", str(path), "--out", str(out)]) == 3
        assert "every tensor axis needs length >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_flags_exit_2(self, dataset_csv, tmp_path):
        code = main([
            "run", "--input", str(dataset_csv), "--out", str(tmp_path / "o"),
            "--pc", "1.5",
        ])
        assert code == 2

    def test_infinite_delta_exit_2(self, dataset_csv, tmp_path):
        # The manifest records delta, and JSON has no infinity.
        code = main([
            "run", "--input", str(dataset_csv), "--out", str(tmp_path / "o"),
            "--delta", "inf",
        ])
        assert code == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_score_exit_3(self, huge_csv, tmp_path, capsys):
        # Unnormalized values near 1e200 overflow the MSR to inf; JSON has
        # no infinity, so the run fails instead of writing one.
        out = tmp_path / "out"
        code = main([
            "run", "--input", str(huge_csv), "--out", str(out), "--no-normalize",
            "--seed", "1", "--generations", "3", "--n-triclusters", "2",
            "--delta", "1e300",
        ])
        assert code == 3
        assert "run 1 scored a non-finite msr = inf" in capsys.readouterr().err
        assert not (out / "triclusters.json").exists()
        assert not (out / "manifest.json").exists()

    def test_overflowing_weights_exit_2_before_ga_work(
        self, dataset_csv, tmp_path, capsys, monkeypatch
    ):
        # 12 genes and 4 conditions at 1e308 each overflow the size reward
        # whatever the values, so the flags are at fault, not the input.
        def no_ga(*args, **kwargs):
            raise AssertionError("the GA ran")

        monkeypatch.setattr(cli, "run_triea", no_ga)
        out = tmp_path / "out"
        code = main([
            "run", "--input", str(dataset_csv), "--out", str(out),
            "--wg", "1e308", "--wc", "1e308",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: weights too large: ")
        assert "--wg, --wc, --wt, --wdg, --wdc or --wdt" in err
        assert err.count("\n") == 1
        assert not (out / "triclusters.json").exists()

    def test_genes_limit(self, dataset_csv, tmp_path):
        out = tmp_path / "out"
        code = main([
            "run", "--input", str(dataset_csv), "--out", str(out),
            "--seed", "2", "--generations", "3", "--n-triclusters", "1",
            "--genes-limit", "8",
        ])
        assert code in (0, 4)
        payload = read_json(out / "triclusters.json")
        for entry in payload["entries"]:
            assert max(entry["genes"]) < 8

    def test_env_seed_used_when_flag_absent(self, dataset_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("TRIEA_SEED", "99")
        out = tmp_path / "env"
        main([
            "run", "--input", str(dataset_csv), "--out", str(out),
            "--generations", "3", "--n-triclusters", "1",
        ])
        assert read_json(out / "manifest.json")["config"]["seed"] == 99
        # --seed wins over the environment
        out2 = tmp_path / "flag"
        main([
            "run", "--input", str(dataset_csv), "--out", str(out2),
            "--seed", "5", "--generations", "3", "--n-triclusters", "1",
        ])
        assert read_json(out2 / "manifest.json")["config"]["seed"] == 5

    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_seed_exit_2(self, dataset_csv, tmp_path, monkeypatch, source):
        flag = []
        if source == "flag":
            flag = ["--seed", "-1"]
        else:
            monkeypatch.setenv("TRIEA_SEED", "-1")
        coords_path = tmp_path / "c.json"
        coords_path.write_text(json.dumps(
            {"genes": [0, 1], "conditions": [0, 1], "times": [0, 1]}
        ))
        assert main([
            "run", "--input", str(dataset_csv), "--out", str(tmp_path / "o"),
            "--generations", "3", "--n-triclusters", "1", *flag,
        ]) == 2
        assert not (tmp_path / "o").exists()
        assert main([
            "evaluate", "--input", str(dataset_csv), "--coords", str(coords_path),
            *flag,
        ]) == 2

    def test_non_integer_env_seed_exit_2(self, dataset_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("TRIEA_SEED", "abc")
        coords_path = tmp_path / "c.json"
        coords_path.write_text(json.dumps(
            {"genes": [0, 1], "conditions": [0, 1], "times": [0, 1]}
        ))
        assert main([
            "run", "--input", str(dataset_csv), "--out", str(tmp_path / "o"),
            "--generations", "3", "--n-triclusters", "1",
        ]) == 2
        assert main([
            "evaluate", "--input", str(dataset_csv), "--coords", str(coords_path),
        ]) == 2


class TestGenerate:
    def spec_payload(self):
        return {
            "dims": [10, 4, 5],
            "background": "uniform01",
            "noise_sigma": 0.0,
            "seed": 17,
            "planted": [
                {"genes": [0, 1, 2], "conditions": [0, 1], "times": [0, 1, 2],
                 "pattern": "constant"}
            ],
        }

    def test_ground_truth_matches_spec(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.spec_payload()))
        out = tmp_path / "out"
        assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 0
        truth = read_json(out / "ground_truth.json")
        assert truth["triclusters"] == [
            {"genes": [0, 1, 2], "conditions": [0, 1], "times": [0, 1, 2]}
        ]
        tensor = load_dataset(out / "tensor.csv")
        assert tensor.shape == (10, 4, 5)

    def test_deterministic_csv(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.spec_payload()))
        a, b = tmp_path / "a", tmp_path / "b"
        main(["generate", "--spec", str(spec_path), "--out", str(a)])
        main(["generate", "--spec", str(spec_path), "--out", str(b)])
        assert (a / "tensor.csv").read_bytes() == (b / "tensor.csv").read_bytes()

    def test_invalid_spec_exit_2(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        payload = self.spec_payload()
        payload["planted"][0]["pattern"] = "fractal"
        spec_path.write_text(json.dumps(payload))
        assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("payload", [[], "x"])
    def test_non_object_spec_exit_2(self, tmp_path, payload):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(payload))
        assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2

    def test_infinite_noise_exit_2(self, tmp_path):
        # Python's json reads Infinity; a plant would then hold inf cells.
        spec_path = tmp_path / "spec.json"
        text = json.dumps(self.spec_payload()).replace(
            '"noise_sigma": 0.0', '"noise_sigma": Infinity'
        )
        assert "Infinity" in text
        spec_path.write_text(text)
        out = tmp_path / "o"
        assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 2
        assert not (out / "tensor.csv").exists()

    def test_overlap_exit_5(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        payload = self.spec_payload()
        payload["planted"].append(
            {"genes": [2, 3], "conditions": [1, 2], "times": [2, 3],
             "pattern": "constant"}
        )
        spec_path.write_text(json.dumps(payload))
        assert main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 5

    def test_generated_plant_evaluates_to_zero_msr(self, tmp_path, capsys):
        # cross-command consistency: generate, then evaluate the ground truth
        spec_path = tmp_path / "spec.json"
        payload = self.spec_payload()
        payload["planted"][0]["pattern"] = "additive"
        spec_path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        main(["generate", "--spec", str(spec_path), "--out", str(out)])
        coords_path = tmp_path / "coords.json"
        coords_path.write_text(json.dumps(self.spec_payload()["planted"][0]))
        capsys.readouterr()
        code = main([
            "evaluate", "--input", str(out / "tensor.csv"),
            "--coords", str(coords_path),
        ])
        assert code == 0
        breakdown = json.loads(capsys.readouterr().out)
        assert breakdown["msr"] <= 1e-9


class TestEvaluate:
    @pytest.mark.parametrize("rows, detail", [
        (["a,x,1,0.5", "a,x,2,abc", "a,x,3,0.7"], "data row 2: bad value 'abc'"),
        (["a,x,1,0.5", "a,x,1,0.6"], "data row 2: duplicate entry"),
    ])
    def test_faulty_pipe_input_exit_3(self, tmp_path, capsys, rows, detail):
        coords_path = tmp_path / "c.json"
        coords_path.write_text(json.dumps({"genes": [0, 1], "conditions": [0], "times": [0]}))
        text = "gene,condition,time,value\n" + "\n".join(rows) + "\n"
        with pipe_path(text) as fd_path:
            code = main(["evaluate", "--input", fd_path, "--coords", str(coords_path)])
        assert code == 3
        assert capsys.readouterr().err.startswith(f"error: {fd_path}: {detail}")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_score_exit_3(self, huge_csv, tmp_path, capsys):
        coords_path = tmp_path / "c.json"
        coords_path.write_text(json.dumps(
            {"genes": [0, 1, 2], "conditions": [0, 1], "times": [0, 1, 2]}
        ))
        code = main(["evaluate", "--input", str(huge_csv), "--coords", str(coords_path)])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite score msr = inf" in captured.err

    @pytest.mark.parametrize("flags", [
        ["--wg", "1e308", "--wc", "1e308"],
        # A finite size reward that overflows with the distinction weights.
        ["--wg", "5e307", "--wdg", "1.7e308"],
    ])
    def test_overflowing_weights_exit_2(self, dataset_csv, tmp_path, capsys, flags):
        coords_path = tmp_path / "c.json"
        coords_path.write_text(json.dumps(
            {"genes": [0, 1, 2], "conditions": [0, 1], "times": [0, 1, 2]}
        ))
        code = main([
            "evaluate", "--input", str(dataset_csv), "--coords", str(coords_path), *flags,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: weights too large: the size reward of 3 genes, 2 conditions "
            "and 3 times plus the distinction weights is inf; "
            "lower --wg, --wc, --wt, --wdg, --wdc or --wdt\n"
        )
        assert captured.err.count("\n") == 1

    def test_rescoring_a_run_reproduces_its_archive(self, tmp_path, capsys):
        # Blanked values make the run impute; evaluate must normalize and
        # impute with the run's seed, and see the entries archived before.
        tensor, _ = generate_synthetic(SyntheticSpec(dims=(12, 4, 5), seed=21))
        path = tmp_path / "blanked.csv"
        export_csv(tensor, path)
        lines = path.read_bytes().split(b"\r\n")
        for row in (3, 17, 58, 140):
            lines[row] = lines[row].rsplit(b",", 1)[0] + b","
        path.write_bytes(b"\r\n".join(lines))
        assert load_dataset(path).n_missing() == 4
        out = tmp_path / "out"
        assert main([
            "run", "--input", str(path), "--out", str(out), "--seed", "7",
            "--generations", "4", "--n-triclusters", "3",
        ]) == 0
        capsys.readouterr()
        entries = read_json(out / "triclusters.json")["entries"]
        assert len(entries) == 3
        keys = ("msr", "lsl", "weights", "distinction", "f")
        for i, entry in enumerate(entries):
            coords_path = tmp_path / f"coords_{i}.json"
            coords_path.write_text(json.dumps(
                {axis: entry[axis] for axis in ("genes", "conditions", "times")}
            ))
            argv = ["evaluate", "--input", str(path), "--coords", str(coords_path),
                    "--normalize", "--seed", "7"]
            if i:
                archive_path = tmp_path / f"archive_{i}.json"
                archive_path.write_text(json.dumps({"entries": entries[:i]}))
                argv += ["--archive", str(archive_path)]
            assert main(argv) == 0
            got = json.loads(capsys.readouterr().out)
            # JSON floats round-trip, so equal reprs are equal bits.
            assert [repr(got[k]) for k in keys] == [repr(entry[k]) for k in keys]

    def test_constant_region_zero_weights(self, tmp_path, capsys):
        values = np.full((4, 3, 3), 0.5)
        csv = tmp_path / "t.csv"
        export_csv(make_tensor(values), csv)
        coords_path = tmp_path / "c.json"
        coords_path.write_text(json.dumps(
            {"genes": [0, 1], "conditions": [0, 1], "times": [0, 1]}
        ))
        code = main([
            "evaluate", "--input", str(csv), "--coords", str(coords_path),
            "--wg", "0", "--wc", "0", "--wt", "0",
            "--wdg", "0", "--wdc", "0", "--wdt", "0",
        ])
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        assert got == {"msr": 0.0, "lsl": 0.0, "weights": 0.0,
                       "distinction": 0.0, "f": 0.0}

    def test_parity_with_library(self, dataset_csv, tmp_path, capsys):
        coords = TriclusterCoords((0, 3, 5, 7), (0, 2), (1, 2, 4))
        coords_path = tmp_path / "c.json"
        coords_path.write_text(json.dumps(coords.to_dict()))
        code = main([
            "evaluate", "--input", str(dataset_csv), "--coords", str(coords_path),
        ])
        assert code == 0
        got = json.loads(capsys.readouterr().out)
        want = fitness(load_dataset(dataset_csv), coords, QualityWeights())
        assert got == want.to_dict()

    def test_byte_order_mark_is_skipped(self, dataset_csv, tmp_path, capsys):
        coords_path = tmp_path / "c.json"
        coords_path.write_text(json.dumps({"genes": [0, 1], "conditions": [0, 1], "times": [0, 1]}))
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + dataset_csv.read_bytes())
        outputs = []
        for path in (dataset_csv, bom_csv):
            assert main(["evaluate", "--input", str(path), "--coords", str(coords_path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_archive_feeds_distinction(self, dataset_csv, tmp_path, capsys):
        coords = TriclusterCoords((0, 1), (0, 1), (0, 1))
        coords_path = tmp_path / "c.json"
        coords_path.write_text(json.dumps(coords.to_dict()))
        archive_path = tmp_path / "archive.json"
        archive_path.write_text(json.dumps(
            {"entries": [{"genes": [0, 1], "conditions": [0, 1], "times": [0, 1]}]}
        ))
        main(["evaluate", "--input", str(dataset_csv), "--coords", str(coords_path),
              "--archive", str(archive_path)])
        got = json.loads(capsys.readouterr().out)
        assert got["distinction"] == 0.0

    def evaluate_with_archive(self, dataset_csv, tmp_path, payload):
        coords_path = tmp_path / "c.json"
        coords_path.write_text(json.dumps(
            {"genes": [0, 1], "conditions": [0, 1], "times": [0, 1]}
        ))
        archive_path = tmp_path / "archive.json"
        archive_path.write_text(json.dumps(payload))
        return main([
            "evaluate", "--input", str(dataset_csv), "--coords", str(coords_path),
            "--archive", str(archive_path),
        ])

    @pytest.mark.parametrize("payload", [
        [{"genes": [0, 1], "conditions": [0, 1], "times": [0, 1]}],
        {"entries": {"genes": [0, 1], "conditions": [0, 1], "times": [0, 1]}},
        {"entries": [[0, 1]]},
        {"entries": [{"genes": [0, 1], "conditions": [0, 1]}]},
    ])
    def test_malformed_archive_exit_2(self, dataset_csv, tmp_path, payload):
        assert self.evaluate_with_archive(dataset_csv, tmp_path, payload) == 2

    @pytest.mark.parametrize("genes", [[-1, 0], [0, 1.5], ["0", "1"]])
    def test_archive_bad_indices_exit_2(self, dataset_csv, tmp_path, genes):
        payload = {"entries": [{"genes": genes, "conditions": [0, 1], "times": [0, 1]}]}
        assert self.evaluate_with_archive(dataset_csv, tmp_path, payload) == 2

    def test_archive_out_of_bounds_exit_3(self, dataset_csv, tmp_path):
        payload = {"entries": [{"genes": [0, 1], "conditions": [0, 1], "times": [0, 5]}]}
        assert self.evaluate_with_archive(dataset_csv, tmp_path, payload) == 3

    def test_undersized_coords_exit_2(self, dataset_csv, tmp_path):
        coords_path = tmp_path / "c.json"
        coords_path.write_text(json.dumps(
            {"genes": [0], "conditions": [0, 1], "times": [0, 1]}
        ))
        assert main([
            "evaluate", "--input", str(dataset_csv), "--coords", str(coords_path),
        ]) == 2

    def test_out_of_bounds_exit_3(self, dataset_csv, tmp_path):
        coords_path = tmp_path / "c.json"
        coords_path.write_text(json.dumps(
            {"genes": [0, 500], "conditions": [0, 1], "times": [0, 1]}
        ))
        assert main([
            "evaluate", "--input", str(dataset_csv), "--coords", str(coords_path),
        ]) == 3


COORDS = {"genes": [0, 1], "conditions": [0, 1], "times": [0, 1]}
FIELD_LIMIT = csv.field_size_limit()


class Inputs:
    """Files for one failure case: a good CSV, coords and spec, a directory,
    a plain file, and JSON or CSV files built on request."""

    def __init__(self, tmp_path, good_csv):
        self.tmp, self.csv = tmp_path, str(good_csv)
        self.dir = str(tmp_path)
        self.file = self.write("plain.txt", b"x")
        self.out = str(tmp_path / "out")
        self.coords = self.json("coords.json", COORDS)

    def write(self, name, data: bytes) -> str:
        path = self.tmp / name
        path.write_bytes(data)
        return str(path)

    def json(self, name, payload) -> str:
        return self.write(name, json.dumps(payload).encode())

    def spec(self, **changes) -> str:
        return self.json("spec.json", {"dims": [6, 4, 4], "seed": 3, **changes})

    def out_with_dir(self, name: str) -> str:
        """``--out`` with a directory where the output ``name`` goes."""
        (self.tmp / "out" / name).mkdir(parents=True)
        return self.out

    def csv_with_row(self, row: bytes) -> str:
        with open(self.csv, "rb") as fh:
            return self.write("fault.csv", fh.read() + row + b"\n")

    def run(self, csv=None, out=None, extra=()):
        return ["run", "--input", csv or self.csv, "--out", out or self.out,
                "--generations", "2", "--n-triclusters", "1", *extra]

    def evaluate(self, csv=None, coords=None, archive=None, extra=()):
        argv = ["evaluate", "--input", csv or self.csv, "--coords", coords or self.coords]
        return argv + (["--archive", archive] if archive else []) + [*extra]

    def generate(self, spec=None, out=None):
        return ["generate", "--spec", spec or self.spec(), "--out", out or self.out]


UNDECODABLE = b"g\xff,c0,0,0.5"
LONG_FIELD = b"g" + b"x" * FIELD_LIMIT + b",c0,0,0.5"

# Bad flags: exit 2 before the input CSV is read.
FLAG_FAILURES = [
    # One gene cannot hold a tricluster: the flag is at fault, not the input.
    ("genes-limit-1", 2, lambda f: f.run(extra=["--genes-limit", "1"])),
    ("run-negative-weight", 2, lambda f: f.run(extra=["--wg", "-1"])),
    ("evaluate-negative-weight", 2, lambda f: f.evaluate(extra=["--wg", "-1"])),
    ("evaluate-nan-weight", 2, lambda f: f.evaluate(extra=["--wdt", "nan"])),
]

# (case, exit code, argv built from an Inputs)
FAILURES = [
    *FLAG_FAILURES,
    ("input-directory-run", 3, lambda f: f.run(csv=f.dir)),
    ("input-directory-evaluate", 3, lambda f: f.evaluate(csv=f.dir)),
    ("coords-directory", 2, lambda f: f.evaluate(coords=f.dir)),
    ("archive-directory", 2, lambda f: f.evaluate(archive=f.dir)),
    ("spec-directory", 2, lambda f: f.generate(spec=f.dir)),
    ("out-is-a-file-run", 2, lambda f: f.run(out=f.file)),
    ("out-is-a-file-generate", 2, lambda f: f.generate(out=f.file)),
    ("undecodable-csv-run", 3, lambda f: f.run(csv=f.csv_with_row(UNDECODABLE))),
    ("undecodable-csv-evaluate", 3,
     lambda f: f.evaluate(csv=f.csv_with_row(UNDECODABLE))),
    ("long-field-csv-run", 3, lambda f: f.run(csv=f.csv_with_row(LONG_FIELD))),
    ("long-field-csv-evaluate", 3,
     lambda f: f.evaluate(csv=f.csv_with_row(LONG_FIELD))),
    ("spec-negative-seed", 2, lambda f: f.generate(spec=f.spec(seed=-1))),
    # JSON integers are taken strictly: no truncation, no true/false.
    ("spec-float-seed", 2, lambda f: f.generate(spec=f.spec(seed=1.5))),
    ("spec-bool-seed", 2, lambda f: f.generate(spec=f.spec(seed=True))),
    ("spec-float-dims", 2, lambda f: f.generate(spec=f.spec(dims=[4.5, 3, 3]))),
    ("spec-bool-noise", 2, lambda f: f.generate(spec=f.spec(noise_sigma=True))),
    ("spec-huge-noise", 2, lambda f: f.generate(spec=f.spec(noise_sigma=10**400))),
    ("spec-huge-dims", 2, lambda f: f.generate(spec=f.spec(dims=[10**20, 3, 3]))),
    ("spec-plant-out-of-dims", 2, lambda f: f.generate(spec=f.spec(
        planted=[{**COORDS, "genes": [0, 9], "pattern": "constant"}]))),
    ("coords-bool-index", 2, lambda f: f.evaluate(
        coords=f.json("c.json", {**COORDS, "times": [0, True]}))),
    ("archive-bool-index", 2, lambda f: f.evaluate(
        archive=f.json("a.json", {"entries": [{**COORDS, "genes": [False, 1]}]}))),
]


class TestFailureClasses:
    @pytest.mark.parametrize(
        "code, argv", [pytest.param(c, a, id=case) for case, c, a in FAILURES]
    )
    def test_exit_code(self, dataset_csv, tmp_path, capsys, code, argv):
        assert main(argv(Inputs(tmp_path, dataset_csv))) == code
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv", [pytest.param(a, id=case) for case, _, a in FLAG_FAILURES]
    )
    def test_flag_error_stops_before_load(
        self, dataset_csv, tmp_path, capsys, monkeypatch, argv
    ):
        def no_load(*args, **kwargs):
            raise AssertionError("the input was loaded")

        monkeypatch.setattr(cli, "load_dataset", no_load)
        assert main(argv(Inputs(tmp_path, dataset_csv))) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "payload", [[], {"seed": 1}, {"dims": [4, 4, 4], "planted": 5}]
    )
    def test_spec_error_named_once(self, dataset_csv, tmp_path, capsys, payload):
        f = Inputs(tmp_path, dataset_csv)
        assert main(f.generate(spec=f.json("spec.json", payload))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid synthetic spec: ")
        assert err.count("invalid synthetic spec") == 1

    @pytest.mark.parametrize("flag, what", [
        ("coords", "coords file"), ("archive", "archive file"), ("spec", "synthetic spec"),
    ])
    def test_deeply_nested_json_is_malformed(
        self, dataset_csv, tmp_path, capsys, flag, what
    ):
        f = Inputs(tmp_path, dataset_csv)
        deep = f.write("deep.json", b"[" * 200_000)
        argv = f.generate(spec=deep) if flag == "spec" else f.evaluate(**{flag: deep})
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid {what}: {deep}: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    def test_out_file_stops_run_before_ga_work(
        self, dataset_csv, tmp_path, capsys, monkeypatch
    ):
        def no_ga(*args, **kwargs):
            raise AssertionError("the GA ran")

        monkeypatch.setattr(cli, "run_triea", no_ga)
        f = Inputs(tmp_path, dataset_csv)
        assert main(f.run(out=f.file)) == 2
        assert "cannot make directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [
        ("generate", "tensor.csv"), ("generate", "ground_truth.json"),
        ("run", "triclusters.json"), ("run", "trace_1.csv"), ("run", "manifest.json"),
    ])
    def test_failed_write_names_the_file(
        self, dataset_csv, tmp_path, capsys, command, name
    ):
        f = Inputs(tmp_path, dataset_csv)
        out = f.out_with_dir(name)
        argv = f.generate(out=out) if command == "generate" else f.run(out=out)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {Path(out) / name}: ")


# JSON values of every kind, nested a few levels deep.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
INDEX_LISTS = st.one_of(
    st.lists(
        st.integers(-3, 14) | st.integers(2**62, 2**80) | st.booleans()
        | st.floats() | st.none() | st.text(max_size=2)
        | st.lists(st.integers(0, 3), max_size=2),
        max_size=5,
    ),
    JSON_VALUES,
)
# Well-formed coords: an axis either fits the 12x4x5 dataset with two or more
# indices, or may run past it or hold one index.
WELL_FORMED = st.fixed_dictionaries({
    key: st.lists(st.integers(0, 3), min_size=2, max_size=3, unique=True)
    | st.lists(st.integers(0, 14), min_size=1, max_size=3)
    for key in ("genes", "conditions", "times")
})
# Payloads of every shape, nearly all malformed.
MOSTLY_MALFORMED = st.one_of(
    WELL_FORMED.map(lambda d: {**d, "genes": [*d["genes"], True]}),
    WELL_FORMED.map(lambda d: {**d, "times": [float(i) for i in d["times"]]}),
    st.fixed_dictionaries(
        {"genes": INDEX_LISTS, "conditions": INDEX_LISTS, "times": INDEX_LISTS},
        optional={"f": JSON_VALUES},
    ),
    st.fixed_dictionaries(
        {}, optional={"genes": INDEX_LISTS, "conditions": INDEX_LISTS, "times": INDEX_LISTS}
    ),
    JSON_VALUES,
)


def half_and_half(a, b):
    # st.one_of would flatten nested choices and draw evenly among them all.
    return st.booleans().flatmap(lambda pick_a: a if pick_a else b)


COORDS_PAYLOADS = half_and_half(WELL_FORMED, MOSTLY_MALFORMED)
ARCHIVE_PAYLOADS = half_and_half(
    st.none() | st.fixed_dictionaries({"entries": st.lists(WELL_FORMED, max_size=2)}),
    st.fixed_dictionaries({"entries": st.lists(COORDS_PAYLOADS, max_size=3)})
    | st.fixed_dictionaries({"entries": JSON_VALUES})
    | JSON_VALUES,
)


def _axes(payload):
    """Distinct indices per axis of a well-formed coords payload, else None."""
    if not isinstance(payload, dict):
        return None
    axes = []
    for key in ("genes", "conditions", "times"):
        raw = payload.get(key)
        if not isinstance(raw, list) or not raw or any(
            isinstance(i, bool) or not isinstance(i, int) or i < 0 for i in raw
        ):
            return None
        axes.append(set(raw))
    return axes


def _fits(axes, shape) -> bool:
    return all(max(idx) < n for idx, n in zip(axes, shape))


def expected_evaluate_code(coords, archive, shape) -> int:
    """The documented exit code of ``evaluate``, checks in the order it runs
    them: the coords file, each archive entry, then the scoring."""
    axes = _axes(coords)
    if axes is None:
        return 2
    if archive is not None:
        if not isinstance(archive, dict) or not isinstance(archive.get("entries"), list):
            return 2
        for entry in archive["entries"]:
            entry_axes = _axes(entry)
            if entry_axes is None:
                return 2
            if not _fits(entry_axes, shape):
                return 3
    if not _fits(axes, shape):
        return 3
    if min(map(len, axes)) < 2:
        return 2
    return 0


# A fault and where it goes, as fractions of the file's bytes or rows.
CSV_FAULTS = st.one_of(
    st.tuples(
        st.just("insert"),
        st.sampled_from([
            b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80",  # undecodable
            b"x" * (FIELD_LIMIT + 1),  # a field past the csv module's limit
        ]),
        st.floats(0, 1),
    ),
    st.tuples(
        st.just("row"),
        st.sampled_from([
            b"g0,c0,0,nan", b"g0,c0,0,-inf", b"g0,c0,0,abc", b"g0,c0,0",
            b"g0,c0,0,1,2", b",c0,0,0.5", b"g0,c0,,0.5", b"",
        ]),
        st.floats(0, 1),
    ),
    st.tuples(st.just("duplicate"), st.floats(0, 1), st.floats(0, 1)),
    st.tuples(st.sampled_from(["header", "empty", "directory", "missing"])),
)


def faulty_csv(good_csv, work, fault) -> str:
    """Path of a copy of ``good_csv`` with ``fault`` in it."""
    kind, *where = fault
    if kind == "directory":
        return str(work)
    path = work / "fault.csv"
    if kind == "missing":
        path.unlink(missing_ok=True)
        return str(path)
    data = good_csv.read_bytes()
    lines = data.split(b"\r\n")[:-1]
    if kind == "insert":
        fault_bytes, at = where
        at = round(at * len(data))
        data = data[:at] + fault_bytes + data[at:]
    elif kind == "row":
        row, at = where
        lines[1 + round(at * (len(lines) - 2))] = row
        # The closing newline keeps an empty last row a blank line.
        data = b"\n".join(lines) + b"\n"
    elif kind == "duplicate":
        i, j = (1 + round(x * (len(lines) - 2)) for x in where)
        lines[i] = lines[j if j != i else i % (len(lines) - 1) + 1]
        data = b"\n".join(lines)
    elif kind == "header":
        data = b"gene,condition,time\n" + b"\n".join(lines[1:])
    else:
        data = b""
    path.write_bytes(data)
    return str(path)


def main_in_process(argv):
    """Exit code and stderr of ``main``; any exception escapes."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestExitCodeFuzz:
    @settings(max_examples=200, deadline=None)
    @given(coords=COORDS_PAYLOADS, archive=ARCHIVE_PAYLOADS)
    def test_evaluate_payloads(self, dataset_csv, fuzz_dir, coords, archive):
        coords_path = fuzz_dir / "coords.json"
        coords_path.write_text(json.dumps(coords))
        argv = ["evaluate", "--input", str(dataset_csv), "--coords", str(coords_path)]
        if archive is not None:
            archive_path = fuzz_dir / "archive.json"
            archive_path.write_text(json.dumps(archive))
            argv += ["--archive", str(archive_path)]
        code, err = main_in_process(argv)
        assert code == expected_evaluate_code(coords, archive, (12, 4, 5))
        assert err.startswith("error:") == (code != 0)

    @settings(max_examples=150, deadline=None)
    @given(fault=CSV_FAULTS)
    def test_evaluate_csv_faults(self, dataset_csv, fuzz_dir, fault):
        coords_path = fuzz_dir / "ok.json"
        coords_path.write_text(json.dumps(COORDS))
        code, err = main_in_process([
            "evaluate", "--input", faulty_csv(dataset_csv, fuzz_dir, fault),
            "--coords", str(coords_path),
        ])
        assert code == 3
        assert err.startswith("error:")


class TestParser:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_defaults_are_the_standard_setting(self):
        parser = cli.build_parser()
        run = parser.parse_args(["run", "--input", "d.csv"])
        standard = GAConfig()
        flags = {
            "pop": "population_size", "generations": "generations",
            "pc": "p_crossover", "pm": "p_mutation", "delta": "delta",
            "n_triclusters": "n_triclusters", "slope_mode": "slope_mode",
        }
        assert {f: getattr(run, f) for f in flags} == {
            f: getattr(standard, name) for f, name in flags.items()
        }
        ev = parser.parse_args(["evaluate", "--input", "d.csv", "--coords", "c.json"])
        assert ev.slope_mode == standard.slope_mode
        weights = {
            "wg": "w_g", "wc": "w_c", "wt": "w_t",
            "wdg": "wd_g", "wdc": "wd_c", "wdt": "wd_t",
        }
        for args in (run, ev):
            assert {f: getattr(args, f) for f in weights} == {
                f: getattr(QualityWeights(), name) for f, name in weights.items()
            }

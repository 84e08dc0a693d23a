import json

import numpy as np
import pytest

from trievolve import (
    QualityWeights,
    SyntheticSpec,
    TriclusterCoords,
    export_csv,
    fitness,
    generate_synthetic,
    load_dataset,
)
from trievolve.cli import main

from conftest import make_tensor


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


class TestParser:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

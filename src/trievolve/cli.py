"""Command-line interface: dataset runs, synthetic generation, evaluation.

Subcommands:

* ``run``      -- full mining run on a CSV dataset; writes triclusters.json,
                  one trace CSV per run, and a manifest.
* ``generate`` -- build a synthetic tensor with planted regions from a JSON
                  spec; writes the tensor CSV plus ground_truth.json.
* ``evaluate`` -- score user-supplied coordinates against a dataset and print
                  the fitness breakdown as JSON on stdout.

Exit codes: 0 success, 2 bad flags (a negative seed or a non-integer
``$TRIEA_SEED`` included),
malformed coordinate or archive files or undersized coordinates, 3 input
format errors or out-of-bounds indices, 4 empty archive (outputs still
written), 5 overlapping planted regions.
"""

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from statistics import fmean

from . import __version__
from .engine import Archive, GAConfig, GenerationTrace, run_triea
from .quality import (
    SLOPE_MODES,
    FitnessBreakdown,
    QualityWeights,
    SizePreconditionError,
    TriclusterCoords,
    _check_bounds,
    fitness,
)
from .tensor_io import (
    DatasetFormatError,
    ExpressionTensor,
    RegionOverlapError,
    SyntheticSpec,
    export_csv,
    generate_synthetic,
    impute_missing,
    limit_genes,
    load_dataset,
    normalize_minmax,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_EMPTY_ARCHIVE = 4
EXIT_OVERLAP = 5

SEED_ENV_VAR = "TRIEA_SEED"


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _seed(args) -> int:
    """``--seed``, else ``$TRIEA_SEED``, else 0; ValueError for a negative
    seed or a non-integer variable."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed, source = int(raw), SEED_ENV_VAR
        except ValueError:
            raise ValueError(
                f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
            ) from None
    if seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _add_weight_flags(parser: argparse.ArgumentParser) -> None:
    for flag, help_text in (
        ("--wg", "size weight per selected gene"),
        ("--wc", "size weight per selected condition"),
        ("--wt", "size weight per selected time point"),
        ("--wdg", "distinction weight for genes"),
        ("--wdc", "distinction weight for conditions"),
        ("--wdt", "distinction weight for time points"),
    ):
        parser.add_argument(flag, type=float, default=0.1, help=help_text)


def _weights_from_args(args) -> QualityWeights:
    return QualityWeights(
        w_g=args.wg, w_c=args.wc, w_t=args.wt,
        wd_g=args.wdg, wd_c=args.wdc, wd_t=args.wdt,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trievolve",
        description="Mine triclusters from 3D gene expression data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="full mining run on a long-format CSV")
    run.add_argument("--input", required=True, help="long-format CSV dataset")
    run.add_argument("--out", default="triea_out", help="output directory")
    run.add_argument("--seed", type=int, default=None,
                     help=f"run seed (default: ${SEED_ENV_VAR} or 0)")
    run.add_argument("--pop", type=int, default=20, help="population size")
    run.add_argument("--generations", type=int, default=100)
    run.add_argument("--pc", type=float, default=0.95, help="crossover probability")
    run.add_argument("--pm", type=float, default=0.50, help="mutation probability")
    _add_weight_flags(run)
    run.add_argument("--delta", type=float, default=1050.0,
                     help="LSL acceptance threshold")
    run.add_argument("--n-triclusters", type=int, default=20,
                     help="number of sequential-covering runs")
    run.add_argument("--slope-mode", choices=SLOPE_MODES, default="ols")
    run.add_argument("--genes-limit", type=int, default=None,
                     help="keep only the first N genes in file order")
    run.add_argument("--no-normalize", action="store_true",
                     help="skip min-max normalization (pre-normalized data)")

    gen = sub.add_parser("generate", help="synthesize a tensor with planted regions")
    gen.add_argument("--spec", required=True, help="synthetic spec JSON")
    gen.add_argument("--out", default="synthetic_out", help="output directory")

    ev = sub.add_parser("evaluate", help="score one set of coordinates")
    ev.add_argument("--input", required=True, help="long-format CSV dataset")
    ev.add_argument("--coords", required=True,
                    help="JSON file with genes/conditions/times index lists")
    ev.add_argument("--archive", default=None,
                    help="triclusters.json from an earlier run, for distinction")
    ev.add_argument("--slope-mode", choices=SLOPE_MODES, default="ols")
    ev.add_argument("--seed", type=int, default=None,
                    help="imputation seed when the dataset has missing cells")
    ev.add_argument("--normalize", action="store_true",
                    help="min-max normalize before scoring (off by default)")
    _add_weight_flags(ev)
    return parser


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _archive_payload(archive: Archive, tensor: ExpressionTensor) -> dict:
    entries = []
    for entry in archive:
        c = entry.coords
        record = c.to_dict()
        record["gene_labels"] = [tensor.gene_ids[i] for i in c.genes]
        record["condition_labels"] = [tensor.condition_ids[i] for i in c.conditions]
        record["time_labels"] = [tensor.time_labels[i] for i in c.times]
        record.update(entry.breakdown.to_dict())
        entries.append(record)
    return {"entries": entries}


def _write_trace(path: Path, trace: GenerationTrace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("generation,best_f,mean_f\n")
        for rec in trace.records:
            fh.write(f"{rec.generation},{rec.best_f!r},{rec.mean_f!r}\n")


def cmd_run(args) -> int:
    try:
        seed = _seed(args)
        config = GAConfig(
            population_size=args.pop,
            generations=args.generations,
            p_crossover=args.pc,
            p_mutation=args.pm,
            quality_weights=_weights_from_args(args),
            delta=args.delta,
            n_triclusters=args.n_triclusters,
            slope_mode=args.slope_mode,
            seed=seed,
        )
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))

    try:
        tensor = load_dataset(args.input)
    except FileNotFoundError:
        return _fail(EXIT_INPUT, f"no such file: {args.input}")
    except DatasetFormatError as exc:
        return _fail(EXIT_INPUT, str(exc))

    if args.genes_limit is not None:
        try:
            tensor = limit_genes(tensor, args.genes_limit)
        except ValueError as exc:
            return _fail(EXIT_USAGE, str(exc))
    if not args.no_normalize:
        tensor = normalize_minmax(tensor)
    tensor = impute_missing(tensor, seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    traces: list[GenerationTrace] = []
    started = time.monotonic()
    try:
        archive = run_triea(
            tensor, config, trace_sink=lambda k, tr: traces.append(tr)
        )
    except ValueError as exc:
        return _fail(EXIT_INPUT, str(exc))
    duration = time.monotonic() - started

    _write_json(out_dir / "triclusters.json", _archive_payload(archive, tensor))
    for k, trace in enumerate(traces):
        _write_trace(out_dir / f"trace_{k + 1}.csv", trace)

    lsls = [e.breakdown.lsl for e in archive]
    msrs = [e.breakdown.msr for e in archive]
    runs = []
    for k, trace in enumerate(traces):
        best = trace.records[-1].best
        runs.append({
            "index": k + 1,  # the run's trace is trace_<index>.csv
            "accepted": config.accepts(best),
            "best_lsl": best.lsl,
            "evaluations": trace.evaluations,
            "memo_hits": trace.memo_hits,
        })
    manifest = {
        "tool_version": __version__,
        "input": str(args.input),
        "input_sha256": _sha256(args.input),
        "genes_limit": args.genes_limit,
        "normalize": not args.no_normalize,
        "config": dataclasses.asdict(config),
        "duration_seconds": duration,
        "archive": {
            "count": len(archive),
            "mean_lsl": fmean(lsls) if lsls else None,
            "mean_msr": fmean(msrs) if msrs else None,
        },
        "runs": runs,
    }
    _write_json(out_dir / "manifest.json", manifest)

    if len(archive) == 0:
        print(
            "warning: no tricluster cleared the LSL threshold; archive is empty",
            file=sys.stderr,
        )
        return EXIT_EMPTY_ARCHIVE
    print(f"archived {len(archive)} tricluster(s) in {out_dir}")
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        spec = SyntheticSpec.from_json(args.spec)
    except FileNotFoundError:
        return _fail(EXIT_USAGE, f"no such file: {args.spec}")
    except (ValueError, json.JSONDecodeError) as exc:
        return _fail(EXIT_USAGE, f"invalid synthetic spec: {exc}")
    try:
        tensor, truth = generate_synthetic(spec)
    except RegionOverlapError as exc:
        return _fail(EXIT_OVERLAP, str(exc))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    export_csv(tensor, out_dir / "tensor.csv")
    _write_json(
        out_dir / "ground_truth.json",
        {"triclusters": [c.to_dict() for c in truth]},
    )
    print(f"wrote {out_dir / 'tensor.csv'} and ground truth for {len(truth)} region(s)")
    return EXIT_OK


def _read_archive(path, values) -> Archive:
    """Archive of a triclusters.json file; entries need only their coordinates.

    IndexError for an entry that does not fit in ``values``; KeyError,
    TypeError or ValueError for a malformed payload.
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
        raise ValueError('expected a JSON object with an "entries" list')
    archive = Archive()
    for entry in payload["entries"]:
        coords = TriclusterCoords.from_dict(entry)
        _check_bounds(values, coords)
        archive.add(coords, None)
    return archive


def cmd_evaluate(args) -> int:
    try:
        seed = _seed(args)
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        tensor = load_dataset(args.input)
    except FileNotFoundError:
        return _fail(EXIT_INPUT, f"no such file: {args.input}")
    except DatasetFormatError as exc:
        return _fail(EXIT_INPUT, str(exc))
    if args.normalize:
        tensor = normalize_minmax(tensor)
    if tensor.n_missing():
        tensor = impute_missing(tensor, seed)

    try:
        with open(args.coords, encoding="utf-8") as fh:
            coords = TriclusterCoords.from_dict(json.load(fh))
    except FileNotFoundError:
        return _fail(EXIT_USAGE, f"no such file: {args.coords}")
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        return _fail(EXIT_USAGE, f"invalid coords file: {exc}")

    archive = None
    if args.archive is not None:
        try:
            archive = _read_archive(args.archive, tensor.values)
        except FileNotFoundError:
            return _fail(EXIT_USAGE, f"no such file: {args.archive}")
        except IndexError as exc:
            return _fail(EXIT_INPUT, f"archive entry: {exc}")
        except (KeyError, TypeError, ValueError) as exc:
            return _fail(EXIT_USAGE, f"invalid archive file: {exc}")

    try:
        breakdown: FitnessBreakdown = fitness(
            tensor, coords, _weights_from_args(args), archive, args.slope_mode
        )
    except SizePreconditionError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except IndexError as exc:
        return _fail(EXIT_INPUT, str(exc))
    print(json.dumps(breakdown.to_dict()))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "generate":
        return cmd_generate(args)
    return cmd_evaluate(args)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

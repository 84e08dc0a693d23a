"""Command-line interface: dataset runs, synthetic generation, evaluation.

Subcommands:

* ``run``      -- full mining run on a CSV dataset; once every run's best
                  has scored finite, writes triclusters.json, then
                  trace_1.csv ... trace_N.csv (one per run), then
                  manifest.json, whose ``input_sha256`` is null for an
                  input that is not a regular file, such as a pipe, and
                  whose ``seconds`` hold the wall time of each step:
                  ``load`` (with ``--genes-limit``), ``preprocess``
                  (normalise and impute), ``mine`` and ``write``
                  (triclusters.json and the traces).
* ``generate`` -- build a synthetic tensor with planted regions from a JSON
                  spec; writes the tensor CSV plus ground_truth.json.
* ``evaluate`` -- score user-supplied coordinates against a dataset and print
                  the fitness breakdown as JSON on stdout.

``run`` min-max normalizes unless ``--no-normalize``; ``evaluate`` does not
unless ``--normalize``.  So re-scoring a run's entry takes ``evaluate
--normalize``, the run's ``--seed`` and, as ``--archive``, the entries before
it; an entry of a ``--genes-limit N`` run re-scores only on a CSV cut to its
first N genes.

Exit codes:

* 0 success;
* 2 bad flags (a negative seed or a non-integer ``$TRIEA_SEED`` included;
  reported before ``--input`` is read), a missing, unreadable or malformed
  JSON file (``--coords``, ``--archive``, ``--spec``; JSON true/false and
  floats are not integers), undersized coordinates, weight flags whose
  largest reward overflows at the tensor's shape or the coordinates' counts
  (reported before scoring), an ``--out`` that cannot be made a directory,
  or an output file in it that cannot be written;
* 3 a missing, unreadable, undecodable, malformed or undersized ``--input`` CSV,
  out-of-bounds indices or a non-finite score (input values too large to
  score; JSON has no infinity);
* 4 empty archive (outputs still written, with a warning);
* 5 overlapping planted regions.

Every failure is raised as ``_Exit`` and reported by ``main`` alone, as one
``error: ...`` line on stderr.
"""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import sys
import time
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path
from statistics import fmean

import numpy as np

from . import __version__
from .engine import Archive, GAConfig, GenerationTrace, _check_dims, run_triea
from .quality import (
    SLOPE_MODES,
    FitnessBreakdown,
    QualityWeights,
    SizePreconditionError,
    TriclusterCoords,
    _check_bounds,
    _check_finite_reward,
    _integer,
    fitness,
    jaccard_cells,
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


class _Exit(Exception):
    """A failure that ``main`` reports as ``error: <message>`` and turns
    into exit code ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _reason(exc: Exception) -> str:
    # An OSError's message without its errno and path, else the message.
    return getattr(exc, "strerror", None) or str(exc)


def _seed(args) -> int:
    """``--seed``, else ``$TRIEA_SEED``, else 0; exit 2 for a negative seed
    or a non-integer variable."""
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    else:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed, source = int(raw), SEED_ENV_VAR
        except ValueError:
            raise _Exit(
                EXIT_USAGE, f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
            )
    try:
        return _integer(seed, source, 0)
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, str(exc))


def _add_weight_flags(parser: argparse.ArgumentParser) -> None:
    standard = QualityWeights()
    for flag, name, help_text in (
        ("--wg", "w_g", "size weight per selected gene"),
        ("--wc", "w_c", "size weight per selected condition"),
        ("--wt", "w_t", "size weight per selected time point"),
        ("--wdg", "wd_g", "distinction weight for genes"),
        ("--wdc", "wd_c", "distinction weight for conditions"),
        ("--wdt", "wd_t", "distinction weight for time points"),
    ):
        parser.add_argument(
            flag, type=float, default=getattr(standard, name), help=help_text
        )


def _weights_from_args(args) -> QualityWeights:
    """The weight flags; exit 2 for a negative or non-finite weight."""
    try:
        return QualityWeights(
            w_g=args.wg, w_c=args.wc, w_t=args.wt,
            wd_g=args.wdg, wd_c=args.wdc, wd_t=args.wdt,
        )
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, str(exc))


def _check_reward(weights: QualityWeights, counts) -> None:
    """Exit 2 when the largest reward a candidate of ``counts`` genes,
    conditions and times can score is not finite (``_check_finite_reward``)."""
    try:
        _check_finite_reward(weights, counts)
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, f"{exc}; lower --wg, --wc, --wt, --wdg, --wdc or --wdt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trievolve",
        description="Mine triclusters from 3D gene expression data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    standard = GAConfig()

    run = sub.add_parser("run", help="full mining run on a long-format CSV")
    run.add_argument("--input", required=True, help="long-format CSV dataset")
    run.add_argument("--out", default="triea_out", help="output directory")
    run.add_argument("--seed", type=int, default=None,
                     help=f"run seed (default: ${SEED_ENV_VAR} or 0)")
    run.add_argument("--pop", type=int, default=standard.population_size,
                     help="population size")
    run.add_argument("--generations", type=int, default=standard.generations)
    run.add_argument("--pc", type=float, default=standard.p_crossover,
                     help="crossover probability")
    run.add_argument("--pm", type=float, default=standard.p_mutation,
                     help="mutation probability")
    _add_weight_flags(run)
    run.add_argument("--delta", type=float, default=standard.delta,
                     help="LSL acceptance threshold")
    run.add_argument("--n-triclusters", type=int, default=standard.n_triclusters,
                     help="number of sequential-covering runs")
    run.add_argument("--slope-mode", choices=SLOPE_MODES, default=standard.slope_mode)
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
    ev.add_argument("--slope-mode", choices=SLOPE_MODES, default=standard.slope_mode)
    ev.add_argument("--seed", type=int, default=None,
                    help="imputation seed when the dataset has missing cells")
    ev.add_argument("--normalize", action="store_true",
                    help="min-max normalize before scoring (off by default; "
                         "run normalizes unless --no-normalize, so re-scoring "
                         "a run's entries needs --normalize and its --seed)")
    _add_weight_flags(ev)
    return parser


@contextmanager
def _writing(path: Path):
    """Exit 2 when writing ``path`` fails."""
    try:
        yield
    except OSError as exc:
        raise _Exit(EXIT_USAGE, f"cannot write {path}: {_reason(exc)}")


@contextmanager
def _timed(seconds: dict, step: str):
    """Sets ``seconds[step]`` to the wall seconds the block took."""
    start = time.perf_counter()
    yield
    seconds[step] = time.perf_counter() - start


def _write_json(path: Path, payload) -> None:
    with _writing(path), open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _non_finite_score(breakdown: FitnessBreakdown) -> str | None:
    """``name = value`` of the breakdown's first non-finite score, or None."""
    for name, value in breakdown.to_dict().items():
        if not math.isfinite(value):
            return f"{name} = {value!r}"
    return None


def _ratio(value: float, threshold: float) -> float | None:
    """``value / threshold``; None for a zero threshold or a ratio past the
    float range (JSON has no infinity)."""
    ratio = value / threshold if threshold else math.inf
    return ratio if math.isfinite(ratio) else None


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


def _archive_overlap(archive: Archive, shape) -> dict:
    """How much of the tensor the entries cover and how they overlap: the
    share of cells inside any entry, the mean and largest 3D Jaccard over
    all pairs (None below two entries) and the entries equal to an earlier
    one."""
    coords = [entry.coords for entry in archive]
    covered = np.zeros(shape, dtype=bool)
    for c in coords:
        covered[np.ix_(c.genes, c.conditions, c.times)] = True
    pairs = [jaccard_cells(a, b) for a, b in combinations(coords, 2)]
    return {
        "cell_coverage": np.count_nonzero(covered) / covered.size,
        "jaccard_mean": fmean(pairs) if pairs else None,
        "jaccard_max": max(pairs) if pairs else None,
        "duplicates": len(coords) - len(set(coords)),
    }


def _write_trace(path: Path, trace: GenerationTrace) -> None:
    with _writing(path), open(path, "w", encoding="utf-8") as fh:
        fh.write("generation,best_f,mean_f\n")
        for gen, rec in enumerate(trace.records):
            fh.write(f"{gen},{rec.best.f!r},{rec.mean_f!r}\n")


def _load(path) -> ExpressionTensor:
    """The ``--input`` CSV as a tensor; exit 3 when it is missing,
    unreadable, undecodable or malformed."""
    try:
        return load_dataset(path)
    except DatasetFormatError as exc:
        raise _Exit(EXIT_INPUT, str(exc))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise _Exit(EXIT_INPUT, f"cannot read {path}: {_reason(exc)}")


def _read_json(path, parse, what: str):
    """``parse`` of the JSON document in ``path``; exit 2 when the file is
    missing, unreadable or malformed (nested too deeply to parse included), or
    ``parse`` rejects it (IndexError too)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh))
    except OSError as exc:
        raise _Exit(EXIT_USAGE, f"cannot read {path}: {_reason(exc)}")
    # Decoding errors are ValueErrors; deep nesting is a RecursionError.
    except (LookupError, RecursionError, TypeError, ValueError) as exc:
        raise _Exit(EXIT_USAGE, f"invalid {what}: {path}: {exc}")


def _out_dir(path) -> Path:
    """``--out``, made a directory if it is not one; exit 2 when it cannot be."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _Exit(EXIT_USAGE, f"cannot make directory {path}: {_reason(exc)}")
    return out


def cmd_run(args) -> int:
    seed = _seed(args)
    try:
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
        if args.genes_limit is not None:
            _integer(args.genes_limit, "gene limit", 2)
    except ValueError as exc:
        raise _Exit(EXIT_USAGE, str(exc))

    seconds: dict[str, float] = {}
    with _timed(seconds, "load"):
        tensor = _load(args.input)
        if args.genes_limit is not None:
            tensor = limit_genes(tensor, args.genes_limit)
    with _timed(seconds, "preprocess"):
        if not args.no_normalize:
            tensor = normalize_minmax(tensor)
        tensor = impute_missing(tensor, seed)
    try:
        _check_dims(tensor.shape)
    except ValueError as exc:
        raise _Exit(EXIT_INPUT, str(exc))
    _check_reward(config.quality_weights, tensor.shape)

    out_dir = _out_dir(args.out)
    with _timed(seconds, "mine"):
        started = time.monotonic()
        archive = run_triea(tensor, config)
        duration = time.monotonic() - started
    for index, trace in enumerate(archive.runs, 1):
        bad = _non_finite_score(trace.records[-1].best)
        if bad is not None:
            raise _Exit(
                EXIT_INPUT,
                f"run {index} scored a non-finite {bad}; rescale the input values",
            )

    runs = []
    with _timed(seconds, "write"):
        _write_json(out_dir / "triclusters.json", _archive_payload(archive, tensor))
        for index, trace in enumerate(archive.runs, 1):
            _write_trace(out_dir / f"trace_{index}.csv", trace)
            best = trace.records[-1].best
            accepted = config.accepts(best)
            runs.append({
                "index": index,
                "accepted": accepted,
                "reason": None if accepted else "lsl",
                "best_lsl": best.lsl,
                "best_lsl_over_delta": _ratio(best.lsl, config.delta),
                "evaluations": trace.evaluations,
                "memo_hits": trace.memo_hits,
            })
    # A pipe or FIFO was drained by the load and cannot be read again.
    input_sha256 = None
    if os.path.isfile(args.input):
        with open(args.input, "rb") as fh:
            input_sha256 = hashlib.file_digest(fh, "sha256").hexdigest()
    manifest = {
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "input": str(args.input),
        "input_sha256": input_sha256,
        "genes_limit": args.genes_limit,
        "normalize": not args.no_normalize,
        "config": dataclasses.asdict(config),
        "duration_seconds": duration,
        "seconds": seconds,
        "archive": {
            "count": len(archive),
            "mean_lsl": fmean(e.breakdown.lsl for e in archive) if archive else None,
            "mean_msr": fmean(e.breakdown.msr for e in archive) if archive else None,
            **_archive_overlap(archive, tensor.shape),
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
    spec = _read_json(args.spec, SyntheticSpec.from_dict, "synthetic spec")
    try:
        tensor, truth = generate_synthetic(spec)
    except RegionOverlapError as exc:
        raise _Exit(EXIT_OVERLAP, str(exc))

    out_dir = _out_dir(args.out)
    csv_path = out_dir / "tensor.csv"
    with _writing(csv_path):
        export_csv(tensor, csv_path)
    _write_json(
        out_dir / "ground_truth.json",
        {"triclusters": [c.to_dict() for c in truth]},
    )
    print(f"wrote {csv_path} and ground truth for {len(truth)} region(s)")
    return EXIT_OK


def _parse_archive(payload, shape) -> Archive:
    """Archive of a triclusters.json payload; entries need only their
    coordinates.  Exit 3 for an entry that does not fit in ``shape``;
    KeyError, TypeError or ValueError for a malformed payload."""
    if not isinstance(payload, dict) or not isinstance(payload.get("entries"), list):
        raise ValueError('expected a JSON object with an "entries" list')
    archive = Archive()
    for entry in payload["entries"]:
        coords = TriclusterCoords.from_dict(entry)
        try:
            _check_bounds(shape, coords)
        except IndexError as exc:
            raise _Exit(EXIT_INPUT, f"archive entry: {exc}")
        archive.add(coords, None)
    return archive


def cmd_evaluate(args) -> int:
    seed = _seed(args)
    weights = _weights_from_args(args)
    tensor = _load(args.input)
    if args.normalize:
        tensor = normalize_minmax(tensor)
    tensor = impute_missing(tensor, seed)

    coords = _read_json(args.coords, TriclusterCoords.from_dict, "coords file")
    archive = None
    if args.archive is not None:
        archive = _read_json(
            args.archive,
            lambda payload: _parse_archive(payload, tensor.shape),
            "archive file",
        )

    _check_reward(weights, (coords.n_genes, coords.n_conditions, coords.n_times))
    try:
        breakdown: FitnessBreakdown = fitness(
            tensor, coords, weights, archive, args.slope_mode
        )
    except SizePreconditionError as exc:
        raise _Exit(EXIT_USAGE, str(exc))
    except IndexError as exc:
        raise _Exit(EXIT_INPUT, str(exc))
    bad = _non_finite_score(breakdown)
    if bad is not None:
        raise _Exit(EXIT_INPUT, f"non-finite score {bad}; rescale the input values")
    print(json.dumps(breakdown.to_dict(), allow_nan=False))
    return EXIT_OK


def main(argv=None) -> int:
    """Run one subcommand; the only place a failure is reported and turned
    into its exit code."""
    args = build_parser().parse_args(argv)
    command = {"run": cmd_run, "generate": cmd_generate, "evaluate": cmd_evaluate}
    try:
        return command[args.command](args)
    except _Exit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

"""Command line interface.

Subcommands::

    letrack track        associate detections into tracks
    letrack eval         score predicted tracks against ground truth
    letrack synth        generate a seeded synthetic gt/detections/bank triple
    letrack validate     check a file against its schema
    letrack import-burst convert an annotated-frames dump to the tracks schema

Exit codes: 0 success; 1 invalid input (schema, config, usage); 2 file
system failures; 3 internal invariant violations or unexpected errors.

Human-facing chatter (warnings, progress, validation verdicts) goes to
stderr; stdout carries only the eval score table.  Output files are
rendered in full before anything is opened and written all-or-nothing, so
a nonzero exit leaves no new file behind and every existing file as it was.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from collections import Counter
from typing import Any, Callable

from .association import TrackerConfig, track_sequence
from .core import InternalInvariantError
from .io import (
    ConfigError,
    SchemaError,
    bank_to_jsonable,
    detections_to_jsonable,
    dumps_canonical,
    load_bank,
    load_burst,
    load_detections,
    load_flat_config,
    load_tracks,
    tracks_to_jsonable,
    write_json_files,
)
from .metrics import DEFAULT_ALPHAS, GEOMETRIES, MODES, EvalConfig, evaluate
from .parallel import map_ordered
from .synth import SynthConfig, generate

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this tool reserves 2 for I/O.
    def error(self, message: str) -> "Any":
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _warn(messages: list[str]) -> None:
    for msg in messages:
        print(f"warning: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_track(args: argparse.Namespace) -> int:
    sequences, warnings = load_detections(args.detections, lax=args.lax)
    _warn(warnings)
    bank = None
    if args.bank:
        bank, bank_warnings = load_bank(args.bank, lax=args.lax)
        _warn(bank_warnings)
    cfg = TrackerConfig()
    if args.config:
        cfg = TrackerConfig.from_mapping(load_flat_config(args.config))

    results = map_ordered(lambda seq: track_sequence(seq, cfg, bank), sequences)
    out_sequences = [seq for seq, _ in results]
    totals: Counter[str] = Counter()
    for _, diag in results:
        totals.update(diag.as_dict())
    for key, value in sorted(totals.items()):
        if value:
            print(f"diagnostic: {key} = {value}", file=sys.stderr)

    write_json_files([(args.out, dumps_canonical(tracks_to_jsonable(out_sequences)))])
    n_tracks = sum(len(s.tracks) for s in out_sequences)
    print(
        f"tracked {len(out_sequences)} sequence(s), {n_tracks} track(s) -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _parse_alphas(raw: str) -> tuple[float, ...]:
    values = []
    for token in raw.split(","):
        token = token.strip()
        try:
            values.append(float(token))
        except ValueError:
            raise ConfigError(f"invalid alpha value {token!r} in --alphas") from None
    return tuple(values)


def _cmd_eval(args: argparse.Namespace) -> int:
    gt, gw = load_tracks(args.gt, lax=args.lax)
    _warn(gw)
    pred, pw = load_tracks(args.pred, lax=args.lax)
    _warn(pw)
    bank, bw = load_bank(args.bank, lax=args.lax)
    _warn(bw)
    alphas = DEFAULT_ALPHAS if args.alphas is None else _parse_alphas(args.alphas)
    cfg = EvalConfig(alphas=alphas, mode=args.mode, geometry=args.geometry)
    report = evaluate(gt, pred, bank, cfg)
    _warn(report.warnings)
    row_label = os.path.splitext(os.path.basename(args.pred))[0] or "pred"
    print(report.format_table(row_label=row_label))
    if args.report:
        write_json_files([(args.report, dumps_canonical(report.to_jsonable()))])
        print(f"report -> {args.report}", file=sys.stderr)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = SynthConfig()
    if args.config:
        cfg = SynthConfig.from_mapping(load_flat_config(args.config))
    result = generate(cfg)
    write_json_files(
        [
            (args.out_gt, dumps_canonical(tracks_to_jsonable(result.gt))),
            (args.out_dets, dumps_canonical(detections_to_jsonable(result.detections))),
            (args.out_bank, dumps_canonical(bank_to_jsonable(result.bank))),
        ]
    )
    print(
        f"synthesized seed {cfg.seed}: {cfg.num_tracks} track(s) x "
        f"{cfg.num_frames} frame(s) -> {args.out_gt}, {args.out_dets}, {args.out_bank}",
        file=sys.stderr,
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    loaders: dict[str, Callable[[str, bool], tuple[Any, list[str]]]] = {
        "detections": load_detections,
        "tracks": load_tracks,
        "bank": load_bank,
    }
    _, warnings = loaders[args.kind](args.file, args.lax)
    _warn(warnings)
    print(f"OK: {args.file} is a valid {args.kind} file", file=sys.stderr)
    return 0


def _cmd_import_burst(args: argparse.Namespace) -> int:
    sequences, warnings = load_burst(args.input)
    _warn(warnings)
    if not sequences:
        raise SchemaError([f"{args.input}: no convertible sequences"])
    write_json_files([(args.out, dumps_canonical(tracks_to_jsonable(sequences)))])
    print(
        f"imported {len(sequences)} sequence(s) -> {args.out}"
        + (f" ({len(warnings)} warning(s))" if warnings else ""),
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="letrack", description="long-tail video instance tracking toolkit")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("track", help="associate detections into tracks")
    p.add_argument("--detections", required=True, help="input detections JSON")
    p.add_argument("--out", required=True, help="output tracks JSON")
    p.add_argument("--config", help="flat key=value tracker config file")
    p.add_argument("--bank", help="category bank JSON; enables track labeling")
    p.add_argument("--lax", action="store_true", help="downgrade unknown fields to warnings")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("eval", help="score predicted tracks against ground truth")
    p.add_argument("--gt", required=True, help="ground-truth tracks JSON")
    p.add_argument("--pred", required=True, help="predicted tracks JSON")
    p.add_argument("--bank", required=True, help="category bank JSON (defines the splits)")
    p.add_argument("--mode", choices=MODES, default="closed")
    p.add_argument("--geometry", choices=GEOMETRIES, default="mask")
    p.add_argument("--alphas", help="comma-separated overlap thresholds in (0, 1)")
    p.add_argument("--report", help="also write the full report JSON here")
    p.add_argument("--lax", action="store_true", help="downgrade unknown fields to warnings")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate seeded synthetic data")
    p.add_argument("--config", help="flat key=value synth config file")
    p.add_argument("--out-gt", required=True, help="output ground-truth tracks JSON")
    p.add_argument("--out-dets", required=True, help="output detections JSON")
    p.add_argument("--out-bank", required=True, help="output category bank JSON")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("validate", help="check a file against its schema")
    p.add_argument("--file", required=True, help="file to check")
    p.add_argument("--kind", required=True, choices=("detections", "tracks", "bank"))
    p.add_argument("--lax", action="store_true", help="downgrade unknown fields to warnings")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("import-burst", help="convert an annotated-frames dump to tracks JSON")
    p.add_argument("--input", required=True, help="source annotation JSON")
    p.add_argument("--out", required=True, help="output tracks JSON")
    p.set_defaults(func=_cmd_import_burst)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except SchemaError as e:
        for issue in e.issues:
            print(f"error: {issue}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2
    except InternalInvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())

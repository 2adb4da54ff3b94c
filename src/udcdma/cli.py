"""Command-line front end: construction, verification, decoding, sweeps."""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import codebook as cb
from . import complexity as cx
from .decoder import MlDecoder, fda_decode
from .harness import SimConfig, curve_to_csv, curve_to_json, emit_results, run_ber_sweep


def _parse_grid(text: str) -> tuple:
    """Parse 'a:step:b' into an inclusive grid of floats."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must look like a:step:b")
    a, step, b = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (a, step, b)):
        raise ValueError(f"grid values must be finite, got {text!r}")
    if step <= 0:
        raise ValueError("grid step must be positive")
    count = int(round((b - a) / step)) + 1
    if count < 1:
        raise ValueError("empty grid")
    return tuple(round(a + i * step, 12) for i in range(count))


def _cmd_gen(args) -> int:
    c = cb.build_codebook(args.level)
    if args.format == "json":
        print(cb.codebook_to_json(c))
    else:
        sys.stdout.write(cb.matrix_to_csv(c.entries))
    return 0


def _cmd_verify(args) -> int:
    c = cb.build_codebook(args.level)
    witness = cb.verify_ud(c.entries, bound=args.bound)
    if witness.verdict:
        print(f"level {args.level} ({c.rows}x{c.cols}): uniquely decodable")
    else:
        d = ",".join(str(int(v)) for v in witness.counterexample)
        print(f"level {args.level} ({c.rows}x{c.cols}): NOT uniquely decodable; "
              f"nullspace witness [{d}]")
    return 0


def _cmd_ft(args) -> int:
    res = cb.max_ud_columns(args.length)
    print(f"f_t({args.length}) = {res.max_columns}")
    print("exemplar:")
    sys.stdout.write(cb.matrix_to_csv(res.exemplar))
    return 0


def _cmd_decode(args) -> int:
    c = cb.build_codebook(args.level)
    y = np.array([float(v) for v in args.y.split(",")], dtype=np.float64)
    if args.decoder == "ml":
        out = MlDecoder(c, args.amplitude).decode(y)
    else:
        out = fda_decode(c, y, args.amplitude)
    word = " ".join(f"{int(v):+d}" for v in out.word)
    print(f"x_hat: {word}")
    print(f"comparisons: {out.comparisons}")
    return 0


def _cmd_ber(args) -> int:
    decoders = tuple(d.strip() for d in args.decoders.split(",") if d.strip())
    if args.sigma:
        cfg = SimConfig(
            level=args.level,
            trials_per_point=args.trials,
            rng_seed=args.seed,
            sigma_grid=tuple(float(s) for s in args.sigma.split(",")),
            decoders=decoders,
            amplitude=args.amplitude,
            snr_convention="raw_sigma",
            workers=args.workers,
            min_errors=args.min_errors,
        )
    else:
        if not args.snr:
            raise ValueError("either --snr or --sigma is required")
        cfg = SimConfig(
            level=args.level,
            trials_per_point=args.trials,
            rng_seed=args.seed,
            snr_db_grid=_parse_grid(args.snr),
            decoders=decoders,
            amplitude=args.amplitude,
            snr_convention="ebn0",
            workers=args.workers,
            min_errors=args.min_errors,
        )
    points = run_ber_sweep(cfg)
    if args.out:
        emit_results(points, args.format, args.out, cfg)
        print(f"wrote {len(points)} points to {args.out}")
    else:
        if args.format == "json":
            print(curve_to_json(points, cfg))
        else:
            sys.stdout.write(curve_to_csv(points))
    return 0


def _cmd_complexity(args) -> int:
    if args.samples is not None and args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    empirical = None
    if args.mode in ("empirical", "both"):
        empirical = "exhaustive" if args.samples is None else "sampled"
    if args.mode == "empirical":
        c = cb.build_codebook(args.level)
        value = cx.empirical_avg_comparisons(c, mode=empirical, count=args.samples, seed=args.seed)
        print(json.dumps({"level": args.level, "empirical_T": value}))
        return 0
    rep = cx.complexity_report(args.level, empirical=empirical, count=args.samples,
                               seed=args.seed)
    print(cx.report_to_json(rep))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="udcdma",
        description="Uniquely decodable ternary codes for overloaded CDMA: "
                    "construction, decoding, complexity and BER tooling.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="print a codebook matrix")
    g.add_argument("--level", type=int, required=True)
    g.add_argument("--format", choices=("csv", "json"), default="csv")
    g.set_defaults(func=_cmd_gen)

    v = sub.add_parser("verify", help="exhaustive unique-decodability check")
    v.add_argument("--level", type=int, required=True)
    v.add_argument("--bound", type=int, default=cb.UD_CHECK_BOUND)
    v.set_defaults(func=_cmd_verify)

    f = sub.add_parser("ft", help="maximal UD column-count search")
    f.add_argument("--length", type=int, required=True)
    f.set_defaults(func=_cmd_ft)

    d = sub.add_parser("decode", help="decode one chip vector")
    d.add_argument("--level", type=int, required=True)
    d.add_argument("--y", type=str, required=True, help="comma-separated chips")
    d.add_argument("--decoder", choices=("fda", "ml"), default="fda")
    d.add_argument("--amplitude", type=float, default=1.0)
    d.set_defaults(func=_cmd_decode)

    b = sub.add_parser("ber", help="Monte-Carlo BER sweep")
    b.add_argument("--level", type=int, required=True)
    b.add_argument("--snr", type=str, default=None, help="Eb/N0 grid a:step:b in dB")
    b.add_argument("--sigma", type=str, default=None, help="comma-separated raw sigmas")
    b.add_argument("--trials", type=int, required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--decoders", type=str, default="fda,ml")
    b.add_argument("--out", type=str, default=None)
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.add_argument("--workers", type=int, default=1)
    b.add_argument("--min-errors", type=int, default=None)
    b.add_argument("--amplitude", type=float, default=1.0)
    b.set_defaults(func=_cmd_ber)

    x = sub.add_parser("complexity", help="analytic/empirical comparison counts")
    x.add_argument("--level", type=int, required=True)
    x.add_argument("--mode", choices=("analytic", "empirical", "both"), default="analytic")
    x.add_argument("--samples", type=int, default=None,
                   help="sample count for empirical mode (default: exhaustive)")
    x.add_argument("--seed", type=int, default=0)
    x.set_defaults(func=_cmd_complexity)

    return p


def cli_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, cb.UdBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_main())

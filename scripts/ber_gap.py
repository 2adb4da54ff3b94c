#!/usr/bin/env python3
"""Measure the fast-decoder vs ML SNR penalty at a target BER for one code level.

Both decoders see identical words and noise (common random numbers); the
crossing SNRs come from log-linear interpolation on the sweep grid.  The
default grid brackets BER 1e-3 at level 2 (the 4x8 code); other levels need
their own --snr-lo/--snr-hi.
"""
import argparse
import math

from udcdma.decoder import ML_MAX_LEVEL
from udcdma.harness import SimConfig, grid_points, run_ber_sweep


def crossing(points, decoder, target):
    xs = [p.snr_db for p in points if p.decoder == decoder and p.bit_errors > 0]
    ys = [p.ber for p in points if p.decoder == decoder and p.bit_errors > 0]
    for i in range(len(xs) - 1):
        if ys[i] >= target >= ys[i + 1]:
            if ys[i] == ys[i + 1]:          # a flat segment: its first point
                return xs[i]
            t = (math.log(target) - math.log(ys[i])) / (math.log(ys[i + 1]) - math.log(ys[i]))
            return xs[i] + t * (xs[i + 1] - xs[i])
    return None


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--level", type=int, choices=range(2, ML_MAX_LEVEL + 1), default=2)
    ap.add_argument("--trials", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--target", type=float, default=1e-3)
    ap.add_argument("--snr-lo", type=float, default=10.5)
    ap.add_argument("--snr-hi", type=float, default=13.0)
    ap.add_argument("--step", type=float, default=0.25)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()
    try:
        cfg = SimConfig(level=args.level, trials_per_point=args.trials, rng_seed=args.seed,
                        snr_db_grid=grid_points(args.snr_lo, args.step, args.snr_hi),
                        decoders=("fda", "ml"), workers=args.workers)
    except ValueError as exc:
        ap.error(str(exc))
    pts = run_ber_sweep(cfg)
    for p in pts:
        print(f"{p.snr_db:6.2f} dB  {p.decoder:3s}  ber={p.ber:.3e}  "
              f"errs={p.bit_errors}")
    s_fda = crossing(pts, "fda", args.target)
    s_ml = crossing(pts, "ml", args.target)
    print()
    for name, s in (("fast decoder", s_fda), ("ML", s_ml)):
        if s is not None:
            print(f"{name} reaches BER {args.target:g} at {s:.3f} dB")
    if s_fda is None or s_ml is None:
        print("target BER not bracketed by the grid; widen --snr-lo/--snr-hi")
        return
    print(f"SNR penalty: {s_fda - s_ml:.3f} dB")


if __name__ == "__main__":
    main()

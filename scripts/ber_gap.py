#!/usr/bin/env python3
"""Measure the fast-decoder vs ML SNR penalty at a target BER for one code level.

Both decoders see identical words and noise (common random numbers); the
crossing SNRs come from log-linear interpolation on the sweep grid.  A BER
that falls to zero errors only bounds its crossing, and then no penalty is
printed.  The default grid brackets BER 1e-3 at level 2 (the 4x8 code);
other levels need their own --snr-lo/--snr-hi.
"""
import argparse
import math

from udcdma.decoder import ML_MAX_LEVEL
from udcdma.harness import SimConfig, grid_points, run_ber_sweep


def crossing(points, decoder, target):
    """(SNR, interpolated) where the decoder's BER first falls to ``target``, or
    None; a segment down to zero errors gives its upper SNR, not interpolated."""
    xs = [p.snr_db for p in points if p.decoder == decoder]
    ys = [p.ber for p in points if p.decoder == decoder]
    for i in range(len(xs) - 1):
        if ys[i] >= target >= ys[i + 1]:
            if ys[i] == target:             # on a grid point, as on a flat segment
                return xs[i], True
            if ys[i + 1] == 0:
                return xs[i + 1], False
            t = (math.log(target) - math.log(ys[i])) / (math.log(ys[i + 1]) - math.log(ys[i]))
            return xs[i] + t * (xs[i + 1] - xs[i]), True
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
            where = "at {:.3f} dB" if s[1] else "by {:.3f} dB (0 errors there, not interpolated)"
            print(f"{name} reaches BER {args.target:g} " + where.format(s[0]))
    if s_fda is None or s_ml is None:
        print("target BER not bracketed by the grid; widen --snr-lo/--snr-hi")
    elif not (s_fda[1] and s_ml[1]):
        print("no SNR penalty: a crossing is not interpolated; raise --trials or refine --step")
    else:
        print(f"SNR penalty: {s_fda[0] - s_ml[0]:.3f} dB")


if __name__ == "__main__":
    main()

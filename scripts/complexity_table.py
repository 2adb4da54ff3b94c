#!/usr/bin/env python3
"""Print the decoder-complexity table: analytic averages per level alongside
exhaustive (levels 2-3) or sampled (level 4) measurements."""
import argparse

from udcdma.codebook import build_codebook
from udcdma.complexity import analytic_T, empirical_avg_comparisons


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=100_000,
                    help="sample count for the level-4 measurement")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    # the table prints once every row is measured, so a bad --samples or
    # --seed ends in a usage error alone
    rows = [f"{'level':>5} {'users':>6} {'analytic':>10} {'measured':>10} {'mode':>12}"]
    for level in (2, 3, 4):
        c = build_codebook(level)
        if level <= 3:
            measured = empirical_avg_comparisons(c, mode="exhaustive")
            mode = "exhaustive"
        else:
            try:
                measured = empirical_avg_comparisons(c, mode="sampled",
                                                     count=args.samples, seed=args.seed)
            except ValueError as exc:
                ap.error(str(exc))
            mode = f"sampled {args.samples}"
        rows.append(f"{level:>5} {c.cols:>6} {analytic_T(level):>10.4f} {measured:>10.4f} {mode:>12}")
    print("\n".join(rows))
    print(f"\nML reference: 2^8, 2^17 and 2^35 hypotheses for levels 2, 3, 4.")


if __name__ == "__main__":
    main()

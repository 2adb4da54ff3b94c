#!/usr/bin/env python3
"""Print the decoder-complexity table: analytic averages per level alongside
exhaustive (levels 2-3) or sampled (level 4) measurements."""
import argparse

from udcdma.codebook import level_users
from udcdma.complexity import complexity_report


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
        count = None if level <= 3 else args.samples
        try:
            rep = complexity_report(level, "both", count, args.seed)
        except ValueError as exc:
            ap.error(str(exc))
        mode = "exhaustive" if count is None else f"sampled {count}"
        rows.append(f"{level:>5} {level_users(level):>6} {rep['T']:>10.4f} "
                    f"{rep['empirical_T']:>10.4f} {mode:>12}")
    print("\n".join(rows))
    print(f"\nML reference: 2^8, 2^17 and 2^35 hypotheses for levels 2, 3, 4.")


if __name__ == "__main__":
    main()

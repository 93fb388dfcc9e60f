#!/usr/bin/env python3
"""Emit the analyzer quality curves and print the reference operating points.

Writes the default coupling/leakage grid as CSV (same format as the `sweep`
subcommand) and prints the three operating points usually quoted for this
kind of cavity, so the numbers can be eyeballed against the curve data.
"""

import argparse
import sys
from pathlib import Path

from spatialbsa.bsa import quality
from spatialbsa.cavity import operating_point
from spatialbsa.cli import SweepSpec, format_sweep_csv, sweep_points

ANCHORS = [(2.4, 0.0), (2.4, 0.7), (1.0, 0.7)]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("data/quality_sweep.csv"),
        help="CSV destination (parent directory is created)",
    )
    parser.add_argument("--steps", type=int, default=60)
    parser.add_argument("--g-max", type=float, default=3.0)
    args = parser.parse_args()

    spec = SweepSpec(
        g_min=0.1, g_max=args.g_max, steps=args.steps, ks_list=(0.0, 0.3, 0.7)
    )
    points = sweep_points(spec)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("w") as out:
        format_sweep_csv(points, spec, 0, out)
    print(f"wrote {len(points)} grid points to {args.out}")

    print("\nreference operating points:")
    for g_over_ktot, ks in ANCHORS:
        q = quality(operating_point(g_over_ktot, ks))
        print(
            f"  g/k_tot={g_over_ktot:<4} ks/k={ks:<4} "
            f"F1={q.F1 * 100:7.4f}%  eta1={q.eta1 * 100:7.4f}%  "
            f"F2={q.F2 * 100:7.4f}%  eta2={q.eta2 * 100:8.4f}%"
        )


if __name__ == "__main__":
    try:
        main()
    except (OSError, ValueError) as exc:  # a bad value or path: one line, as the CLI prints it
        sys.exit(f"error: {exc}")

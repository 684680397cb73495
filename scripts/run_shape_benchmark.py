#!/usr/bin/env python3
"""Compare bandwidth selectors on the reconstructed benchmark shapes.

For each shape (banana, star, three clusters) this sweeps the Gaussian
bandwidth, applies the objective-curve plateau selector plus the CV, MD,
and DFN baselines, and evaluates each recommendation's boundary quality
as F1 against the shape's ground truth on a 200 x 200 grid. One labeled
sweep solves each bandwidth once for both V*(s) and F1. Prints a
comparison table and optionally writes the per-shape curves as CSV.

Usage:
    python scripts/run_shape_benchmark.py [--seed 11] [--out-dir results/]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from svddpeak.baselines import select_cv, select_dfn, select_md
from svddpeak.datagen import SHAPE_KINDS, generate_shape, shape_truth_grid, write_csv_blocks
from svddpeak.errors import NoPeakFoundError, SweepError
from svddpeak.evaluation import f1_sweep
from svddpeak.tuning import BandwidthGrid


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--f", type=float, default=0.001)
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args()

    grid = BandwidthGrid.low_dimensional()
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)

    print(f"{'shape':<14} {'cv':>6} {'md':>7} {'dfn':>6} {'peak range':>14} "
          f"{'rec':>6} {'F1(rec)':>8} {'F1 best':>8} {'ratio':>6}")
    for kind in SHAPE_KINDS:
        X = generate_shape(kind, seed=args.seed)
        cv = select_cv(X, grid).s
        md = select_md(X, args.f).s
        dfn = select_dfn(X, grid).s
        sweep = None
        try:
            sweep = f1_sweep(X, shape_truth_grid(kind, X), grid, args.f)
            peak, rec, f_rec, ratio = sweep.peak_ratio()
            peak_range = f"[{peak.s_low:.2f}, {peak.s_high:.2f}]"
            rec_txt, ratio_txt = f"{rec:.2f}", f"{ratio:.3f}"
        except (NoPeakFoundError, SweepError):
            peak_range, rec_txt, f_rec, ratio_txt = "none", "-", float("nan"), "-"
        # a failed solve leaves no sweep, so no best F1 and no curve
        f_best = float("nan") if sweep is None else sweep.f_best
        print(f"{kind:<14} {cv:>6.2f} {md:>7.2f} {dfn:>6.2f} {peak_range:>14} "
              f"{rec_txt:>6} {f_rec:>8.4f} {f_best:>8.4f} {ratio_txt:>6}")
        if args.out_dir and sweep is not None:
            write_csv_blocks(os.path.join(args.out_dir, f"{kind}_f1_curve.csv"), ["s", "f1"],
                             [sweep.s_values, sweep.f1_curve()])
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the full method comparison matrix on a synthetic corpus.

Generates one corpus per seed, runs every requested method on it
(``harness.run_matrix``), and prints the aggregated results table (also
written to <out>/report.txt and <out>/report.json).  The hand-written
maps for the manual-map method are taken from the generator's phone
answer key, which is what a phonetically informed annotator would write
down for this corpus.

Example:
    python scripts/run_matrix.py --out runs/matrix --seeds 0 1 2
"""

import argparse
from pathlib import Path

import polymap as pm
from polymap import harness


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/matrix", help="output directory")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--target", default="lang0")
    ap.add_argument("--methods", nargs="+", default=list(harness.METHODS),
                    choices=list(harness.METHODS))
    ap.add_argument("--spread", type=float, default=None,
                    help="override the default cluster spread")
    return ap.parse_args()


def main():
    args = parse_args()
    out = Path(args.out)
    spec = pm.SynthSpec() if args.spread is None else pm.SynthSpec(cluster_spread=args.spread)
    rows = []
    for row in harness.run_matrix(out, args.seeds, args.methods, args.target, spec):
        rows.append(row)
        print(
            f"seed={row.seed} {row.method:<13} dev={row.dev_frame_error:6.2f} "
            f"test={row.test_frame_error:6.2f}"
        )

    text = harness.write_report(
        rows, out, metadata={"target": args.target, "seeds": list(args.seeds)}
    )
    print()
    print(text)
    print(f"\nreport written to {out / 'report.json'}")


if __name__ == "__main__":
    main()

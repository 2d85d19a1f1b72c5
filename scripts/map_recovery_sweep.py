#!/usr/bin/env python3
"""Sweep cluster spread and measure data-driven map recovery.

For corpora whose phone pool is fully shared, the generator knows the
true cross-language phone and senone correspondence.  This script
trains a target-language classifier per (spread, seed) cell, builds the
senone- and phone-level maps from confusion counts on the other
language's frames, and reports what fraction of the answer key each map
recovers.  Recovery should decay gracefully as the clusters blur.

Example:
    python scripts/map_recovery_sweep.py --spreads 0.05 0.2 0.5 1.0
"""

import argparse

import numpy as np

import polymap as pm


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spreads", type=float, nargs="+", default=[0.05, 0.2, 0.5, 1.0, 2.0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--phones", type=int, default=8)
    ap.add_argument("--senones-per-phone", type=int, default=2)
    ap.add_argument("--frames", type=int, default=200)
    return ap.parse_args()


def recovery(spread, seed, args):
    spec = pm.SynthSpec(
        num_languages=2,
        feature_dim=10,
        phones_per_language=args.phones,
        senones_per_phone=args.senones_per_phone,
        shared_phone_fraction=1.0,
        frames_per_senone=args.frames,
        cluster_spread=spread,
        seed=seed,
    )
    corpus = pm.generate_synthetic(spec)
    target, source = "lang0", "lang1"
    net = pm.init_network([10, 32, 32], [("lang0", spec.senones_per_language)], seed=seed + 7)
    net, _ = pm.train(net, corpus.frames[target], pm.TrainConfig(epochs=8, shuffle_seed=seed))
    counts = pm.accumulate_confusion(
        net, corpus.frames[source],
        corpus.senone_inventories[target], corpus.senone_inventories[source],
    )
    senone = pm.senone_map(counts)
    phone = pm.phone_map(counts, corpus.g_tables[source], corpus.g_tables[target])
    senone_hits, senone_total = pm.answer_key_hits(senone, corpus.senone_truth[(source, target)])
    phone_hits, phone_total = pm.answer_key_hits(phone, corpus.phone_truth[(source, target)])
    return senone_hits / senone_total, phone_hits / phone_total


def main():
    args = parse_args()
    print(f"{'spread':>7}  {'senone recovery':>16}  {'phone recovery':>15}")
    for spread in args.spreads:
        cells = [recovery(spread, seed, args) for seed in args.seeds]
        senone = np.mean([c[0] for c in cells])
        phone = np.mean([c[1] for c in cells])
        print(f"{spread:7.2f}  {senone:16.1%}  {phone:15.1%}")


if __name__ == "__main__":
    main()

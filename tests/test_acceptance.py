"""Acceptance suite: one test per release criterion.

Each test prints one ``ACCEPTANCE <name>: PASS`` line (visible with
``pytest -s``) after its assertions, and asserts the stated runtime
budget where one applies.  The directional-transfer tests run the full
experiment pipelines across five seeds on the default synthetic corpus,
so this module dominates the suite's runtime.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import polymap as pm
from polymap import harness
from target_oracles import (
    head_gradients,
    head_languages,
    head_sizes,
    make_targets_mapped,
    make_targets_single,
    mt_loss,
)

SEEDS = (0, 1, 2, 3, 4)


def report(name, detail=""):
    print(f"\nACCEPTANCE {name}: PASS {detail}".rstrip())


# ---------------------------------------------------------------------------
# mapping oracle equivalence


def oracle_argmax_rows(tally):
    table = []
    for row in tally:
        if sum(row) == 0:
            table.append(0)
        else:
            best = max(row)
            table.append(min(c for c, v in enumerate(row) if v == best))
    return table


def test_mapping_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    import warnings

    for _ in range(100):
        n_src = int(rng.integers(2, 11))
        n_tgt = int(rng.integers(2, 11))
        n_frames = int(rng.integers(1, 1001))
        dim = int(rng.integers(2, 6))
        net = pm.init_network([dim], [("tgt", n_tgt)], seed=int(rng.integers(0, 2**31)))
        labels = rng.integers(0, n_src, size=n_frames)
        feats = rng.normal(size=(n_frames, dim))
        frames = pm.FrameSet("src", feats, labels, np.arange(n_frames))
        src_inv = pm.LabelInventory("src", n_src)
        tgt_inv = pm.LabelInventory("tgt", n_tgt)

        ps = int(rng.integers(1, n_src + 1))
        pt = int(rng.integers(1, n_tgt + 1))
        g_src = rng.integers(0, ps, size=n_src)
        g_tgt = rng.integers(0, pt, size=n_tgt)

        # library route
        counts = pm.accumulate_confusion(net, frames, tgt_inv, src_inv)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got_senone = pm.senone_map(counts).table
            got_phone = pm.phone_map(
                counts,
                pm.SenoneToPhoneTable("src", g_src, num_phones=ps),
                pm.SenoneToPhoneTable("tgt", g_tgt, num_phones=pt),
            ).table

        # brute-force per-frame oracle (single-frame predicts, Python tallies)
        senone_tally = [[0] * n_tgt for _ in range(n_src)]
        phone_tally = [[0] * pt for _ in range(ps)]
        for i in range(n_frames):
            pred = int(pm.predict_batch(net, feats[i : i + 1])[0])
            senone_tally[labels[i]][pred] += 1
            phone_tally[g_src[labels[i]]][g_tgt[pred]] += 1
        assert list(got_senone) == oracle_argmax_rows(senone_tally)
        assert list(got_phone) == oracle_argmax_rows(phone_tally)

    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"oracle equivalence took {elapsed:.1f}s (budget 10s)"
    report("mapping-oracle-equivalence", f"(100 instances, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# gradient checks


def central_difference(loss_of, arrays, h=1e-5):
    grads = []
    for ref in arrays:
        g = np.zeros_like(ref)
        for idx in np.ndindex(*ref.shape):
            orig = ref[idx]
            ref[idx] = orig + h
            up = loss_of()
            ref[idx] = orig - h
            down = loss_of()
            ref[idx] = orig
            g[idx] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum.reduce([np.abs(a), np.abs(n), np.full_like(a, 1e-6)])
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def test_gradient_checks():
    started = time.monotonic()
    rng = np.random.default_rng(99)

    # plain networks: up to 3 weight layers, at most 10 units per layer
    for dims, seed in [([3, 7], 0), ([5, 8, 4], 1), ([4, 9, 6, 3], 2)]:
        net = pm.init_network(dims[:-1], [("x", dims[-1])], seed=seed)
        x = rng.normal(size=(8, dims[0]))
        y = rng.integers(0, dims[-1], size=8)
        _, gw, gb = pm.loss_and_gradients(net, x, y, np.zeros(8, int))

        def loss_of():
            probs = pm.forward_batch(net, x)
            return float(np.mean(-np.log(probs[np.arange(len(y)), y])))

        numeric = central_difference(loss_of, net.weights + net.biases)
        assert max_relative_error(gw + gb, numeric) < 1e-4

    # two-head networks, both loss modes
    ms = pm.MapSet(
        {
            ("a", "a"): pm.identity_map(pm.LabelInventory("a", 5)),
            ("b", "b"): pm.identity_map(pm.LabelInventory("b", 3)),
            ("a", "b"): pm.LabelMap(
                pm.LabelInventory("a", 5), pm.LabelInventory("b", 3), [0, 2, 1, 0, 2], "manual"
            ),
            ("b", "a"): pm.LabelMap(
                pm.LabelInventory("b", 3), pm.LabelInventory("a", 5), [4, 1, 3], "manual"
            ),
        }
    )
    mt = pm.init_network([4, 8], [("a", 5), ("b", 3)], seed=3)
    x = rng.normal(size=(10, 4))
    owners = rng.integers(0, 2, size=10)
    labels = np.array([rng.integers(0, head_sizes(mt)[o]) for o in owners])
    for mode in ("masked", "mapped"):
        _, gsw, gsb, ghw, ghb = head_gradients(
            mt, x, labels, owners, ms if mode == "mapped" else None
        )

        def mt_loss_of():
            outputs = [pm.forward_head(mt, lang, x) for lang in ("a", "b")]
            total = 0.0
            for i in range(x.shape[0]):
                if mode == "masked":
                    t = make_targets_single(int(labels[i]), int(owners[i]), head_sizes(mt))
                else:
                    t = make_targets_mapped(
                        int(labels[i]), int(owners[i]), ms, head_languages(mt), head_sizes(mt)
                    )
                total += mt_loss([out[i] for out in outputs], t)
            return total / x.shape[0]

        w, b, heads = mt.weights, mt.biases, mt.bounds[1:-1]
        numeric = central_difference(  # np.split views write through to the network
            mt_loss_of, w[:-1] + b[:-1] + np.split(w[-1], heads) + np.split(b[-1], heads)
        )
        assert max_relative_error(gsw + gsb + ghw + ghb, numeric) < 1e-4

    # masked mode: non-owner head gradients exactly zero, frame by frame
    for i in range(100):
        xi = rng.normal(size=(1, 4))
        owner = int(rng.integers(0, 2))
        label = int(rng.integers(0, head_sizes(mt)[owner]))
        _, _, _, ghw, ghb = head_gradients(
            mt, xi, np.array([label]), np.array([owner])
        )
        other = 1 - owner
        assert (ghw[other] == 0.0).all() and (ghb[other] == 0.0).all()

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"gradient checks took {elapsed:.1f}s (budget 30s)"
    report("gradient-checks", f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# pruning equivalence


def test_pruning_equivalence():
    rng = np.random.default_rng(7)
    frames = {
        lang: pm.FrameSet(
            lang, rng.normal(size=(80, 5)), rng.integers(0, 4, size=80), np.arange(80)
        )
        for lang in ("a", "b", "c")
    }
    net = pm.init_network([5, 12, 9], [("a", 4), ("b", 4), ("c", 4)], seed=8)
    trained, _ = pm.train_multihead(net, frames, replace(pm.MT_RECIPE, epochs=2, shuffle_seed=9))
    x = rng.normal(size=(100, 5))
    for lang in ("a", "b", "c"):
        pruned = pm.prune(trained, lang)
        diff = np.abs(pm.forward_batch(pruned, x) - pm.forward_head(trained, lang, x)).max()
        assert diff == 0.0
    report("pruning-equivalence", "(3 heads x 100 inputs, max abs diff 0)")


# ---------------------------------------------------------------------------
# schedule reproduction


def test_schedule_reproduction():
    cfg = pm.TrainConfig(initial_lr=0.08, epochs=16)
    lrs = [pm.lr_at_epoch(cfg, e) for e in range(16)]
    assert lrs == [0.08 / 2**e for e in range(16)]

    frames = pm.FrameSet(
        "x", np.random.default_rng(0).normal(size=(40, 3)), np.zeros(40, int), np.arange(40)
    )
    net = pm.init_network([3, 4], [("x", 2)], seed=0)
    _, history = pm.finetune(net, frames)
    assert len(history) == 5
    assert all(h.lr == 0.0008 for h in history)
    report("schedule-reproduction", "(0.08/2^e over 16 epochs; 5 epochs at 0.0008)")


# ---------------------------------------------------------------------------
# ground-truth map recovery


def test_ground_truth_map_recovery():
    started = time.monotonic()
    for seed in SEEDS:
        spec = pm.SynthSpec(
            num_languages=2,
            feature_dim=10,
            phones_per_language=8,
            senones_per_phone=2,
            shared_phone_fraction=1.0,
            frames_per_senone=200,
            cluster_spread=0.05,
            seed=seed,
        )
        corpus = pm.generate_synthetic(spec)
        target, source = "lang0", "lang1"
        net = pm.init_network([10, 32, 32], [(target, 16)], seed=seed + 100)
        net, _ = pm.train(
            net, corpus.frames[target], pm.TrainConfig(epochs=8, shuffle_seed=seed)
        )
        counts = pm.accumulate_confusion(
            net,
            corpus.frames[source],
            corpus.senone_inventories[target],
            corpus.senone_inventories[source],
        )
        recovered = pm.phone_map(counts, corpus.g_tables[source], corpus.g_tables[target])
        hits, total = pm.answer_key_hits(recovered, corpus.phone_truth[(source, target)])
        assert hits / total >= 0.95, f"seed {seed}: {hits}/{total} phones"
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"map recovery took {elapsed:.1f}s (budget 120s)"
    report("ground-truth-map-recovery", f"(5/5 seeds, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# directional transfer


def rows_by_method(rows):
    grouped = {}
    for row in rows:
        grouped.setdefault(row.method, []).append(row)
    return grouped


@pytest.fixture(scope="module")
def pooling_rows(tmp_path_factory):
    root = tmp_path_factory.mktemp("directional_pooling")
    started = time.monotonic()
    rows = rows_by_method(harness.run_matrix(root, SEEDS, ("baseline", "phone-map", "senone-map")))
    return rows, time.monotonic() - started


@pytest.fixture(scope="module")
def multitask_rows(tmp_path_factory, pooling_rows):
    root = tmp_path_factory.mktemp("directional_multitask")
    started = time.monotonic()
    rows = rows_by_method(harness.run_matrix(root, SEEDS, ("mtdnn-masked", "mtdnn-mapped")))
    rows["baseline"] = pooling_rows[0]["baseline"]
    return rows, time.monotonic() - started


@pytest.mark.slow
def test_directional_transfer_pooling(pooling_rows):
    rows, elapsed = pooling_rows
    mean = {m: np.mean([r.test_frame_error for r in rs]) for m, rs in rows.items()}
    assert mean["senone-map"] <= mean["phone-map"] <= mean["baseline"], mean
    wins = sum(
        s.test_frame_error < b.test_frame_error
        for s, b in zip(rows["senone-map"], rows["baseline"])
    )
    assert wins >= 4, f"senone-map beat baseline in only {wins}/5 seeds"
    assert elapsed < 300.0, f"pooling transfer took {elapsed:.1f}s (budget 300s)"
    report(
        "directional-transfer-pooling",
        f"(senone {mean['senone-map']:.2f} <= phone {mean['phone-map']:.2f} "
        f"<= baseline {mean['baseline']:.2f}; {wins}/5 wins; {elapsed:.0f}s)",
    )


@pytest.mark.slow
def test_directional_transfer_multitask(multitask_rows):
    rows, elapsed = multitask_rows
    mean = {m: np.mean([r.test_frame_error for r in rs]) for m, rs in rows.items()}
    assert mean["mtdnn-mapped"] <= mean["mtdnn-masked"] <= mean["baseline"], mean
    wins = sum(
        m.test_frame_error < b.test_frame_error
        for m, b in zip(rows["mtdnn-mapped"], rows["baseline"])
    )
    assert wins >= 4, f"mtdnn-mapped beat baseline in only {wins}/5 seeds"
    assert elapsed < 340.0, f"multitask transfer took {elapsed:.1f}s (budget 340s)"
    report(
        "directional-transfer-multitask",
        f"(mapped {mean['mtdnn-mapped']:.2f} <= masked {mean['mtdnn-masked']:.2f} "
        f"<= baseline {mean['baseline']:.2f}; {wins}/5 wins; {elapsed:.0f}s)",
    )


# ---------------------------------------------------------------------------
# relative-improvement arithmetic


def test_relative_improvement_arithmetic():
    pairs = [(33.14, 29.94, 9.66), (13.56, 11.67, 13.94), (13.56, 10.68, 21.24)]
    for baseline, value, expected in pairs:
        got = harness.relative_improvement(baseline, value)
        assert abs(got - expected) <= 0.01, (baseline, value, got)
    report("relative-improvement-arithmetic", "(3 reference pairs within 0.01)")


# ---------------------------------------------------------------------------
# determinism


def test_experiment_determinism(tmp_path):
    cfg = harness.ExperimentConfig(
        method="senone-map",
        target="lang0",
        sources=["lang1"],
        output_dir=tmp_path / "run",
        seed=5,
        synth=pm.SynthSpec(
            num_languages=2,
            feature_dim=8,
            phones_per_language=5,
            senones_per_phone=2,
            frames_per_senone=60,
            cluster_spread=0.3,
            seed=None,
        ),
        hidden_dims=[24, 24],
        train=pm.TrainConfig(epochs=4),
    )
    paths = harness.RunPaths(cfg.output_dir)
    row_a = harness.run_experiment(cfg)
    artifacts = [
        paths.row("senone-map", 5),
        paths.final_model,
        paths.pooled_model,
        paths.baseline_model,
        paths.maps_dir / "mapset.json",
        paths.maps_dir / "map_lang1_to_lang0.txt",
    ]
    first = {p: p.read_bytes() for p in artifacts}
    row_b = harness.run_experiment(cfg)
    assert row_a == row_b
    for p, payload in first.items():
        assert p.read_bytes() == payload, f"{p} changed between identical runs"
    report("experiment-determinism", "(rows, models and maps bit-identical)")

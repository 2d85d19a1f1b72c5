import copy
import json
import math

import numpy as np
import pytest

import polymap as pm
from polymap._npz import write_npz
from polymap.errors import (
    EmptyDataError,
    IncompleteMapSetError,
    InvalidArchitectureError,
    LabelRangeError,
    NonFiniteLossError,
    PolymapError,
    RangeError,
    ShapeError,
    UnknownLanguageError,
)
from target_oracles import make_targets_mapped, make_targets_single, mt_loss


def make_map_set(languages, sizes, tables):
    """MapSet with identity diagonals and the given off-diagonal tables."""
    maps = {}
    for i, a in enumerate(languages):
        for j, b in enumerate(languages):
            if a == b:
                maps[(a, b)] = pm.identity_map(pm.LabelInventory(a, sizes[i]))
            else:
                maps[(a, b)] = pm.LabelMap(
                    pm.LabelInventory(a, sizes[i]),
                    pm.LabelInventory(b, sizes[j]),
                    tables[(a, b)],
                    "data-driven-senone",
                )
    return pm.MapSet(maps)


def lang_frames(lang, seed, dim=4, n_labels=3, n=60):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(n_labels, dim))
    labels = rng.integers(0, n_labels, size=n)
    feats = centers[labels] + rng.normal(scale=0.3, size=(n, dim))
    return pm.FrameSet(lang, feats, labels, np.arange(n))


class TestInit:
    def test_deterministic(self):
        a = pm.init_multihead([4, 8], [3, 5], ["x", "y"], seed=7)
        b = pm.init_multihead([4, 8], [3, 5], ["x", "y"], seed=7)
        for wa, wb in zip(a.network.weights, b.network.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_weights_are_init_network_over_stacked_heads(self):
        mt = pm.init_multihead([20, 64, 64, 64, 64], [36, 36, 36], ["a", "b", "c"], seed=5)
        plain = pm.init_network([20, 64, 64, 64, 64, 108], seed=5)
        assert mt.bounds == [0, 36, 72, 108]
        for a, b in zip(mt.network.weights + mt.network.biases, plain.weights + plain.biases):
            assert a.tobytes() == b.tobytes()

    def test_no_heads_rejected(self):
        with pytest.raises(InvalidArchitectureError):
            pm.init_multihead([4, 8], [], [], seed=0)

    @pytest.mark.parametrize(
        "shared,heads,langs",
        [([4, 0], [3], ["x"]), ([4, 8], [0], ["x"]), ([4, 8], [3, 3], ["x"]), ([4, 8], [3], ["x", "y"]), ([4, 8], [2, 2], ["x", "x"])],
    )
    def test_bad_architectures(self, shared, heads, langs):
        with pytest.raises(InvalidArchitectureError):
            pm.init_multihead(shared, heads, langs, seed=0)

    @pytest.mark.parametrize(
        "languages,head_sizes",
        [
            ("ab", [1, 1]), (5, [2]), (["a", 1], [1, 1]), (["a", "b"], "11"),
            (["a", "b"], [True, True]), (["a"], [2.0]), (["a", "b"], (1, 1)),
        ],
    )
    def test_argument_types_checked(self, languages, head_sizes):
        with pytest.raises(InvalidArchitectureError):
            pm.MultiHeadNetwork(pm.init_network([3, 4, 2]), languages, head_sizes)

    def test_single_head_equals_plain_network(self):
        mt = pm.init_multihead([4, 8, 6], [5], ["only"], seed=3)
        net = pm.Network(
            [4, 8, 6, 5],
            [w.copy() for w in mt.network.weights],
            [b.copy() for b in mt.network.biases],
        )
        x = np.random.default_rng(0).normal(size=(30, 4))
        head = pm.forward_head(mt, "only", x)
        plain = pm.forward_batch(net, x)
        assert head.tobytes() == plain.tobytes()

    def test_head_softmax_sums_to_one(self):
        mt = pm.init_multihead([4, 8], [3, 5], ["x", "y"], seed=1)
        x = np.random.default_rng(1).normal(size=(20, 4))
        for probs in pm.forward_heads(mt, x):
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


class TestTargetsSingle:
    def test_owner_head_zero(self):
        t = make_targets_single(1, 0, [3, 2])
        assert list(t.head_targets[0]) == [0, 1, 0]
        assert list(t.head_targets[1]) == [0, 0]
        assert t.owner == 0 and t.mode == "single-head"

    def test_owner_head_one(self):
        t = make_targets_single(0, 1, [3, 2])
        assert list(t.head_targets[0]) == [0, 0, 0]
        assert list(t.head_targets[1]) == [1, 0]

    def test_exactly_one_nonzero(self):
        for owner in range(3):
            for label in range(2):
                t = make_targets_single(label, owner, [2, 2, 2])
                assert sum(v.sum() for v in t.head_targets) == 1.0

    def test_errors(self):
        with pytest.raises(LabelRangeError):
            make_targets_single(5, 0, [3, 2])
        with pytest.raises(RangeError):
            make_targets_single(0, 4, [3, 2])


class TestTargetsMapped:
    def test_maps_to_other_head(self):
        ms = make_map_set(["l0", "l1"], [3, 4], {("l1", "l0"): [0, 0, 1, 0], ("l0", "l1"): [0, 1, 2]})
        t = make_targets_mapped(2, 1, ms, ["l0", "l1"], [3, 4])
        assert list(t.head_targets[0]) == [0, 1, 0]
        assert list(t.head_targets[1]) == [0, 0, 1, 0]
        assert t.mode == "mapped-all-heads"

    def test_single_language_matches_single_head(self):
        ms = make_map_set(["l0"], [4], {})
        for label in range(4):
            mapped = make_targets_mapped(label, 0, ms, ["l0"], [4])
            single = make_targets_single(label, 0, [4])
            assert list(mapped.head_targets[0]) == list(single.head_targets[0])

    def test_every_head_one_hot(self):
        ms = make_map_set(
            ["l0", "l1"], [3, 4], {("l1", "l0"): [2, 2, 0, 1], ("l0", "l1"): [3, 0, 1]}
        )
        for owner, label in [(0, 0), (0, 2), (1, 3)]:
            t = make_targets_mapped(label, owner, ms, ["l0", "l1"], [3, 4])
            for vec in t.head_targets:
                assert vec.sum() == 1.0
            assert t.head_targets[owner][label] == 1.0

    def test_missing_map_raises(self):
        ms = pm.MapSet({})
        with pytest.raises(IncompleteMapSetError):
            make_targets_mapped(0, 1, ms, ["l0", "l1"], [3, 4])


class TestLoss:
    def test_masked_uniform_binary(self):
        t = make_targets_single(0, 0, [2, 3])
        loss = mt_loss([np.array([0.5, 0.5]), np.array([0.9, 0.05, 0.05])], t)
        assert abs(loss - math.log(2)) < 1e-12

    def test_masked_ignores_other_heads(self):
        t = make_targets_single(0, 0, [2, 3])
        a = mt_loss([np.array([0.5, 0.5]), np.array([1 / 3] * 3)], t)
        b = mt_loss([np.array([0.5, 0.5]), np.array([0.98, 0.01, 0.01])], t)
        assert a == b

    def test_mapped_sums_heads(self):
        ms = make_map_set(["l0", "l1"], [2, 2], {("l0", "l1"): [0, 1], ("l1", "l0"): [0, 1]})
        t = make_targets_mapped(0, 0, ms, ["l0", "l1"], [2, 2])
        loss = mt_loss([np.array([0.5, 0.5]), np.array([0.5, 0.5])], t)
        assert abs(loss - 2 * math.log(2)) < 1e-12

    def test_shape_mismatch(self):
        t = make_targets_single(0, 0, [2, 3])
        with pytest.raises(ShapeError):
            mt_loss([np.array([0.5, 0.5])], t)
        with pytest.raises(ShapeError):
            mt_loss([np.array([0.5, 0.25, 0.25]), np.array([1 / 3] * 3)], t)


def fd_multihead_gradients(net, x, labels, owners, mode, map_set=None, h=1e-5):
    """Central differences of the mean multi-head loss, via forward only."""
    languages = net.languages
    sizes = net.head_sizes

    def loss_of(candidate):
        outputs = pm.forward_heads(candidate, x)
        total = 0.0
        for i in range(x.shape[0]):
            if mode == "masked":
                t = make_targets_single(int(labels[i]), int(owners[i]), sizes)
            else:
                t = make_targets_mapped(int(labels[i]), int(owners[i]), map_set, languages, sizes)
            total += mt_loss([out[i] for out in outputs], t)
        return total / x.shape[0]

    def grad_of(arrays_getter):
        grads = []
        for k in range(len(arrays_getter(net))):
            ref = arrays_getter(net)[k]
            g = np.zeros_like(ref)
            for idx in np.ndindex(*ref.shape):
                up, down = copy.deepcopy(net), copy.deepcopy(net)
                arrays_getter(up)[k][idx] += h
                arrays_getter(down)[k][idx] -= h
                g[idx] = (loss_of(up) - loss_of(down)) / (2 * h)
            grads.append(g)
        return grads

    heads = net.bounds[1:-1]  # np.split gives views, so perturbations reach the network
    return (
        grad_of(lambda n: n.network.weights[:-1]),
        grad_of(lambda n: n.network.biases[:-1]),
        grad_of(lambda n: np.split(n.network.weights[-1], heads)),
        grad_of(lambda n: np.split(n.network.biases[-1], heads)),
    )


def relative_error(a, n):
    return np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n), np.full_like(a, 1e-6)])


class TestGradients:
    @pytest.mark.parametrize("mode", ["masked", "mapped"])
    def test_matches_finite_differences(self, mode):
        rng = np.random.default_rng(0)
        net = pm.init_multihead([3, 6], [4, 3], ["a", "b"], seed=1)
        ms = make_map_set(["a", "b"], [4, 3], {("a", "b"): [0, 2, 1, 0], ("b", "a"): [3, 1, 0]})
        x = rng.normal(size=(10, 3))
        owners = rng.integers(0, 2, size=10)
        labels = np.array([rng.integers(0, net.head_sizes[o]) for o in owners])
        loss, gsw, gsb, ghw, ghb = pm.multihead_loss_and_gradients(
            net, x, labels, owners, mode, ms
        )
        fsw, fsb, fhw, fhb = fd_multihead_gradients(net, x, labels, owners, mode, ms)
        for a, n in zip(gsw + gsb + ghw + ghb, fsw + fsb + fhw + fhb):
            assert relative_error(a, n).max() < 1e-4

    def test_masked_non_owner_gradients_exactly_zero(self):
        rng = np.random.default_rng(1)
        net = pm.init_multihead([3, 5], [4, 3, 2], ["a", "b", "c"], seed=2)
        x = rng.normal(size=(20, 3))
        owners = np.zeros(20, dtype=int)  # all frames belong to head 0
        labels = rng.integers(0, 4, size=20)
        _, _, _, ghw, ghb = pm.multihead_loss_and_gradients(net, x, labels, owners, "masked")
        for l in (1, 2):
            assert (ghw[l] == 0.0).all()
            assert (ghb[l] == 0.0).all()
        assert (ghw[0] != 0.0).any()

    def test_masked_shared_gradient_ignores_other_heads(self):
        # shared-layer update for a frame equals the gradient of a network
        # that never had the other heads at all
        rng = np.random.default_rng(2)
        big = pm.init_multihead([3, 6], [4, 3], ["a", "b"], seed=3)
        small = pm.MultiHeadNetwork(pm.prune(big, "a"), ["a"], [4])
        x = rng.normal(size=(8, 3))
        labels = rng.integers(0, 4, size=8)
        owners = np.zeros(8, dtype=int)
        _, gsw_big, gsb_big, _, _ = pm.multihead_loss_and_gradients(big, x, labels, owners, "masked")
        _, gsw_small, gsb_small, _, _ = pm.multihead_loss_and_gradients(small, x, labels, owners, "masked")
        for a, b in zip(gsw_big + gsb_big, gsw_small + gsb_small):
            assert (a == b).all()

    def test_second_call_keeps_first_results(self):
        rng = np.random.default_rng(4)
        net = pm.init_multihead([3, 5], [3, 4], ["a", "b"], seed=5)
        owners = np.array([0, 1, 1, 0])
        first = pm.multihead_loss_and_gradients(
            net, rng.normal(size=(4, 3)), np.array([2, 3, 0, 1]), owners, "masked"
        )
        grads = [g for part in first[1:] for g in part]
        kept = [g.copy() for g in grads]
        pm.multihead_loss_and_gradients(
            net, rng.normal(size=(4, 3)), np.array([0, 1, 2, 0]), owners, "masked"
        )
        for g, k in zip(grads, kept):
            assert g.tobytes() == k.tobytes()

    def test_batch_loss_matches_per_frame_api(self):
        rng = np.random.default_rng(3)
        net = pm.init_multihead([3, 5], [3, 4], ["a", "b"], seed=4)
        ms = make_map_set(["a", "b"], [3, 4], {("a", "b"): [1, 3, 0], ("b", "a"): [2, 0, 1, 1]})
        x = rng.normal(size=(12, 3))
        owners = rng.integers(0, 2, size=12)
        labels = np.array([rng.integers(0, net.head_sizes[o]) for o in owners])
        for mode in ("masked", "mapped"):
            batch_loss, *_ = pm.multihead_loss_and_gradients(net, x, labels, owners, mode, ms)
            outputs = pm.forward_heads(net, x)
            per_frame = []
            for i in range(12):
                if mode == "masked":
                    t = make_targets_single(int(labels[i]), int(owners[i]), net.head_sizes)
                else:
                    t = make_targets_mapped(
                        int(labels[i]), int(owners[i]), ms, net.languages, net.head_sizes
                    )
                per_frame.append(mt_loss([out[i] for out in outputs], t))
            assert abs(batch_loss - np.mean(per_frame)) < 1e-12


class TestTrainMultihead:
    def test_deterministic(self):
        frames = {"a": lang_frames("a", 0), "b": lang_frames("b", 1)}
        net = pm.init_multihead([4, 6], [3, 3], ["a", "b"], seed=5)
        cfg = pm.MTTrainConfig(epochs=3, shuffle_seed=6)
        m1, h1 = pm.train_multihead(net, frames, cfg)
        m2, h2 = pm.train_multihead(net, frames, cfg)
        assert [h.mean_loss for h in h1] == [h.mean_loss for h in h2]
        for wa, wb in zip(m1.network.weights, m2.network.weights):
            assert wa.tobytes() == wb.tobytes()

    @pytest.mark.parametrize("mode", ["masked", "mapped"])
    def test_input_net_unchanged(self, mode):
        frames = {"a": lang_frames("a", 0), "b": lang_frames("b", 1)}
        net = pm.init_multihead([4, 6], [3, 3], ["a", "b"], seed=5)
        before = [a.copy() for a in net.network.weights + net.network.biases]
        map_set = make_map_set(["a", "b"], [3, 3], {("a", "b"): [1, 2, 0], ("b", "a"): [2, 0, 1]})
        cfg = pm.MTTrainConfig(epochs=2, shuffle_seed=6, loss_mode=mode)
        trained, _ = pm.train_multihead(net, frames, cfg, map_set)
        for a, orig in zip(net.network.weights + net.network.biases, before):
            assert a.tobytes() == orig.tobytes()
        assert trained.network.weights[0].tobytes() != before[0].tobytes()

    def test_absent_language_head_untouched(self):
        frames = {"a": lang_frames("a", 0), "b": lang_frames("b", 1)}
        net = pm.init_multihead([4, 6], [3, 3, 3], ["a", "b", "c"], seed=7)
        trained, _ = pm.train_multihead(net, frames, pm.MTTrainConfig(epochs=2, shuffle_seed=8))
        w, w0 = trained.network.weights[-1], net.network.weights[-1]
        b, b0 = trained.network.biases[-1], net.network.biases[-1]
        lo, hi = net.bounds[2], net.bounds[3]
        assert w[lo:hi].tobytes() == w0[lo:hi].tobytes()
        assert b[lo:hi].tobytes() == b0[lo:hi].tobytes()
        assert w[: net.bounds[1]].tobytes() != w0[: net.bounds[1]].tobytes()

    def test_per_language_losses_logged(self):
        frames = {"a": lang_frames("a", 0), "b": lang_frames("b", 1)}
        net = pm.init_multihead([4, 6], [3, 3], ["a", "b"], seed=9)
        _, hist = pm.train_multihead(net, frames, pm.MTTrainConfig(epochs=2, shuffle_seed=1))
        assert [h.epoch for h in hist] == [0, 1]
        assert hist[0].lr == 0.008 and hist[1].lr == 0.004
        assert set(hist[0].per_language) == {"a", "b"}

    def test_unknown_language(self):
        net = pm.init_multihead([4, 6], [3], ["a"], seed=0)
        with pytest.raises(UnknownLanguageError):
            pm.train_multihead(net, {"zz": lang_frames("zz", 0)}, pm.MTTrainConfig(epochs=1))

    def test_mapped_requires_map_set(self):
        net = pm.init_multihead([4, 6], [3, 3], ["a", "b"], seed=0)
        frames = {"a": lang_frames("a", 0), "b": lang_frames("b", 1)}
        with pytest.raises(IncompleteMapSetError):
            pm.train_multihead(net, frames, pm.MTTrainConfig(epochs=1, loss_mode="mapped"))

    def test_empty_frames(self):
        net = pm.init_multihead([4, 6], [3], ["a"], seed=0)
        with pytest.raises(EmptyDataError):
            pm.train_multihead(net, {}, pm.MTTrainConfig(epochs=1))

    def test_divergence_raises(self):
        net = pm.init_multihead([4, 6], [3, 3], ["a", "b"], seed=0)
        frames = {"a": lang_frames("a", 0), "b": lang_frames("b", 1)}
        with pytest.raises(NonFiniteLossError, match=r"epoch \d"):
            pm.train_multihead(net, frames, pm.MTTrainConfig(epochs=3, initial_lr=1e12))

    def test_one_head_is_plain_training(self):
        # plain training is the one-head case of masked multi-head training
        frames = lang_frames("a", 2, n=150)
        net = pm.init_network([4, 8, 6, 3], seed=3)
        mt = pm.MultiHeadNetwork(net, ["a"], [3])
        schedule = dict(initial_lr=0.05, epochs=3, batch_size=5, shuffle_seed=4)
        plain, plain_hist = pm.train(net, frames, pm.TrainConfig(**schedule))
        multi, multi_hist = pm.train_multihead(
            mt, {"a": frames}, pm.MTTrainConfig(**schedule, loss_mode="masked")
        )
        pruned = pm.prune(multi, "a")
        assert pruned.layer_dims == plain.layer_dims
        for a, b in zip(plain.weights + plain.biases, pruned.weights + pruned.biases):
            assert a.tobytes() == b.tobytes()
        assert [h.mean_loss for h in plain_hist] == [h.mean_loss for h in multi_hist]

    def test_owner_heads_learn_their_language(self):
        # each head must beat the same architecture trained on shuffled labels
        frames = {lang: lang_frames(lang, seed, n=150) for seed, lang in enumerate(("a", "b", "c"))}
        net = pm.init_multihead([4, 8, 8], [3, 3, 3], ["a", "b", "c"], seed=11)
        cfg = pm.MTTrainConfig(epochs=8, initial_lr=0.1, shuffle_seed=12)
        trained, _ = pm.train_multihead(net, frames, cfg)

        rng = np.random.default_rng(13)
        shuffled = {
            lang: pm.FrameSet(lang, fs.features, rng.permutation(fs.labels), fs.utterance_ids)
            for lang, fs in frames.items()
        }
        garbled, _ = pm.train_multihead(net, shuffled, cfg)
        for lang in ("a", "b", "c"):
            fs = frames[lang]
            good = (np.argmax(pm.forward_head(trained, lang, fs.features), 1) != fs.labels).mean()
            bad = (np.argmax(pm.forward_head(garbled, lang, fs.features), 1) != fs.labels).mean()
            assert good < bad


class TestPrune:
    def make_trained(self):
        frames = {"a": lang_frames("a", 0), "b": lang_frames("b", 1)}
        net = pm.init_multihead([4, 6, 5], [3, 3], ["a", "b"], seed=20)
        trained, _ = pm.train_multihead(net, frames, pm.MTTrainConfig(epochs=2, shuffle_seed=21))
        return trained

    def test_outputs_bit_identical(self):
        trained = self.make_trained()
        pruned = pm.prune(trained, "b")
        x = np.random.default_rng(22).normal(size=(100, 4))
        head = pm.forward_head(trained, "b", x)
        plain = pm.forward_batch(pruned, x)
        assert np.abs(head - plain).max() == 0.0

    def test_single_head_prune_copies_parameters(self):
        net = pm.init_multihead([4, 6], [3], ["only"], seed=1)
        pruned = pm.prune(net, "only")
        assert pruned.layer_dims == [4, 6, 3]
        for w, (sw) in zip(pruned.weights, net.network.weights):
            assert (w == sw).all()

    def test_prune_persist_reload(self, tmp_path):
        trained = self.make_trained()
        pruned = pm.prune(trained, "a")
        pm.save_network(pruned, tmp_path / "pruned.npz")
        loaded = pm.load_network(tmp_path / "pruned.npz")
        x = np.random.default_rng(23).normal(size=(50, 4))
        assert pm.forward_batch(loaded, x).tobytes() == pm.forward_head(trained, "a", x).tobytes()

    def test_unknown_head(self):
        trained = self.make_trained()
        with pytest.raises(RangeError):
            pm.prune(trained, "zz")

    def test_load_rejects_file_without_metadata(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ShapeError):
            pm.load_multihead(path)

    def test_plain_and_multihead_files_not_confused(self, tmp_path):
        pm.save_multihead(self.make_trained(), tmp_path / "mt.npz")
        pm.save_network(pm.init_network([4, 6, 3], seed=1), tmp_path / "plain.npz")
        with pytest.raises(ShapeError, match="polymap-network"):
            pm.load_network(tmp_path / "mt.npz")
        with pytest.raises(ShapeError, match="polymap-multihead"):
            pm.load_multihead(tmp_path / "plain.npz")

    def test_version_1_multihead_file_rejected(self, tmp_path):
        # the earlier layout kept the trunk and each head under their own names
        meta = {"format": "polymap-multihead", "version": 1, "languages": ["a"],
                "activation": "relu", "seed": 0}
        write_npz(tmp_path / "old.npz", {
            "meta": np.array(json.dumps(meta)), "shared_dims": np.array([4, 6]),
            "shared_weight_0": np.zeros((6, 4)), "shared_bias_0": np.zeros(6),
            "head_weight_0": np.zeros((3, 6)), "head_bias_0": np.zeros(3),
        })
        with pytest.raises(PolymapError, match="v2"):
            pm.load_multihead(tmp_path / "old.npz")

    def test_multihead_persistence_round_trip(self, tmp_path):
        trained = self.make_trained()
        pm.save_multihead(trained, tmp_path / "mt.npz")
        loaded = pm.load_multihead(tmp_path / "mt.npz")
        x = np.random.default_rng(24).normal(size=(20, 4))
        for lang in trained.languages:
            assert (
                pm.forward_head(loaded, lang, x).tobytes()
                == pm.forward_head(trained, lang, x).tobytes()
            )


class TestFinetuneTransfer:
    def test_finetuned_pooled_model_not_worse(self):
        # pooling two sources, then fine-tuning on the target, must not hurt
        # the target-language error on held-out data for this seeded setup
        spec = pm.SynthSpec(
            num_languages=3, feature_dim=8, phones_per_language=5, senones_per_phone=2,
            shared_phone_fraction=1.0, frames_per_senone=60, cluster_spread=0.35, seed=31,
        )
        corpus = pm.split_corpus(
            pm.generate_synthetic(spec), {"train": 0.7, "dev": 0.15, "test": 0.15}, seed=32
        )
        target = "lang0"
        tr = corpus.subset(target, "train")
        net = pm.init_network([8, 24, 24, 10], seed=33)
        mapper, _ = pm.train(net, tr, pm.TrainConfig(epochs=8, shuffle_seed=34))
        pairs = []
        for src in ("lang1", "lang2"):
            counts = pm.accumulate_confusion(
                mapper, corpus.subset(src, "train"),
                corpus.senone_inventories[target], corpus.senone_inventories[src],
            )
            pairs.append((corpus.subset(src, "train"), pm.senone_map(counts)))
        pooled = pm.pool_and_relabel(pairs, tr)
        pooled_net, _ = pm.train(
            pm.init_network([8, 24, 24, 10], seed=35), pooled, pm.TrainConfig(epochs=8, shuffle_seed=36)
        )
        tuned, _ = pm.finetune(pooled_net, tr, shuffle_seed=37)
        test = corpus.subset(target, "test")
        assert pm.frame_error_rate(tuned, test) <= pm.frame_error_rate(pooled_net, test)

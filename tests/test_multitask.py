import copy
import json
import math
from dataclasses import replace
from itertools import zip_longest

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
from target_oracles import (
    head_gradients,
    head_languages,
    head_sizes,
    make_targets_mapped,
    make_targets_single,
    mt_loss,
    reference_mt_train,
    traced_peak,
)


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
        a = pm.init_network([4, 8], [("x", 3), ("y", 5)], seed=7)
        b = pm.init_network([4, 8], [("x", 3), ("y", 5)], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_weights_are_init_network_over_stacked_heads(self):
        mt = pm.init_network([20, 64, 64, 64, 64], [("a", 36), ("b", 36), ("c", 36)], seed=5)
        plain = pm.init_network([20, 64, 64, 64, 64], [("all", 108)], seed=5)
        assert mt.bounds == [0, 36, 72, 108] and mt.layer_dims == plain.layer_dims
        for a, b in zip(mt.weights + mt.biases, plain.weights + plain.biases):
            assert a.tobytes() == b.tobytes()
        # the first layer is the seed's first uniform draw, scaled by 1/sqrt(fan-in)
        first = np.random.default_rng(5).uniform(-20**-0.5, 20**-0.5, size=(64, 20))
        assert mt.weights[0].tobytes() == first.tobytes()

    def test_no_heads_rejected(self):
        with pytest.raises(InvalidArchitectureError):
            pm.init_network([4, 8], [], seed=0)

    @pytest.mark.parametrize(
        "shared,heads,langs",
        [([4, 0], [3], ["x"]), ([4, 8], [0], ["x"]), ([4, 8], [3, 3], ["x"]), ([4, 8], [3], ["x", "y"]), ([4, 8], [2, 2], ["x", "x"])],
    )
    def test_bad_architectures(self, shared, heads, langs):
        # a size without a language, or a language without a size, pairs with None
        with pytest.raises(InvalidArchitectureError):
            pm.init_network(shared, list(zip_longest(langs, heads)), seed=0)

    @pytest.mark.parametrize(
        "heads",
        [
            "ab", 5, [("a", 1), (1, 1)], [("a", "1"), ("b", "1")], [("a", True), ("b", True)],
            [("a", 2.0)], (("a", 1), ("b", 1)), [["a", 1], ["b", 1]], [("a", 1.5), ("b", 2)],
        ],
        ids=[
            "text", "number", "language-number", "size-text", "size-bool", "size-float",
            "tuple-of-pairs", "pairs-as-lists", "size-fraction",
        ],
    )
    def test_argument_types_checked(self, heads, monkeypatch):
        net = pm.init_network([3, 4], [("a", 2)])
        with pytest.raises(InvalidArchitectureError):
            pm.Network(net.layer_dims, net.weights, net.biases, heads)

        def no_network(*args):
            raise AssertionError("init_network drew weights for unchecked arguments")

        monkeypatch.setattr(np.random, "default_rng", no_network)
        with pytest.raises(InvalidArchitectureError):
            pm.init_network([3, 4], heads)

    def test_single_head_equals_plain_network(self):
        mt = pm.init_network([4, 8, 6], [("only", 5)], seed=3)
        net = pm.Network(
            [4, 8, 6, 5],
            [w.copy() for w in mt.weights],
            [b.copy() for b in mt.biases],
            [("only", 5)],
        )
        x = np.random.default_rng(0).normal(size=(30, 4))
        head = pm.forward_head(mt, "only", x)
        plain = pm.forward_batch(net, x)
        assert head.tobytes() == plain.tobytes()

    def test_head_softmax_sums_to_one(self):
        mt = pm.init_network([4, 8], [("x", 3), ("y", 5)], seed=1)
        x = np.random.default_rng(1).normal(size=(20, 4))
        for probs in (pm.forward_head(mt, lang, x) for lang in ("x", "y")):
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
    languages = head_languages(net)
    sizes = head_sizes(net)

    def loss_of(candidate):
        outputs = [pm.forward_head(candidate, lang, x) for lang in languages]
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
        grad_of(lambda n: n.weights[:-1]),
        grad_of(lambda n: n.biases[:-1]),
        grad_of(lambda n: np.split(n.weights[-1], heads)),
        grad_of(lambda n: np.split(n.biases[-1], heads)),
    )


def relative_error(a, n):
    return np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n), np.full_like(a, 1e-6)])


class TestGradients:
    @pytest.mark.parametrize("mode", ["masked", "mapped"])
    def test_matches_finite_differences(self, mode):
        rng = np.random.default_rng(0)
        net = pm.init_network([3, 6], [("a", 4), ("b", 3)], seed=1)
        ms = make_map_set(["a", "b"], [4, 3], {("a", "b"): [0, 2, 1, 0], ("b", "a"): [3, 1, 0]})
        x = rng.normal(size=(10, 3))
        owners = rng.integers(0, 2, size=10)
        labels = np.array([rng.integers(0, head_sizes(net)[o]) for o in owners])
        loss, gsw, gsb, ghw, ghb = head_gradients(
            net, x, labels, owners, ms if mode == "mapped" else None
        )
        fsw, fsb, fhw, fhb = fd_multihead_gradients(net, x, labels, owners, mode, ms)
        for a, n in zip(gsw + gsb + ghw + ghb, fsw + fsb + fhw + fhb):
            assert relative_error(a, n).max() < 1e-4

    def test_masked_non_owner_gradients_exactly_zero(self):
        rng = np.random.default_rng(1)
        net = pm.init_network([3, 5], [("a", 4), ("b", 3), ("c", 2)], seed=2)
        x = rng.normal(size=(20, 3))
        owners = np.zeros(20, dtype=int)  # all frames belong to head 0
        labels = rng.integers(0, 4, size=20)
        _, _, _, ghw, ghb = head_gradients(net, x, labels, owners)
        for l in (1, 2):
            assert (ghw[l] == 0.0).all()
            assert (ghb[l] == 0.0).all()
        assert (ghw[0] != 0.0).any()

    def test_masked_shared_gradient_ignores_other_heads(self):
        # shared-layer update for a frame equals the gradient of a network
        # that never had the other heads at all
        rng = np.random.default_rng(2)
        big = pm.init_network([3, 6], [("a", 4), ("b", 3)], seed=3)
        small = pm.prune(big, "a")
        x = rng.normal(size=(8, 3))
        labels = rng.integers(0, 4, size=8)
        owners = np.zeros(8, dtype=int)
        _, gsw_big, gsb_big, _, _ = head_gradients(big, x, labels, owners)
        _, gsw_small, gsb_small, _, _ = head_gradients(small, x, labels, owners)
        for a, b in zip(gsw_big + gsb_big, gsw_small + gsb_small):
            assert (a == b).all()

    def test_batch_loss_matches_per_frame_api(self):
        rng = np.random.default_rng(3)
        net = pm.init_network([3, 5], [("a", 3), ("b", 4)], seed=4)
        ms = make_map_set(["a", "b"], [3, 4], {("a", "b"): [1, 3, 0], ("b", "a"): [2, 0, 1, 1]})
        x = rng.normal(size=(12, 3))
        owners = rng.integers(0, 2, size=12)
        labels = np.array([rng.integers(0, head_sizes(net)[o]) for o in owners])
        for mode in ("masked", "mapped"):
            batch_loss, *_ = head_gradients(
                net, x, labels, owners, ms if mode == "mapped" else None
            )
            outputs = [pm.forward_head(net, lang, x) for lang in ("a", "b")]
            per_frame = []
            for i in range(12):
                if mode == "masked":
                    t = make_targets_single(int(labels[i]), int(owners[i]), head_sizes(net))
                else:
                    t = make_targets_mapped(
                        int(labels[i]), int(owners[i]), ms, head_languages(net), head_sizes(net)
                    )
                per_frame.append(mt_loss([out[i] for out in outputs], t))
            assert abs(batch_loss - np.mean(per_frame)) < 1e-12


class TestTrainMultihead:
    def test_deterministic(self):
        frames = {"a": lang_frames("a", 0), "b": lang_frames("b", 1)}
        net = pm.init_network([4, 6], [("a", 3), ("b", 3)], seed=5)
        cfg = replace(pm.MT_RECIPE, epochs=3, shuffle_seed=6)
        m1, h1 = pm.train_multihead(net, frames, cfg)
        m2, h2 = pm.train_multihead(net, frames, cfg)
        assert [h.mean_loss for h in h1] == [h.mean_loss for h in h2]
        for wa, wb in zip(m1.weights, m2.weights):
            assert wa.tobytes() == wb.tobytes()

    @pytest.mark.parametrize("mode", ["masked", "mapped"])
    def test_input_net_unchanged(self, mode):
        frames = {"a": lang_frames("a", 0), "b": lang_frames("b", 1)}
        net = pm.init_network([4, 6], [("a", 3), ("b", 3)], seed=5)
        before = [a.copy() for a in net.weights + net.biases]
        map_set = make_map_set(["a", "b"], [3, 3], {("a", "b"): [1, 2, 0], ("b", "a"): [2, 0, 1]})
        cfg = replace(pm.MT_RECIPE, epochs=2, shuffle_seed=6)
        trained, _ = pm.train_multihead(net, frames, cfg, map_set if mode == "mapped" else None)
        for a, orig in zip(net.weights + net.biases, before):
            assert a.tobytes() == orig.tobytes()
        assert trained.weights[0].tobytes() != before[0].tobytes()

    def test_absent_language_head_untouched(self):
        frames = {"a": lang_frames("a", 0), "b": lang_frames("b", 1)}
        net = pm.init_network([4, 6], [("a", 3), ("b", 3), ("c", 3)], seed=7)
        cfg = replace(pm.MT_RECIPE, epochs=2, shuffle_seed=8)
        trained, _ = pm.train_multihead(net, frames, cfg)
        w, w0 = trained.weights[-1], net.weights[-1]
        b, b0 = trained.biases[-1], net.biases[-1]
        lo, hi = net.bounds[2], net.bounds[3]
        assert w[lo:hi].tobytes() == w0[lo:hi].tobytes()
        assert b[lo:hi].tobytes() == b0[lo:hi].tobytes()
        assert w[: net.bounds[1]].tobytes() != w0[: net.bounds[1]].tobytes()

    def test_per_language_losses_logged(self):
        frames = {"a": lang_frames("a", 0), "b": lang_frames("b", 1)}
        net = pm.init_network([4, 6], [("a", 3), ("b", 3)], seed=9)
        _, hist = pm.train_multihead(net, frames, replace(pm.MT_RECIPE, epochs=2, shuffle_seed=1))
        assert [h.epoch for h in hist] == [0, 1]
        assert hist[0].lr == 0.008 and hist[1].lr == 0.004
        assert set(hist[0].per_language) == {"a", "b"}
        assert all(isinstance(h, pm.EpochStats) for h in hist)

    def test_unknown_language(self):
        net = pm.init_network([4, 6], [("a", 3)], seed=0)
        with pytest.raises(UnknownLanguageError):
            pm.train_multihead(net, {"zz": lang_frames("zz", 0)}, replace(pm.MT_RECIPE, epochs=1))

    def test_frames_under_another_languages_key_raise(self):
        net = pm.init_network([4, 6], [("a", 3), ("b", 3)], seed=0)
        frames = {"a": lang_frames("a", 0), "b": lang_frames("a", 1)}
        with pytest.raises(UnknownLanguageError, match="'a'.*'b'"):
            pm.train_multihead(net, frames, replace(pm.MT_RECIPE, epochs=1))

    @staticmethod
    def two_languages():
        """A two-head network, its frames, and a complete map set between them."""
        net = pm.init_network([4, 6], [("a", 3), ("b", 3)], seed=0)
        frames = {"a": lang_frames("a", 0), "b": lang_frames("b", 1)}
        ms = make_map_set(["a", "b"], [3, 3], {("a", "b"): [1, 2, 0], ("b", "a"): [2, 0, 1]})
        return net, frames, ms

    def test_map_set_without_a_pair_raises(self):
        net, frames, ms = self.two_languages()
        partial = pm.MapSet({k: v for k, v in ms.maps.items() if k != ("b", "a")})
        with pytest.raises(IncompleteMapSetError, match="'b' to 'a'"):
            pm.train_multihead(net, frames, replace(pm.MT_RECIPE, epochs=1), partial)

    @pytest.mark.parametrize("sizes", [(3, 40), (5, 3)], ids=["target", "source"])
    def test_map_that_does_not_fit_the_heads_raises(self, sizes):
        net, frames, ms = self.two_languages()
        maps = dict(ms.maps)
        maps[("a", "b")] = pm.LabelMap(
            pm.LabelInventory("a", sizes[0]), pm.LabelInventory("b", sizes[1]),
            np.arange(sizes[0]) % 3, "data-driven-senone",
        )
        with pytest.raises(ShapeError, match="'a'->'b'"):
            pm.train_multihead(net, frames, replace(pm.MT_RECIPE, epochs=1), pm.MapSet(maps))

    def test_map_set_changes_training(self):
        net, frames, ms = self.two_languages()
        cfg = replace(pm.MT_RECIPE, epochs=2, shuffle_seed=3)
        masked, masked_hist = pm.train_multihead(net, frames, cfg)
        mapped, mapped_hist = pm.train_multihead(net, frames, cfg, ms)
        for a, b in zip(masked.weights, mapped.weights):
            assert a.tobytes() != b.tobytes()
        assert [h.mean_loss for h in masked_hist] != [h.mean_loss for h in mapped_hist]

    def test_empty_frames(self):
        net = pm.init_network([4, 6], [("a", 3)], seed=0)
        with pytest.raises(EmptyDataError):
            pm.train_multihead(net, {}, replace(pm.MT_RECIPE, epochs=1))

    def test_divergence_raises(self):
        net = pm.init_network([4, 6], [("a", 3), ("b", 3)], seed=0)
        frames = {"a": lang_frames("a", 0), "b": lang_frames("b", 1)}
        with pytest.raises(NonFiniteLossError, match=r"epoch \d"):
            pm.train_multihead(net, frames, replace(pm.MT_RECIPE, epochs=3, initial_lr=1e12))

    def test_one_head_is_plain_training(self):
        # plain training is the one-head case of masked multi-head training
        frames = lang_frames("a", 2, n=150)
        net = pm.init_network([4, 8, 6], [("a", 3)], seed=3)
        schedule = dict(initial_lr=0.05, epochs=3, batch_size=5, shuffle_seed=4)
        plain, plain_hist = pm.train(net, frames, pm.TrainConfig(**schedule))
        multi, multi_hist = pm.train_multihead(
            net, {"a": frames}, replace(pm.MT_RECIPE, **schedule)
        )
        pruned = pm.prune(multi, "a")
        assert pruned.layer_dims == plain.layer_dims
        for a, b in zip(plain.weights + plain.biases, pruned.weights + pruned.biases):
            assert a.tobytes() == b.tobytes()
        assert [h.mean_loss for h in plain_hist] == [h.mean_loss for h in multi_hist]
        assert plain_hist == multi_hist

    def test_owner_heads_learn_their_language(self):
        # each head must beat the same architecture trained on shuffled labels
        frames = {lang: lang_frames(lang, seed, n=150) for seed, lang in enumerate(("a", "b", "c"))}
        net = pm.init_network([4, 8, 8], [("a", 3), ("b", 3), ("c", 3)], seed=11)
        cfg = replace(pm.MT_RECIPE, epochs=8, initial_lr=0.1, shuffle_seed=12)
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


def laid_out(frames, layout):
    """Copies of ``frames`` whose features and labels are row slices of one
    buffer each, laid out as ``layout`` says, and the features buffer."""
    order = list(frames)[::-1] if layout == "out of head order" else list(frames)
    gap = 3 if layout == "gap" else 0
    width = 2 if layout == "not contiguous" else 1  # a second, unused column
    dim = next(iter(frames.values())).feature_dim
    n = sum(len(fs) + gap for fs in frames.values())
    features, labels = np.zeros((n, dim * width)), np.zeros((n, width), np.int64)
    sets, stop = {}, 0
    for lang in order:
        fs = frames[lang]
        start, stop = stop, stop + len(fs)
        features[start:stop, :dim], labels[start:stop, 0] = fs.features, fs.labels
        sets[lang] = pm.FrameSet(
            lang, features[start:stop, :dim], labels[start:stop, 0], fs.utterance_ids
        )
        stop += gap
    return {lang: sets[lang] for lang in frames}, features


def assert_same_training(got, want):
    (got_net, got_hist), (want_net, want_hist) = got, want
    for a, b in zip(got_net.weights + got_net.biases,
                    want_net.weights + want_net.biases):
        assert a.tobytes() == b.tobytes()
    assert got_hist == want_hist


def mt_corpus(feature_dim=4, frames_per_senone=40):
    spec = pm.SynthSpec(
        num_languages=3, feature_dim=feature_dim, phones_per_language=12, senones_per_phone=3,
        shared_phone_fraction=1.0, frames_per_senone=frames_per_senone, seed=11,
    )
    return pm.split_corpus(
        pm.generate_synthetic(spec), {"train": 0.8, "dev": 0.1, "test": 0.1}, seed=12
    )


def senone_truth_maps(corpus):
    """The generator's senone answer key between every pair, as a map set."""
    inventories = corpus.senone_inventories
    return make_map_set(
        corpus.languages, [inventories[lang].size for lang in corpus.languages],
        {pair: [truth[s] for s in range(len(truth))]
         for pair, truth in corpus.senone_truth.items()},
    )


def gathered_mt_train(net, corpus, split, cfg, map_set=None):
    """Multi-head training on every head's language's ``split``, read in place from the corpus."""
    languages = head_languages(net)
    frames = dict(zip(languages, corpus.gather(languages, split)))
    return pm.train_multihead(net, frames, cfg, map_set)


class TestTrainInPlace:
    @pytest.mark.parametrize("mode", ["masked", "mapped"])
    def test_gathered_sets_train_like_copies(self, mode):
        corpus = mt_corpus()
        map_set = senone_truth_maps(corpus) if mode == "mapped" else None
        net = pm.init_network([4, 8], [("lang1", 36), ("lang0", 36), ("lang2", 36)], seed=13)
        cfg = replace(pm.MT_RECIPE, epochs=2, shuffle_seed=14)
        want = reference_mt_train(net, corpus, "train", cfg, map_set)
        assert_same_training(gathered_mt_train(net, corpus, "train", cfg, map_set), want)

    @pytest.mark.parametrize("layout", ["consecutive", "out of head order", "gap", "not contiguous"])
    def test_sets_in_one_buffer_train_like_copies(self, layout):
        net, frames, map_set = TestTrainMultihead.two_languages()
        sets, features = laid_out(frames, layout)
        for fs in sets.values():  # whole-array sets whose arrays are slices of one buffer
            ((array, rows),) = fs.parts
            assert rows is None and np.shares_memory(array, features)
        cfg = replace(pm.MT_RECIPE, epochs=2, shuffle_seed=3)
        for maps in (None, map_set):
            want = pm.train_multihead(net, frames, cfg, maps)
            assert_same_training(pm.train_multihead(net, sets, cfg, maps), want)

    @pytest.mark.parametrize("mode", ["masked", "mapped"])
    def test_holds_the_training_set_once(self, mode):
        # Three languages of 8,640 training frames each: the gathered sets'
        # labels and utterance ids are 0.4 MB and their row indexes 0.2 MB;
        # their features stay in the corpus, where a copy would take 8.3 MB.
        corpus = mt_corpus(feature_dim=40, frames_per_senone=300)
        map_set = senone_truth_maps(corpus) if mode == "mapped" else None
        net = pm.init_network([40, 64, 64], [(lang, 36) for lang in corpus.languages], seed=13)
        cfg = replace(pm.MT_RECIPE, epochs=1, batch_size=64, shuffle_seed=14)
        n = sum(len(corpus.subset(lang, "train")) for lang in corpus.languages)
        heads = len(corpus.languages)
        # labels and utterance ids; then targets, the epoch's one loss array,
        # the row indexes and the shuffle order
        bound = n * 2 * 8 + n * (2 * heads + 2) * 8 + 1_000_000
        runs = {}
        for train, fits in ((gathered_mt_train, True), (reference_mt_train, False)):
            runs[train], peak = traced_peak(train, net, corpus, "train", cfg, map_set)
            assert (peak <= bound) == fits, (train, peak, bound)
        assert_same_training(*runs.values())


class TestPrune:
    def make_trained(self):
        frames = {"a": lang_frames("a", 0), "b": lang_frames("b", 1)}
        net = pm.init_network([4, 6, 5], [("a", 3), ("b", 3)], seed=20)
        cfg = replace(pm.MT_RECIPE, epochs=2, shuffle_seed=21)
        trained, _ = pm.train_multihead(net, frames, cfg)
        return trained

    def test_outputs_bit_identical(self):
        trained = self.make_trained()
        pruned = pm.prune(trained, "b")
        x = np.random.default_rng(22).normal(size=(100, 4))
        head = pm.forward_head(trained, "b", x)
        plain = pm.forward_batch(pruned, x)
        assert np.abs(head - plain).max() == 0.0

    def test_outputs_byte_identical_over_several_scoring_blocks(self):
        trained = self.make_trained()
        x = np.random.default_rng(24).normal(size=(3000, 4))
        head = pm.forward_head(trained, "a", x)
        assert head.tobytes() == pm.forward_batch(pm.prune(trained, "a"), x).tobytes()

    def test_single_head_prune_copies_parameters(self):
        net = pm.init_network([4, 6], [("only", 3)], seed=1)
        pruned = pm.prune(net, "only")
        assert pruned.layer_dims == [4, 6, 3]
        for w, (sw) in zip(pruned.weights, net.weights):
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

    @pytest.mark.parametrize("meta", [
        {"format": "polymap-network", "version": 1, "activation": "relu", "seed": 1},
        {"format": "polymap-multihead", "version": 2, "activation": "relu", "seed": 1,
         "languages": ["a"], "head_sizes": [3]},
    ], ids=["plain-v1", "multihead-v2"])
    def test_earlier_model_formats_refused(self, tmp_path, meta):
        # the plain and multi-head formats before the one model record
        net = pm.init_network([4, 6], [("a", 3)], seed=1)
        arrays = {"meta": np.array(json.dumps(meta)), "layer_dims": np.array(net.layer_dims)}
        for k, (w, b) in enumerate(zip(net.weights, net.biases)):
            arrays[f"weight_{k}"], arrays[f"bias_{k}"] = w, b
        write_npz(tmp_path / "old.npz", arrays)
        for load in (pm.load_network, pm.load_multihead):
            with pytest.raises(ShapeError, match=meta["format"]):
                load(tmp_path / "old.npz")

    def test_version_1_multihead_file_rejected(self, tmp_path):
        # the earlier layout kept the trunk and each head under their own names
        meta = {"format": "polymap-multihead", "version": 1, "languages": ["a"],
                "activation": "relu", "seed": 0}
        write_npz(tmp_path / "old.npz", {
            "meta": np.array(json.dumps(meta)), "shared_dims": np.array([4, 6]),
            "shared_weight_0": np.zeros((6, 4)), "shared_bias_0": np.zeros(6),
            "head_weight_0": np.zeros((3, 6)), "head_bias_0": np.zeros(3),
        })
        with pytest.raises(PolymapError, match="polymap-model v1"):
            pm.load_multihead(tmp_path / "old.npz")

    def test_multihead_persistence_round_trip(self, tmp_path):
        trained = self.make_trained()
        pm.save_multihead(trained, tmp_path / "mt.npz")
        loaded = pm.load_multihead(tmp_path / "mt.npz")
        x = np.random.default_rng(24).normal(size=(20, 4))
        for lang in head_languages(trained):
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
        net = pm.init_network([8, 24, 24], [(target, 10)], seed=33)
        mapper, _ = pm.train(net, tr, pm.TrainConfig(epochs=8, shuffle_seed=34))
        maps = []
        for src in ("lang1", "lang2"):
            counts = pm.accumulate_confusion(
                mapper, corpus.subset(src, "train"),
                corpus.senone_inventories[target], corpus.senone_inventories[src],
            )
            maps.append(pm.senone_map(counts))
        pooled = pm.pool_and_relabel(corpus, "train", target, maps, mapper)
        pooled_net, _ = pm.train(
            pm.init_network([8, 24, 24], [(target, 10)], seed=35), pooled,
            pm.TrainConfig(epochs=8, shuffle_seed=36),
        )
        tuned, _ = pm.finetune(pooled_net, tr, replace(pm.FINETUNE_RECIPE, shuffle_seed=37))
        test = corpus.subset(target, "test")
        assert pm.frame_error_rate(tuned, test) <= pm.frame_error_rate(pooled_net, test)

import copy
import dataclasses
import gc
import json
import math
import sys
import warnings
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polymap as pm
from polymap._npz import write_npz
from polymap.errors import (
    ArtifactError,
    ConfigError,
    EmptyDataError,
    InvalidArchitectureError,
    LabelRangeError,
    NonFiniteLossError,
    PolymapError,
    RangeError,
    ShapeError,
    UnknownLanguageError,
)
from polymap.nnet import _SCORE_ROWS, _score_blocks, _sgd
from target_oracles import head_gradients, reference_forward_batch, reference_sgd, traced_peak


def bias_only_net(log_probs):
    """Single-layer net whose posterior is fixed regardless of the input."""
    net = pm.Network(
        [np.zeros((len(log_probs), 1))], [np.asarray(log_probs, float)], [("toy", len(log_probs))],
    )
    return net


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = pm.init_network([4, 8], [("toy", 3)], seed=7)
        b = pm.init_network([4, 8], [("toy", 3)], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()
        for ba, bb in zip(a.biases, b.biases):
            assert ba.tobytes() == bb.tobytes()

    def test_different_seed_differs(self):
        a = pm.init_network([4, 8], [("toy", 3)], seed=7)
        b = pm.init_network([4, 8], [("toy", 3)], seed=8)
        assert any((wa != wb).any() for wa, wb in zip(a.weights, b.weights))

    def test_biases_zero_and_shapes(self):
        net = pm.init_network([4, 8], [("toy", 3)], seed=0)
        assert [w.shape for w in net.weights] == [(8, 4), (3, 8)]
        assert all((b == 0).all() for b in net.biases)

    @pytest.mark.parametrize("dims", [[4], [], [4, 0], [0, 3], [4, -1, 3]])
    def test_bad_architecture(self, dims):
        with pytest.raises(InvalidArchitectureError):
            pm.init_network(dims[:-1], [("toy", d) for d in dims[-1:]], seed=0)


def weight_chain(net):
    """The sizes a network's weights chain through: its input width, then
    each layer's output width."""
    return [net.weights[0].shape[1], *(w.shape[0] for w in net.weights)]


class TestNetworkArrays:
    """A network is its arrays: its layer sizes are read off its weights, and
    arrays that make no network are refused when it is built."""

    @pytest.mark.parametrize("weights,biases", [
        ([np.zeros((4, 2)), np.zeros((3, 5))], [np.zeros(4), np.zeros(3)]),
        ([np.zeros((3, 2))], [np.zeros(4)]),
        ([np.zeros((3, 2))], [np.zeros((3, 1))]),
        ([np.zeros((3, 2))], [np.zeros(3, dtype=np.float32)]),
        ([np.zeros((3, 2), dtype=np.int64)], [np.zeros(3)]),
        ([np.zeros((3, 2))], [np.zeros(3), np.zeros(3)]),
        ([np.zeros(3)], [np.zeros(3)]),
        ([np.zeros((0, 2)), np.zeros((3, 0))], [np.zeros(0), np.zeros(3)]),
        ([[[0.0, 0.0]] * 3], [np.zeros(3)]),
        ([], []),
    ], ids=[
        "weights-do-not-chain", "bias-length", "bias-2d", "bias-float32", "weight-int",
        "bias-without-weight", "weight-1d", "layer-of-size-zero", "weight-not-array", "no-layer",
    ])
    def test_arrays_that_make_no_network_are_refused(self, weights, biases):
        with pytest.raises(InvalidArchitectureError):
            pm.Network(weights, biases, [("toy", 3)])

    def test_every_builder_reads_its_sizes_off_its_weights(self, tmp_path):
        frames, cfg = blob_frames(0, n=40), pm.TrainConfig(epochs=1)
        net = pm.init_network([3, 5], [("toy", 2)], seed=0)
        mt = pm.init_network([3, 5, 4], [("toy", 2), ("other", 4)], seed=1)
        pm.save_network(net, tmp_path / "net.npz")
        pm.save_multihead(mt, tmp_path / "mt.npz")
        built = {
            "init_network": net,
            "train": pm.train(net, frames, cfg)[0],
            "finetune": pm.finetune(net, frames, cfg)[0],
            "train_multihead": pm.train_multihead(mt, {"toy": frames}, cfg)[0],
            "prune": pm.prune(mt, "other"),
            "load_network": pm.load_network(tmp_path / "net.npz"),
            "load_multihead": pm.load_multihead(tmp_path / "mt.npz"),
        }
        for name, built_net in built.items():
            assert built_net.layer_dims == weight_chain(built_net), name
        assert [built[name].layer_dims for name in ("train_multihead", "prune")] == [
            [3, 5, 4, 6], [3, 5, 4, 4],
        ]

    def test_layer_dims_cannot_be_set(self):
        net = pm.init_network([3, 5], [("toy", 2)], seed=0)
        with pytest.raises(AttributeError):
            net.layer_dims = [3, 5, 3]


class TestForward:
    def test_zero_net_uniform(self):
        net = pm.Network([np.zeros((3, 2))], [np.zeros(3)], [("toy", 3)])
        probs = pm.forward_batch(net, np.array([[5.0, -3.0]]))[0]
        np.testing.assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_hand_computed_two_layer(self):
        # x=[1,2]: z1=[1.5,-1.5] -> relu [1.5,0]; z2=[1.5,1.0]; softmax by hand.
        net = pm.Network(
            [np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([[1.0, 1.0], [0.5, -1.0]])],
            [np.array([0.5, 0.5]), np.array([0.0, 0.25])],
            [("toy", 2)],
        )
        probs = pm.forward_batch(net, np.array([[1.0, 2.0]]))[0]
        denom = math.exp(1.5) + math.exp(1.0)
        np.testing.assert_allclose(probs, [math.exp(1.5) / denom, math.exp(1.0) / denom], rtol=1e-14)

    @given(
        x=st.lists(st.floats(-50, 50), min_size=4, max_size=4),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=50, deadline=None)
    def test_output_is_distribution(self, x, seed):
        net = pm.init_network([4, 6], [("toy", 5)], seed=seed)
        probs = pm.forward_batch(net, np.asarray(x)[None, :])[0]
        assert abs(probs.sum() - 1.0) < 1e-6
        assert ((probs >= 0) & (probs <= 1)).all()

    def test_dim_mismatch(self):
        net = pm.init_network([4], [("toy", 3)], seed=0)
        with pytest.raises(ShapeError):
            pm.forward_batch(net, np.zeros(5))
        with pytest.raises(ShapeError):
            pm.forward_batch(net, np.zeros((2, 5)))

    def test_several_heads_are_not_one_softmax(self):
        net = pm.init_network([4, 6], [("a", 3), ("b", 2)], seed=0)
        x = np.zeros((2, 4))
        frames = pm.FrameSet("a", x, np.zeros(2, int), np.arange(2))
        for score in (pm.forward_batch, pm.predict_batch):
            with pytest.raises(ShapeError, match="prune to one head"):
                score(net, x)
        with pytest.raises(ShapeError, match="prune to one head"):
            pm.frame_error_rate(net, frames)
        assert pm.forward_batch(pm.prune(net, "b"), x).shape == (2, 2)


class TestPredict:
    def test_argmax(self):
        net = bias_only_net(np.log([0.2, 0.5, 0.3]))
        assert pm.predict_batch(net, np.zeros((1, 1)))[0] == 1

    def test_tie_breaks_low(self):
        net = bias_only_net(np.log([0.4, 0.4, 0.2]))
        probs = pm.forward_batch(net, np.zeros((1, 1)))[0]
        assert probs[0] == probs[1]
        assert pm.predict_batch(net, np.zeros((1, 1)))[0] == 0

    def test_separable_clusters_predicted_exactly(self):
        rng = np.random.default_rng(0)
        centers = np.array([[-4.0, 0.0], [4.0, 0.0]])
        labels = rng.integers(0, 2, size=300)
        x = centers[labels] + rng.normal(scale=0.3, size=(300, 2))
        frames = pm.FrameSet("toy", x, labels, np.arange(300))
        net = pm.init_network([2, 8], [("toy", 2)], seed=1)
        net, _ = pm.train(net, frames, pm.TrainConfig(initial_lr=0.08, epochs=16, shuffle_seed=2))
        assert (pm.predict_batch(net, x) == labels).all()


# Batch sizes about and across block edges, and of the recipe's splits.
SCORED_ROWS = [0, 1, 1023, 1024, 1025, 2 * 1024 + 26, 8640, 28800]


class TestBlockedScoring:
    @pytest.mark.parametrize("n", SCORED_ROWS + [2048, 3073, 50_000])
    def test_blocks_are_near_equal_and_cover_the_rows(self, n):
        blocks = _score_blocks(n)
        sizes = [b.stop - b.start for b in blocks]
        assert len(blocks) == -(-n // _SCORE_ROWS)
        assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n))
        assert max(sizes, default=0) <= _SCORE_ROWS
        assert max(sizes, default=0) - min(sizes, default=0) <= 1

    @pytest.mark.parametrize("n", SCORED_ROWS)
    @pytest.mark.parametrize("input_dim", [20, 40])
    def test_bit_identical_to_one_call(self, n, input_dim):
        net = pm.init_network([input_dim, 64, 64, 64, 64], [("toy", 36)], seed=input_dim)
        x = np.random.default_rng(n).normal(size=(n, input_dim))
        probs = pm.forward_batch(net, x)
        assert probs.shape == (n, 36) and probs.dtype == np.float64
        assert probs.tobytes() == reference_forward_batch(net, x).tobytes()
        expected = np.argmax(probs, axis=1)
        assert (pm.predict_batch(net, x) == expected).all()

    def test_scorers_hold_one_block_not_the_batch(self):
        n, senones = 50_000, 36
        net = pm.init_network([20, 64, 64, 64, 64], [("toy", senones)], seed=1)
        x = np.random.default_rng(2).normal(size=(n, 20))
        posteriors = n * senones * 8
        probs, peak = traced_peak(pm.forward_batch, net, x)
        assert peak <= probs.nbytes + 4_000_000
        labels, peak = traced_peak(pm.predict_batch, net, x)
        assert labels.tobytes() == np.argmax(probs, axis=1).tobytes()
        assert peak < posteriors / 4


class TestSchedule:
    def test_paper_values(self):
        cfg = pm.TrainConfig(initial_lr=0.08, epochs=16)
        assert pm.lr_at_epoch(cfg, 0) == 0.08
        assert pm.lr_at_epoch(cfg, 1) == 0.04

    def test_three_halvings(self):
        cfg = pm.TrainConfig(initial_lr=0.008, epochs=4)
        assert pm.lr_at_epoch(cfg, 3) == 0.001

    def test_no_halving(self):
        cfg = pm.TrainConfig(initial_lr=0.05, epochs=4, halve_every_epoch=False)
        assert all(pm.lr_at_epoch(cfg, e) == 0.05 for e in range(4))

    @given(epoch=st.integers(0, 14))
    @settings(max_examples=15, deadline=None)
    def test_strict_halving(self, epoch):
        cfg = pm.TrainConfig(initial_lr=0.08, epochs=16)
        assert pm.lr_at_epoch(cfg, epoch + 1) == pm.lr_at_epoch(cfg, epoch) / 2

    def test_out_of_range(self):
        cfg = pm.TrainConfig(epochs=4)
        for epoch in (-1, 4, 100):
            with pytest.raises(RangeError):
                pm.lr_at_epoch(cfg, epoch)

    def test_rate_underflows_past_epoch_1023(self):
        # 2.0**1024 overflows a float; the rate itself just underflows to 0.0
        cfg = pm.TrainConfig(epochs=1200)
        assert pm.lr_at_epoch(cfg, 1100) == 0.0
        assert pm.lr_at_epoch(cfg, 1199) == 0.0

    @pytest.mark.parametrize("initial_lr", [0.08, 0.008, 0.0008, 0.3, 1.0, 7.0])
    def test_equals_the_halving_formula_below_epoch_1024(self, initial_lr):
        cfg = pm.TrainConfig(initial_lr=initial_lr, epochs=1024)
        rates = [pm.lr_at_epoch(cfg, e) for e in range(1024)]
        assert rates == [initial_lr / 2.0**e for e in range(1024)]


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("epochs", 2.5), ("epochs", True), ("epochs", "2"), ("batch_size", 2.5),
        ("batch_size", np.float64(4)), ("shuffle_seed", -3), ("shuffle_seed", 1.0),
        ("shuffle_seed", False), ("initial_lr", True), ("initial_lr", "0.1"),
        ("initial_lr", math.inf), ("initial_lr", math.nan), ("halve_every_epoch", 1),
        ("halve_every_epoch", "yes"),
    ])
    def test_value_of_another_type_or_range_is_refused_by_name(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            pm.TrainConfig(**{field: value})

    def test_numpy_ints_train_and_hash_as_ints(self):
        net = pm.init_network([3, 5], [("toy", 2)], seed=0)
        ints = pm.TrainConfig(initial_lr=1, epochs=2, batch_size=8, shuffle_seed=3)
        numpy_ints = pm.TrainConfig(
            initial_lr=np.int64(1), epochs=np.int64(2), batch_size=np.int32(8),
            shuffle_seed=np.uint8(3),
        )
        # config_hash dumps the schedule as JSON, which takes no numpy number
        as_json = json.dumps(dataclasses.asdict(numpy_ints))
        assert as_json == json.dumps(dataclasses.asdict(ints))
        assert json.dumps(dataclasses.asdict(pm.TrainConfig(initial_lr=np.float32(0.5)))) == (
            json.dumps(dataclasses.asdict(pm.TrainConfig(initial_lr=0.5)))
        )
        frames = blob_frames(2, n=40)
        want, got = pm.train(net, frames, ints), pm.train(net, frames, numpy_ints)
        assert got[1] == want[1]
        for a, b in zip(got[0].weights + got[0].biases, want[0].weights + want[0].biases):
            assert a.tobytes() == b.tobytes()


def blob_frames(seed, n=400, spread=0.4):
    rng = np.random.default_rng(seed)
    centers = np.array([[-3.0, 1.0, 0.0], [3.0, -1.0, 0.5]])
    labels = rng.integers(0, 2, size=n)
    x = centers[labels] + rng.normal(scale=spread, size=(n, 3))
    return pm.FrameSet("toy", x, labels, np.arange(n))


class TestTrain:
    def test_separable_blobs_low_error(self):
        frames = blob_frames(3)
        net = pm.init_network([3, 16], [("toy", 2)], seed=4)
        net, _ = pm.train(net, frames, pm.TrainConfig(initial_lr=0.08, epochs=16, shuffle_seed=5))
        errors = (pm.predict_batch(net, frames.features) != frames.labels).mean()
        assert errors < 0.05

    def test_deterministic(self):
        frames = blob_frames(6)
        cfg = pm.TrainConfig(epochs=4, shuffle_seed=7)
        net = pm.init_network([3, 8], [("toy", 2)], seed=8)
        a, hist_a = pm.train(net, frames, cfg)
        b, hist_b = pm.train(net, frames, cfg)
        assert [h.mean_loss for h in hist_a] == [h.mean_loss for h in hist_b]
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_input_net_unchanged(self):
        frames = blob_frames(6)
        net = pm.init_network([3, 8], [("toy", 2)], seed=8)
        before = [w.copy() for w in net.weights]
        pm.train(net, frames, pm.TrainConfig(epochs=2, shuffle_seed=1))
        for w, orig in zip(net.weights, before):
            assert (w == orig).all()

    def test_overfits_single_frame(self):
        frames = pm.FrameSet("toy", np.array([[0.5, -1.0]]), np.array([1]), np.array([0]))
        net = pm.init_network([2, 8], [("toy", 3)], seed=9)
        net, hist = pm.train(
            net, frames, pm.TrainConfig(initial_lr=0.5, epochs=30, halve_every_epoch=False)
        )
        assert hist[-1].mean_loss < 0.01

    def test_losses_match_lr_schedule(self):
        frames = blob_frames(10)
        cfg = pm.TrainConfig(initial_lr=0.02, epochs=3, shuffle_seed=0)
        _, hist = pm.train(pm.init_network([3, 4], [("toy", 2)], seed=0), frames, cfg)
        assert [h.lr for h in hist] == [0.02, 0.01, 0.005]
        assert [h.epoch for h in hist] == [0, 1, 2]

    def test_history_holds_the_languages_loss(self):
        cfg = pm.TrainConfig(epochs=3, shuffle_seed=2)
        _, hist = pm.train(pm.init_network([3, 4], [("toy", 2)], seed=0), blob_frames(11), cfg)
        assert all(isinstance(h, pm.EpochStats) for h in hist)
        assert [list(h.per_language) for h in hist] == [["toy"]] * 3
        # the same mean, summed in another order
        assert [h.per_language["toy"] for h in hist] == pytest.approx(
            [h.mean_loss for h in hist], rel=1e-12
        )

    def test_label_out_of_range(self):
        frames = pm.FrameSet("toy", np.zeros((3, 2)), np.array([0, 1, 5]), np.arange(3))
        with pytest.raises(LabelRangeError):
            net = pm.init_network([2, 4], [("toy", 3)], seed=0)
            pm.train(net, frames, pm.TrainConfig(epochs=1))

    def test_empty_dataset(self):
        frames = pm.FrameSet("toy", np.zeros((0, 2)), np.zeros(0, int), np.zeros(0, int))
        with pytest.raises(EmptyDataError):
            net = pm.init_network([2, 4], [("toy", 3)], seed=0)
            pm.train(net, frames, pm.TrainConfig(epochs=1))

    def test_divergence_raises(self):
        net = pm.init_network([3, 8], [("toy", 2)], seed=0)
        with pytest.raises(NonFiniteLossError, match=r"epoch \d"):
            pm.train(net, blob_frames(10), pm.TrainConfig(initial_lr=1e12, epochs=3))

    def test_frames_of_another_language_raise(self):
        frames = pm.FrameSet("lang1", np.zeros((3, 2)), np.array([0, 1, 2]), np.arange(3))
        net = pm.init_network([2, 4], [("lang0", 3)], seed=0)
        with pytest.raises(UnknownLanguageError, match="'lang1'.*'lang0'"):
            pm.train(net, frames, pm.TrainConfig(epochs=1))


def step_targets(mode, sizes, n, seed, absent=None):
    """Masked (owner column only, -1 elsewhere), mapped (every column) or
    mapped but for one -1 in each of the frames 5, 600 and n - 1 ("few-off")
    targets of ``n`` frames on heads of ``sizes``; no frame is owned by
    head ``absent``."""
    rng = np.random.default_rng(seed)
    labels = np.stack([rng.integers(0, s, n) for s in sizes], axis=1)
    if mode == "mapped":
        return labels
    if mode == "few-off":
        labels[[5, 600, n - 1], [0, 1, 2]] = -1
        return labels
    owners = rng.integers(0, len(sizes), n)
    if absent is not None:
        owners[owners == absent] = (absent + 1) % len(sizes)
    targets = np.full_like(labels, -1)
    rows = np.arange(n)
    targets[rows, owners] = labels[rows, owners]
    return targets


class TestFusedStep:
    """The fused SGD step against the per-head, per-array reference loop."""

    @pytest.mark.parametrize(
        "trunk,sizes,n,batch_size,mode,absent",
        [
            ([6, 16, 16], [12], 200, 32, "mapped", None),  # plain: one head, no -1 targets
            ([8, 16, 16], [36, 36, 36], 150, 4, "masked", None),
            ([8, 16, 16], [36, 36, 36], 150, 4, "mapped", None),
            ([5, 12], [7, 100, 3], 103, 5, "masked", None),  # last batch holds 3 frames
            ([5, 12], [7, 100, 3], 103, 5, "masked", 1),  # head 1 owns no frame
            ([8, 16, 16], [36, 36, 36], 1030, 4, "masked", None),  # several blocks, 2-row tail
            ([5, 12], [7, 100, 3], 400, 7, "mapped", None),  # 7 does not divide a block
            ([5, 12], [7, 100, 3], 650, 300, "masked", None),  # a batch larger than a block
            ([5, 12], [7, 100, 3], 1, 4, "masked", None),  # one frame
            ([8, 16, 16], [36, 36, 36], 1030, 4, "few-off", None),  # most batches hold no -1
        ],
        ids=[
            "plain-32", "masked-4", "mapped-4", "unequal-partial", "absent-head", "blocks-4",
            "batch-7", "batch-300", "one-frame", "few-off",
        ],
    )
    def test_bit_identical_to_reference(self, trunk, sizes, n, batch_size, mode, absent):
        bounds = [0, *np.cumsum(sizes).tolist()]
        net = pm.init_network(trunk, [(f"l{k}", size) for k, size in enumerate(sizes)], seed=2)
        x = np.random.default_rng(3).normal(size=(n, trunk[0]))
        targets = step_targets(mode, sizes, n, seed=4, absent=absent)
        cfg = pm.TrainConfig(initial_lr=0.05, epochs=3, batch_size=batch_size, shuffle_seed=5)

        weights, biases = list(net.weights), list(net.biases)
        fused = [
            (loss, frame_losses.copy())
            for _, _, loss, frame_losses in _sgd(
                weights, biases, bounds, x, np.arange(n), targets, cfg
            )
        ]
        ref_weights = [w.copy() for w in net.weights]
        ref_biases = [b.copy() for b in net.biases]
        reference = reference_sgd(ref_weights, ref_biases, bounds, x, targets, cfg)

        assert len({id(p.base) for p in weights + biases}) == 1  # views of one buffer
        for a, b in zip(weights + biases, ref_weights + ref_biases):
            assert a.tobytes() == b.tobytes()
        for (loss, frame_losses), (ref_loss, ref_frame_losses) in zip(fused, reference):
            assert loss == ref_loss
            assert frame_losses.tobytes() == ref_frame_losses.tobytes()
        if absent is not None:
            lo, hi = bounds[absent], bounds[absent + 1]
            assert weights[-1][lo:hi].tobytes() == net.weights[-1][lo:hi].tobytes()


def finite_difference_gradients(net, x, y, h=1e-5):
    """Central differences of the mean cross-entropy, via forward_batch() only."""

    def loss_of(candidate):
        probs = pm.forward_batch(candidate, x)
        picked = probs[np.arange(len(y)), y]
        return float(np.mean(-np.log(picked)))

    grads_w, grads_b = [], []
    for k in range(len(net.weights)):
        g = np.zeros_like(net.weights[k])
        for idx in np.ndindex(*g.shape):
            up, down = copy.deepcopy(net), copy.deepcopy(net)
            up.weights[k][idx] += h
            down.weights[k][idx] -= h
            g[idx] = (loss_of(up) - loss_of(down)) / (2 * h)
        grads_w.append(g)
        g = np.zeros_like(net.biases[k])
        for idx in np.ndindex(*g.shape):
            up, down = copy.deepcopy(net), copy.deepcopy(net)
            up.biases[k][idx] += h
            down.biases[k][idx] -= h
            g[idx] = (loss_of(up) - loss_of(down)) / (2 * h)
        grads_b.append(g)
    return grads_w, grads_b


def relative_error(a, n):
    return np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n), np.full_like(a, 1e-6)])


class TestGradients:
    @pytest.mark.parametrize("dims,seed", [([3, 4], 0), ([4, 5, 3], 1), ([3, 6, 5, 4], 2)])
    def test_matches_finite_differences(self, dims, seed):
        rng = np.random.default_rng(seed)
        net = pm.init_network(dims[:-1], [("toy", dims[-1])], seed=seed)
        x = rng.normal(size=(12, dims[0]))
        y = rng.integers(0, dims[-1], size=12)
        loss, hidden_w, hidden_b, head_w, head_b = head_gradients(net, x, y, np.zeros(12, int))
        fd_w, fd_b = finite_difference_gradients(net, x, y)
        for a, n in zip(hidden_w + head_w + hidden_b + head_b, fd_w + fd_b):
            assert relative_error(a, n).max() < 1e-4

    def test_loss_value_matches_forward(self):
        rng = np.random.default_rng(3)
        net = pm.init_network([4, 6], [("toy", 3)], seed=3)
        x = rng.normal(size=(20, 4))
        y = rng.integers(0, 3, size=20)
        loss, *_ = head_gradients(net, x, y, np.zeros(20, int))
        probs = pm.forward_batch(net, x)
        expected = float(np.mean(-np.log(probs[np.arange(20), y])))
        assert abs(loss - expected) < 1e-12


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        net = pm.init_network([5, 7], [("toy", 4)], seed=11)
        frames = np.random.default_rng(0).normal(size=(20, 5))
        path = tmp_path / "model.npz"
        pm.save_network(net, path)
        loaded = pm.load_network(path)
        assert loaded.layer_dims == net.layer_dims
        assert loaded.seed == net.seed
        before = pm.forward_batch(net, frames)
        after = pm.forward_batch(loaded, frames)
        assert before.tobytes() == after.tobytes()

    def test_save_is_byte_deterministic(self, tmp_path):
        net = pm.init_network([3, 4], [("toy", 2)], seed=1)
        pm.save_network(net, tmp_path / "a.npz")
        pm.save_network(net, tmp_path / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_reject_wrong_file(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(ShapeError):
            pm.load_network(path)

    def test_reject_file_missing_an_array(self, tmp_path):
        path = tmp_path / "model.npz"
        pm.save_network(pm.init_network([5, 7], [("toy", 4)], seed=1), path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files if name != "bias_1"}
        np.savez(path, **arrays)
        with pytest.raises(ShapeError, match="bias_1"):
            pm.load_network(path)

    def test_missing_or_truncated_file(self, tmp_path):
        path = tmp_path / "model.npz"
        with pytest.raises(ArtifactError, match="model.npz"):
            pm.load_network(path)
        pm.save_network(pm.init_network([5, 7], [("toy", 4)], seed=1), path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(ArtifactError, match="model.npz"):
            pm.load_network(path)


MODEL_META = {
    "format": "polymap-model", "version": 1, "activation": "relu", "seed": 1,
    "heads": [["toy", 2]],
}
MULTIHEAD_META = {**MODEL_META, "heads": [["a", 1], ["b", 1]]}


def model_arrays(meta):
    net = pm.init_network([3, 4], [("toy", 2)], seed=1)
    arrays = {"meta": np.array(json.dumps(meta)), "layer_dims": np.array([3, 4, 2])}
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"weight_{k}"], arrays[f"bias_{k}"] = w, b
    return arrays


def without(meta, key):
    return {k: v for k, v in meta.items() if k != key}


def damage_and_load(path, net, save, load, position, flip):
    """Save ``net``, damage the file and load it: either the load raises a
    :class:`PolymapError` or it gives back ``net``'s heads and outputs.  A
    ``flip`` of None cuts the file at ``position``; otherwise the byte there
    is XORed with ``flip``."""
    save(net, path)
    data = bytearray(path.read_bytes())
    if flip is None:
        del data[position % (len(data) + 1) :]
    else:
        data[position % len(data)] ^= flip
    path.write_bytes(bytes(data))
    try:
        loaded = load(path)
    except PolymapError:
        return
    assert loaded.heads == net.heads
    x = np.random.default_rng(0).normal(size=(4, 3))
    for lang, _ in net.heads:
        assert pm.forward_head(loaded, lang, x).tobytes() == pm.forward_head(net, lang, x).tobytes()


class TestModelFileDamage:
    @pytest.mark.parametrize(
        "load,meta,changes",
        [
            (pm.load_network, MODEL_META, {"meta": np.array("{bad")}),
            (pm.load_network, MODEL_META, {"meta": np.array("[1, 2]")}),
            (pm.load_network, without(MODEL_META, "activation"), {}),
            (pm.load_network, without(MODEL_META, "seed"), {}),
            (pm.load_network, {**MODEL_META, "seed": "one"}, {}),
            (pm.load_network, {**MODEL_META, "seed": True}, {}),
            (pm.load_multihead, {**MULTIHEAD_META, "seed": True}, {}),
            (pm.load_multihead, {**MULTIHEAD_META, "heads": [["a", True], ["b", True]]}, {}),
            (pm.load_network, {**MODEL_META, "activation": "tanh"}, {}),
            (pm.load_multihead, {**MULTIHEAD_META, "activation": "tanh"}, {}),
            (pm.load_multihead, without(MULTIHEAD_META, "heads"), {}),
            (pm.load_multihead, {**MULTIHEAD_META, "heads": [[1], [1]]}, {}),
            (pm.load_multihead, {**MULTIHEAD_META, "heads": [["a"], ["b"]]}, {}),
            (pm.load_multihead, {**MULTIHEAD_META, "heads": "ab"}, {}),
            (pm.load_multihead, {**MULTIHEAD_META, "heads": [["a", "1"], ["b", "1"]]}, {}),
            (pm.load_multihead, {**MULTIHEAD_META, "heads": [["a", 1], ["b", 2]]}, {}),
            (pm.load_multihead, {**MULTIHEAD_META, "heads": [["a", 1], ["a", 1]]}, {}),
            (pm.load_multihead, {**MULTIHEAD_META, "heads": [["a", 0], ["b", 2]]}, {}),
            (pm.load_network, {**MODEL_META, "heads": []}, {}),
            (pm.load_network, MODEL_META, {"weight_0": np.zeros((5, 3))}),
            (pm.load_network, MODEL_META, {"bias_1": np.zeros(3)}),
            (pm.load_network, MODEL_META, {"weight_1": np.zeros((2, 4), dtype="<U1")}),
            (pm.load_network, MODEL_META, {"layer_dims": np.array([3.0, 4.0, 2.0])}),
            (pm.load_network, MODEL_META, {"layer_dims": np.array(3)}),
            (pm.load_network, MODEL_META, {"layer_dims": np.array([3])}),
            (pm.load_network, MODEL_META, {
                "layer_dims": np.array([3, 0, 2]), "weight_0": np.zeros((0, 3)),
                "bias_0": np.zeros(0), "weight_1": np.zeros((2, 0)),
            }),
        ],
        ids=[
            "meta-not-json", "meta-not-object", "no-activation", "no-seed", "seed-not-int",
            "seed-bool", "multihead-seed-bool", "multihead-head-sizes-bool",
            "activation-not-relu", "multihead-activation-not-relu",
            "multihead-no-heads", "multihead-no-languages", "multihead-no-head-sizes",
            "multihead-languages-text",
            "multihead-head-sizes-text", "multihead-head-sizes-sum", "multihead-languages-twice",
            "multihead-head-size-zero", "no-head", "weight-shape", "bias-shape",
            "weight-dtype", "float-layer-dims", "scalar-layer-dims", "one-layer-dim",
            "zero-layer-dim",
        ],
    )
    def test_malformed_model_raises_shape_error(self, tmp_path, load, meta, changes):
        path = tmp_path / "model.npz"
        write_npz(path, {**model_arrays(meta), **changes})
        with pytest.raises(ShapeError, match=r"model\.npz"):
            load(path)

    @given(
        multihead=st.booleans(),
        position=st.integers(0, 10**6),
        flip=st.one_of(st.none(), st.integers(1, 255)),
    )
    @settings(max_examples=150, deadline=None)
    def test_damaged_model_file_loads_or_raises_polymap_error(
        self, tmp_path_factory, multihead, position, flip
    ):
        path = tmp_path_factory.mktemp("damaged") / "model.npz"
        if multihead:
            net = pm.init_network([3, 4], [("a", 1), ("b", 2)], seed=1)
            damage_and_load(path, net, pm.save_multihead, pm.load_multihead, position, flip)
        else:
            net = pm.init_network([3, 4], [("toy", 3)], seed=1)
            damage_and_load(path, net, pm.save_network, pm.load_network, position, flip)

    @pytest.mark.parametrize("field", [8, 11], ids=["flag-bits", "compression-method"])
    def test_damaged_central_directory_entry_raises_polymap_error(self, tmp_path, field):
        # The last member's central-directory entry: a flipped flag bit marks
        # it encrypted, and a flipped method byte names no compression.
        path = tmp_path / "model.npz"
        pm.save_network(pm.init_network([3, 4], [("toy", 3)], seed=1), path)
        with zipfile.ZipFile(path) as zf:
            entry = zf.start_dir + sum(
                zipfile.sizeCentralDir + len(e.filename) + len(e.extra) + len(e.comment)
                for e in zf.infolist()[:-1]
            )
        data = bytearray(path.read_bytes())
        assert data[entry : entry + 4] == zipfile.stringCentralDir
        data[entry + field] ^= 1
        path.write_bytes(bytes(data))
        with pytest.raises(PolymapError):
            pm.load_network(path)

    def test_archive_whose_directory_does_not_parse_leaves_no_file_open(self, tmp_path):
        # np.load opened such a file itself and left it open
        path = tmp_path / "model.npz"
        pm.save_network(pm.init_network([3, 4], [("toy", 3)], seed=1), path)
        data = bytearray(path.read_bytes())
        data[data.index(zipfile.stringCentralDir) + 3] ^= 1
        path.write_bytes(bytes(data))
        unraisable = []
        with warnings.catch_warnings(), mock.patch.object(sys, "unraisablehook", unraisable.append):
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(ArtifactError, match="central directory"):
                pm.load_network(path)
            gc.collect()
        assert unraisable == []


class TestFinetune:
    def test_zero_epochs_is_noop(self):
        net = pm.init_network([3, 4], [("toy", 2)], seed=0)
        cfg = dataclasses.replace(pm.FINETUNE_RECIPE, epochs=0)
        tuned, hist = pm.finetune(net, blob_frames(0), cfg)
        assert hist == []
        for wa, wb in zip(net.weights, tuned.weights):
            assert (wa == wb).all()

    def test_recipe(self):
        assert pm.FINETUNE_RECIPE == pm.TrainConfig(
            initial_lr=0.0008, epochs=5, batch_size=32, shuffle_seed=0, halve_every_epoch=False
        )

    def test_constant_rate_schedule(self):
        net = pm.init_network([3, 4], [("toy", 2)], seed=0)
        cfg = dataclasses.replace(pm.FINETUNE_RECIPE, epochs=5, initial_lr=0.0008, shuffle_seed=3)
        _, hist = pm.finetune(net, blob_frames(1), cfg)
        assert [h.lr for h in hist] == [0.0008] * 5
        assert [h.epoch for h in hist] == [0, 1, 2, 3, 4]
        assert [list(h.per_language) for h in hist] == [["toy"]] * 5


class TestZeroEpochs:
    """Zero epochs is a schedule of every training call: an unchanged copy
    and no history.  Negative epochs are no schedule."""

    @pytest.mark.parametrize("call", ["train", "finetune", "train_multihead"])
    def test_zero_epochs_return_an_unchanged_copy(self, call):
        frames = blob_frames(0, n=40)
        heads = [("toy", 2), ("other", 3)] if call == "train_multihead" else [("toy", 2)]
        net = pm.init_network([3, 4], heads, seed=0)
        cfg = dataclasses.replace(pm.FINETUNE_RECIPE, epochs=0)
        if call == "train_multihead":
            trained, history = pm.train_multihead(net, {"toy": frames}, cfg)
        else:
            trained, history = getattr(pm, call)(net, frames, cfg)
        assert history == []
        assert trained is not net and trained.heads == net.heads
        for old, new in zip(net.weights + net.biases, trained.weights + trained.biases):
            assert old.tobytes() == new.tobytes() and not np.shares_memory(old, new)

    def test_negative_epochs_raise(self):
        for recipe in (pm.TrainConfig(), pm.MT_RECIPE, pm.FINETUNE_RECIPE):
            with pytest.raises(ConfigError, match="epochs must be >= 0"):
                dataclasses.replace(recipe, epochs=-1)

    def test_zero_epochs_still_check_the_frames(self):
        net = pm.init_network([3, 4], [("toy", 2)], seed=0)
        empty = pm.FrameSet("toy", np.zeros((0, 3)), np.zeros(0, int), np.zeros(0, int))
        with pytest.raises(EmptyDataError):
            pm.finetune(net, empty, dataclasses.replace(pm.FINETUNE_RECIPE, epochs=0))

"""Dense feed-forward softmax classifiers and the package's one SGD loop.

Hidden layers use ReLU.  The output layer stacks one softmax head per
language: head ``l`` owns output rows ``bounds[l]:bounds[l + 1]`` and
classifies into that language's label inventory.  A plain classifier is
the one-head case; a multitask network (:mod:`polymap.multitask`) shares
its hidden stack between several heads.  One type, kernel, SGD loop and
model record serve both.  Weights are initialized from a seeded uniform
distribution scaled by 1/sqrt(fan-in) with zero biases, so the layer
sizes and a seed fully determine the starting point and training is
reproducible end to end.  Cross-entropy is evaluated in log-sum-exp form
so it stays finite for extreme logits.

Training packs every weight and bias into one contiguous buffer, so a
trained network's arrays are views of that buffer.  Each SGD step writes
the gradient into a buffer of the same layout and updates all parameters
with two operations over the flat buffers; the result is bit-identical
to updating each array on its own, and to computing each head's softmax
on its own.  The work that needs no parameters (gathering the shuffled
rows, finding each target's logit, masking the heads that take no loss)
is done once per block of up to 256 rows, not once per batch, and the
kernel writes every activation, error and gradient into arrays made once
per training call.  Training and scoring read feature rows where they
are: a frame set that is a view of a corpus's arrays
(:meth:`~polymap.data.FrameSet.view`) gives each block's rows by index,
so no copy of a split's features is made.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ._npz import read_npz, write_npz
from ._schema import checked, decoded, is_kind
from .data import FrameSet
from .errors import (
    ConfigError,
    EmptyDataError,
    InvalidArchitectureError,
    LabelRangeError,
    NonFiniteLossError,
    RangeError,
    ShapeError,
    UnknownLanguageError,
)

if TYPE_CHECKING:
    from .mapping import MapSet

_MODEL_FORMAT = "polymap-model"
_MODEL_VERSION = 1
# Most rows scored in one call; see forward_batch.
_SCORE_ROWS = 1024
# Most rows of a training block, unless one batch is larger; see _sgd.
_STEP_ROWS = 256


@dataclass
class Network:
    """A dense classifier: ReLU hidden layers, one softmax head per language.

    ``weights[k]`` has shape ``(layer_dims[k+1], layer_dims[k])`` and
    ``biases[k]`` has length ``layer_dims[k+1]``.  ``heads`` lists each
    head's ``(language, size)`` in output-row order; the sizes add up to
    the output width.  Instances are treated as immutable once trained;
    :func:`train` returns a new network.
    """

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    heads: list[tuple[str, int]]
    seed: int = 0

    def __post_init__(self) -> None:
        _check_heads(self.heads)
        if sum(size for _, size in self.heads) != self.output_dim:
            raise InvalidArchitectureError(
                f"heads {self.heads!r} do not add up to the network's {self.output_dim} outputs"
            )

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    @property
    def bounds(self) -> list[int]:
        """Head ``l`` owns output rows ``bounds[l]:bounds[l + 1]``."""
        return [0, *np.cumsum([size for _, size in self.heads]).tolist()]

    def head_index(self, language: str) -> int:
        for index, (lang, _) in enumerate(self.heads):
            if lang == language:
                return index
        raise RangeError(f"network has no head for language {language!r}")


def _check_heads(heads: list[tuple[str, int]]) -> None:
    pairs = isinstance(heads, list) and all(isinstance(head, tuple) for head in heads)
    if not (
        pairs and heads and is_kind([list(head) for head in heads], "list[[str, int]]")
        and len({lang for lang, _ in heads}) == len(heads) and min(s for _, s in heads) >= 1
    ):
        raise InvalidArchitectureError(
            f"need a list of (str language, int size >= 1) pairs, languages distinct; got {heads!r}"
        )


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the SGD schedule.

    The learning rate starts at ``initial_lr`` and is halved after every
    epoch when ``halve_every_epoch`` is set.  Zero epochs change nothing.
    """

    initial_lr: float = 0.08
    epochs: int = 16
    batch_size: int = 32
    shuffle_seed: int = 0
    halve_every_epoch: bool = True

    def __post_init__(self) -> None:
        if self.initial_lr <= 0:
            raise ConfigError(f"initial_lr must be positive, got {self.initial_lr}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


# The fine-tuning recipe: a hundredth of the baseline's rate, held for 5 epochs.
FINETUNE_RECIPE = TrainConfig(initial_lr=0.0008, epochs=5, halve_every_epoch=False)


@dataclass(frozen=True)
class EpochStats:
    """One training-log line: epoch index, learning rate, mean loss over all
    frames, and mean loss over each language's frames (if it has any)."""

    epoch: int
    lr: float
    mean_loss: float
    per_language: dict[str, float]


def init_network(trunk_dims: list[int], heads: list[tuple[str, int]], seed: int = 0) -> Network:
    """Deterministically initialize the hidden stack ``trunk_dims`` (input
    width first) and every head; a head's size is its language's label count."""
    _check_heads(heads)
    dims = [*(int(d) for d in trunk_dims), sum(size for _, size in heads)]
    if len(dims) < 2:
        raise InvalidArchitectureError(f"need at least input and output layers, got {dims}")
    if any(d < 1 for d in dims):
        raise InvalidArchitectureError(f"all layer dims must be >= 1, got {dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        scale = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-scale, scale, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Network(dims, weights, biases, list(heads), int(seed))


def _score_blocks(n: int) -> list[slice]:
    """Row blocks of a batch of ``n`` rows for scoring: the fewest that hold
    at most :data:`_SCORE_ROWS` rows each, near-equal in size (they differ by
    at most one row), so no block is a short tail."""
    count = -(-n // _SCORE_ROWS)
    return [slice(k * n // count, (k + 1) * n // count) for k in range(count)]


def _features(net: Network, x: np.ndarray | FrameSet) -> np.ndarray | FrameSet:
    """``x`` as float64 rows of the network's input width, or a frame set of
    that width; :class:`ShapeError` otherwise, or if the network has several
    heads, whose outputs are no one distribution."""
    if len(net.heads) != 1:
        raise ShapeError(f"cannot score the heads {net.heads!r} as one softmax; prune to one head")
    if isinstance(x, FrameSet):
        if x.feature_dim != net.input_dim:
            raise ShapeError(f"expected features of width {net.input_dim}, got {x.feature_dim}")
        return x
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ShapeError(f"expected features of shape (n, {net.input_dim}), got {x.shape}")
    return x


def _posteriors(net: Network, x: np.ndarray | FrameSet) -> Iterator[tuple[slice, np.ndarray]]:
    """Each block of :func:`_score_blocks` over the checked rows ``x``, and
    the posteriors of its rows (ReLU hidden layers, a row-wise softmax).
    The layers write two buffers in turn and a frame set's rows go to a
    third, all made once per call (new arrays per block and layer cost page
    faults); the next block overwrites them.  The in-place steps give the
    bits of ``relu(h @ w.T + b)`` and an allocating softmax."""
    blocks = _score_blocks(len(x))
    size = max((rows.stop - rows.start for rows in blocks), default=0)
    features = np.empty((size, net.input_dim)) if isinstance(x, FrameSet) else None
    buffers = [np.empty(size * max(net.layer_dims[1:])) for _ in range(2)]
    for rows in blocks:
        h = x[rows] if features is None else x.feature_rows(rows, features)
        for k, (w, b) in enumerate(zip(net.weights, net.biases)):
            out = buffers[k % 2][: h.shape[0] * w.shape[0]].reshape(h.shape[0], w.shape[0])
            h = np.dot(h, w.T, out=out)
            h += b
            if k < len(net.weights) - 1:
                np.maximum(h, 0.0, out=h)
        h -= h.max(axis=1, keepdims=True)
        np.exp(h, out=h)
        h /= h.sum(axis=1, keepdims=True)
        yield rows, h


def forward_batch(net: Network, x: np.ndarray | FrameSet) -> np.ndarray:
    """Posterior probabilities of a one-head network for a batch of feature
    rows, or for the frames of a :class:`~polymap.data.FrameSet`.

    Rows are scored in near-equal blocks of at most ``_SCORE_ROWS``, so this
    holds the result plus one block's work, whatever the batch size.  BLAS
    may round a matrix product's last bit differently for different row
    counts, so a row's posteriors need not match one call over the whole
    batch bit for bit.  Scoring is still deterministic, and a pruned head
    and its multi-head network, or a saved model and its reload, are
    compared through this one function.
    """
    x = _features(net, x)
    probs = np.empty((len(x), net.output_dim))
    for rows, block in _posteriors(net, x):
        probs[rows] = block
    return probs


def predict_batch(net: Network, x: np.ndarray | FrameSet) -> np.ndarray:
    """Argmax labels for a batch of feature rows or a frame set; ties break
    toward the lowest label id.

    Equal to the argmax of :func:`forward_batch`, but only one block's
    posteriors are held at a time, never the batch's, and a frame set's
    rows are read one block at a time, never copied whole.
    """
    x = _features(net, x)
    labels = np.empty(len(x), dtype=np.int64)
    for rows, probs in _posteriors(net, x):
        labels[rows] = np.argmax(probs, axis=1)
    return labels


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    """Learning rate in force during a 0-based epoch."""
    if not 0 <= epoch < cfg.epochs:
        raise RangeError(f"epoch {epoch} outside 0..{cfg.epochs - 1}")
    if cfg.halve_every_epoch:
        # ldexp, not / 2.0**epoch: the same below epoch 1024, and no OverflowError after it
        return math.ldexp(cfg.initial_lr, -epoch)
    return cfg.initial_lr


def _flatten(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """A copy of ``arrays`` in one contiguous buffer, and views of it in
    their shapes."""
    flat = np.concatenate([a.ravel() for a in arrays])
    ends = np.cumsum([a.size for a in arrays])[:-1]
    return flat, [v.reshape(a.shape) for v, a in zip(np.split(flat, ends), arrays)]


def _plan(weights: list, biases: list, grads_w: list, grads_b: list, bounds: list[int], rows: int):
    """Work arrays for :func:`_backprop` on batches of ``rows`` frames, made
    once: per layer ``(w, w.T, b, grad_w, grad_b, out, relu_mask)``; the
    heads' first columns and each column's head (head ``l`` owns output
    columns ``bounds[l]:bounds[l + 1]``); the per-(frame, head) buffers
    ``norm`` and ``picked`` and the per-column ``spread``; and each head's
    columns of the output buffer with its column of ``norm``."""
    layers = [
        (w, w.T, b, gw, gb, np.empty((rows, w.shape[0])), np.empty((rows, w.shape[0])))
        for w, b, gw, gb in zip(weights, biases, grads_w, grads_b)
    ]
    logits = layers[-1][5]
    norm = np.empty((rows, len(bounds) - 1))
    heads = [(logits[:, lo:hi], norm[:, l]) for l, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    column_head = np.repeat(np.arange(len(heads)), np.diff(bounds))
    return layers, bounds[:-1], column_head, norm, np.empty_like(norm), np.empty_like(logits), heads


def _target_slots(targets: np.ndarray, plan: tuple, batch: int) -> tuple:
    """For rows that form consecutive batches of ``batch``: the flat index of
    each (frame, head) target logit within its batch's logits, and, if some
    target is -1, the no-loss masks per (frame, head) and per (frame, column),
    else None.  A -1 target points at its head's first column."""
    _, starts, column_head = plan[:3]
    hot = np.maximum(targets, 0)
    hot += starts
    hot += (np.arange(len(targets)) % batch * column_head.size)[:, None]
    if targets.min() >= 0:
        return hot, None
    off = targets < 0
    return hot, (off, off.take(column_head, axis=1))


def _backprop(
    plan: tuple, x: np.ndarray, hot: np.ndarray, masks: tuple | None, losses: np.ndarray
) -> None:
    """Per-(frame, head) cross-entropies of the rows ``x`` into ``losses``;
    the gradients of their sum go into the plan's ``grad_w`` and ``grad_b``.

    ``plan`` is :func:`_plan` for ``len(x)`` rows, and ``hot`` and ``masks``
    are :func:`_target_slots` of the rows' targets, where ``targets[i, l]``
    is frame ``i``'s label on head ``l``, or -1 for no loss (and no error)
    there.  Every head's softmax is computed over the whole output row at
    once, bit-identical to one head at a time.  ``np.dot`` into the plan's
    arrays is the same BLAS product as ``@``.
    """
    layers, starts, column_head, norm, picked, spread, heads = plan
    h = x
    for _, wt, b, _, _, out, mask in layers[:-1]:
        np.dot(h, wt, out=out)
        out += b
        h = np.maximum(out, 0.0, out=out)
        # ReLU outputs are >= 0, so their sign is ``h > 0`` as floats, which
        # multiply the error faster than bools.  Only a NaN unit differs (a
        # NaN, not 0.0), and its activation makes the gradients NaN anyway.
        np.sign(h, out=mask)

    # ``delta`` goes from logits to the softmax error in place.
    _, wt, b, _, _, delta, _ = layers[-1]
    np.dot(h, wt, out=delta)
    delta += b
    np.maximum.reduceat(delta, starts, axis=1, out=norm)
    # Every index is in range; mode "clip" only skips take's output copy.
    delta -= norm.take(column_head, axis=1, out=spread, mode="clip")
    flat = delta.reshape(-1)
    flat.take(hot, out=picked, mode="clip")
    np.exp(delta, out=delta)
    # Not np.add.reduceat: its sums differ from sum(axis=1) in the last bit.
    for columns, head_norm in heads:
        np.add.reduce(columns, axis=1, out=head_norm)
    np.log(norm, out=losses)
    losses -= picked
    delta /= norm.take(column_head, axis=1, out=spread, mode="clip")
    flat[hot] -= 1.0
    if masks is not None:
        np.putmask(losses, masks[0], 0.0)
        np.putmask(delta, masks[1], 0.0)

    # Each layer's input is spent once its gradient is written, so its
    # buffer takes the next layer's error.
    for (w, _, _, grad_w, grad_b, _, _), (*_, h, mask) in zip(layers[:0:-1], layers[-2::-1]):
        np.dot(delta.T, h, out=grad_w)
        np.add.reduce(delta, axis=0, out=grad_b)
        delta = np.dot(delta, w, out=h)
        delta *= mask
    _, _, _, grad_w, grad_b, _, _ = layers[0]
    np.dot(delta.T, x, out=grad_w)
    np.add.reduce(delta, axis=0, out=grad_b)


def _target_array(
    net: Network, sets: list[tuple[int, np.ndarray]], map_set: MapSet | None
) -> np.ndarray:
    """Every frame's label on every head, -1 where the head takes no loss,
    for the frames of ``sets``, ``(head, labels)`` pairs, in order: its own
    head takes its label, and with a map set every other head the label
    mapped from the frame's language to the head's."""
    targets = np.full((sum(labels.size for _, labels in sets), len(net.heads)), -1, np.int64)
    stop = 0
    for m, labels in sets:
        rows = slice(stop, stop + labels.size)
        stop = rows.stop
        targets[rows, m] = labels
        if map_set is None or not labels.size:
            continue
        source, source_size = net.heads[m]
        for l, (language, size) in enumerate(net.heads):
            if l == m:
                continue
            label_map = map_set.get(source, language)
            sizes = (label_map.source_inventory.size, label_map.target_inventory.size)
            if sizes != (source_size, size):
                raise ShapeError(f"map {source!r}->{language!r} does not fit the head sizes")
            targets[rows, l] = label_map.table[labels]
    return targets


def _take_rows(parts: list, starts: list[int], rows: np.ndarray, out: np.ndarray) -> None:
    """Write the feature rows ``rows`` into ``out``.  Rows ``0..n-1`` are the
    rows ``index`` of each ``(array, index)`` of ``parts`` in turn; part ``p``
    begins at row ``starts[p]``.  Each part's rows are taken from its array
    with one ``take``; with several parts, ``rows`` are grouped by part
    first, and each part's go to their places in ``out``."""
    if len(parts) == 1:
        array, index = parts[0]
        array.take(index.take(rows), axis=0, out=out, mode="clip")
        return
    sorter = rows.argsort()
    grouped = rows.take(sorter)
    cuts = grouped.searchsorted(starts).tolist() + [rows.size]
    for (array, index), start, lo, hi in zip(parts, starts, cuts, cuts[1:]):
        if lo < hi:
            grouped[lo:hi] -= start
            out[sorter[lo:hi]] = array.take(index.take(grouped[lo:hi]), axis=0)


def _sgd(
    weights: list, biases: list, bounds: list[int], parts: list, targets: np.ndarray,
    cfg: TrainConfig,
) -> Iterator[tuple[int, float, float, np.ndarray]]:
    """Mini-batch SGD on the summed loss of :func:`_backprop`; the one
    driver of :func:`_plan`, :func:`_target_slots` and :func:`_backprop`.

    The training rows are those of :func:`_take_rows` over ``parts``, with
    a row of ``targets`` each.  The arrays in ``weights`` and ``biases`` are
    replaced by views of one contiguous parameter buffer, which is trained
    in place: each step writes the gradient into a buffer of the same
    layout and updates all parameters with two operations over the flat
    buffers.  The result is bit-identical to updating each array on its own.

    Each epoch's shuffled rows are taken in blocks of whole batches, at most
    :data:`_STEP_ROWS` rows (or one batch, if larger).  A block gathers its
    features and target slots once; its steps work on slices of them, in
    work arrays made once per call, and write their losses into one
    block-sized buffer.  The epoch's loss is still the sum of each batch's
    total in batch order, so the results are those of one step at a time.

    Yields ``(epoch, lr, mean_loss, frame_losses)`` after each epoch, where
    ``frame_losses`` (reused) holds the epoch's per-(frame, head) losses.
    """
    params, views = _flatten(weights + biases)
    weights[:], biases[:] = views[: len(weights)], views[len(weights) :]
    grad, grad_views = _flatten(views)
    grads_w, grads_b = grad_views[: len(weights)], grad_views[len(weights) :]
    rng = np.random.default_rng(cfg.shuffle_seed)
    n, batch = targets.shape[0], cfg.batch_size
    # One plan for the full batches and one for a shorter last batch.
    plans = {
        size: _plan(weights, biases, grads_w, grads_b, bounds, size)
        for size in {min(batch, n), n % batch or batch}
    }
    block = max(batch, _STEP_ROWS // batch * batch)
    starts = np.cumsum([0] + [len(index) for _, index in parts[:-1]]).tolist()
    xs = np.empty((min(block, n), weights[0].shape[1]))
    losses = np.empty((min(block, n), targets.shape[1]))
    batch_values = batch * targets.shape[1]
    frame_losses = np.empty(targets.shape)
    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(cfg, epoch)
        order = rng.permutation(n)
        loss_total = 0.0
        # Overflow or NaN leaves a non-finite loss or weight, raised below.
        with np.errstate(over="ignore", invalid="ignore"):
            for first in range(0, n, block):
                rows = order[first : first + block]
                x = xs[: rows.size]
                _take_rows(parts, starts, rows, x)
                hot, masks = _target_slots(targets.take(rows, axis=0), plans[min(batch, n)], batch)
                for start in range(0, rows.size, batch):
                    size = min(batch, rows.size - start)
                    step = slice(start, start + size)
                    _backprop(
                        plans[size], x[step], hot[step],
                        masks and (masks[0][step], masks[1][step]), losses[step],
                    )
                    grad *= lr / size
                    params -= grad
                full = rows.size // batch * batch
                for total in losses[:full].reshape(-1, batch_values).sum(axis=1).tolist():
                    loss_total += total
                if full < rows.size:
                    loss_total += float(losses[full : rows.size].sum())
                frame_losses[rows] = losses[: rows.size]
        del order, rows  # not held while the caller reads the epoch's losses
        mean_loss = loss_total / n
        if not (math.isfinite(mean_loss) and np.isfinite(params).all()):
            raise NonFiniteLossError(
                f"training diverged in epoch {epoch} (lr {lr:g}): mean loss {mean_loss}"
            )
        yield epoch, lr, mean_loss, frame_losses


def _train(
    net: Network, frames_by_language: dict[str, FrameSet], cfg: TrainConfig,
    map_set: MapSet | None,
) -> tuple[Network, list[EpochStats]]:
    """:func:`_sgd` over the pooled frames of the heads' languages, with the
    targets of :func:`_target_array`; the trained network and its
    :class:`EpochStats` per epoch.

    Each set is checked against its language's head.  The sets' feature
    rows are read where they are: each ``(array, rows)`` of their
    ``parts``, in head order, is one part of :func:`_sgd`'s rows.
    """
    sizes = dict(net.heads)
    unknown = [lang for lang in frames_by_language if lang not in sizes]
    if unknown:
        raise UnknownLanguageError(f"no head for language(s) {unknown}")
    for lang, fs in frames_by_language.items():
        if fs.language != lang:
            raise UnknownLanguageError(f"frames of {fs.language!r} given to the {lang!r} head")
    present = [lang for lang in sizes if lang in frames_by_language]
    sets = [frames_by_language[lang] for lang in present]
    if sum(len(fs) for fs in sets) == 0:
        raise EmptyDataError("no frames to train on")
    for lang, fs in zip(present, sets):
        if fs.feature_dim != net.input_dim:
            raise ShapeError(
                f"{lang} features have dim {fs.feature_dim}, network expects {net.input_dim}"
            )
        if len(fs) and (fs.labels.min() < 0 or fs.labels.max() >= sizes[lang]):
            raise LabelRangeError(f"{lang} labels must lie in 0..{sizes[lang] - 1}")

    parts = [
        (array, np.arange(len(array)) if rows is None else rows)
        for fs in sets for array, rows in fs.parts
    ]
    heads = [net.head_index(lang) for lang in present]
    targets = _target_array(net, [(m, fs.labels) for m, fs in zip(heads, sets)], map_set)
    weights, biases = list(net.weights), list(net.biases)
    history = []
    for epoch, lr, mean_loss, frame_losses in _sgd(
        weights, biases, net.bounds, parts, targets, cfg
    ):
        per_language, stop = {}, 0
        for lang, fs in zip(present, sets):
            rows = slice(stop, stop + len(fs))
            stop = rows.stop
            if len(fs):  # the frames' losses summed one after another, in frame order
                total = np.add.accumulate(frame_losses[rows].sum(axis=1))[-1]
                per_language[lang] = float(total / len(fs))
        history.append(EpochStats(epoch, lr, mean_loss, per_language))
    return Network(list(net.layer_dims), weights, biases, list(net.heads), net.seed), history


def train(net: Network, frames: FrameSet, cfg: TrainConfig) -> tuple[Network, list[EpochStats]]:
    """Shuffled mini-batch SGD of a one-head network on cross-entropy over
    ``frames``; returns a new network.

    Deterministic for a fixed (net, frames, cfg): the shuffle order is
    drawn from ``cfg.shuffle_seed`` alone.  Raises
    :class:`~polymap.errors.NonFiniteLossError` if training diverges.
    """
    if len(net.heads) != 1:
        raise ShapeError(f"train takes a one-head network, not the heads {net.heads!r}")
    return _train(net, {net.heads[0][0]: frames}, cfg, None)


def finetune(
    net: Network, frames: FrameSet, cfg: TrainConfig = FINETUNE_RECIPE
) -> tuple[Network, list[EpochStats]]:
    """Continue training a one-head network: :func:`train` on the fine-tuning
    schedule, by default :data:`FINETUNE_RECIPE` (a constant rate)."""
    return train(net, frames, cfg)


def save_network(net: Network, path: str | Path) -> None:
    """Write a self-describing model file; loading reproduces forward
    outputs bit for bit."""
    _write_model(net, path)


def _write_model(net: Network, path: str | Path) -> None:
    """Write the one model record: a JSON ``meta`` (format, version, a fixed
    ``"relu"`` activation marker, the seed and the heads), ``layer_dims``
    and ``weight_k``/``bias_k``."""
    meta = {
        "format": _MODEL_FORMAT, "version": _MODEL_VERSION, "activation": "relu",
        "seed": net.seed, "heads": net.heads,
    }
    arrays: dict[str, np.ndarray] = {
        "meta": np.array(json.dumps(meta, sort_keys=True)),
        "layer_dims": np.asarray(net.layer_dims, dtype=np.int64),
    }
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        arrays[f"weight_{k}"] = w
        arrays[f"bias_{k}"] = b
    write_npz(path, arrays)


def _read_model(path: str | Path) -> Network:
    """The network of a model file, whose metadata is a :data:`_MODEL_FORMAT`
    record of activation ``"relu"`` (the one the scorers apply), an int
    ``seed`` and ``heads``, and whose arrays fit its layer sizes and heads;
    :class:`ShapeError` naming the file otherwise."""
    arrays = read_npz(path)
    if "meta" not in arrays:
        raise ShapeError(f"{path} is not a model file (missing metadata)")
    context = f"{path} model metadata"
    kinds = {"activation": "str", "seed": "int", "heads": "list[[str, int]]"}
    meta = checked(decoded(str(arrays["meta"][()]), context, ShapeError), kinds, context,
                   ShapeError, header=(_MODEL_FORMAT, _MODEL_VERSION))
    if meta["activation"] != "relu":
        raise ShapeError(f"{path} model metadata has activation {meta['activation']!r}, not 'relu'")
    try:
        layer_dims = arrays["layer_dims"]
        is_list = layer_dims.ndim == 1 and layer_dims.dtype.kind in "iu"
        dims = [int(d) for d in layer_dims] if is_list else []
        weights = [arrays[f"weight_{k}"] for k in range(len(dims) - 1)]
        biases = [arrays[f"bias_{k}"] for k in range(len(dims) - 1)]
    except KeyError as exc:
        raise ShapeError(f"{path} lacks the model array {exc}") from exc
    fits = [
        w.shape == (n_out, n_in) and b.shape == (n_out,) and w.dtype == b.dtype == np.float64
        for w, b, n_in, n_out in zip(weights, biases, dims, dims[1:])
    ]
    if len(dims) < 2 or min(dims) < 1 or not all(fits):
        raise ShapeError(f"{path} holds model arrays that do not fit its layer_dims {dims}")
    try:
        return Network(dims, weights, biases, [tuple(h) for h in meta["heads"]], meta["seed"])
    except InvalidArchitectureError as exc:
        raise ShapeError(f"{path} holds heads that do not fit its network: {exc}") from exc


def load_network(path: str | Path) -> Network:
    """The network :func:`save_network` wrote to ``path``."""
    return _read_model(path)

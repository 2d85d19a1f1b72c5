"""Shared-trunk networks with one softmax output head per language.

Every language's frames flow through the same hidden stack; each head
classifies into its own language's senone inventory.  Two training
regimes are supported:

* ``masked`` — a frame contributes loss only through the head of its
  own language.  Heads of other languages receive exactly zero gradient
  from that frame, and the shared layers see only the owner head's
  backpropagated error.
* ``mapped`` — every head receives a one-hot target for every frame,
  obtained by translating the frame's label through a cross-language
  map set (the owner head keeps the frame's own label), and the
  per-head cross-entropies are summed.

The regimes differ only in their targets, one ``(n_frames, n_heads)``
label array with -1 where a head takes no loss.  The stacked heads train
in the same kernel and SGD loop as a plain network (:mod:`polymap.nnet`).

Pruning keeps the shared stack plus one head and yields a plain
:class:`~polymap.nnet.Network` whose outputs match the kept head bit
for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._npz import write_npz
from .data import FrameSet
from .errors import (
    ConfigError,
    EmptyDataError,
    IncompleteMapSetError,
    InvalidArchitectureError,
    LabelRangeError,
    RangeError,
    ShapeError,
    UnknownLanguageError,
)
from .mapping import MapSet
from .nnet import (
    EpochStats,
    Network,
    TrainConfig,
    _backprop,
    _draw_layers,
    _read_model,
    _sgd,
    hidden_forward,
    softmax,
)

LOSS_MODES = ("masked", "mapped")
_MODEL_FORMAT = "polymap-multihead"


@dataclass
class MultiHeadNetwork:
    """Shared ReLU stack plus independent affine+softmax heads.

    ``shared_dims`` lists the input dim followed by the hidden dims;
    every head reads the last hidden activation.
    """

    shared_dims: list[int]
    languages: list[str]
    shared_weights: list[np.ndarray]
    shared_biases: list[np.ndarray]
    head_weights: list[np.ndarray]
    head_biases: list[np.ndarray]
    activation: str = "relu"
    seed: int = 0

    @property
    def input_dim(self) -> int:
        return self.shared_dims[0]

    @property
    def num_heads(self) -> int:
        return len(self.head_weights)

    @property
    def head_sizes(self) -> list[int]:
        return [int(w.shape[0]) for w in self.head_weights]

    def head_index(self, language: str) -> int:
        try:
            return self.languages.index(language)
        except ValueError:
            raise RangeError(f"network has no head for language {language!r}") from None

    def copy(self) -> "MultiHeadNetwork":
        return MultiHeadNetwork(
            list(self.shared_dims),
            list(self.languages),
            [w.copy() for w in self.shared_weights],
            [b.copy() for b in self.shared_biases],
            [w.copy() for w in self.head_weights],
            [b.copy() for b in self.head_biases],
            self.activation,
            self.seed,
        )


@dataclass(frozen=True)
class MTTrainConfig(TrainConfig):
    """SGD schedule for multi-head training, plus its loss mode."""

    initial_lr: float = 0.008
    batch_size: int = 4
    loss_mode: str = "masked"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(f"loss_mode must be one of {LOSS_MODES}, got {self.loss_mode!r}")


@dataclass(frozen=True)
class MTEpochStats(EpochStats):
    """One training-log line: epoch, lr, overall and per-language mean loss."""

    per_language: dict[str, float]


@dataclass(frozen=True)
class TargetAssignment:
    """Per-head desired output vectors for one frame."""

    head_targets: list[np.ndarray]
    owner: int
    mode: str


def init_multihead(
    shared_dims: list[int],
    head_sizes: list[int],
    languages: list[str],
    seed: int = 0,
) -> MultiHeadNetwork:
    """Deterministically initialize the shared stack and all heads."""
    dims = [int(d) for d in shared_dims]
    if len(dims) < 1 or any(d < 1 for d in dims):
        raise InvalidArchitectureError(f"bad shared dims {dims}")
    if not head_sizes:
        raise InvalidArchitectureError("need at least one output head")
    if any(h < 1 for h in head_sizes):
        raise InvalidArchitectureError(f"all head sizes must be >= 1, got {head_sizes}")
    if len(languages) != len(head_sizes):
        raise InvalidArchitectureError(
            f"{len(languages)} language ids for {len(head_sizes)} heads"
        )
    if len(set(languages)) != len(languages):
        raise InvalidArchitectureError(f"duplicate language ids in {languages}")

    shapes = list(zip(dims[:-1], dims[1:])) + [(dims[-1], int(size)) for size in head_sizes]
    weights, biases = _draw_layers(shapes, seed)
    k = len(dims) - 1
    return MultiHeadNetwork(
        dims, list(languages), weights[:k], biases[:k], weights[k:], biases[k:],
        activation="relu", seed=int(seed),
    )


def shared_representation(net: MultiHeadNetwork, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ShapeError(f"expected features of shape (n, {net.input_dim}), got {x.shape}")
    return hidden_forward(net.shared_weights, net.shared_biases, x)


def forward_heads(net: MultiHeadNetwork, x: np.ndarray) -> list[np.ndarray]:
    """Posterior probabilities of every head for a batch."""
    h = shared_representation(net, x)
    return [softmax(h @ w.T + b) for w, b in zip(net.head_weights, net.head_biases)]


def forward_head(net: MultiHeadNetwork, language: str, x: np.ndarray) -> np.ndarray:
    """Posterior probabilities of one language's head for a batch."""
    idx = net.head_index(language)
    h = shared_representation(net, x)
    return softmax(h @ net.head_weights[idx].T + net.head_biases[idx])


def make_targets_single(
    label: int, owner: int, head_sizes: list[int]
) -> TargetAssignment:
    """One-hot target on the frame's own head, all-zero on every other."""
    if not 0 <= owner < len(head_sizes):
        raise RangeError(f"owner head {owner} outside 0..{len(head_sizes) - 1}")
    if not 0 <= label < head_sizes[owner]:
        raise LabelRangeError(
            f"label {label} outside 0..{head_sizes[owner] - 1} for head {owner}"
        )
    targets = [np.zeros(size) for size in head_sizes]
    targets[owner][label] = 1.0
    return TargetAssignment(targets, owner, "single-head")


def make_targets_mapped(
    label: int,
    owner: int,
    map_set: MapSet,
    languages: list[str],
    head_sizes: list[int],
) -> TargetAssignment:
    """One-hot targets on every head via the cross-language map set.

    The owner head keeps the frame's own label (the map set's diagonal
    is the identity); head ``l`` is hot at the image of the label under
    the (owner -> l) map.
    """
    if not 0 <= owner < len(head_sizes):
        raise RangeError(f"owner head {owner} outside 0..{len(head_sizes) - 1}")
    if not 0 <= label < head_sizes[owner]:
        raise LabelRangeError(
            f"label {label} outside 0..{head_sizes[owner] - 1} for head {owner}"
        )
    targets = []
    for l, size in enumerate(head_sizes):
        hot = label if l == owner else map_set.get(languages[owner], languages[l])(label)
        if not 0 <= hot < size:
            raise LabelRangeError(f"mapped label {hot} outside head {l} of size {size}")
        vec = np.zeros(size)
        vec[hot] = 1.0
        targets.append(vec)
    return TargetAssignment(targets, owner, "mapped-all-heads")


def mt_loss(head_outputs: list[np.ndarray], targets: TargetAssignment) -> float:
    """Cross-entropy of one frame under a target assignment.

    Single-head targets gate the loss to the owner head; mapped targets
    sum the standard cross-entropy over all heads.
    """
    if len(head_outputs) != len(targets.head_targets):
        raise ShapeError(
            f"{len(head_outputs)} head outputs for {len(targets.head_targets)} targets"
        )
    for probs, want in zip(head_outputs, targets.head_targets):
        if np.asarray(probs).shape != want.shape:
            raise ShapeError(
                f"head output shape {np.asarray(probs).shape} != target shape {want.shape}"
            )
    heads = (
        [targets.owner]
        if targets.mode == "single-head"
        else range(len(head_outputs))
    )
    total = 0.0
    for l in heads:
        probs = np.asarray(head_outputs[l], dtype=np.float64)
        total -= float(targets.head_targets[l] @ np.log(np.maximum(probs, 1e-12)))
    return total


def _target_array(
    net: MultiHeadNetwork, labels: np.ndarray, owners: np.ndarray, mode: str, map_set: MapSet | None
) -> np.ndarray:
    """Every frame's label on every head, -1 where the head takes no loss:
    masked mode fills the owner's column only, mapped mode every column."""
    targets = np.full((labels.size, net.num_heads), -1, dtype=np.int64)
    if mode == "masked":
        targets[np.arange(labels.size), owners] = labels
        return targets
    if map_set is None:
        raise IncompleteMapSetError("mapped-target training requires a map set")
    for m in np.unique(owners):
        rows = np.flatnonzero(owners == m)
        for l in range(net.num_heads):
            if l == m:
                table = np.arange(net.head_sizes[m])
            else:
                table = map_set.get(net.languages[m], net.languages[l]).table
            if len(table) != net.head_sizes[m] or table.max() >= net.head_sizes[l]:
                raise ShapeError(
                    f"map {net.languages[m]!r}->{net.languages[l]!r} does not fit "
                    "the head sizes"
                )
            targets[rows, l] = table[labels[rows]]
    return targets


def _stacked(net: MultiHeadNetwork) -> tuple[list, list, list[int]]:
    """Copied layers with the heads stacked into one, and the heads' row bounds."""
    weights = [w.copy() for w in net.shared_weights] + [np.concatenate(net.head_weights)]
    biases = [b.copy() for b in net.shared_biases] + [np.concatenate(net.head_biases)]
    return weights, biases, [0, *np.cumsum(net.head_sizes).tolist()]


def multihead_loss_and_gradients(
    net: MultiHeadNetwork,
    x: np.ndarray,
    labels: np.ndarray,
    owners: np.ndarray,
    mode: str,
    map_set: MapSet | None = None,
) -> tuple[float, list, list, list, list]:
    """Mean loss over a batch and gradients for every parameter.

    Returns ``(loss, shared_w, shared_b, head_w, head_b)`` gradient
    lists.  In masked mode the gradients of heads owning no frame in the
    batch are exactly zero.
    """
    if mode not in LOSS_MODES:
        raise ConfigError(f"loss mode must be one of {LOSS_MODES}, got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    owners = np.asarray(owners, dtype=np.int64)
    if x.shape[0] == 0:
        raise EmptyDataError("no frames")
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ShapeError(f"expected features of shape (n, {net.input_dim}), got {x.shape}")
    if owners.min() < 0 or owners.max() >= net.num_heads:
        raise UnknownLanguageError(f"owner head indices must lie in 0..{net.num_heads - 1}")
    sizes = np.asarray(net.head_sizes)
    if (labels < 0).any() or (labels >= sizes[owners]).any():
        raise LabelRangeError("some frame labels exceed their owner head's size")
    targets = _target_array(net, labels, owners, mode, map_set)
    weights, biases, bounds = _stacked(net)
    losses, grads_w, grads_b = _backprop(weights, biases, bounds, x, targets)
    n = x.shape[0]
    k = len(net.shared_weights)
    return (
        float(losses.sum()) / n,
        [g / n for g in grads_w[:k]],
        [g / n for g in grads_b[:k]],
        [g / n for g in np.split(grads_w[k], bounds[1:-1])],
        [g / n for g in np.split(grads_b[k], bounds[1:-1])],
    )


def train_multihead(
    net: MultiHeadNetwork,
    frames_by_language: dict[str, FrameSet],
    cfg: MTTrainConfig,
    map_set: MapSet | None = None,
) -> tuple[MultiHeadNetwork, list[MTEpochStats]]:
    """Shuffled mini-batch SGD over the pooled frames of all languages.

    Batches may mix languages; masking (or target mapping) is applied
    per frame inside the batch.  In masked mode a head whose language
    never occurs in the data is returned bit-identical to its input.
    """
    unknown = [lang for lang in frames_by_language if lang not in net.languages]
    if unknown:
        raise UnknownLanguageError(f"no head for language(s) {unknown}")
    present = [lang for lang in net.languages if lang in frames_by_language]
    parts = [frames_by_language[lang] for lang in present]
    if not parts or sum(len(p) for p in parts) == 0:
        raise EmptyDataError("no frames to train on")
    for lang, fs in zip(present, parts):
        if fs.feature_dim != net.input_dim:
            raise ShapeError(
                f"{lang} features have dim {fs.feature_dim}, network expects {net.input_dim}"
            )
        size = net.head_sizes[net.head_index(lang)]
        if len(fs) and (fs.labels.min() < 0 or fs.labels.max() >= size):
            raise LabelRangeError(f"{lang} labels must lie in 0..{size - 1}")

    x = np.concatenate([fs.features for fs in parts], axis=0)
    labels = np.concatenate([fs.labels for fs in parts])
    owners = np.concatenate(
        [np.full(len(fs), net.head_index(lang), np.int64) for lang, fs in zip(present, parts)]
    )
    targets = _target_array(net, labels, owners, cfg.loss_mode, map_set)

    weights, biases, bounds = _stacked(net)
    counts = np.bincount(owners, minlength=net.num_heads)
    history: list[MTEpochStats] = []
    for epoch, lr, mean_loss, frame_losses in _sgd(weights, biases, bounds, x, targets, cfg):
        sums = np.bincount(owners, weights=frame_losses.sum(axis=1), minlength=net.num_heads)
        per_language = {
            lang: float(sums[l] / counts[l]) for l, lang in enumerate(net.languages) if counts[l]
        }
        history.append(
            MTEpochStats(epoch=epoch, lr=lr, mean_loss=mean_loss, per_language=per_language)
        )
    k = len(net.shared_weights)
    trained = MultiHeadNetwork(
        list(net.shared_dims), list(net.languages), weights[:k], biases[:k],
        np.split(weights[k], bounds[1:-1]), np.split(biases[k], bounds[1:-1]),
        net.activation, net.seed,
    )
    return trained, history


def prune(net: MultiHeadNetwork, language: str) -> Network:
    """Keep the shared stack plus one language's head as a plain network.

    The result reproduces that head's outputs exactly: it reuses the
    same parameter values and the same forward arithmetic.
    """
    idx = net.head_index(language)
    dims = list(net.shared_dims) + [net.head_sizes[idx]]
    weights = [w.copy() for w in net.shared_weights] + [net.head_weights[idx].copy()]
    biases = [b.copy() for b in net.shared_biases] + [net.head_biases[idx].copy()]
    return Network(dims, weights, biases, net.activation, net.seed)


def save_multihead(net: MultiHeadNetwork, path: str | Path) -> None:
    meta = {
        "format": _MODEL_FORMAT,
        "version": 1,
        "languages": net.languages,
        "activation": net.activation,
        "seed": net.seed,
    }
    arrays: dict[str, np.ndarray] = {
        "meta": np.array(json.dumps(meta, sort_keys=True)),
        "shared_dims": np.asarray(net.shared_dims, dtype=np.int64),
    }
    for k, (w, b) in enumerate(zip(net.shared_weights, net.shared_biases)):
        arrays[f"shared_weight_{k}"] = w
        arrays[f"shared_bias_{k}"] = b
    for l, (w, b) in enumerate(zip(net.head_weights, net.head_biases)):
        arrays[f"head_weight_{l}"] = w
        arrays[f"head_bias_{l}"] = b
    write_npz(path, arrays)


def load_multihead(path: str | Path) -> MultiHeadNetwork:
    arrays, meta = _read_model(path, _MODEL_FORMAT)
    dims = [int(d) for d in arrays["shared_dims"]]
    languages = list(meta["languages"])
    shared_w = [arrays[f"shared_weight_{k}"] for k in range(len(dims) - 1)]
    shared_b = [arrays[f"shared_bias_{k}"] for k in range(len(dims) - 1)]
    head_w = [arrays[f"head_weight_{l}"] for l in range(len(languages))]
    head_b = [arrays[f"head_bias_{l}"] for l in range(len(languages))]
    return MultiHeadNetwork(
        dims, languages, shared_w, shared_b, head_w, head_b,
        meta["activation"], int(meta["seed"]),
    )

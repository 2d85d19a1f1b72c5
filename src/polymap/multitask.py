"""Shared-trunk networks with one softmax output head per language.

A multi-head network is a plain :class:`~polymap.nnet.Network` whose
output layer stacks every language's head: head ``l`` owns output rows
``bounds[l]:bounds[l + 1]`` and has its own softmax.  Every language's
frames flow through the same hidden stack; each head classifies into
its own language's senone inventory.  Two training regimes are
supported:

* ``masked`` — a frame contributes loss only through the head of its
  own language.  Heads of other languages receive exactly zero gradient
  from that frame, and the shared layers see only the owner head's
  backpropagated error.
* ``mapped`` — every head receives a one-hot target for every frame,
  obtained by translating the frame's label through a cross-language
  map set (the owner head keeps the frame's own label), and the
  per-head cross-entropies are summed.

The regimes differ only in their targets, one ``(n_frames, n_heads)``
label array with -1 where a head takes no loss.  The network trains in
the same kernel and SGD loop as a plain one (:mod:`polymap.nnet`) and is
stored in the same model file layout.

Pruning keeps the shared stack plus one head's rows as a plain
``Network``; a head's outputs are defined as those of its pruned
network, so the two match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
    _heads,
    _read_model,
    _sgd,
    _write_model,
    forward_batch,
    init_network,
)

LOSS_MODES = ("masked", "mapped")
_MODEL_FORMAT = "polymap-multihead"
_MODEL_VERSION = 2


@dataclass
class MultiHeadNetwork:
    """A network whose output rows are per-language heads.

    ``network``'s last layer stacks the heads in ``languages`` order;
    head ``l`` has ``head_sizes[l]`` rows.
    """

    network: Network
    languages: list[str]
    head_sizes: list[int]

    def __post_init__(self) -> None:
        langs, sizes = self.languages, self.head_sizes
        if not (langs and len(set(langs)) == len(langs) == len(sizes) and min(sizes) >= 1
                and sum(sizes) == self.network.output_dim):
            raise InvalidArchitectureError(
                f"need distinct language ids, one head size >= 1 each, adding up to the "
                f"network's {self.network.output_dim} outputs; got {langs} and {sizes}"
            )

    @property
    def bounds(self) -> list[int]:
        """Head ``l`` owns output rows ``bounds[l]:bounds[l + 1]``."""
        return [0, *np.cumsum(self.head_sizes).tolist()]

    def head_index(self, language: str) -> int:
        try:
            return self.languages.index(language)
        except ValueError:
            raise RangeError(f"network has no head for language {language!r}") from None

    def copy(self) -> "MultiHeadNetwork":
        return MultiHeadNetwork(self.network.copy(), list(self.languages), list(self.head_sizes))


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


def init_multihead(
    shared_dims: list[int],
    head_sizes: list[int],
    languages: list[str],
    seed: int = 0,
) -> MultiHeadNetwork:
    """Deterministically initialize the shared stack and all heads: the
    weights of ``init_network(shared_dims + [sum(head_sizes)], seed)``."""
    sizes = [int(h) for h in head_sizes]
    network = init_network([*shared_dims, sum(sizes)], seed)
    return MultiHeadNetwork(network, list(languages), sizes)


def forward_heads(net: MultiHeadNetwork, x: np.ndarray) -> list[np.ndarray]:
    """Posterior probabilities of every head for a batch."""
    return [forward_head(net, lang, x) for lang in net.languages]


def forward_head(net: MultiHeadNetwork, language: str, x: np.ndarray) -> np.ndarray:
    """Posterior probabilities of one language's head for a batch."""
    return forward_batch(prune(net, language), x)


def _target_array(
    net: MultiHeadNetwork, labels: np.ndarray, owners: np.ndarray, mode: str, map_set: MapSet | None
) -> np.ndarray:
    """Every frame's label on every head, -1 where the head takes no loss:
    masked mode fills the owner's column only, mapped mode every column."""
    targets = np.full((labels.size, len(net.languages)), -1, dtype=np.int64)
    if mode == "masked":
        targets[np.arange(labels.size), owners] = labels
        return targets
    if map_set is None:
        raise IncompleteMapSetError("mapped-target training requires a map set")
    for m in np.unique(owners):
        rows = np.flatnonzero(owners == m)
        for l in range(len(net.languages)):
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
    lists, the output layer's gradient split into heads.  In masked mode
    the gradients of heads owning no frame in the batch are exactly zero.
    """
    if mode not in LOSS_MODES:
        raise ConfigError(f"loss mode must be one of {LOSS_MODES}, got {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    owners = np.asarray(owners, dtype=np.int64)
    if x.shape[0] == 0:
        raise EmptyDataError("no frames")
    dim = net.network.input_dim
    if x.ndim != 2 or x.shape[1] != dim:
        raise ShapeError(f"expected features of shape (n, {dim}), got {x.shape}")
    if owners.min() < 0 or owners.max() >= len(net.languages):
        raise UnknownLanguageError(f"owner head indices must lie in 0..{len(net.languages) - 1}")
    sizes = np.asarray(net.head_sizes)
    if (labels < 0).any() or (labels >= sizes[owners]).any():
        raise LabelRangeError("some frame labels exceed their owner head's size")
    targets = _target_array(net, labels, owners, mode, map_set)
    weights, biases, bounds = net.network.weights, net.network.biases, net.bounds
    grads_w = [np.empty_like(w) for w in weights]
    grads_b = [np.empty_like(b) for b in biases]
    losses = _backprop(weights, biases, _heads(bounds), x, targets, grads_w, grads_b)
    n = x.shape[0]
    return (
        float(losses.sum()) / n,
        [g / n for g in grads_w[:-1]],
        [g / n for g in grads_b[:-1]],
        [g / n for g in np.split(grads_w[-1], bounds[1:-1])],
        [g / n for g in np.split(grads_b[-1], bounds[1:-1])],
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
    dim = net.network.input_dim
    for lang, fs in zip(present, parts):
        if fs.feature_dim != dim:
            raise ShapeError(f"{lang} features have dim {fs.feature_dim}, network expects {dim}")
        size = net.head_sizes[net.head_index(lang)]
        if len(fs) and (fs.labels.min() < 0 or fs.labels.max() >= size):
            raise LabelRangeError(f"{lang} labels must lie in 0..{size - 1}")

    x = np.concatenate([fs.features for fs in parts], axis=0)
    labels = np.concatenate([fs.labels for fs in parts])
    owners = np.concatenate(
        [np.full(len(fs), net.head_index(lang), np.int64) for lang, fs in zip(present, parts)]
    )
    targets = _target_array(net, labels, owners, cfg.loss_mode, map_set)

    trained = net.copy()
    counts = np.bincount(owners, minlength=len(net.languages))
    history: list[MTEpochStats] = []
    for epoch, lr, mean_loss, frame_losses in _sgd(
        trained.network.weights, trained.network.biases, net.bounds, x, targets, cfg
    ):
        sums = np.bincount(owners, weights=frame_losses.sum(axis=1), minlength=len(counts))
        per_language = {
            lang: float(sums[l] / counts[l]) for l, lang in enumerate(net.languages) if counts[l]
        }
        history.append(
            MTEpochStats(epoch=epoch, lr=lr, mean_loss=mean_loss, per_language=per_language)
        )
    return trained, history


def prune(net: MultiHeadNetwork, language: str) -> Network:
    """Keep the shared stack plus one language's head as a plain network.

    The result holds copies of the shared layers and of the head's rows
    ``bounds[i]:bounds[i + 1]`` of the output layer.
    """
    idx = net.head_index(language)
    lo, hi = net.bounds[idx], net.bounds[idx + 1]
    src = net.network
    return Network(
        [*src.layer_dims[:-1], hi - lo],
        [w.copy() for w in src.weights[:-1]] + [src.weights[-1][lo:hi].copy()],
        [b.copy() for b in src.biases[:-1]] + [src.biases[-1][lo:hi].copy()],
        src.activation,
        src.seed,
    )


def save_multihead(net: MultiHeadNetwork, path: str | Path) -> None:
    """Write the network in the plain model layout, with the language ids
    and head sizes in ``meta``."""
    meta = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "languages": net.languages,
        "head_sizes": net.head_sizes,
    }
    _write_model(net.network, path, meta)


def load_multihead(path: str | Path) -> MultiHeadNetwork:
    lists = (("languages", str), ("head_sizes", int))
    network, meta = _read_model(path, _MODEL_FORMAT, _MODEL_VERSION, lists)
    try:
        return MultiHeadNetwork(network, meta["languages"], meta["head_sizes"])
    except InvalidArchitectureError as exc:
        raise ShapeError(f"{path} holds heads that do not fit its network: {exc}") from exc

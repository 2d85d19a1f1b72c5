"""Multitask training: one network, a shared hidden stack, a head per language.

A multi-head network is a :class:`~polymap.nnet.Network` with several
heads: head ``l`` owns output rows ``bounds[l]:bounds[l + 1]`` and has its
own softmax.  Every language's frames flow through the same hidden stack;
each head classifies into its own language's senone inventory.

Training targets are one ``(n_frames, n_heads)`` label array, -1 where
a head takes no loss.  A frame's own head takes the frame's label.
Given a cross-language map set, every other head takes the label mapped
into its language and the per-head losses are summed (senone-mapped
training); without one, the other heads take no loss and exactly zero
gradient from the frame (the masked loss).  The network trains in the
same kernel and SGD loop as a one-head network (:mod:`polymap.nnet`) and
is stored in the same model record.

Pruning keeps the shared stack plus one head's rows as a one-head
network; a head's outputs are defined as those of its pruned network, so
the two match bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import FrameSet
from .mapping import MapSet
from .nnet import EpochStats, Network, TrainConfig, _read_model, _train, _write_model, forward_batch


# The multi-head recipe's schedule: a tenth of the baseline's rate, batches of 4.
MT_RECIPE = TrainConfig(initial_lr=0.008, batch_size=4)


def forward_head(net: Network, language: str, x: np.ndarray) -> np.ndarray:
    """Posterior probabilities of one language's head for a batch."""
    return forward_batch(prune(net, language), x)


def train_multihead(
    net: Network,
    frames_by_language: dict[str, FrameSet],
    cfg: TrainConfig,
    map_set: MapSet | None = None,
) -> tuple[Network, list[EpochStats]]:
    """Shuffled mini-batch SGD over the pooled frames of all languages.

    Batches may mix languages.  Each frame takes its own label on its
    language's head.  Given ``map_set``, it also takes on every other
    head its label mapped into that head's language; without one, the
    other heads take no loss from it, and a head whose language never
    occurs in the data is returned bit-identical to its input.  The sets'
    feature rows are read where they are, such as the corpus arrays of the
    views :meth:`~polymap.corpus.MultiCorpus.gather` gives, and are not
    copied.
    """
    return _train(net, frames_by_language, cfg, map_set)


def prune(net: Network, language: str) -> Network:
    """Keep the shared stack plus one language's head as a one-head network.

    The result holds copies of the shared layers and of the head's rows
    ``bounds[i]:bounds[i + 1]`` of the output layer.
    """
    idx = net.head_index(language)
    lo, hi = net.bounds[idx : idx + 2]
    return Network(
        [*net.layer_dims[:-1], hi - lo],
        [w.copy() for w in net.weights[:-1]] + [net.weights[-1][lo:hi].copy()],
        [b.copy() for b in net.biases[:-1]] + [net.biases[-1][lo:hi].copy()],
        [net.heads[idx]],
        net.seed,
    )


def save_multihead(net: Network, path: str | Path) -> None:
    """Write a network of any number of heads in the one model record, as
    :func:`~polymap.nnet.save_network` does."""
    _write_model(net, path)


def load_multihead(path: str | Path) -> Network:
    """The network of a model file of any number of heads, as
    :func:`~polymap.nnet.load_network` reads it."""
    return _read_model(path)

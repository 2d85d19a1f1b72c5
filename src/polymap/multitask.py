"""The multitask names the benchmark wraps, over :mod:`polymap.nnet`.

A multi-head network is a :class:`~polymap.nnet.Network` with several
heads, and :mod:`polymap.nnet` trains, prunes, saves and loads it.
``perfbench`` resolves these names in this module and times them as the
multitask layer, so they stay, as one-line calls and re-exports, until the
benchmark wraps the :mod:`polymap.nnet` names instead (ROADMAP item 4).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .data import FrameSet
from .mapping import MapSet
from .nnet import (  # MT_RECIPE and prune are re-exported as the same objects
    MT_RECIPE, EpochStats, Network, TrainConfig, _train, forward_batch, load_network, prune,
    save_network,
)


def forward_head(net: Network, language: str, x: np.ndarray) -> np.ndarray:
    """Posterior probabilities of one language's head for a batch."""
    return forward_batch(prune(net, language), x)


def train_multihead(
    net: Network, frames_by_language: dict[str, FrameSet], cfg: TrainConfig,
    map_set: MapSet | None = None,
) -> tuple[Network, list[EpochStats]]:
    """Shuffled mini-batch SGD over the pooled frames of all languages, each
    frame on its own head and, given ``map_set``, mapped onto every other."""
    return _train(net, frames_by_language, cfg, map_set)


def save_multihead(net: Network, path: str | Path) -> None:
    """:func:`~polymap.nnet.save_network`."""
    save_network(net, path)


def load_multihead(path: str | Path) -> Network:
    """:func:`~polymap.nnet.load_network`."""
    return load_network(path)

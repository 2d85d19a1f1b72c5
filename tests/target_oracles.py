"""Per-frame multi-head target and loss oracles for the tests.

The package builds every frame's targets at once as one
``(n_frames, n_heads)`` label array; these one-frame-at-a-time versions
state the same targets and loss directly, as references to check the
batched kernel against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from polymap.errors import LabelRangeError, RangeError, ShapeError
from polymap.mapping import MapSet


@dataclass(frozen=True)
class TargetAssignment:
    """Per-head desired output vectors for one frame."""

    head_targets: list[np.ndarray]
    owner: int
    mode: str


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

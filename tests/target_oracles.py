"""Per-frame multi-head target and loss oracles, the gradient of the step
training takes, a reference SGD step, a one-call scorer, a reference
text-corpus reader, an in-memory npz writer and a copy-then-concatenate
pooler, for the tests.

The package builds every frame's targets at once as one
``(n_frames, n_heads)`` label array; these one-frame-at-a-time versions
state the same targets and loss directly, as references to check the
batched kernel against.  Training is the package's only way into the
kernel, so :func:`head_gradients` reads the loss and gradient off one
full-batch :func:`train_multihead` step at a constant rate of 1: the
gradient is the weights before the step minus the weights after it.
:func:`reference_backprop` and
:func:`reference_sgd` are the kernel and loop as plain per-head and
per-array code, which the package's fused step must match bit for bit.
:func:`reference_read_text` converts a text corpus one line at a time
with ``int`` and ``float``; the package's chunked reader must give the
same arrays, dtypes and errors.  :func:`reference_forward_batch` scores a
whole batch in one call and :func:`reference_write_npz` builds each
archive member in memory; the package's blocked scorer and streaming
writer must give the same bytes.  :func:`reference_pool_and_relabel`
copies each language's split out of the corpus (:func:`copied`), relabels
the sources and concatenates the copies; the package's pooler, whose set
reads its rows from the corpus's arrays, must give the same arrays.
:func:`reference_mt_train` feeds multi-head training a copy of each
language's split; training on the package's views of the corpus must give
the same network in less memory, as :func:`traced_peak` measures it.
"""

from __future__ import annotations

import io
import tracemalloc
import zipfile
from array import array
from dataclasses import dataclass

import numpy as np

from polymap._npz import _FIXED_DATE
from polymap.corpus import _ARRAYS, _CORPUS_FORMAT, _CORPUS_VERSION
from polymap.data import FrameSet
from polymap.errors import LabelRangeError, RangeError, ShapeError
from polymap.mapping import MapSet, apply_map, realign_with_phone_map
from polymap.multitask import train_multihead
from polymap.nnet import TrainConfig, lr_at_epoch


def head_languages(net) -> list[str]:
    return [lang for lang, _ in net.heads]


def head_sizes(net) -> list[int]:
    return [size for _, size in net.heads]


def head_gradients(net, x, labels, owners, map_set=None) -> tuple:
    """The mean loss and gradient of the step training takes, as ``(loss,
    hidden_w, hidden_b, head_w, head_b)``: the output layer's gradients split
    by head.

    Frame ``i`` belongs to head ``owners[i]``.  The step is one full-batch
    :func:`train_multihead` epoch at constant rate 1, so the gradient is the
    weights before the step minus the weights after it, and the loss is the
    epoch's mean loss.
    """
    x, labels, owners = np.asarray(x, dtype=np.float64), np.asarray(labels), np.asarray(owners)
    frames = {
        lang: FrameSet(lang, x[owners == l], labels[owners == l], np.zeros((owners == l).sum()))
        for l, lang in enumerate(head_languages(net)) if (owners == l).any()
    }
    cfg = TrainConfig(initial_lr=1.0, epochs=1, batch_size=len(x), halve_every_epoch=False)
    stepped, (stats,) = train_multihead(net, frames, cfg, map_set)
    grads_w = [w - s for w, s in zip(net.weights, stepped.weights)]
    grads_b = [b - s for b, s in zip(net.biases, stepped.biases)]
    cut = net.bounds[1:-1]
    return (stats.mean_loss, grads_w[:-1], grads_b[:-1],
            np.split(grads_w[-1], cut), np.split(grads_b[-1], cut))


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
        hot = label if l == owner else int(map_set.get(languages[owner], languages[l]).table[label])
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


def reference_backprop(
    weights: list, biases: list, bounds: list[int], x: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, list, list]:
    """Per-(frame, head) cross-entropies and the gradients of their sum,
    one head at a time.

    Head ``l`` owns output rows ``bounds[l]:bounds[l + 1]``.  ``targets[i, l]``
    is frame ``i``'s label on head ``l``, or -1 for no loss (and no error) there.
    """
    acts = [x]
    for w, b in zip(weights[:-1], biases[:-1]):
        acts.append(relu(acts[-1] @ w.T + b))

    delta = acts[-1] @ weights[-1].T + biases[-1]
    rows = np.arange(x.shape[0])
    losses = np.empty(targets.shape)
    for l, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        seg = delta[:, lo:hi]
        seg -= seg.max(axis=1, keepdims=True)
        hot = targets[:, l]
        picked = seg[rows, hot]
        np.exp(seg, out=seg)
        norm = seg.sum(axis=1, keepdims=True)
        losses[:, l] = np.log(norm[:, 0]) - picked
        seg /= norm
        seg[rows, hot] -= 1.0
        if hot.min() < 0:  # a -1 target indexed the last column above; zero those rows
            off = hot < 0
            losses[off, l] = 0.0
            seg[off] = 0.0

    grads_w: list[np.ndarray] = [np.empty(0)] * len(weights)
    grads_b: list[np.ndarray] = [np.empty(0)] * len(weights)
    for k in range(len(weights) - 1, -1, -1):
        grads_w[k] = delta.T @ acts[k]
        grads_b[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ weights[k]) * (acts[k] > 0.0)
    return losses, grads_w, grads_b


def reference_sgd(
    weights: list, biases: list, bounds: list[int], x: np.ndarray, targets: np.ndarray, cfg
) -> list[tuple[float, np.ndarray]]:
    """Mini-batch SGD over :func:`reference_backprop`, updating each array
    of ``weights`` and ``biases`` in place; returns every epoch's mean loss
    and per-(frame, head) losses."""
    rng = np.random.default_rng(cfg.shuffle_seed)
    n = x.shape[0]
    epochs = []
    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(cfg, epoch)
        order = rng.permutation(n)
        frame_losses = np.empty(targets.shape)
        loss_total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            losses, grads_w, grads_b = reference_backprop(
                weights, biases, bounds, x[idx], targets[idx]
            )
            scale = lr / idx.size
            for k in range(len(weights)):
                weights[k] -= scale * grads_w[k]
                biases[k] -= scale * grads_b[k]
            frame_losses[idx] = losses
            loss_total += float(losses.sum())
        epochs.append((loss_total / n, frame_losses))
    return epochs


def reference_read_text(path) -> tuple[dict, dict[str, np.ndarray]]:
    """A text corpus's metadata record and arrays, every line split and
    converted as it is read.  The ``feature_dim`` line, and each language's
    ``language`` and ``gtable`` lines, may appear once; ``feature_dim`` takes
    one integer >= 1 and a ``language`` line is ``language <name> senones
    <n> phones <m>``.  A malformed line raises ``ValueError`` naming its
    number."""
    meta: dict = dict(languages=[], num_phones={}, splits={}, phone_truth=[], senone_truth=[])
    senones: dict[str, int] = {}
    columns: dict[str, dict[str, array]] = {}
    seen: set[str] = set()
    dim = None
    with open(path) as lines:
        if next(lines, "").split() != [_CORPUS_FORMAT, str(_CORPUS_VERSION)]:
            raise ValueError(f"not a {_CORPUS_FORMAT} {_CORPUS_VERSION} text file")
        for number, line in enumerate(lines, 2):
            parts = line.split()
            if not parts:
                continue
            try:
                key, lang = parts[0], parts[1]
                if key in ("frame", "gtable") and lang not in columns:
                    raise ValueError(f"{key} of undeclared language {lang!r}")
                if key in ("feature_dim", "language", "gtable"):
                    once = key if key == "feature_dim" else f"{key} {lang}"
                    if once in seen:
                        raise ValueError(f"a second {once!r} line")
                    seen.add(once)
                if key == "frame":
                    if len(parts) - 4 != dim:
                        raise ValueError(f"{len(parts) - 4} frame values, feature_dim {dim}")
                    column = columns[lang]
                    column["utterances"].append(int(parts[2]))
                    column["labels"].append(int(parts[3]))
                    column["features"].extend(map(float, parts[4:]))
                elif key == "feature_dim":
                    if int(lang) < 1 or len(parts) > 2:
                        raise ValueError("feature_dim takes one integer >= 1")
                    dim = meta["feature_dim"] = int(lang)
                elif key == "language":
                    if len(parts) != 6 or parts[2:5:2] != ["senones", "phones"]:
                        raise ValueError("the form is 'language <name> senones <n> phones <m>'")
                    meta["languages"].append(lang)
                    senones[lang], meta["num_phones"][lang] = int(parts[3]), int(parts[5])
                    columns[lang] = {n: array("d" if n == "features" else "q") for n in _ARRAYS}
                elif key == "gtable":
                    columns[lang]["gtable"] = array("q", map(int, parts[2:]))
                elif key == "split":
                    by_name = meta["splits"].setdefault(lang, {})
                    by_name.setdefault(parts[2], []).extend(map(int, parts[3:]))
                elif key == "truth":
                    kind, a, b, s, t = parts[1:]
                    meta[f"{kind}_truth"].append([a, b, int(s), int(t)])
                else:
                    raise ValueError(f"unknown key {key!r}")
            except (IndexError, KeyError, OverflowError, ValueError) as exc:
                raise ValueError(f"line {number} ({parts[0]}): {exc}") from exc
    if dim is None:
        raise ValueError("no feature_dim line")
    arrays = {}
    for lang, column in columns.items():
        if len(column["gtable"]) != senones[lang]:
            raise ValueError(f"{lang}: {senones[lang]} senones, gtable {len(column['gtable'])}")
        arrays.update((f"{name}_{lang}", np.array(a)) for name, a in column.items())
        arrays[f"features_{lang}"] = arrays[f"features_{lang}"].reshape(len(column["labels"]), dim)
    return meta, arrays


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stabilized softmax of a 2-d logit array."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def reference_forward_batch(net, x: np.ndarray) -> np.ndarray:
    """Posterior probabilities of every row of ``x``, scored in one call."""
    h = np.asarray(x, dtype=np.float64)
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = relu(h @ w.T + b)
    return softmax(h @ net.weights[-1].T + net.biases[-1])


def reference_write_npz(path, arrays: dict[str, np.ndarray]) -> None:
    """The package's archive layout, each member built in memory first."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(arrays[name]), allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy", date_time=_FIXED_DATE)
            zf.writestr(info, buf.getvalue())


def copied(frames: FrameSet) -> FrameSet:
    """``frames`` with its feature rows copied into one array of its own."""
    return FrameSet(frames.language, frames.features.copy(), frames.labels, frames.utterance_ids)


def reference_pool_and_relabel(corpus, split, target, maps, mapper) -> FrameSet:
    """Each map's source split copied out and relabeled (a phone map by
    realignment), then concatenated with a copy of the target's split."""
    pieces = []
    for label_map in maps:
        source = label_map.source_inventory.task_id
        frames = copied(corpus.subset(source, split))
        if label_map.source_inventory.kind == "phone":
            g_tables = corpus.g_tables[source], corpus.g_tables[target]
            frames = realign_with_phone_map(mapper, frames, label_map, *g_tables)
        else:
            frames = apply_map(frames, label_map)
        pieces.append(frames)
    pieces.append(copied(corpus.subset(target, split)))
    return FrameSet(
        target,
        np.concatenate([fs.features for fs in pieces], axis=0),
        np.concatenate([fs.labels for fs in pieces]),
        np.concatenate([fs.utterance_ids for fs in pieces]),
    )


def reference_mt_train(net, corpus, split, cfg, map_set=None):
    """Multi-head training on a copy of each head's language's ``split``."""
    frames = {lang: copied(corpus.subset(lang, split)) for lang in head_languages(net)}
    return train_multihead(net, frames, cfg, map_set)


def traced_peak(fn, *args) -> tuple[object, int]:
    """``fn(*args)`` and the most memory it held at once, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

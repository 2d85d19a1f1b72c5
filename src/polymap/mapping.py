"""Data-driven label maps between task label inventories.

A map is built by scoring one task's frames with another task's
classifier, counting (alignment label, predicted label) pairs, and
taking per-row argmaxes of the counts.  Normalizing a row by its total
turns the counts into a conditional distribution but cannot change the
argmax, so maps are computed on raw counts.  Collapsing the counts
through senone-to-phone tables first yields the coarser phone-level
map.  Manual maps are ingested from plain text files.
"""

from __future__ import annotations

import json
import warnings
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._npz import open_artifact
from ._schema import checked, decoded
from .data import FrameSet, LabelInventory, SenoneToPhoneTable
from .errors import (
    ArtifactError,
    DuplicateEntryError,
    IncompleteMapError,
    IncompleteMapSetError,
    IncompleteTableError,
    InventoryError,
    LabelRangeError,
    MapFormatError,
    RangeError,
    ShapeError,
)
from .nnet import _SCORE_ROWS, Network, _score_blocks, forward_batch, predict_batch

PROVENANCE_SENONE = "data-driven-senone"
PROVENANCE_PHONE = "data-driven-phone"
PROVENANCE_MANUAL = "manual"
PROVENANCE_IDENTITY = "identity"

_MAPSET_FORMAT = "polymap-mapset"
_MAPSET_VERSION = 1
MAPSET_MANIFEST = "mapset.json"
# The fields of a map-set manifest entry and the JSON kind of each.
_MAPSET_FIELDS = {
    "source": "str", "target": "str", "kind": "str", "provenance": "str", "file": "str",
    "source_size": "int", "target_size": "int",
}


class UnmappedLabelWarning(UserWarning):
    """Some source labels were never observed and fell back to target 0."""


@dataclass(frozen=True)
class ConfusionCounts:
    """Counts of (source alignment label, predicted target label) pairs."""

    source_inventory: LabelInventory
    target_inventory: LabelInventory
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        expected = (self.source_inventory.size, self.target_inventory.size)
        if counts.shape != expected:
            raise ShapeError(f"counts must have shape {expected}, got {counts.shape}")
        if (counts < 0).any():
            raise ShapeError("confusion counts must be non-negative")
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class LabelMap:
    """Total function from one task's label ids to another's."""

    source_inventory: LabelInventory
    target_inventory: LabelInventory
    table: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=np.int64)
        if table.shape != (self.source_inventory.size,):
            raise IncompleteMapError(
                f"map table covers {table.size} labels but the source inventory "
                f"has {self.source_inventory.size}"
            )
        if table.size and (table.min() < 0 or table.max() >= self.target_inventory.size):
            raise LabelRangeError(
                f"map outputs must lie in 0..{self.target_inventory.size - 1}"
            )
        object.__setattr__(self, "table", table)


def identity_map(inventory: LabelInventory) -> LabelMap:
    return LabelMap(inventory, inventory, np.arange(inventory.size), PROVENANCE_IDENTITY)


def _check_language(what: str, language: str, expected: str) -> None:
    """:class:`InventoryError` naming both languages unless ``what`` is of ``expected``."""
    if language != expected:
        raise InventoryError(f"{what} of language {language!r}, not {expected!r}")


def _check_classifier(net: Network, language: str, size: int) -> None:
    """:class:`ShapeError` unless ``net`` has ``size`` outputs, and
    :class:`InventoryError` unless it is one head of ``language``."""
    if net.output_dim != size:
        raise ShapeError(f"classifier has {net.output_dim} outputs, {language!r} has {size} labels")
    found = [lang for lang, _ in net.heads]
    if found != [language]:
        raise InventoryError(f"classifier of language(s) {found}, not of {language!r}")


def accumulate_confusion(
    target_net: Network,
    source_frames: FrameSet,
    target_inventory: LabelInventory,
    source_inventory: LabelInventory,
) -> ConfusionCounts:
    """Count how the target classifier labels each source alignment label.

    ``counts[r, c]`` is the number of source frames aligned to label
    ``r`` that the classifier predicts as target label ``c``; row sums
    therefore equal per-label frame counts.  Predictions are hard
    argmaxes, not soft posteriors, made by one :func:`predict_batch` call,
    which reads the frames' rows one scoring block at a time.
    """
    _check_classifier(target_net, target_inventory.task_id, target_inventory.size)
    _check_language("frames", source_frames.language, source_inventory.task_id)
    shape = (source_inventory.size, target_inventory.size)
    if len(source_frames) == 0:
        return ConfusionCounts(source_inventory, target_inventory, np.zeros(shape, np.int64))
    labels = source_frames.labels
    if labels.min() < 0 or labels.max() >= source_inventory.size:
        raise LabelRangeError(
            f"source labels must lie in 0..{source_inventory.size - 1}"
        )
    preds = predict_batch(target_net, source_frames)
    flat = np.bincount(
        labels * target_inventory.size + preds, minlength=shape[0] * shape[1]
    )
    return ConfusionCounts(source_inventory, target_inventory, flat.reshape(shape))


def _argmax_rows(counts: np.ndarray) -> np.ndarray:
    """Per-row argmax with lowest-index tie-breaking; zero rows map to 0."""
    table = np.argmax(counts, axis=1).astype(np.int64)
    empty = counts.sum(axis=1) == 0
    if empty.any():
        warnings.warn(
            f"{int(empty.sum())} source label(s) had no observed frames; "
            "mapping them to target label 0",
            UnmappedLabelWarning,
            stacklevel=3,
        )
        table[empty] = 0
    return table


def senone_map(counts: ConfusionCounts) -> LabelMap:
    """Map each source senone to the target senone it is predicted as most often."""
    table = _argmax_rows(counts.counts)
    return LabelMap(counts.source_inventory, counts.target_inventory, table, PROVENANCE_SENONE)


def phone_map(
    counts: ConfusionCounts,
    g_source: SenoneToPhoneTable,
    g_target: SenoneToPhoneTable,
) -> LabelMap:
    """Collapse senone counts through both phone tables, then argmax per row.

    Equivalent to counting (source phone, predicted target phone) pairs
    frame by frame: aggregation across senones commutes with counting.  Each
    table must be of its side's language.
    """
    if g_source.num_senones != counts.source_inventory.size:
        raise IncompleteTableError(
            f"source table covers {g_source.num_senones} senones, inventory has "
            f"{counts.source_inventory.size}"
        )
    if g_target.num_senones != counts.target_inventory.size:
        raise IncompleteTableError(
            f"target table covers {g_target.num_senones} senones, inventory has "
            f"{counts.target_inventory.size}"
        )
    _check_language("source table", g_source.task_id, counts.source_inventory.task_id)
    _check_language("target table", g_target.task_id, counts.target_inventory.task_id)
    by_source_phone = np.zeros((g_source.num_phones, counts.target_inventory.size), np.int64)
    np.add.at(by_source_phone, g_source.table, counts.counts)
    phone_counts = np.zeros((g_source.num_phones, g_target.num_phones), np.int64)
    np.add.at(phone_counts.T, g_target.table, by_source_phone.T)

    table = _argmax_rows(phone_counts)
    source_inv = LabelInventory(counts.source_inventory.task_id, g_source.num_phones, "phone")
    target_inv = LabelInventory(counts.target_inventory.task_id, g_target.num_phones, "phone")
    return LabelMap(source_inv, target_inv, table, PROVENANCE_PHONE)


def answer_key_hits(label_map: LabelMap, truth: dict[int, int]) -> tuple[int, int]:
    """How many of the answer key's ``source -> target`` pairs the map agrees
    with, and how many pairs the key holds; :class:`LabelRangeError` for a pair
    outside the map's inventories."""
    sizes = label_map.source_inventory.size, label_map.target_inventory.size
    for s, t in truth.items():
        if not (0 <= s < sizes[0] and 0 <= t < sizes[1]):
            raise LabelRangeError(f"answer key pairs {s} with {t}; the map maps "
                                  f"{sizes[0]} labels to {sizes[1]}")
    hits = sum(int(label_map.table[s]) == t for s, t in truth.items())
    return hits, len(truth)


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from exc


def _parse_map_file(
    path: str | Path,
    source_inventory: LabelInventory,
    target_inventory: LabelInventory,
) -> np.ndarray:
    entries: dict[int, int] = {}
    for lineno, raw in enumerate(_read_text(Path(path)).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise MapFormatError(f"{path}:{lineno}: expected 'source_id target_id', got {raw!r}")
        try:
            src, tgt = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise MapFormatError(f"{path}:{lineno}: non-integer label in {raw!r}") from exc
        if not 0 <= src < source_inventory.size:
            raise RangeError(
                f"{path}:{lineno}: source label {src} outside 0..{source_inventory.size - 1}"
            )
        if not 0 <= tgt < target_inventory.size:
            raise RangeError(
                f"{path}:{lineno}: target label {tgt} outside 0..{target_inventory.size - 1}"
            )
        if src in entries:
            raise DuplicateEntryError(f"{path}:{lineno}: source label {src} mapped twice")
        entries[src] = tgt
    missing = [s for s in range(source_inventory.size) if s not in entries]
    if missing:
        shown = ", ".join(str(s) for s in missing[:8])
        more = "..." if len(missing) > 8 else ""
        raise IncompleteMapError(f"{path}: no mapping for source label(s) {shown}{more}")
    return np.asarray([entries[s] for s in range(source_inventory.size)], dtype=np.int64)


def load_manual_map(
    path: str | Path,
    source_inventory: LabelInventory,
    target_inventory: LabelInventory,
) -> LabelMap:
    """Read a hand-written map file: one ``source_id target_id`` pair per
    line, ``#`` comments allowed."""
    table = _parse_map_file(path, source_inventory, target_inventory)
    return LabelMap(source_inventory, target_inventory, table, PROVENANCE_MANUAL)


def write_map_lines(path: str | Path, pairs: Iterable[tuple], comment: str | None) -> None:
    """Write the map-file text format :func:`load_manual_map` reads: a ``# comment``
    line if there is a comment, then a ``source target`` line per pair."""
    lines = [f"# {comment}"] if comment else []
    lines.extend(f"{s} {t}" for s, t in pairs)
    with open_artifact(path) as f:
        f.write("\n".join(lines) + "\n")


def save_map_file(label_map: LabelMap, path: str | Path, comment: str | None = None) -> None:
    write_map_lines(path, enumerate(label_map.table.tolist()), comment)


def apply_map(frames: FrameSet, label_map: LabelMap) -> FrameSet:
    """Relabel frames through the map: a set of the same feature rows and
    frame order, with labels of its own."""
    _check_language("frames", frames.language, label_map.source_inventory.task_id)
    if len(frames) and (
        frames.labels.min() < 0 or frames.labels.max() >= label_map.source_inventory.size
    ):
        raise LabelRangeError(
            f"frame labels must lie in 0..{label_map.source_inventory.size - 1}"
        )
    return frames.relabeled(label_map.target_inventory.task_id, label_map.table[frames.labels])


def realign_with_phone_map(
    net: Network,
    frames: FrameSet,
    pm: LabelMap,
    g_source: SenoneToPhoneTable,
    g_target: SenoneToPhoneTable,
) -> FrameSet:
    """Relabel frames with target senones consistent with a phone-level map.

    A phone map alone cannot produce senone labels for pooled training,
    so each frame keeps the phone the map assigns to it and receives the
    senone of that phone the target classifier scores highest for the
    frame.  This stands in for regenerating frame alignments after a
    phone-level relabeling of the transcripts.

    Frames are scored by :func:`forward_batch` one scoring block at a
    time, each block's feature rows taken from the frames' arrays, so no
    posterior matrix or feature copy over all the frames is held.  The
    result has the frames' feature rows and labels of its own.  The frames
    and each table must be of the map's languages.
    """
    if pm.source_inventory.kind != "phone" or pm.target_inventory.kind != "phone":
        raise InventoryError("realignment needs a phone-level map")
    _check_language("frames", frames.language, pm.source_inventory.task_id)
    _check_language("source table", g_source.task_id, pm.source_inventory.task_id)
    _check_language("target table", g_target.task_id, pm.target_inventory.task_id)
    if g_source.num_phones != pm.source_inventory.size:
        raise IncompleteTableError(
            f"source table has {g_source.num_phones} phones, map expects "
            f"{pm.source_inventory.size}"
        )
    if g_target.num_phones != pm.target_inventory.size:
        raise IncompleteTableError(
            f"target table has {g_target.num_phones} phones, map expects "
            f"{pm.target_inventory.size}"
        )
    _check_classifier(net, g_target.task_id, g_target.num_senones)
    if len(frames) == 0:
        return frames.relabeled(g_target.task_id, frames.labels)
    if frames.labels.min() < 0 or frames.labels.max() >= g_source.num_senones:
        raise LabelRangeError(f"frame labels must lie in 0..{g_source.num_senones - 1}")

    target_phones = pm.table[g_source.table[frames.labels]]
    has_senones = np.zeros(g_target.num_phones, dtype=bool)
    has_senones[g_target.table] = True
    if not has_senones[target_phones].all():
        bad = int(target_phones[~has_senones[target_phones]][0])
        raise IncompleteTableError(f"target phone {bad} has no senones in the target table")
    new_labels = np.empty(len(frames), dtype=np.int64)
    features = np.empty((min(len(frames), _SCORE_ROWS), frames.feature_dim))
    for rows in _score_blocks(len(frames)):
        probs = forward_batch(net, frames.feature_rows(rows, features))
        # Senones of other phones score -1, below every posterior.
        np.putmask(probs, g_target.table[None, :] != target_phones[rows, None], -1.0)
        new_labels[rows] = np.argmax(probs, axis=1)
    return frames.relabeled(g_target.task_id, new_labels)


@dataclass
class MapSet:
    """Label maps for ordered language pairs, keyed (source, target)."""

    maps: dict[tuple[str, str], LabelMap]

    def __post_init__(self) -> None:
        for key, label_map in self.maps.items():
            pair = label_map.source_inventory.task_id, label_map.target_inventory.task_id
            if key != pair:
                raise InventoryError(f"map set key {key!r} holds a map of the languages {pair!r}")

    def get(self, source: str, target: str) -> LabelMap:
        try:
            return self.maps[(source, target)]
        except KeyError:
            raise IncompleteMapSetError(f"no map from {source!r} to {target!r}") from None


def all_pairs_senone_maps(
    nets: dict[str, Network],
    frames: dict[str, FrameSet],
    inventories: dict[str, LabelInventory],
) -> MapSet:
    """Senone maps for every ordered language pair; diagonals are identities.

    The (source, target) map is learned by scoring the source language's
    frames with the target language's classifier.
    """
    languages = list(nets)
    if set(frames) != set(languages) or set(inventories) != set(languages):
        raise InventoryError("nets, frames and inventories must cover the same languages")
    maps: dict[tuple[str, str], LabelMap] = {}
    for target in languages:
        for source in languages:
            if source == target:
                maps[(source, target)] = identity_map(inventories[source])
            else:
                counts = accumulate_confusion(
                    nets[target], frames[source], inventories[target], inventories[source]
                )
                maps[(source, target)] = senone_map(counts)
    return MapSet(maps)


def save_map_set(map_set: MapSet, directory: str | Path) -> Path:
    """Write one map file per pair plus a manifest; returns the manifest path."""
    directory = Path(directory)
    entries = []
    for (source, target), label_map in sorted(map_set.maps.items()):
        filename = f"map_{source}_to_{target}.txt"
        save_map_file(label_map, directory / filename, comment=f"{source} -> {target}")
        entries.append(
            {
                "source": source,
                "target": target,
                "kind": label_map.source_inventory.kind,
                "source_size": label_map.source_inventory.size,
                "target_size": label_map.target_inventory.size,
                "provenance": label_map.provenance,
                "file": filename,
            }
        )
    manifest = {"format": _MAPSET_FORMAT, "version": _MAPSET_VERSION, "maps": entries}
    manifest_path = directory / MAPSET_MANIFEST
    with open_artifact(manifest_path) as f:
        f.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def load_map_set(directory: str | Path) -> MapSet:
    """Read a map set written by :func:`save_map_set`.  A manifest whose
    header, entry fields or (source, target) pairs are not as written
    raises :class:`MapFormatError` naming the manifest and the key."""
    manifest_path = Path(directory) / MAPSET_MANIFEST
    manifest = decoded(_read_text(manifest_path), str(manifest_path), MapFormatError)
    manifest = checked(manifest, {"maps": "list"}, str(manifest_path), MapFormatError,
                       header=(_MAPSET_FORMAT, _MAPSET_VERSION))
    maps: dict[tuple[str, str], LabelMap] = {}
    for i, entry in enumerate(manifest["maps"]):
        context = f"{manifest_path}: malformed map entry {i}"
        entry = checked(entry, _MAPSET_FIELDS, context, MapFormatError)
        pair, name = (entry["source"], entry["target"]), entry["file"]
        if pair in maps:
            raise MapFormatError(f"{manifest_path} has a second map entry for {pair}")
        if Path(name).name != name or name in ("", ".."):
            raise MapFormatError(f"{manifest_path} names {name!r}, not a file in its directory")
        try:
            source_inv = LabelInventory(entry["source"], entry["source_size"], entry["kind"])
            target_inv = LabelInventory(entry["target"], entry["target_size"], entry["kind"])
        except InventoryError as exc:
            raise MapFormatError(f"{context}: {exc}") from exc
        table = _parse_map_file(manifest_path.parent / name, source_inv, target_inv)
        maps[pair] = LabelMap(source_inv, target_inv, table, entry["provenance"])
    return MapSet(maps)

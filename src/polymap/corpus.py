"""Synthetic multi-language frame corpora, splits, pooling and file formats.

The generator models each language's phones as Gaussian clusters in
feature space.  A configurable fraction of every language's phones
reuse cluster centers from a pool shared across languages, so the same
speech sound exists acoustically in several languages even though each
language numbers its labels privately (ids are independently permuted
per language).  Phones split into senone sub-clusters; shared phones
reuse the sub-cluster layout too, which gives the generator an exact
cross-language answer key at both the phone and the senone level for
use as a test oracle.
"""

from __future__ import annotations

import dataclasses
import json
import os
import warnings
from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ._npz import open_artifact, read_into, reading_npz, write_npz
from ._schema import checked, decoded
from .data import FrameSet, LabelInventory, SenoneToPhoneTable, joined
from .errors import (
    ArtifactError,
    FractionError,
    InventoryError,
    LabelRangeError,
    PolymapError,
    ShapeError,
    SynthSpecError,
)
from .mapping import LabelMap, apply_map, realign_with_phone_map, write_map_lines

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

    from .nnet import Network

SPLIT_NAMES = ("train", "dev", "test")

# Senone sub-cluster centers sit this far (per coordinate, relative to the
# unit-scale phone centers) from their phone center.
SENONE_OFFSET_SCALE = 0.25
FRAMES_PER_UTTERANCE = 50

_CORPUS_FORMAT = "polymap-corpus"
_CORPUS_VERSION = 1
# The metadata record of a binary corpus file, besides its header.
_META_KINDS = {
    "languages": "list[str]", "feature_dim": "int", "num_phones": "dict[int]",
    "splits": "dict[dict[list[int]]]", "provenance": "dict",
    "phone_truth": "list[[str, str, int, int]]", "senone_truth": "list[[str, str, int, int]]",
}
# Per-language arrays of a corpus file, named ``<name>_<language>``: the
# frame set's three columns, then the collapse table.
_ARRAYS = ("features", "labels", "utterances", "gtable")
# Frame lines per parse job of a text corpus, and jobs in flight per pool
# worker: enough to keep the workers busy, few enough to bound the memory.
_CHUNK_LINES = 2048
_JOBS_PER_WORKER = 2
# Pool workers at most.  The calling process's pass over the lines costs
# about an eighth of the CPU time ``np.loadtxt`` does (0.4 s against 3.0 s
# for a 115 MB file), so a ninth worker would mostly wait for it.
_MAX_WORKERS = 8


@dataclass(frozen=True)
class SynthSpec:
    """Shape of a synthetic corpus.

    ``shared_phone_fraction`` of each language's phones reuse pooled
    cluster centers; the rest are private to the language.  ``seed``
    may be left ``None`` by callers that fill it in later.
    """

    num_languages: int = 3
    feature_dim: int = 20
    phones_per_language: int = 12
    senones_per_phone: int = 3
    shared_phone_fraction: float = 0.9
    frames_per_senone: int = 300
    cluster_spread: float = 0.45
    seed: int | None = 0

    def __post_init__(self) -> None:
        counts = {
            "num_languages": self.num_languages,
            "feature_dim": self.feature_dim,
            "phones_per_language": self.phones_per_language,
            "senones_per_phone": self.senones_per_phone,
            "frames_per_senone": self.frames_per_senone,
        }
        for name, value in counts.items():
            if value < 1:
                raise SynthSpecError(f"{name} must be >= 1, got {value}")
        if not 0.0 <= self.shared_phone_fraction <= 1.0:
            raise SynthSpecError(
                f"shared_phone_fraction must be in [0, 1], got {self.shared_phone_fraction}"
            )
        if self.cluster_spread <= 0:
            raise SynthSpecError(f"cluster_spread must be positive, got {self.cluster_spread}")
        if self.seed is not None and self.seed < 0:
            raise SynthSpecError(f"seed must be >= 0, got {self.seed}")

    @property
    def senones_per_language(self) -> int:
        return self.phones_per_language * self.senones_per_phone


@dataclass
class MultiCorpus:
    """Per-language frame sets, collapse tables, splits and answer key.

    The senone and phone inventories derive from ``g_tables``.  ``splits``
    maps language -> split name -> sorted utterance ids (empty until
    :func:`split_corpus` runs).  ``phone_truth`` / ``senone_truth`` hold the
    generator's cross-language answer key, if any.  ``provenance`` records
    what the corpus was made from (``synth`` stamps it; text files drop it).
    Construction checks one frame set and table per language, ``feature_dim``
    (at least 1) values per frame, labels in the senone range, an answer key
    between two of the languages in their phone or senone ranges, and
    disjoint splits of utterances the language has.  ``features`` holds every
    language's frames as consecutive row blocks, in ``languages`` order, and
    ``frames[lang]`` is a whole-array set over its block: sets that are such
    blocks already stay in place, and sets of separate arrays are joined.
    """

    languages: list[str]
    feature_dim: int
    g_tables: dict[str, SenoneToPhoneTable]
    frames: dict[str, FrameSet]
    splits: dict[str, dict[str, list[int]]] = field(default_factory=dict)
    phone_truth: dict[tuple[str, str], dict[int, int]] = field(default_factory=dict)
    senone_truth: dict[tuple[str, str], dict[int, int]] = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    features: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        langs = set(self.languages)
        if len(langs) != len(self.languages) or not langs == set(self.frames) == set(self.g_tables):
            raise InventoryError(f"languages {self.languages} need one frame set and table each")
        if self.feature_dim < 1:
            raise ShapeError(f"feature_dim must be >= 1, got {self.feature_dim}")
        for lang in self.languages:
            labels, senones = self.frames[lang].labels, self.g_tables[lang].num_senones
            if self.frames[lang].feature_dim != self.feature_dim:
                raise ShapeError(f"{lang} frames do not have feature_dim {self.feature_dim} values")
            if labels.size and not 0 <= labels.min() <= labels.max() < senones:
                raise LabelRangeError(f"{lang} labels must lie in [0, {senones})")
        for kind, truth in (("phone", self.phone_truth), ("senone", self.senone_truth)):
            for (a, b), pairs in truth.items():
                if a == b or not {a, b} <= langs:
                    raise InventoryError(f"{kind} answer key {a} -> {b} needs two distinct "
                                         f"languages of {self.languages}")
                sizes = [getattr(self.g_tables[lang], f"num_{kind}s") for lang in (a, b)]
                for s, t in pairs.items():
                    if not (0 <= s < sizes[0] and 0 <= t < sizes[1]):
                        raise LabelRangeError(f"{kind} answer key {a} -> {b} pairs {s} with {t}; "
                                              f"{a} has {sizes[0]} {kind}s, {b} {sizes[1]}")
        for lang, by_name in self.splits.items():
            utts = [u for ids in by_name.values() for u in ids]
            if lang not in langs or set(by_name) - {*SPLIT_NAMES} or len(set(utts)) < len(utts):
                raise FractionError(f"{lang} splits must be {SPLIT_NAMES}, each utterance in one")
            known = np.isin(utts, self.frames[lang].utterance_ids)
            if not known.all():
                raise FractionError(f"{lang} splits name utterance {utts[int(known.argmin())]}, "
                                    f"which {lang} does not have")
        self.splits = {
            lang: {name: sorted(by_name.get(name, ())) for name in SPLIT_NAMES}
            for lang, by_name in self.splits.items()
        }
        sets = [self.frames[lang] for lang in self.languages]
        self.features = (joined([fs.features for fs in sets]) if sets
                         else np.empty((0, self.feature_dim)))
        stops = self._starts()
        self.frames = {
            lang: FrameSet(lang, self.features[start:stop], fs.labels, fs.utterance_ids)
            for lang, fs, start, stop in zip(self.languages, sets, stops, stops[1:])
        }

    def _starts(self) -> list[int]:
        """Each language's first row in :attr:`features`, then the row count."""
        return np.cumsum([0] + [len(self.frames[lang]) for lang in self.languages]).tolist()

    @property
    def senone_inventories(self) -> dict[str, LabelInventory]:
        return {k: LabelInventory(k, t.num_senones, "senone") for k, t in self.g_tables.items()}

    @property
    def phone_inventories(self) -> dict[str, LabelInventory]:
        return {k: LabelInventory(k, t.num_phones, "phone") for k, t in self.g_tables.items()}

    def subset(self, language: str, split: str) -> FrameSet:
        """``language``'s ``split`` frames as a :meth:`gather` view."""
        return self.gather([language], split)[0]

    def gather(self, languages: Sequence[str], split: str) -> list[FrameSet]:
        """Each of ``languages``' ``split`` frames, in frame order, in
        ``languages`` order.  Each set is a :meth:`~polymap.data.FrameSet.view`
        of :attr:`features`: it holds its own labels and utterance ids and an
        index of its rows, offset to the start of its language's block."""
        if split not in SPLIT_NAMES:
            raise FractionError(f"unknown split {split!r}")
        starts = dict(zip(self.languages, self._starts()))
        columns, pieces = [], []
        for lang in languages:
            if lang not in self.frames:
                raise InventoryError(f"corpus has no language {lang!r}")
            if lang not in self.splits:
                raise PolymapError(f"corpus has no split tags for {lang!r}; run split_corpus")
            fs = self.frames[lang]
            rows = np.flatnonzero(np.isin(fs.utterance_ids, self.splits[lang][split]))
            columns.append((lang, fs.labels[rows], fs.utterance_ids[rows]))
            pieces.append(rows + starts[lang])
        index = np.concatenate([np.empty(0, np.intp), *pieces])  # one index; a slice per set
        cuts = np.cumsum([len(rows) for rows in pieces[:-1]], dtype=np.intp)
        return [
            FrameSet.view(lang, self.features, rows, labels, utterance_ids)
            for (lang, labels, utterance_ids), rows in zip(columns, np.split(index, cuts))
        ]


def generate_synthetic(spec: SynthSpec) -> MultiCorpus:
    """Draw a deterministic multi-language corpus for the given spec."""
    if spec.seed is None:
        raise SynthSpecError("spec.seed must be set before generation")
    root = np.random.SeedSequence(spec.seed)
    streams = root.spawn(1 + spec.num_languages)
    pool_rng = np.random.default_rng(streams[0])

    P = spec.phones_per_language
    K = spec.senones_per_phone
    D = spec.feature_dim
    num_shared = int(round(spec.shared_phone_fraction * P))
    shared_centers = pool_rng.normal(size=(num_shared, D))
    shared_offsets = pool_rng.normal(scale=SENONE_OFFSET_SCALE, size=(num_shared, K, D))

    languages = [f"lang{i}" for i in range(spec.num_languages)]
    F = spec.frames_per_senone
    blocks = _blocks([P * K * F] * spec.num_languages, D)
    frames: dict[str, FrameSet] = {}
    g_tables: dict[str, SenoneToPhoneTable] = {}
    phone_perms: dict[str, np.ndarray] = {}
    senone_perms: dict[str, np.ndarray] = {}

    for lang, stream, block in zip(languages, streams[1:], blocks):
        rng = np.random.default_rng(stream)
        private_centers = rng.normal(size=(P - num_shared, D))
        private_offsets = rng.normal(scale=SENONE_OFFSET_SCALE, size=(P - num_shared, K, D))
        centers = np.concatenate([shared_centers, private_centers], axis=0)
        offsets = np.concatenate([shared_offsets, private_offsets], axis=0)
        senone_centers = (centers[:, None, :] + offsets).reshape(P * K, D)

        # Public label ids carry no cross-language meaning: permute both
        # phone and senone ids independently per language.
        phone_perm = rng.permutation(P)
        senone_perm = rng.permutation(P * K)
        phone_perms[lang] = phone_perm
        senone_perms[lang] = senone_perm

        g = np.empty(P * K, dtype=np.int64)
        for canon in range(P * K):
            g[senone_perm[canon]] = phone_perm[canon // K]
        g_tables[lang] = SenoneToPhoneTable(lang, g, num_phones=P)

        drawn = rng.normal(scale=spec.cluster_spread, size=(P * K, F, D))
        drawn += senone_centers[:, None, :]
        labels = np.repeat(senone_perm, F)
        order = rng.permutation(P * K * F)
        utterance_ids = np.arange(P * K * F, dtype=np.int64) // FRAMES_PER_UTTERANCE
        # Every index is in range; mode "clip" only skips take's output copy.
        drawn.reshape(P * K * F, D).take(order, axis=0, out=block, mode="clip")
        frames[lang] = FrameSet(lang, block, labels[order], utterance_ids)

    phone_truth: dict[tuple[str, str], dict[int, int]] = {}
    senone_truth: dict[tuple[str, str], dict[int, int]] = {}
    for a in languages:
        for b in languages:
            if a == b:
                continue
            phone_truth[(a, b)] = {
                int(phone_perms[a][p]): int(phone_perms[b][p]) for p in range(num_shared)
            }
            senone_truth[(a, b)] = {
                int(senone_perms[a][c]): int(senone_perms[b][c])
                for c in range(num_shared * K)
            }

    return MultiCorpus(
        languages=languages,
        feature_dim=D,
        g_tables=g_tables,
        frames=frames,
        phone_truth=phone_truth,
        senone_truth=senone_truth,
    )


def split_corpus(
    corpus: MultiCorpus, fractions: dict[str, float], seed: int
) -> MultiCorpus:
    """Assign every utterance of every language to train/dev/test.

    The partition is drawn at utterance level (never frame level) with a
    per-language substream of ``seed``; split sizes follow the largest
    remainder rule, so they are exact whenever ``fraction * n_utterances``
    is integral.
    """
    if set(fractions) != set(SPLIT_NAMES):
        raise FractionError(f"fractions must have keys {SPLIT_NAMES}, got {sorted(fractions)}")
    values = [fractions[name] for name in SPLIT_NAMES]
    if any(v < 0 for v in values):
        raise FractionError(f"fractions must be non-negative, got {values}")
    if abs(sum(values) - 1.0) > 1e-9:
        raise FractionError(f"fractions must sum to 1, got {sum(values)!r}")

    root = np.random.SeedSequence(seed)
    streams = root.spawn(len(corpus.languages))
    splits: dict[str, dict[str, list[int]]] = {}
    for lang, stream in zip(corpus.languages, streams):
        utterances = np.unique(corpus.frames[lang].utterance_ids)
        order = np.random.default_rng(stream).permutation(utterances)
        n = len(utterances)
        exact = [v * n for v in values]
        sizes = [int(np.floor(e)) for e in exact]
        remainders = [e - s for e, s in zip(exact, sizes)]
        for _ in range(n - sum(sizes)):
            i = int(np.argmax(remainders))
            sizes[i] += 1
            remainders[i] = -1.0
        bounds = np.cumsum([0, *sizes])
        splits[lang] = {n: order[a:b].tolist() for n, a, b in zip(SPLIT_NAMES, bounds, bounds[1:])}
    return dataclasses.replace(corpus, splits=splits)


def pool_and_relabel(
    corpus: MultiCorpus, split: str, target: str, maps: Sequence[LabelMap], mapper: Network
) -> FrameSet:
    """``split``'s frames of each map's source language, relabeled into
    ``target``'s senones, followed by ``target``'s own frames of ``split``.

    The languages are read by :meth:`MultiCorpus.gather`, and the pooled set
    is one view of the corpus's array: its labels and utterance ids are its
    own, and its index is the sources' rows followed by the target's.
    Sources keep map order and the target comes last.  A senone map
    relabels its source through :func:`apply_map`.  A phone map (learned or
    manual) cannot give senone labels on its own, so its source is
    realigned through ``mapper`` by :func:`realign_with_phone_map`.  Every
    map must write into ``target``'s inventory.
    """
    for label_map in maps:
        if label_map.target_inventory.task_id != target:
            raise InventoryError(
                f"map targets {label_map.target_inventory.task_id!r} but pooled data "
                f"belongs to {target!r}"
            )
    pieces = corpus.gather([m.source_inventory.task_id for m in maps] + [target], split)
    for i, label_map in enumerate(maps):
        if label_map.source_inventory.kind == "phone":
            g_tables = corpus.g_tables[pieces[i].language], corpus.g_tables[target]
            pieces[i] = realign_with_phone_map(mapper, pieces[i], label_map, *g_tables)
        else:
            pieces[i] = apply_map(pieces[i], label_map)
    return FrameSet.view(
        target, corpus.features, joined([fs.rows for fs in pieces]),
        np.concatenate([fs.labels for fs in pieces]),
        np.concatenate([fs.utterance_ids for fs in pieces]),
    )


def save_ground_truth_maps(corpus: MultiCorpus, directory: str | Path) -> list[Path]:
    """Write the generator's answer key in the map-file text format.

    Files are partial maps when phones are only partly shared; with a
    fully shared phone pool they load as complete manual maps.
    """
    directory = Path(directory)
    written = []
    for kind, truth in (("phone", corpus.phone_truth), ("senone", corpus.senone_truth)):
        for (a, b), pairs in sorted(truth.items()):
            path = directory / f"truth_{kind}_{a}_to_{b}.txt"
            comment = f"ground-truth {kind} correspondence {a} -> {b}"
            write_map_lines(path, sorted(pairs.items()), comment)
            written.append(path)
    return written


def save_corpus(corpus: MultiCorpus, path: str | Path) -> None:
    """Write a corpus file: binary for an ``.npz`` suffix, text otherwise.  Both hold
    one metadata record (binary: a JSON member; text: header lines) and per-language arrays."""
    path = Path(path)
    meta = {
        "format": _CORPUS_FORMAT,
        "version": _CORPUS_VERSION,
        "languages": corpus.languages,
        "feature_dim": corpus.feature_dim,
        "num_phones": {lang: corpus.g_tables[lang].num_phones for lang in corpus.languages},
        "splits": corpus.splits,
        "provenance": corpus.provenance,
    }
    for kind, truth in (("phone", corpus.phone_truth), ("senone", corpus.senone_truth)):
        meta[f"{kind}_truth"] = [
            [a, b, int(s), int(t)] for (a, b), pairs in sorted(truth.items())
            for s, t in sorted(pairs.items())
        ]
    arrays = {}
    for lang in corpus.languages:
        fs = corpus.frames[lang]
        columns = (fs.features, fs.labels, fs.utterance_ids, corpus.g_tables[lang].table)
        arrays.update((f"{name}_{lang}", a) for name, a in zip(_ARRAYS, columns))
    if path.suffix == ".npz":
        write_npz(path, {"meta": np.array(json.dumps(meta, sort_keys=True)), **arrays})
    else:
        _write_text(path, meta, arrays)


def load_corpus(path: str | Path) -> MultiCorpus:
    """Read a corpus file: binary for an ``.npz`` suffix, text otherwise.  A file that
    is missing or does not hold a valid corpus raises :class:`ArtifactError` naming it."""
    path = Path(path)
    try:
        if path.suffix == ".npz":
            with reading_npz(path) as data:
                names = [name for name in data.files if not name.startswith("features_")]
                arrays = {name: data[name] for name in names}
                meta = decoded(str(arrays["meta"][()]), f"{path} metadata", ArtifactError)
                meta = checked(meta, _META_KINDS, f"{path} metadata", ArtifactError,
                               header=(_CORPUS_FORMAT, _CORPUS_VERSION))
                langs = meta["languages"]
                sizes = [len(arrays[f"labels_{lang}"]) for lang in langs]
                for lang, block in zip(langs, _blocks(sizes, meta["feature_dim"])):
                    arrays[f"features_{lang}"] = block
                    read_into(data, f"features_{lang}", block)
        else:
            meta, arrays = _read_text(path)
        langs, phones = meta["languages"], meta["num_phones"]
        truth: dict[str, dict[tuple[str, str], dict[int, int]]] = {"phone": {}, "senone": {}}
        for kind, pairs in truth.items():
            for a, b, s, t in meta[f"{kind}_truth"]:
                pairs.setdefault((a, b), {})[s] = t
        return MultiCorpus(
            languages=langs,
            feature_dim=meta["feature_dim"],
            g_tables={
                lang: SenoneToPhoneTable(lang, arrays[f"gtable_{lang}"], phones[lang])
                for lang in langs
            },
            frames={
                lang: FrameSet(lang, *(arrays[f"{name}_{lang}"] for name in _ARRAYS[:3]))
                for lang in langs
            },
            splits=meta["splits"],
            phone_truth=truth["phone"],
            senone_truth=truth["senone"],
            provenance=meta.get("provenance", {}),
        )
    except ArtifactError:
        raise
    except KeyError as exc:
        raise ArtifactError(f"cannot read {path}: no entry {exc}") from exc
    except (OSError, PolymapError, AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from exc


def _write_text(path: Path, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    langs, phones = meta["languages"], meta["num_phones"]
    tables = {lang: arrays[f"gtable_{lang}"].tolist() for lang in langs}
    lines = [f"{_CORPUS_FORMAT} {_CORPUS_VERSION}", f"feature_dim {meta['feature_dim']}"]
    for lang in langs:
        lines.append(f"language {lang} senones {len(tables[lang])} phones {phones[lang]}")
    lines += [f"gtable {lang} {' '.join(map(str, tables[lang]))}" for lang in langs]
    for lang, by_name in meta["splits"].items():
        lines += [f"split {lang} {n} {' '.join(map(str, u))}" for n, u in by_name.items() if u]
    for kind in ("phone", "senone"):
        lines += [f"truth {kind} {a} {b} {s} {t}" for a, b, s, t in meta[f"{kind}_truth"]]
    with open_artifact(path) as f:
        f.writelines(line + "\n" for line in lines)
        for lang in langs:
            names = ("utterances", "labels", "features")
            rows = zip(*(arrays[f"{name}_{lang}"].tolist() for name in names))
            f.writelines(f"frame {lang} {u} {y} {' '.join(map(repr, x))}\n" for u, y, x in rows)


def _read_text(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Decode a text corpus into the binary file's metadata record and arrays.

    One pass over the lines checks everything that depends on order (the
    header, declarations, line numbers) and hands the ``frame`` lines to
    :class:`_FrameChunks` to convert.  The text is never held whole.  Lines
    ``feature_dim``, ``language <name>`` and ``gtable <name>`` may appear once
    each.  A malformed line raises ``ValueError`` naming its number, the
    first such line's if there are several."""
    meta: dict = dict(languages=[], num_phones={}, splits={}, phone_truth=[], senone_truth=[])
    senones: dict[str, int] = {}
    gtables: dict[str, array] = {}
    seen: set[str] = set()  # the once-only lines read so far
    with open(path) as lines, _FrameChunks() as frames:
        if next(lines, "").split() != [_CORPUS_FORMAT, str(_CORPUS_VERSION)]:
            raise ValueError(f"not a {_CORPUS_FORMAT} {_CORPUS_VERSION} text file")
        for number, line in enumerate(lines, 2):
            head = line.split(None, 2)
            if (len(head) > 1 and head[0] == "frame" and head[1] in gtables
                    and frames.dim is not None):
                frames.add(head[1], number, head[2] if len(head) == 3 else "")
                continue
            parts = line.split()
            if not parts:
                continue
            try:
                key, lang = parts[0], parts[1]
                if key in ("frame", "gtable") and lang not in gtables:
                    raise ValueError(f"{key} of undeclared language {lang!r}")
                if key in ("feature_dim", "language", "gtable"):
                    once = key if key == "feature_dim" else f"{key} {lang}"
                    if once in seen:
                        raise ValueError(f"a second {once!r} line")
                    seen.add(once)
                if key == "frame":  # of a declared language, before the feature_dim line
                    raise ValueError(f"{len(parts) - 4} frame values, feature_dim None")
                if key == "feature_dim":
                    if int(lang) < 1 or len(parts) > 2:
                        raise ValueError("feature_dim takes one integer >= 1")
                    frames.dim = meta["feature_dim"] = int(lang)
                elif key == "language":
                    if len(parts) != 6 or parts[2:5:2] != ["senones", "phones"]:
                        raise ValueError("the form is 'language <name> senones <n> phones <m>'")
                    meta["languages"].append(lang)
                    senones[lang], meta["num_phones"][lang] = int(parts[3]), int(parts[5])
                    gtables[lang] = array("q")
                elif key == "gtable":
                    gtables[lang] = array("q", map(int, parts[2:]))
                elif key == "split":
                    by_name = meta["splits"].setdefault(lang, {})
                    by_name.setdefault(parts[2], []).extend(map(int, parts[3:]))
                elif key == "truth":
                    kind, a, b, s, t = parts[1:]
                    meta[f"{kind}_truth"].append([a, b, int(s), int(t)])
                else:
                    raise ValueError(f"unknown key {key!r}")
            except (IndexError, KeyError, OverflowError, ValueError) as exc:
                frames.drain()  # an earlier frame line's error comes first
                raise ValueError(f"line {number} ({parts[0]}): {exc}") from exc
        frames.drain()
    if frames.dim is None:
        raise ValueError("no feature_dim line")
    arrays = {}
    blocks = _blocks([frames.count(lang) for lang in gtables], frames.dim)
    for (lang, gtable), block in zip(gtables.items(), blocks):  # filled one by one
        if len(gtable) != senones[lang]:
            raise ValueError(f"{lang}: {senones[lang]} senones, gtable {len(gtable)}")
        utterances, labels = frames.columns(lang, block)
        arrays.update({
            f"features_{lang}": block, f"labels_{lang}": labels,
            f"utterances_{lang}": utterances, f"gtable_{lang}": np.array(gtable),
        })
    return meta, arrays


def _blocks(sizes: list[int], width: int) -> list[np.ndarray]:
    """Consecutive row blocks of ``sizes`` rows each of one new array of
    ``width`` columns, for a corpus's languages' frames to be written into."""
    return np.split(np.empty((sum(sizes), width)), np.cumsum(sizes[:-1], dtype=np.intp))


def _parse_chunk(numbers: list[int], rows: list[str], dim: int) -> tuple[np.ndarray, ...]:
    """Utterance ids, labels and flat features of the ``frame`` lines numbered
    ``numbers`` whose values (the text after ``frame <language>``) are ``rows``.

    ``np.loadtxt`` reads the chunk in one call, one field per column, so a
    line of the wrong width fails.  It rejects some values ``float`` takes
    (``1_0``), never the reverse, and rounds the same way; numpy 1.x reads
    ``1.5`` into an integer field as 1, with only a ``DeprecationWarning``.
    A chunk it rejects or warns on is re-read line by line with ``int`` and
    ``float``, which raises ``ValueError`` naming the first bad line."""
    # n values take at least 2n - 1 characters: no dtype wider than the line
    if 0 < dim <= len(rows[0]) // 2:
        fields = [("utterance", np.int64), ("label", np.int64)]
        dtype = np.dtype(fields + [(f"x{i}", np.float64) for i in range(dim)])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=1)
        except (ValueError, OverflowError, Warning):
            table = None
        if table is not None and len(table) == len(rows):
            features = table.view(np.float64).reshape(len(rows), dim + 2)[:, 2:]
            return table["utterance"], table["label"], features.ravel()
    utterances, labels, features = array("q"), array("q"), array("d")
    for number, values in zip(numbers, rows):
        parts = values.split()
        try:
            if len(parts) - 2 != dim:
                raise ValueError(f"{len(parts) - 2} frame values, feature_dim {dim}")
            utterances.append(int(parts[0]))
            labels.append(int(parts[1]))
            features.extend(map(float, parts[2:]))
        except (IndexError, OverflowError, ValueError) as exc:
            raise ValueError(f"line {number} (frame): {exc}") from exc
    return np.array(utterances), np.array(labels), np.array(features)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


class _FrameChunks:
    """A text corpus's ``frame`` lines, parsed in chunks cut in file order.

    A chunk holds up to ``_CHUNK_LINES`` consecutive frame lines, of any
    languages, each tagged with its language.  Chunks are parsed in the
    order they are cut, so the first error raised is the file's first bad
    frame line.  Once a file reaches its second full chunk, and the machine
    has a second usable CPU, chunks go to a process pool of the platform's
    default start method, with at most ``_JOBS_PER_WORKER`` per worker in
    flight; until then, and for a smaller file, they are parsed in the
    calling process.  So is every chunk of a pool that breaks (a worker
    killed, or one that cannot start).
    """

    def __init__(self) -> None:
        self.dim: int | None = None  # values per frame line, set before the first is added
        # the chunk being filled: line numbers, values and languages
        self.numbers: list[int] = []
        self.rows: list[str] = []
        self.tags: list[str] = []
        # cut chunks: tags, (numbers, rows) and the pool's future, if any
        self.chunks: deque[tuple[list[str], tuple, Future | None]] = deque()
        self.parsed: dict[str, list[tuple[np.ndarray, ...]]] = {}  # language -> pieces
        self.workers = min(_usable_cpus(), _MAX_WORKERS)
        self.pool: ProcessPoolExecutor | None = None

    def __enter__(self) -> _FrameChunks:
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pool is not None:
            self.pool.shutdown(cancel_futures=True)

    def add(self, lang: str, number: int, values: str) -> None:
        self.numbers.append(number)
        self.rows.append(values)
        self.tags.append(lang)
        if len(self.rows) < _CHUNK_LINES:
            return
        if self.pool is None and self.workers > 1 and self.chunks:
            # imported here: it costs every process that imports polymap 25 ms
            from concurrent.futures import ProcessPoolExecutor

            self.pool = ProcessPoolExecutor(self.workers)
            self.chunks = deque((tags, job, self._submit(job)) for tags, job, _ in self.chunks)
        self.drain(keep=_JOBS_PER_WORKER * self.workers)

    def drain(self, keep: int = 0) -> None:
        """Cut the lines added since the last chunk into a chunk, and parse all
        chunks but the newest ``keep``; raise the first bad line's error."""
        if self.rows:
            job = (self.numbers, self.rows)
            self.chunks.append((self.tags, job, self._submit(job)))
            self.numbers, self.rows, self.tags = [], [], []
        while len(self.chunks) > keep:
            self._parse_next()

    def count(self, lang: str) -> int:
        """A drained language's number of frames."""
        return sum(len(piece[1]) for piece in self.parsed.get(lang, ()))

    def columns(self, lang: str, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A drained language's utterance ids and labels; its features are
        written into ``features``, an array of :meth:`count` rows."""
        pieces = self.parsed.pop(lang, [])
        np.concatenate([np.empty(0), *(piece[2] for piece in pieces)], out=features.reshape(-1))
        return tuple(
            np.concatenate([np.empty(0, np.int64), *(piece[i] for piece in pieces)])
            for i in (0, 1)
        )

    def _submit(self, job: tuple) -> Future | None:
        if self.pool is None:
            return None
        from concurrent.futures import BrokenExecutor

        try:
            return self.pool.submit(_parse_chunk, *job, self.dim)
        except BrokenExecutor:  # left to :meth:`_parse_next` in this process
            return None

    def _parse_next(self) -> None:
        """Parse the oldest cut chunk and file its lines under their languages."""
        tags, job, future = self.chunks.popleft()
        if future is None:
            utterances, labels, features = _parse_chunk(*job, self.dim)
        else:
            from concurrent.futures import BrokenExecutor  # imported with the pool

            try:
                utterances, labels, features = future.result()
            except BrokenExecutor:  # a worker died: the chunk is parsed here
                utterances, labels, features = _parse_chunk(*job, self.dim)
        dim, start = self.dim, 0
        for lang, run in groupby(tags):  # views: a one-language chunk is not copied
            stop = start + sum(1 for _ in run)
            piece = utterances[start:stop], labels[start:stop], features[start * dim : stop * dim]
            self.parsed.setdefault(lang, []).append(piece)
            start = stop

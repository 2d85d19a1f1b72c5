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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._npz import read_npz, write_npz
from .data import FrameSet, LabelInventory, SenoneToPhoneTable
from .errors import (
    FractionError,
    InventoryError,
    PolymapError,
    ShapeError,
    SynthSpecError,
)
from .mapping import LabelMap, apply_map

SPLIT_NAMES = ("train", "dev", "test")

# Senone sub-cluster centers sit this far (per coordinate, relative to the
# unit-scale phone centers) from their phone center.
SENONE_OFFSET_SCALE = 0.25
FRAMES_PER_UTTERANCE = 50

_CORPUS_FORMAT = "polymap-corpus"
_CORPUS_VERSION = 1


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

    @property
    def senones_per_language(self) -> int:
        return self.phones_per_language * self.senones_per_phone


@dataclass
class MultiCorpus:
    """Per-language frame sets with inventories, collapse tables and splits.

    ``splits`` maps language -> utterance id -> split name and is empty
    until :func:`split_corpus` runs.  ``phone_truth`` / ``senone_truth``
    hold the generator's cross-language answer key for shared phones
    (empty for corpora loaded without one).  ``provenance`` records what
    the corpus was made from (``synth`` stamps it); binary files
    keep it, text files do not.
    """

    languages: list[str]
    feature_dim: int
    senone_inventories: dict[str, LabelInventory]
    phone_inventories: dict[str, LabelInventory]
    g_tables: dict[str, SenoneToPhoneTable]
    frames: dict[str, FrameSet]
    splits: dict[str, dict[int, str]] = field(default_factory=dict)
    phone_truth: dict[tuple[str, str], dict[int, int]] = field(default_factory=dict)
    senone_truth: dict[tuple[str, str], dict[int, int]] = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def subset(self, language: str, split: str) -> FrameSet:
        if language not in self.frames:
            raise InventoryError(f"corpus has no language {language!r}")
        if split not in SPLIT_NAMES:
            raise FractionError(f"unknown split {split!r}")
        if language not in self.splits:
            raise PolymapError(f"corpus has no split tags for {language!r}; run split_corpus")
        tags = self.splits[language]
        utterances = [u for u, s in tags.items() if s == split]
        return self.frames[language].for_utterances(utterances)


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
    frames: dict[str, FrameSet] = {}
    g_tables: dict[str, SenoneToPhoneTable] = {}
    phone_perms: dict[str, np.ndarray] = {}
    senone_perms: dict[str, np.ndarray] = {}

    for lang, stream in zip(languages, streams[1:]):
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

        F = spec.frames_per_senone
        noise = rng.normal(scale=spec.cluster_spread, size=(P * K, F, D))
        features = (senone_centers[:, None, :] + noise).reshape(P * K * F, D)
        labels = np.repeat(senone_perm, F)
        order = rng.permutation(P * K * F)
        utterance_ids = np.arange(P * K * F, dtype=np.int64) // FRAMES_PER_UTTERANCE
        frames[lang] = FrameSet(lang, features[order], labels[order], utterance_ids)

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
        senone_inventories={
            lang: LabelInventory(lang, P * K, "senone") for lang in languages
        },
        phone_inventories={lang: LabelInventory(lang, P, "phone") for lang in languages},
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
    splits: dict[str, dict[int, str]] = {}
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
        tags: dict[int, str] = {}
        start = 0
        for name, size in zip(SPLIT_NAMES, sizes):
            for utt in order[start : start + size]:
                tags[int(utt)] = name
            start += size
        splits[lang] = tags
    return dataclasses.replace(corpus, splits=splits)


def pool_and_relabel(
    sources: list[tuple[FrameSet, LabelMap]], target_frames: FrameSet
) -> FrameSet:
    """Concatenate relabeled source frames with the target frames.

    Every map must write into the target frames' label inventory; the
    output keeps source order followed by the target frames, with all
    feature payloads bit-identical to the inputs.
    """
    if not sources:
        return target_frames
    pieces = []
    for frames, label_map in sources:
        if label_map.target_inventory.task_id != target_frames.language:
            raise InventoryError(
                f"map targets {label_map.target_inventory.task_id!r} but pooled data "
                f"belongs to {target_frames.language!r}"
            )
        if frames.feature_dim != target_frames.feature_dim:
            raise ShapeError(
                f"feature dim {frames.feature_dim} != target {target_frames.feature_dim}"
            )
        pieces.append(apply_map(frames, label_map))
    pieces.append(target_frames)
    return FrameSet.concat(pieces, language=target_frames.language)


def save_ground_truth_maps(corpus: MultiCorpus, directory: str | Path) -> list[Path]:
    """Write the generator's answer key in the map-file text format.

    Files are partial maps when phones are only partly shared; with a
    fully shared phone pool they load as complete manual maps.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for kind, truth in (("phone", corpus.phone_truth), ("senone", corpus.senone_truth)):
        for (a, b), pairs in sorted(truth.items()):
            path = directory / f"truth_{kind}_{a}_to_{b}.txt"
            lines = [f"# ground-truth {kind} correspondence {a} -> {b}"]
            lines.extend(f"{s} {t}" for s, t in sorted(pairs.items()))
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
    return written


def _corpus_meta(corpus: MultiCorpus) -> dict:
    return {
        "format": _CORPUS_FORMAT,
        "version": _CORPUS_VERSION,
        "languages": corpus.languages,
        "feature_dim": corpus.feature_dim,
        "num_phones": {lang: corpus.phone_inventories[lang].size for lang in corpus.languages},
        "splits": {
            lang: {
                name: sorted(u for u, s in tags.items() if s == name) for name in SPLIT_NAMES
            }
            for lang, tags in corpus.splits.items()
        },
        "phone_truth": [
            [a, b, int(s), int(t)]
            for (a, b), pairs in sorted(corpus.phone_truth.items())
            for s, t in sorted(pairs.items())
        ],
        "senone_truth": [
            [a, b, int(s), int(t)]
            for (a, b), pairs in sorted(corpus.senone_truth.items())
            for s, t in sorted(pairs.items())
        ],
        "provenance": corpus.provenance,
    }


def _corpus_from_parts(
    meta: dict,
    frames: dict[str, FrameSet],
    g_tables: dict[str, SenoneToPhoneTable],
    senone_sizes: dict[str, int],
) -> MultiCorpus:
    languages = list(meta["languages"])
    phone_truth: dict[tuple[str, str], dict[int, int]] = {}
    for a, b, s, t in meta.get("phone_truth", []):
        phone_truth.setdefault((a, b), {})[int(s)] = int(t)
    senone_truth: dict[tuple[str, str], dict[int, int]] = {}
    for a, b, s, t in meta.get("senone_truth", []):
        senone_truth.setdefault((a, b), {})[int(s)] = int(t)
    splits = {
        lang: {int(u): name for name, utts in by_split.items() for u in utts}
        for lang, by_split in meta.get("splits", {}).items()
    }
    return MultiCorpus(
        languages=languages,
        feature_dim=int(meta["feature_dim"]),
        senone_inventories={
            lang: LabelInventory(lang, senone_sizes[lang], "senone") for lang in languages
        },
        phone_inventories={
            lang: LabelInventory(lang, int(meta["num_phones"][lang]), "phone")
            for lang in languages
        },
        g_tables=g_tables,
        frames=frames,
        splits=splits,
        phone_truth=phone_truth,
        senone_truth=senone_truth,
        provenance=meta.get("provenance", {}),
    )


def save_corpus(corpus: MultiCorpus, path: str | Path) -> None:
    """Write a corpus file: binary for an ``.npz`` suffix, text otherwise."""
    path = Path(path)
    if path.suffix == ".npz":
        _save_corpus_binary(corpus, path)
    else:
        _save_corpus_text(corpus, path)


def load_corpus(path: str | Path) -> MultiCorpus:
    """Read a corpus file: binary for an ``.npz`` suffix, text otherwise."""
    path = Path(path)
    if path.suffix == ".npz":
        return _load_corpus_binary(path)
    return _load_corpus_text(path)


def _save_corpus_binary(corpus: MultiCorpus, path: Path) -> None:
    arrays: dict[str, np.ndarray] = {
        "meta": np.array(json.dumps(_corpus_meta(corpus), sort_keys=True))
    }
    for lang in corpus.languages:
        fs = corpus.frames[lang]
        arrays[f"features_{lang}"] = fs.features
        arrays[f"labels_{lang}"] = fs.labels
        arrays[f"utterances_{lang}"] = fs.utterance_ids
        arrays[f"gtable_{lang}"] = corpus.g_tables[lang].table
    write_npz(path, arrays)


def _load_corpus_binary(path: Path) -> MultiCorpus:
    arrays = read_npz(path)
    meta = json.loads(str(arrays["meta"][()]))
    if meta.get("format") != _CORPUS_FORMAT:
        raise ShapeError(f"{path} is not a {_CORPUS_FORMAT} file")
    frames = {}
    g_tables = {}
    senone_sizes = {}
    for lang in meta["languages"]:
        frames[lang] = FrameSet(
            lang,
            arrays[f"features_{lang}"],
            arrays[f"labels_{lang}"],
            arrays[f"utterances_{lang}"],
        )
        table = arrays[f"gtable_{lang}"]
        g_tables[lang] = SenoneToPhoneTable(lang, table, num_phones=int(meta["num_phones"][lang]))
        senone_sizes[lang] = int(table.size)
    return _corpus_from_parts(meta, frames, g_tables, senone_sizes)


def _save_corpus_text(corpus: MultiCorpus, path: Path) -> None:
    lines = [f"{_CORPUS_FORMAT} {_CORPUS_VERSION}", f"feature_dim {corpus.feature_dim}"]
    for lang in corpus.languages:
        inv = corpus.senone_inventories[lang]
        lines.append(
            f"language {lang} senones {inv.size} phones {corpus.phone_inventories[lang].size}"
        )
    for lang in corpus.languages:
        table = " ".join(str(int(p)) for p in corpus.g_tables[lang].table)
        lines.append(f"gtable {lang} {table}")
    for lang, tags in corpus.splits.items():
        for name in SPLIT_NAMES:
            utts = sorted(u for u, s in tags.items() if s == name)
            if utts:
                lines.append(f"split {lang} {name} " + " ".join(str(u) for u in utts))
    for kind, truth in (("phone", corpus.phone_truth), ("senone", corpus.senone_truth)):
        for (a, b), pairs in sorted(truth.items()):
            for s, t in sorted(pairs.items()):
                lines.append(f"truth {kind} {a} {b} {s} {t}")
    for lang in corpus.languages:
        fs = corpus.frames[lang]
        for i in range(len(fs)):
            values = " ".join(repr(float(v)) for v in fs.features[i])
            lines.append(
                f"frame {lang} {int(fs.utterance_ids[i])} {int(fs.labels[i])} {values}"
            )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _load_corpus_text(path: Path) -> MultiCorpus:
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith(_CORPUS_FORMAT):
        raise ShapeError(f"{path} is not a {_CORPUS_FORMAT} text file")
    meta: dict = {
        "format": _CORPUS_FORMAT,
        "languages": [],
        "num_phones": {},
        "splits": {},
        "phone_truth": [],
        "senone_truth": [],
    }
    senone_sizes: dict[str, int] = {}
    g_tables: dict[str, SenoneToPhoneTable] = {}
    rows: dict[str, list[tuple[int, int, list[float]]]] = {}
    for raw in lines[1:]:
        if not raw.strip():
            continue
        parts = raw.split()
        key = parts[0]
        if key == "feature_dim":
            meta["feature_dim"] = int(parts[1])
        elif key == "language":
            lang = parts[1]
            meta["languages"].append(lang)
            senone_sizes[lang] = int(parts[3])
            meta["num_phones"][lang] = int(parts[5])
            rows[lang] = []
        elif key == "gtable":
            lang = parts[1]
            table = np.asarray([int(v) for v in parts[2:]], dtype=np.int64)
            g_tables[lang] = SenoneToPhoneTable(lang, table, num_phones=meta["num_phones"][lang])
        elif key == "split":
            lang, name = parts[1], parts[2]
            meta["splits"].setdefault(lang, {}).setdefault(name, []).extend(
                int(u) for u in parts[3:]
            )
        elif key == "truth":
            kind, a, b, s, t = parts[1], parts[2], parts[3], int(parts[4]), int(parts[5])
            meta[f"{kind}_truth"].append([a, b, s, t])
        elif key == "frame":
            lang, utt, label = parts[1], int(parts[2]), int(parts[3])
            rows[lang].append((utt, label, [float(v) for v in parts[4:]]))
        else:
            raise ShapeError(f"unknown corpus line key {key!r} in {path}")
    frames = {}
    for lang in meta["languages"]:
        if rows[lang]:
            features = np.asarray([r[2] for r in rows[lang]], dtype=np.float64)
        else:
            features = np.zeros((0, meta["feature_dim"]))
        frames[lang] = FrameSet(
            lang,
            features,
            np.asarray([r[1] for r in rows[lang]], dtype=np.int64),
            np.asarray([r[0] for r in rows[lang]], dtype=np.int64),
        )
    return _corpus_from_parts(meta, frames, g_tables, senone_sizes)

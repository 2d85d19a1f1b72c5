import concurrent.futures
import dataclasses
import functools
import itertools
import json
import re
import tempfile
import tracemalloc
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import polymap as pm
from polymap import corpus as corpus_module
from polymap._npz import read_npz, write_npz
from polymap.corpus import FRAMES_PER_UTTERANCE
from polymap.errors import (
    ArtifactError,
    FractionError,
    InventoryError,
    LabelRangeError,
    PolymapError,
    ShapeError,
    SynthSpecError,
)
from target_oracles import (
    copied,
    reference_pool_and_relabel,
    reference_read_text,
    reference_write_npz,
    traced_peak,
)

SMALL = dict(
    num_languages=2,
    feature_dim=5,
    phones_per_language=4,
    senones_per_phone=2,
    shared_phone_fraction=0.5,
    frames_per_senone=25,
)


class TestSynthSpec:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_languages": 0},
            {"feature_dim": 0},
            {"phones_per_language": -1},
            {"senones_per_phone": 0},
            {"frames_per_senone": 0},
            {"shared_phone_fraction": 1.2},
            {"shared_phone_fraction": -0.1},
            {"cluster_spread": 0.0},
            {"seed": -1},
        ],
    )
    def test_invalid_specs(self, overrides):
        with pytest.raises(SynthSpecError):
            pm.SynthSpec(**{**SMALL, **overrides})

    def test_unseeded_spec_refuses_to_generate(self):
        spec = pm.SynthSpec(**SMALL, seed=None)
        with pytest.raises(SynthSpecError):
            pm.generate_synthetic(spec)


class TestGenerator:
    def test_deterministic(self):
        a = pm.generate_synthetic(pm.SynthSpec(**SMALL, seed=5))
        b = pm.generate_synthetic(pm.SynthSpec(**SMALL, seed=5))
        for lang in a.languages:
            assert a.frames[lang].features.tobytes() == b.frames[lang].features.tobytes()
            assert (a.frames[lang].labels == b.frames[lang].labels).all()
            assert (a.g_tables[lang].table == b.g_tables[lang].table).all()
        assert a.phone_truth == b.phone_truth
        assert a.senone_truth == b.senone_truth

    def test_different_seeds_differ(self):
        a = pm.generate_synthetic(pm.SynthSpec(**SMALL, seed=5))
        b = pm.generate_synthetic(pm.SynthSpec(**SMALL, seed=6))
        assert a.frames["lang0"].features.tobytes() != b.frames["lang0"].features.tobytes()

    def test_shapes_and_inventories(self):
        spec = pm.SynthSpec(**SMALL, seed=1)
        corpus = pm.generate_synthetic(spec)
        total = spec.senones_per_language * spec.frames_per_senone
        for lang in corpus.languages:
            fs = corpus.frames[lang]
            assert len(fs) == total
            assert fs.feature_dim == spec.feature_dim
            assert fs.labels.min() >= 0
            assert fs.labels.max() < spec.senones_per_language
            # every phone owns exactly senones_per_phone senones
            sizes = np.bincount(corpus.g_tables[lang].table, minlength=spec.phones_per_language)
            assert (sizes == spec.senones_per_phone).all()
            # balanced frames per senone
            per_senone = np.bincount(fs.labels, minlength=spec.senones_per_language)
            assert (per_senone == spec.frames_per_senone).all()

    def test_utterance_grouping(self):
        corpus = pm.generate_synthetic(pm.SynthSpec(**SMALL, seed=2))
        utts = corpus.frames["lang0"].utterance_ids
        counts = np.bincount(utts)
        assert counts[:-1].max() == counts[:-1].min() == FRAMES_PER_UTTERANCE

    def test_no_sharing_means_empty_truth(self):
        spec = pm.SynthSpec(**{**SMALL, "shared_phone_fraction": 0.0}, seed=3)
        corpus = pm.generate_synthetic(spec)
        assert all(not pairs for pairs in corpus.phone_truth.values())
        assert all(not pairs for pairs in corpus.senone_truth.values())

    def test_full_sharing_means_total_truth(self):
        spec = pm.SynthSpec(**{**SMALL, "shared_phone_fraction": 1.0}, seed=3)
        corpus = pm.generate_synthetic(spec)
        pairs = corpus.phone_truth[("lang0", "lang1")]
        assert sorted(pairs) == list(range(spec.phones_per_language))
        senones = corpus.senone_truth[("lang0", "lang1")]
        assert sorted(senones) == list(range(spec.senones_per_language))

    def test_truth_consistent_with_collapse_tables(self):
        # mapping a senone across languages and collapsing must equal
        # collapsing first and mapping the phone
        spec = pm.SynthSpec(**SMALL, seed=9)
        corpus = pm.generate_synthetic(spec)
        g0, g1 = corpus.g_tables["lang0"], corpus.g_tables["lang1"]
        senones = corpus.senone_truth[("lang0", "lang1")]
        phones = corpus.phone_truth[("lang0", "lang1")]
        for s, t in senones.items():
            assert phones[g0.table[s]] == g1.table[t]

    def test_truth_is_inverse_symmetric(self):
        corpus = pm.generate_synthetic(pm.SynthSpec(**SMALL, seed=4))
        ab = corpus.phone_truth[("lang0", "lang1")]
        ba = corpus.phone_truth[("lang1", "lang0")]
        assert {v: k for k, v in ab.items()} == ba


@pytest.mark.parametrize("kind,pair,labels,error", [
    ("phone_truth", ("a", "b"), {0: 2}, LabelRangeError),  # each language has 2 phones
    ("phone_truth", ("a", "b"), {-1: 0}, LabelRangeError),
    ("senone_truth", ("b", "a"), {4: 0}, LabelRangeError),
    ("senone_truth", ("b", "a"), {0: -1}, LabelRangeError),
    ("senone_truth", ("a", "c"), {0: 0}, InventoryError),
    ("phone_truth", ("a", "a"), {0: 0}, InventoryError),
])
def test_corpus_refuses_an_answer_key_it_cannot_hold(kind, pair, labels, error):
    with pytest.raises(error, match="answer key"):
        dataclasses.replace(tiny_corpus(), **{kind: {pair: labels}})


def tiny_corpus(n_utts=100, langs=("a", "b"), frames_per_utt=2, n_labels=4):
    frames = {}
    for i, lang in enumerate(langs):
        n = n_utts * frames_per_utt
        rng = np.random.default_rng(i)
        frames[lang] = pm.FrameSet(
            lang,
            rng.normal(size=(n, 3)),
            rng.integers(0, n_labels, size=n),
            np.arange(n) // frames_per_utt,
        )
    return pm.MultiCorpus(
        languages=list(langs),
        feature_dim=3,
        g_tables={l: pm.SenoneToPhoneTable(l, np.arange(n_labels) // 2) for l in langs},
        frames=frames,
    )


class TestSplit:
    def test_all_train(self):
        corpus = pm.split_corpus(tiny_corpus(), {"train": 1.0, "dev": 0.0, "test": 0.0}, seed=0)
        assert len(corpus.subset("a", "train")) == 200
        assert len(corpus.subset("a", "dev")) == 0

    def test_deterministic(self):
        a = pm.split_corpus(tiny_corpus(), {"train": 0.8, "dev": 0.1, "test": 0.1}, seed=3)
        b = pm.split_corpus(tiny_corpus(), {"train": 0.8, "dev": 0.1, "test": 0.1}, seed=3)
        assert a.splits == b.splits

    def test_80_10_10_sizes(self):
        corpus = pm.split_corpus(tiny_corpus(n_utts=100), {"train": 0.8, "dev": 0.1, "test": 0.1}, 1)
        for lang in corpus.languages:
            by_split = {s: len(corpus.splits[lang][s]) for s in ("train", "dev", "test")}
            assert abs(by_split["train"] - 80) <= 1
            assert abs(by_split["dev"] - 10) <= 1
            assert abs(by_split["test"] - 10) <= 1

    @given(
        fractions=st.tuples(st.floats(0, 1), st.floats(0, 1)).map(
            lambda t: {
                "train": t[0] * t[1],
                "dev": t[0] * (1 - t[1]),
                "test": 1 - t[0] * t[1] - t[0] * (1 - t[1]),
            }
        ),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_disjoint_and_exhaustive(self, fractions, seed):
        if any(v < 0 for v in fractions.values()):
            return
        corpus = pm.split_corpus(tiny_corpus(n_utts=37), fractions, seed)
        for lang in corpus.languages:
            utts = set(np.unique(corpus.frames[lang].utterance_ids).tolist())
            assert set().union(*corpus.splits[lang].values()) == utts
            pieces = [corpus.subset(lang, s) for s in ("train", "dev", "test")]
            assert sum(len(p) for p in pieces) == len(corpus.frames[lang])

    def test_split_is_by_utterance(self):
        corpus = pm.split_corpus(
            tiny_corpus(n_utts=20, frames_per_utt=5), {"train": 0.5, "dev": 0.25, "test": 0.25}, 7
        )
        train_utts = set(corpus.subset("a", "train").utterance_ids.tolist())
        dev_utts = set(corpus.subset("a", "dev").utterance_ids.tolist())
        assert not train_utts & dev_utts

    @pytest.mark.parametrize(
        "fractions",
        [
            {"train": 0.5, "dev": 0.5, "test": 0.5},
            {"train": -0.2, "dev": 0.6, "test": 0.6},
            {"train": 0.9, "dev": 0.1},
            {"train": 0.8, "dev": 0.1, "test": 0.1, "extra": 0.0},
        ],
    )
    def test_bad_fractions(self, fractions):
        with pytest.raises(FractionError):
            pm.split_corpus(tiny_corpus(), fractions, seed=0)

    def test_subset_before_split_fails(self):
        with pytest.raises(PolymapError):
            tiny_corpus().subset("a", "train")


def pooling_corpus(senones, **sets):
    """A corpus of the frame sets ``sets``, keyed by language, with
    ``senones[language]`` senones of one phone each and every utterance in
    train."""
    return pm.MultiCorpus(
        languages=list(sets),
        feature_dim=next(iter(sets.values())).feature_dim,
        g_tables={lang: pm.SenoneToPhoneTable(lang, np.arange(senones[lang])) for lang in sets},
        frames=sets,
        splits={lang: {"train": np.unique(fs.utterance_ids).tolist()} for lang, fs in sets.items()},
    )


def untrained_mapper(corpus, target):
    heads = [(target, corpus.senone_inventories[target].size)]
    return pm.init_network([corpus.feature_dim, 8], heads, 0)


class TestPooling:
    def test_no_sources_returns_target_unchanged(self):
        corpus = pm.split_corpus(tiny_corpus(), {"train": 0.6, "dev": 0.2, "test": 0.2}, seed=0)
        pooled = pm.pool_and_relabel(corpus, "train", "a", [], untrained_mapper(corpus, "a"))
        target = corpus.subset("a", "train")
        assert pooled.language == "a"
        for column in ("features", "labels", "utterance_ids"):
            assert getattr(pooled, column).tobytes() == getattr(target, column).tobytes()

    def test_counts_and_ranges(self):
        rng = np.random.default_rng(0)
        sets = {"tgt": pm.FrameSet("tgt", rng.normal(size=(50, 3)), rng.integers(0, 5, 50), np.arange(50))}
        tgt_inv = pm.LabelInventory("tgt", 5)
        maps = []
        for lang in ("s1", "s2"):
            sets[lang] = pm.FrameSet(lang, rng.normal(size=(100, 3)), rng.integers(0, 4, 100), np.arange(100))
            table = rng.integers(0, 5, size=4)
            maps.append(pm.LabelMap(pm.LabelInventory(lang, 4), tgt_inv, table, "manual"))
        corpus = pooling_corpus({"tgt": 5, "s1": 4, "s2": 4}, **sets)
        pooled = pm.pool_and_relabel(corpus, "train", "tgt", maps, untrained_mapper(corpus, "tgt"))
        assert len(pooled) == 250
        assert pooled.language == "tgt"
        assert pooled.labels.max() < 5

    def test_identity_maps_equal_concatenation(self):
        rng = np.random.default_rng(1)
        inv = pm.LabelInventory("tgt", 4)
        mk = lambda lang: pm.FrameSet(lang, rng.normal(size=(30, 3)), rng.integers(0, 4, 30), np.arange(30))
        a, b, target = mk("a"), mk("b"), mk("tgt")
        corpus = pooling_corpus({"a": 4, "b": 4, "tgt": 4}, a=a, b=b, tgt=target)
        maps = [
            pm.LabelMap(pm.LabelInventory(lang, 4), inv, np.arange(4), "identity") for lang in "ab"
        ]
        pooled = pm.pool_and_relabel(corpus, "train", "tgt", maps, untrained_mapper(corpus, "tgt"))
        direct = [a, b, target]
        assert pooled.features.tobytes() == np.concatenate([fs.features for fs in direct]).tobytes()
        assert (pooled.labels == np.concatenate([fs.labels for fs in direct])).all()

    def test_features_byte_identical(self):
        rng = np.random.default_rng(2)
        inv = pm.LabelInventory("tgt", 3)
        src = pm.FrameSet("src", rng.normal(size=(20, 3)), rng.integers(0, 3, 20), np.arange(20))
        target = pm.FrameSet("tgt", rng.normal(size=(10, 3)), rng.integers(0, 3, 10), np.arange(10))
        label_map = pm.LabelMap(pm.LabelInventory("src", 3), inv, [2, 0, 1], "manual")
        corpus = pooling_corpus({"src": 3, "tgt": 3}, src=src, tgt=target)
        mapper = untrained_mapper(corpus, "tgt")
        pooled = pm.pool_and_relabel(corpus, "train", "tgt", [label_map], mapper)
        assert pooled.features[:20].tobytes() == src.features.tobytes()
        assert pooled.features[20:].tobytes() == target.features.tobytes()

    def test_wrong_target_inventory(self):
        rng = np.random.default_rng(3)
        src = pm.FrameSet("src", rng.normal(size=(5, 3)), rng.integers(0, 3, 5), np.arange(5))
        target = pm.FrameSet("tgt", rng.normal(size=(5, 3)), rng.integers(0, 3, 5), np.arange(5))
        wrong = pm.LabelMap(pm.LabelInventory("src", 3), pm.LabelInventory("other", 3), [0, 1, 2], "manual")
        corpus = pooling_corpus({"src": 3, "tgt": 3}, src=src, tgt=target)
        with pytest.raises(InventoryError):
            pm.pool_and_relabel(corpus, "train", "tgt", [wrong], untrained_mapper(corpus, "tgt"))

    @pytest.mark.parametrize("sources", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["senone", "phone", "manual"])
    def test_equals_copy_relabel_concatenate(self, pooling_world, kind, sources):
        corpus, mapper, maps = pooling_world
        chosen = maps[kind][:sources]
        for split in ("train", "test"):
            pooled = pm.pool_and_relabel(corpus, split, "lang0", chosen, mapper)
            reference = reference_pool_and_relabel(corpus, split, "lang0", chosen, mapper)
            assert pooled.language == reference.language == "lang0"
            for column in ("features", "labels", "utterance_ids"):
                got, want = getattr(pooled, column), getattr(reference, column)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["senone", "phone"])
    def test_holds_the_pooled_set_once(self, kind):
        # Two sources of 8,640 training frames each and the target's: the
        # pooled set's labels and utterance ids are 0.4 MB and its row index
        # 0.2 MB; its features stay in the corpus, where a copy would take
        # 8.3 MB.  Only phone maps score frames, one block at a time.
        spec = pm.SynthSpec(
            num_languages=3, feature_dim=40, phones_per_language=12, senones_per_phone=3,
            shared_phone_fraction=1.0, frames_per_senone=300, seed=11,
        )
        corpus = pm.split_corpus(
            pm.generate_synthetic(spec), {"train": 0.8, "dev": 0.1, "test": 0.1}, seed=12
        )
        mapper = pm.init_network([40, 64, 64], [("lang0", 36)], seed=13)
        maps = [truth_map(corpus, kind, source, "lang0") for source in ("lang1", "lang2")]
        n = sum(len(corpus.subset(lang, "train")) for lang in corpus.languages)
        block = corpus.frames["lang0"].features[:1024]
        scoring = traced_peak(pm.forward_batch, mapper, block)[1] if kind == "phone" else 0
        bound = n * 2 * 8 + scoring + 1_000_000
        for pool, fits in ((pm.pool_and_relabel, True), (reference_pool_and_relabel, False)):
            pooled, peak = traced_peak(pool, corpus, "train", "lang0", maps, mapper)
            assert len(pooled) == n
            assert (peak <= bound) == fits, (pool, peak, bound)


def assert_blocks_of_one_array(corpus):
    """Each language's frames are the next rows of ``corpus.features``."""
    stops = np.cumsum([0] + [len(corpus.frames[lang]) for lang in corpus.languages])
    assert len(corpus.features) == stops[-1]
    for lang, start, stop in zip(corpus.languages, stops, stops[1:]):
        block = corpus.frames[lang].features
        assert block.__array_interface__ == corpus.features[start:stop].__array_interface__


class TestOneArray:
    @pytest.mark.parametrize("read", [None, ".npz", ".txt"], ids=["split", "npz", "text"])
    def test_every_set_reads_the_corpus_array(self, tmp_path, read):
        spec = pm.SynthSpec(**{**SMALL, "num_languages": 3, "shared_phone_fraction": 1.0}, seed=4)
        generated = pm.generate_synthetic(spec)
        assert_blocks_of_one_array(generated)
        corpus = pm.split_corpus(generated, {"train": 0.6, "dev": 0.2, "test": 0.2}, seed=5)
        assert corpus.features is generated.features  # a replaced corpus copies nothing
        if read is not None:
            pm.save_corpus(corpus, tmp_path / f"corpus{read}")
            corpus = pm.load_corpus(tmp_path / f"corpus{read}")
        assert_blocks_of_one_array(corpus)
        mapper = pm.init_network([5, 8], [("lang0", 8)], seed=6)
        maps = [truth_map(corpus, "senone", source, "lang0") for source in ("lang1", "lang2")]
        sets = [
            *corpus.gather(["lang2", "lang0"], "train"), corpus.subset("lang1", "test"),
            pm.pool_and_relabel(corpus, "dev", "lang0", maps, mapper),
        ]
        for fs in sets:
            assert fs.array is corpus.features and fs.rows is not None

    def test_a_corpus_of_separate_arrays_is_joined_once(self):
        rng = np.random.default_rng(7)
        frames = {
            lang: pm.FrameSet(lang, rng.normal(size=(n, 3)), rng.integers(0, 4, n), np.arange(n))
            for lang, n in (("a", 20), ("b", 0), ("c", 30))
        }
        corpus = pm.MultiCorpus(
            languages=["c", "a", "b"], feature_dim=3, frames=frames,
            g_tables={lang: pm.SenoneToPhoneTable(lang, np.arange(4) // 2) for lang in frames},
        )
        assert_blocks_of_one_array(corpus)
        for lang, fs in frames.items():
            assert corpus.frames[lang].features.tobytes() == fs.features.tobytes()
            assert not np.shares_memory(corpus.features, fs.features)
        split = pm.split_corpus(corpus, {"train": 0.5, "dev": 0.5, "test": 0.0}, seed=8)
        assert split.features is corpus.features
        assert dataclasses.replace(split, provenance={"seed": 8}).features is corpus.features

    def test_loading_an_npz_corpus_holds_its_features_once(self, tmp_path):
        corpus = pm.generate_synthetic(pm.SynthSpec(feature_dim=40, frames_per_senone=100, seed=9))
        pm.save_corpus(corpus, tmp_path / "corpus.npz")
        block = max(fs.features.nbytes for fs in corpus.frames.values())
        loaded, peak = traced_peak(pm.load_corpus, tmp_path / "corpus.npz")
        assert peak <= corpus.features.nbytes + block, (peak, corpus.features.nbytes, block)
        assert loaded.features.tobytes() == corpus.features.tobytes()


class TestGather:
    @pytest.mark.parametrize("split", corpus_module.SPLIT_NAMES)
    @pytest.mark.parametrize("languages", [["b", "c", "a"], ["c", "b", "a"], ["c", "a", "b"]])
    def test_equals_subset_in_one_buffer(self, split, languages):
        # "b" has no dev frames: its empty set comes first, between or last
        corpus = pm.split_corpus(
            tiny_corpus(langs=("a", "b", "c")), {"train": 0.6, "dev": 0.2, "test": 0.2}, seed=0
        )
        b = corpus.splits["b"]
        splits = {**corpus.splits, "b": {"train": b["train"] + b["dev"], "test": b["test"]}}
        corpus = dataclasses.replace(corpus, splits=splits)
        sets = corpus.gather(languages, split)
        assert [fs.language for fs in sets] == languages
        assert (len(sets[languages.index("b")]) == 0) == (split == "dev")
        for lang, fs in zip(languages, sets):
            frames = corpus.frames[lang]
            rows = np.isin(frames.utterance_ids, corpus.splits[lang][split])
            for got_set, column in itertools.product(
                (fs, corpus.subset(lang, split)), ("features", "labels", "utterance_ids")
            ):
                got, expected = getattr(got_set, column), getattr(frames, column)[rows]
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()
        for lang, fs in zip(languages, sets):  # views: the features stay in the corpus
            assert fs.array is corpus.features
            assert np.shares_memory(fs.array, corpus.frames[lang].features)
            assert not np.shares_memory(fs.features, fs.array)

    def test_unknown_language_or_split(self):
        corpus = pm.split_corpus(tiny_corpus(), {"train": 0.6, "dev": 0.2, "test": 0.2}, seed=0)
        with pytest.raises(InventoryError):
            corpus.gather(["a", "zz"], "train")
        with pytest.raises(FractionError):
            corpus.gather(["a"], "training")


def truth_map(corpus, kind, source, target):
    """The generator's ``kind`` answer key as a hand-written (manual) map."""
    truth = getattr(corpus, f"{kind}_truth")[(source, target)]
    inventories = getattr(corpus, f"{kind}_inventories")
    source_inv, target_inv = inventories[source], inventories[target]
    return pm.LabelMap(source_inv, target_inv, [truth[p] for p in range(source_inv.size)], "manual")


@pytest.fixture(scope="module")
def pooling_world():
    """A split corpus, a target mapper trained for two epochs, and two
    source maps of each kind built from it: learned senone and phone maps,
    and manual phone maps from the answer key."""
    spec = pm.SynthSpec(
        num_languages=3, feature_dim=8, phones_per_language=5, senones_per_phone=2,
        shared_phone_fraction=1.0, frames_per_senone=60, seed=21,
    )
    corpus = pm.split_corpus(
        pm.generate_synthetic(spec), {"train": 0.7, "dev": 0.15, "test": 0.15}, seed=22
    )
    target, sources = "lang0", ("lang1", "lang2")
    mapper, _ = pm.train(
        pm.init_network([8, 16], [(target, 10)], seed=23), corpus.subset(target, "train"),
        pm.TrainConfig(epochs=2, shuffle_seed=24),
    )
    maps = {"senone": [], "phone": [], "manual": []}
    for source in sources:
        counts = pm.accumulate_confusion(
            mapper, corpus.subset(source, "train"),
            corpus.senone_inventories[target], corpus.senone_inventories[source],
        )
        maps["senone"].append(pm.senone_map(counts))
        maps["phone"].append(pm.phone_map(counts, corpus.g_tables[source], corpus.g_tables[target]))
        maps["manual"].append(truth_map(corpus, "phone", source, target))
    return corpus, mapper, maps


def without_train(corpus, lang):
    """``corpus`` with ``lang``'s train utterances moved into its dev split."""
    by_name = corpus.splits[lang]
    moved = {"dev": by_name["train"] + by_name["dev"], "test": by_name["test"]}
    return dataclasses.replace(corpus, splits={**corpus.splits, lang: moved})


def assert_same_training(got, want):
    (got_net, got_hist), (want_net, want_hist) = got, want
    for a, b in zip(got_net.weights + got_net.biases, want_net.weights + want_net.biases):
        assert a.tobytes() == b.tobytes()
    assert got_hist == want_hist


class TestViews:
    """Sets whose feature rows stay in the corpus's arrays train and score
    byte-identically to copies of those rows.  The pooled sets hold 400 rows
    of each of three languages (none of lang2's when it has no train
    split): every training block of 252 or 280 rows and both scoring blocks
    draw on several of them."""

    @pytest.mark.parametrize("rows", [[0, 5], [-1], [[0, 1]]], ids=["past the end", "negative", "2-d"])
    def test_a_view_of_rows_outside_its_array_is_refused(self, rows):
        # scoring and training take a view's rows with mode "clip", which never raises
        with pytest.raises(ShapeError, match="1-d index into 5 rows"):
            pm.FrameSet("a", np.zeros((5, 2)), [0, 0], [0, 0], np.array(rows))

    @pytest.mark.parametrize("field", ["language", "array", "labels", "utterance_ids", "rows"])
    def test_a_frame_set_is_frozen(self, field):
        fs = pm.FrameSet("a", np.zeros((3, 2)), [0, 1, 0], [0, 0, 1], [2, 0, 1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fs, field, getattr(fs, field))

    @pytest.mark.parametrize("rows", [None, [2, 0]], ids=["whole array", "rows"])
    @pytest.mark.parametrize("features", [np.arange(6).reshape(3, 2), [[0, 1], [2, 3], [4, 5]]],
                             ids=["int array", "list"])
    def test_features_of_any_number_type_become_float64(self, features, rows):
        n = 3 if rows is None else 2
        fs = pm.FrameSet("a", features, np.zeros(n, np.int32), range(n), rows)
        assert fs.array.dtype == np.float64 and fs.array.tolist() == np.asarray(features).tolist()
        assert (fs.labels.dtype, fs.utterance_ids.dtype) == (np.int64, np.int64)
        want = np.asarray(features, np.float64)[rows if rows else slice(None)]
        assert fs.features.tobytes() == want.tobytes()

    def test_a_float64_array_and_index_are_held_as_they_are(self):
        base, rows = np.zeros((5, 2)), np.array([4, 1], np.intp)
        fs = pm.FrameSet("a", base, [0, 1], [0, 0], rows)
        assert fs.array is base and fs.rows is rows
        relabeled = fs.relabeled("b", [1, 1])
        assert relabeled.array is base and relabeled.rows is rows
        assert (relabeled.language, relabeled.labels.tolist()) == ("b", [1, 1])
        assert fs.labels.tolist() == [0, 1]

    @pytest.mark.parametrize("empty", [False, True], ids=["three languages", "lang2 empty"])
    @pytest.mark.parametrize("kind", ["senone", "phone"])
    def test_pooled_view_reads_the_corpus(self, pooling_world, kind, empty):
        corpus, mapper, maps = pooling_world
        corpus = without_train(corpus, "lang2") if empty else corpus
        pooled = pm.pool_and_relabel(corpus, "train", "lang0", maps[kind], mapper)
        assert len(pooled) == (800 if empty else 1200)
        assert pooled.array is corpus.features
        # the index runs over lang1's block, then lang2's, then lang0's
        blocks = np.cumsum([len(corpus.frames[lang]) for lang in corpus.languages])
        owners = [corpus.languages[b] for b in np.searchsorted(blocks, pooled.rows, side="right")]
        counts = [0 if empty and lang == "lang2" else 400 for lang in ("lang1", "lang2", "lang0")]
        assert owners == ["lang1"] * counts[0] + ["lang2"] * counts[1] + ["lang0"] * counts[2]
        assert not np.shares_memory(pooled.features, corpus.frames["lang0"].features)
        reference = reference_pool_and_relabel(corpus, "train", "lang0", maps[kind], mapper)
        assert pooled.features.tobytes() == reference.features.tobytes()

    @pytest.mark.parametrize("empty", [False, True], ids=["three languages", "lang2 empty"])
    @pytest.mark.parametrize("batch_size", [36, 280], ids=["short tail", "batch over a block"])
    def test_pooled_view_trains_like_a_copy(self, pooling_world, batch_size, empty):
        corpus, mapper, maps = pooling_world
        corpus = without_train(corpus, "lang2") if empty else corpus
        pooled = pm.pool_and_relabel(corpus, "train", "lang0", maps["senone"], mapper)
        assert len(pooled) % batch_size  # a short last batch
        net = pm.init_network([8, 16], [("lang0", 10)], seed=31)
        cfg = pm.TrainConfig(epochs=2, batch_size=batch_size, shuffle_seed=32)
        assert_same_training(pm.train(net, pooled, cfg), pm.train(net, copied(pooled), cfg))

    @pytest.mark.parametrize("empty", [False, True], ids=["three languages", "lang2 empty"])
    @pytest.mark.parametrize("mapped", [False, True], ids=["masked", "mapped"])
    def test_gathered_views_train_like_copies(self, pooling_world, mapped, empty):
        corpus, mapper, maps = pooling_world
        corpus = without_train(corpus, "lang2") if empty else corpus
        languages = ["lang2", "lang0", "lang1"]
        frames = dict(zip(languages, corpus.gather(languages, "train")))
        assert (len(frames["lang2"]) == 0) == empty
        map_set = None
        if mapped:
            tables = {(a, b): [corpus.senone_truth[(a, b)][s] for s in range(10)]
                      for a in languages for b in languages if a != b}
            inventories = corpus.senone_inventories
            map_set = pm.MapSet({
                (a, b): pm.LabelMap(inventories[a], inventories[b], tables[(a, b)], "manual")
                if a != b else pm.identity_map(inventories[a])
                for a in languages for b in languages
            })
        net = pm.init_network([8, 16], [(lang, 10) for lang in languages], seed=33)
        cfg = dataclasses.replace(pm.MT_RECIPE, epochs=2, shuffle_seed=34)
        copies = {lang: copied(fs) for lang, fs in frames.items()}
        assert_same_training(pm.train_multihead(net, frames, cfg, map_set),
                             pm.train_multihead(net, copies, cfg, map_set))

    @pytest.mark.parametrize("empty", [False, True], ids=["three languages", "lang2 empty"])
    def test_a_view_scores_like_a_copy(self, pooling_world, empty):
        corpus, mapper, maps = pooling_world
        corpus = without_train(corpus, "lang2") if empty else corpus
        pooled = pm.pool_and_relabel(corpus, "train", "lang0", maps["senone"], mapper)
        copy = copied(pooled)
        inventory = corpus.senone_inventories["lang0"]
        counts = [pm.accumulate_confusion(mapper, fs, inventory, inventory).counts
                  for fs in (pooled, copy)]
        assert counts[0].tobytes() == counts[1].tobytes()
        # the pooled rows as lang1 frames of lang1 senones (both have 10)
        g_tables = corpus.g_tables["lang1"], corpus.g_tables["lang0"]
        realigned = [
            pm.realign_with_phone_map(mapper, fs.relabeled("lang1", fs.labels), maps["phone"][0],
                                      *g_tables).labels
            for fs in (pooled, copy)
        ]
        assert realigned[0].tobytes() == realigned[1].tobytes()
        assert pm.frame_error_rate(mapper, pooled) == pm.frame_error_rate(mapper, copy)
        for score in (pm.forward_batch, pm.predict_batch):
            assert score(mapper, pooled).tobytes() == score(mapper, copy.features).tobytes()


HEAD = "polymap-corpus 1\nfeature_dim 2\nlanguage a senones 2 phones 1\ngtable a 0 0\n"
HEAD_AB = HEAD + "language b senones 2 phones 1\ngtable b 0 0\n"

# The metadata record of a valid binary corpus of one frame of each of two languages.
NPZ_META = {
    "format": "polymap-corpus", "version": 1, "languages": ["lang0", "lang1"], "feature_dim": 20,
    "num_phones": {"lang0": 12, "lang1": 12}, "provenance": {},
    "splits": {lang: {"train": [0], "dev": [], "test": []} for lang in ("lang0", "lang1")},
    "phone_truth": [["lang0", "lang1", 0, 0]], "senone_truth": [["lang0", "lang1", 3, 0]],
}


def npz_corpus(width=20, **changes):
    """(suffix, arrays) of that corpus, its metadata changed by ``changes``
    and its frames ``width`` values wide."""
    arrays = {"meta": np.array(json.dumps({**NPZ_META, **changes}))}
    for lang in NPZ_META["languages"]:
        arrays.update({f"features_{lang}": np.zeros((1, width)), f"labels_{lang}": np.zeros(1, int),
                       f"utterances_{lang}": np.zeros(1, int), f"gtable_{lang}": np.arange(4)})
    return ".npz", arrays


# Case -> (file suffix, content): a string is written as text, a dict of
# arrays with np.savez, None leaves the file missing.
MALFORMED = {
    "missing text file": (".txt", None),
    "missing npz file": (".npz", None),
    "npz without meta": (".npz", {"weights": np.zeros(3)}),
    "npz of another format": (".npz", {"meta": np.array('{"format": "other"}')}),
    "no header": (".txt", HEAD.split("\n", 1)[1]),
    "frame of undeclared language": (".txt", HEAD + "frame b 0 1 0.5 -0.5\n"),
    "non-integer label": (".txt", HEAD + "frame a 0 x 0.5 -0.5\n"),
    "non-integer feature_dim": (".txt", HEAD.replace("feature_dim 2", "feature_dim two")),
    "non-numeric feature": (".txt", HEAD + "frame a 0 1 0.5 abc\n"),
    "short language line": (".txt", "polymap-corpus 1\nfeature_dim 2\nlanguage a senones 2\n"),
    "frame narrower than feature_dim": (".txt", HEAD + "frame a 0 1 0.5\n"),
    "frame wider than feature_dim": (".txt", HEAD + "frame a 0 1 0.5 0.5 0.5\n"),
    "senones disagree with gtable": (".txt", HEAD.replace("senones 2", "senones 3")),
    "label outside the senones": (".txt", HEAD + "frame a 0 2 0.5 -0.5\n"),
    "gtable of undeclared language": (".txt", HEAD + "gtable b 0 0\n"),
    "no gtable": (".txt", HEAD.replace("gtable a 0 0\n", "")),
    "no feature_dim": (".txt", HEAD.replace("feature_dim 2\n", "")),
    "duplicate language": (".txt", HEAD + "language a senones 2 phones 1\n"),
    "second feature_dim": (".txt", HEAD + "feature_dim 2\n"),
    "second gtable": (".txt", HEAD + "gtable a 0 0\n"),
    "frame before feature_dim": (".txt", HEAD.replace("feature_dim 2\n", "") + "frame a 0 1 0.5 0\n"
                                 "feature_dim 2\n"),
    "negative feature_dim": (".txt", HEAD.replace("feature_dim 2", "feature_dim -1") + "frame a 0\n"),
    "unknown split name": (".txt", HEAD + "split a training 0\n"),
    "utterance in two splits": (".txt", HEAD + "split a train 0\nsplit a test 0\n"),
    "split of undeclared language": (".txt", HEAD + "split b train 0\n"),
    "unknown line key": (".txt", HEAD + "speaker a 0\n"),
    "answer key label outside the phones": (".txt", HEAD_AB + "truth phone a b 0 5\n"),
    "answer key of an undeclared language": (".txt", HEAD_AB + "truth phone a zz 0 0\n"),
    "answer key within one language": (".txt", HEAD_AB + "truth senone b b 0 0\n"),
    "negative answer key label": (".txt", HEAD_AB + "truth senone a b -1 0\n"),
    "answer key label outside the senones": npz_corpus(senone_truth=[["lang0", "lang1", 0, 4]]),
    "fractional feature_dim": npz_corpus(feature_dim=20.9),
    "feature_dim a string": npz_corpus(feature_dim="20"),
    "fractional num_phones": npz_corpus(num_phones={"lang0": 12.5, "lang1": 12}),
    "fractional truth entry": npz_corpus(senone_truth=[["lang0", "lang1", 3.7, 0]]),
    "split ids strings": npz_corpus(splits={"lang0": {"train": ["0"]}, "lang1": {"train": ["0"]}}),
    "languages a string": npz_corpus(languages="lang0"),
    "zero feature_dim": (".txt", HEAD.replace("feature_dim 2", "feature_dim 0")),
    "feature_dim of two values": (".txt", HEAD.replace("feature_dim 2", "feature_dim 2 3")),
    "negative feature_dim, no frames": (".txt", HEAD.replace("feature_dim 2", "feature_dim -2")),
    "language line of another key": (".txt", HEAD.replace("phones 1", "phonez 1")),
    "language line with a trailing key": (".txt", HEAD.replace("phones 1", "phones 1 extra 7")),
    "zero feature_dim in npz metadata": npz_corpus(width=0, feature_dim=0),
    "split of an utterance the text does not hold": (
        ".txt", HEAD + "".join(f"frame a {u} 1 0.5 -0.5\n" for u in range(3))
        + "split a train 0 1 2 99\n"),
    "split of an utterance the npz does not hold": npz_corpus(
        splits={"lang0": {"train": [0, 99]}, "lang1": {"train": [0]}}),
}
# The malformed header lines of HEAD, and the error each raises.
HEADER_LINES = {
    "feature_dim 0": "feature_dim takes one integer >= 1",
    "feature_dim 2 3": "feature_dim takes one integer >= 1",
    "feature_dim -2": "feature_dim takes one integer >= 1",
    "language a senones 2 phonez 1": "the form is 'language <name> senones <n> phones <m>'",
    "language a senones 2 phones 1 extra 7": "the form is 'language <name> senones <n> phones <m>'",
}


@functools.cache
def small_text_corpus():
    """A small split corpus in the text format."""
    spec = pm.SynthSpec(
        num_languages=2, feature_dim=2, phones_per_language=2, senones_per_phone=2,
        shared_phone_fraction=0.5, frames_per_senone=3, seed=0,
    )
    corpus = pm.generate_synthetic(spec)
    corpus = pm.split_corpus(corpus, {"train": 0.6, "dev": 0.2, "test": 0.2}, seed=0)
    with tempfile.TemporaryDirectory() as directory:
        pm.save_corpus(corpus, Path(directory) / "small.txt")
        return (Path(directory) / "small.txt").read_text()


def corpus_record(corpus):
    """What a corpus file holds, comparable with ``==`` (arrays by dtype and bytes)."""
    arrays = [
        (a.dtype, a.shape, a.tobytes())
        for lang, fs in corpus.frames.items()
        for a in (fs.features, fs.labels, fs.utterance_ids, corpus.g_tables[lang].table)
    ]
    phones = [corpus.g_tables[lang].num_phones for lang in corpus.languages]
    return (corpus.languages, corpus.feature_dim, arrays, phones, corpus.splits,
            corpus.phone_truth, corpus.senone_truth, corpus.provenance)


@functools.cache
def small_npz_corpus():
    """A small split corpus's binary file and :func:`corpus_record`."""
    spec = pm.SynthSpec(num_languages=2, feature_dim=3, frames_per_senone=2, seed=1)
    corpus = pm.split_corpus(
        pm.generate_synthetic(spec), {"train": 0.8, "dev": 0.1, "test": 0.1}, seed=0
    )
    with tempfile.TemporaryDirectory() as directory:
        pm.save_corpus(corpus, Path(directory) / "small.npz")
        return (Path(directory) / "small.npz").read_bytes(), corpus_record(corpus)


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    """One directory for every example of a property test: each writes its file anew."""
    return tmp_path_factory.mktemp("damaged")


def assert_reads_like_oracle(path):
    """The text reader gives the line-by-line reader's metadata and arrays (same
    dtypes, same bytes), or raises an error of its class with its message."""
    try:
        meta, arrays = reference_read_text(path)
    except (OSError, ValueError) as exc:
        with pytest.raises(type(exc)) as info:
            corpus_module._read_text(path)
        assert str(info.value) == str(exc)
        return
    got_meta, got = corpus_module._read_text(path)
    assert got_meta == meta
    assert got.keys() == arrays.keys()
    for name, want in arrays.items():
        assert (got[name].dtype, got[name].shape) == (want.dtype, want.shape), name
        assert got[name].tobytes() == want.tobytes(), name


@contextmanager
def chunked(lines, cpus):
    """Text corpora parse in chunks of ``lines`` frame lines on ``cpus`` usable CPUs."""
    with mock.patch.object(corpus_module, "_CHUNK_LINES", lines), mock.patch.object(
        corpus_module, "_usable_cpus", lambda: cpus
    ):
        yield


def frame_lines(langs, count, dim=2):
    return [f"frame {lang} {i // 2} {i % 2} {i / 7!r} {-i / 3!r}" + " 0.25" * (dim - 2)
            for i in range(count) for lang in langs]


CORPUS_HEAD = (
    "polymap-corpus 1\nfeature_dim 2\nlanguage a senones 2 phones 1\n"
    "language b senones 2 phones 1\ngtable a 0 0\ngtable b 0 0\n"
)
# Case -> text corpus body after CORPUS_HEAD, to be read in chunks of two
# frame lines: which error comes first across chunks and languages, second
# feature_dim and language lines between and within chunks, and a chunk
# re-read line by line.
CHUNK_ORDER = {
    "frames interleave": frame_lines("ab", 5),
    "bad line in a chunk cut after a later bad line's": [
        *frame_lines("ab", 2), "frame a 9 1 0.5 x", "frame b 9 1 0.5 y", *frame_lines("b", 1)],
    "bad frame line before a bad key": [*frame_lines("ab", 2), "frame a 0 1 x 1", "speaker a 0"],
    "bad key after good frames": [*frame_lines("ab", 3), "speaker a 0", "frame a 0 1 x 1"],
    "frames narrower than a new feature_dim": [
        "feature_dim 3", *frame_lines("a", 3), "feature_dim 2"],
    "feature_dim changes between frames": [*frame_lines("ab", 3), "feature_dim 3",
                                           *frame_lines("ab", 3, dim=3)],
    "language declared again after its frames": [
        *frame_lines("ab", 3), "language a senones 2 phones 1", "gtable a 0 0"],
    "language declared again between its frames": [
        *frame_lines("ab", 2), "frame a 9 1 0.5 0.5", "language a senones 2 phones 1",
        "gtable a 0 0", *frame_lines("ab", 2)],
    "bad frame line before a second declaration": [
        *frame_lines("a", 2), "frame a 0 1 x 1", "language a senones 2 phones 1"],
    "frame line without values": [*frame_lines("ab", 3), "frame a", *frame_lines("ab", 3)],
    "frame line without values first in its chunk": ["frame b", *frame_lines("ab", 3)],
    "value float reads and loadtxt does not": [*frame_lines("ab", 3), "frame a 1_0 1 1_5 -2"],
}


def corpus_file_with_language(path, name):
    """A small split corpus written to ``path`` (binary for an ``.npz``
    suffix, else text), its language lang1 renamed ``name`` in every record."""
    corpus = pm.split_corpus(
        pm.generate_synthetic(pm.SynthSpec(**SMALL, seed=8)),
        {"train": 0.6, "dev": 0.2, "test": 0.2}, seed=1,
    )
    pm.save_corpus(corpus, path)
    if path.suffix == ".npz":
        arrays = read_npz(path)
        meta = str(arrays.pop("meta")[()]).replace('"lang1"', json.dumps(name))
        renamed = {key.replace("_lang1", f"_{name}"): value for key, value in arrays.items()}
        write_npz(path, {"meta": np.array(meta), **renamed})
    else:
        path.write_text(re.sub(r"\blang1\b", lambda _: name, path.read_text()))


class TestCorpusFiles:
    @pytest.mark.parametrize("suffix", [".npz", ".txt"])
    def test_round_trip(self, tmp_path, suffix):
        spec = pm.SynthSpec(**SMALL, seed=8)
        corpus = pm.split_corpus(
            pm.generate_synthetic(spec), {"train": 0.6, "dev": 0.2, "test": 0.2}, seed=1
        )
        path = tmp_path / f"corpus{suffix}"
        pm.save_corpus(corpus, path)
        loaded = pm.load_corpus(path)
        assert loaded.languages == corpus.languages
        assert loaded.feature_dim == corpus.feature_dim
        for lang in corpus.languages:
            assert loaded.frames[lang].features.tobytes() == corpus.frames[lang].features.tobytes()
            assert (loaded.frames[lang].labels == corpus.frames[lang].labels).all()
            assert (loaded.frames[lang].utterance_ids == corpus.frames[lang].utterance_ids).all()
            assert (loaded.g_tables[lang].table == corpus.g_tables[lang].table).all()
            assert loaded.g_tables[lang].num_phones == corpus.g_tables[lang].num_phones
            assert loaded.splits[lang] == corpus.splits[lang]
            assert loaded.senone_inventories[lang] == corpus.senone_inventories[lang]
        assert loaded.phone_truth == corpus.phone_truth
        assert loaded.senone_truth == corpus.senone_truth

    def test_unchanged_npz_metadata_loads(self, tmp_path):
        np.savez(tmp_path / "corpus.npz", **npz_corpus()[1])
        corpus = pm.load_corpus(tmp_path / "corpus.npz")
        assert len(corpus.subset("lang0", "train")) == 1
        assert corpus.senone_truth == {("lang0", "lang1"): {3: 0}}

    def test_declared_language_without_frames_loads_empty(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(
            "polymap-corpus 1\nfeature_dim 2\n"
            "language a senones 2 phones 1\nlanguage b senones 2 phones 1\n"
            "gtable a 0 0\ngtable b 0 0\nframe a 0 1 0.5 -0.5\n"
        )
        corpus = pm.load_corpus(path)
        assert corpus.frames["a"].features.shape == (1, 2)
        assert corpus.frames["b"].features.shape == (0, 2)
        assert len(corpus.frames["b"].labels) == len(corpus.frames["b"].utterance_ids) == 0

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_corpus_raises_artifact_error(self, tmp_path, case):
        suffix, content = MALFORMED[case]
        path = tmp_path / f"corpus{suffix}"
        if isinstance(content, str):
            path.write_text(content)
        elif content is not None:
            np.savez(path, **content)
        with pytest.raises(ArtifactError) as info:
            pm.load_corpus(path)
        assert str(path) in str(info.value)
        if suffix == ".txt" and content is not None:
            assert_reads_like_oracle(path)

    @pytest.mark.parametrize("suffix, name", [
        *itertools.product([".txt", ".npz"], ["..", ".", "../../evil", "x/y"]),
        (".npz", ""),  # a text line has no empty field
    ])
    def test_a_language_name_that_cannot_name_a_file_is_refused(self, tmp_path, suffix, name):
        # stages name map, model and log files after languages
        path = tmp_path / f"corpus{suffix}"
        corpus_file_with_language(path, name)
        with pytest.raises(ArtifactError) as info:
            pm.load_corpus(path)
        assert str(info.value) == f"cannot read {path}: language name {name!r} cannot name a file"

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "/b", "a\\b"])
    def test_a_corpus_refuses_a_language_name_that_cannot_name_a_file(self, name):
        with mock.patch.object(corpus_module.os, "altsep", "\\"):
            with pytest.raises(InventoryError, match="cannot name a file"):
                tiny_corpus(langs=(name, "b"))
        assert tiny_corpus(langs=("a.b", "..b")).languages == ["a.b", "..b"]

    @pytest.mark.parametrize("line", list(HEADER_LINES))
    def test_a_header_line_out_of_form_names_its_line(self, tmp_path, line):
        path = tmp_path / "corpus.txt"
        lines = HEAD.splitlines()
        number = 2 if line.startswith("feature_dim") else 3
        lines[number - 1] = line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactError) as info:
            pm.load_corpus(path)
        key = line.split()[0]
        assert str(info.value) == f"cannot read {path}: line {number} ({key}): {HEADER_LINES[line]}"

    @pytest.mark.parametrize("suffix", [".txt", ".npz"])
    def test_a_split_of_an_unknown_utterance_is_refused(self, tmp_path, suffix):
        corpus = tiny_corpus(n_utts=5)
        corpus.splits = {"a": {"train": [0, 1, 2, 99, 7]}}  # written as given, not checked
        path = tmp_path / f"corpus{suffix}"
        pm.save_corpus(corpus, path)
        with pytest.raises(ArtifactError) as info:
            pm.load_corpus(path)
        error = "a splits name utterance 99, which a does not have"
        assert str(info.value) == f"cannot read {path}: {error}"
        with pytest.raises(FractionError, match="utterance 99"):
            dataclasses.replace(corpus)

    @given(position=st.integers(0, 10**6), delete_line=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_damaged_text_corpus_loads_or_raises_artifact_error(
        self, scratch_dir, position, delete_line
    ):
        text = small_text_corpus()
        if delete_line:
            lines = text.splitlines(keepends=True)
            del lines[position % len(lines)]
            text = "".join(lines)
        else:
            text = text[: position % (len(text) + 1)]
        path = scratch_dir / "damaged.txt"
        path.write_text(text)
        with chunked(lines=2, cpus=1):
            assert_reads_like_oracle(path)
        try:
            corpus = pm.load_corpus(path)
        except ArtifactError:
            return
        assert isinstance(corpus, pm.MultiCorpus)

    @given(position=st.integers(0, 10**6), flip=st.one_of(st.none(), st.integers(1, 255)))
    # a member's .npy header with unbalanced brackets, and one whose dtype is ",U2694"
    @example(position=6333, flip=6)
    @example(position=6291, flip=16)
    @settings(max_examples=150, deadline=None)
    def test_damaged_npz_corpus_loads_or_raises_polymap_error(self, scratch_dir, position, flip):
        # flip None cuts the file at ``position``; otherwise one byte is XORed
        original, record = small_npz_corpus()
        data = bytearray(original)
        if flip is None:
            del data[position % (len(data) + 1) :]
        else:
            data[position % len(data)] ^= flip
        path = scratch_dir / "damaged.npz"
        path.write_bytes(bytes(data))
        try:
            corpus = pm.load_corpus(path)
        except PolymapError:
            return
        assert corpus_record(corpus) == record

    @pytest.mark.parametrize("case", list(CHUNK_ORDER))
    def test_chunked_text_reads_like_line_by_line(self, tmp_path, case):
        path = tmp_path / "corpus.txt"
        path.write_text(CORPUS_HEAD + "".join(line + "\n" for line in CHUNK_ORDER[case]))
        with chunked(lines=2, cpus=1):
            assert_reads_like_oracle(path)

    @pytest.mark.parametrize("line, error", [
        pytest.param("feature_dim 2", "a second 'feature_dim' line", id="feature_dim"),
        pytest.param("feature_dim 3", "a second 'feature_dim' line", id="width change"),
        pytest.param("language b senones 2 phones 1", "a second 'language b' line", id="language"),
        pytest.param("gtable a 0 0", "a second 'gtable a' line", id="gtable"),
    ])
    def test_a_once_only_line_given_twice_names_its_line(self, tmp_path, line, error):
        path = tmp_path / "corpus.txt"
        path.write_text(CORPUS_HEAD + "".join(f"{frame}\n" for frame in frame_lines("ab", 3)) + line)
        with pytest.raises(ArtifactError) as info:
            pm.load_corpus(path)
        assert str(info.value) == f"cannot read {path}: line 13 ({line.split()[0]}): {error}"

    @pytest.mark.parametrize("values", [
        "1_0 1 1_5 -2", "+3 01 nan -Infinity", "0 1 1e400 -1e-400", "0 1 \u0661.\u0665 2",
        "0 1 0.1000000000000000055511151231257827 -0",
        # integer fields that numpy 1.x's loadtxt reads through float
        "1.5 1 0 0", "0 1e3 0 0", "nan 1 0 0", "9223372036854775808 1 0 0",
    ])
    def test_values_read_as_int_and_float_read_them(self, tmp_path, values):
        path = tmp_path / "corpus.txt"
        path.write_text(CORPUS_HEAD + f"frame a {values}\n")
        assert_reads_like_oracle(path)

    @pytest.mark.parametrize("value", ["nan", "-inf", "Infinity", "1e400"])
    def test_a_frame_value_that_is_not_finite_names_its_line(self, tmp_path, value):
        path = tmp_path / "corpus.txt"
        lines = frame_lines("ab", 3)
        lines[3] = lines[3].rsplit(" ", 1)[0] + f" {value}"
        path.write_text(CORPUS_HEAD + "".join(line + "\n" for line in lines))
        with pytest.raises(ArtifactError) as info:
            pm.load_corpus(path)
        assert str(info.value) == f"cannot read {path}: line 10 (frame): frame values must be finite"
        with chunked(lines=2, cpus=1):
            assert_reads_like_oracle(path)

    def test_a_pool_worker_refuses_a_value_that_is_not_finite(self, tmp_path):
        # three and a half chunks of 2,048 lines; the bad line is in the third
        path = tmp_path / "corpus.txt"
        lines = frame_lines("ab", 3584)
        lines[5000] = lines[5000].rsplit(" ", 1)[0] + " nan"
        path.write_text(CORPUS_HEAD + "".join(line + "\n" for line in lines))
        futures = []

        class CountedPool(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                return futures[-1]

        with chunked(lines=2048, cpus=2), mock.patch.object(
            concurrent.futures, "ProcessPoolExecutor", CountedPool
        ), pytest.raises(ArtifactError) as info:
            pm.load_corpus(path)
        error = "line 5007 (frame): frame values must be finite"
        assert str(info.value) == f"cannot read {path}: {error}"
        raised = [str(f.exception()) for f in futures if not f.cancelled() and f.exception()]
        assert raised == [error]

    def test_chunk_on_which_loadtxt_warns_is_read_line_by_line(self, tmp_path):
        # numpy 1.x reads "1.5" into an integer field as 1, with a DeprecationWarning
        path = tmp_path / "corpus.txt"
        path.write_text(CORPUS_HEAD + "frame a 1.5 1 0 0\n")

        def lenient_loadtxt(rows, dtype, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float", DeprecationWarning)
            return np.zeros(len(rows), dtype)

        with mock.patch.object(corpus_module.np, "loadtxt", lenient_loadtxt):
            assert_reads_like_oracle(path)

    @pytest.mark.parametrize("body", [
        pytest.param(None, id="several chunks per language"),
        pytest.param(frame_lines("ab", 7), id="frames interleave, chunk ends inside a language"),
        pytest.param(frame_lines("a", 7), id="a declared language has no frames"),
        pytest.param([*frame_lines("ab", 3), "frame a 9 1 0.5 0.5",
                      "language a senones 2 phones 1", "gtable a 0 0", *frame_lines("ab", 2)],
                     id="language declared again between its frames"),
    ])
    def test_pool_reads_like_line_by_line(self, tmp_path, body):
        path = tmp_path / "corpus.txt"
        if body is None:
            corpus = pm.split_corpus(
                pm.generate_synthetic(pm.SynthSpec(**SMALL, seed=8)),
                {"train": 0.6, "dev": 0.2, "test": 0.2}, seed=1,
            )
            pm.save_corpus(corpus, path)
        else:
            path.write_text(CORPUS_HEAD + "".join(line + "\n" for line in body))
        pools = []

        def counted_pool(*args, **kwargs):
            pools.append(ProcessPoolExecutor(*args, **kwargs))
            return pools[-1]

        with chunked(lines=3 if body else 40, cpus=2), mock.patch.object(
            concurrent.futures, "ProcessPoolExecutor", counted_pool
        ):
            assert_reads_like_oracle(path)
        assert len(pools) == 1

    @pytest.mark.parametrize("body", [
        pytest.param(None, id="good corpus"),
        pytest.param([*frame_lines("ab", 7), "frame a 0 1 x 1", *frame_lines("b", 4)],
                     id="bad line after the pool broke"),
    ])
    def test_broken_pool_reads_like_line_by_line(self, tmp_path, body):
        path = tmp_path / "corpus.txt"
        if body is None:
            pm.save_corpus(pm.generate_synthetic(pm.SynthSpec(**SMALL, seed=8)), path)
        else:
            path.write_text(CORPUS_HEAD + "".join(line + "\n" for line in body))
        pools = []

        class BrokenPool:
            """A process pool whose workers die at their first two jobs, after
            which it refuses jobs, as a broken ``ProcessPoolExecutor`` does."""

            def __init__(self, workers):
                self.workers, self.jobs = workers, 0
                pools.append(self)

            def submit(self, *job):
                self.jobs += 1
                if self.jobs > 2:
                    raise BrokenProcessPool("the pool is broken")
                future = Future()
                future.set_exception(BrokenProcessPool("a worker died"))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        with chunked(lines=3, cpus=64), mock.patch.object(
            concurrent.futures, "ProcessPoolExecutor", BrokenPool
        ):
            assert_reads_like_oracle(path)
        assert [(pool.workers, pool.jobs > 2) for pool in pools] == [(8, True)]

    def test_one_chunk_file_starts_no_process(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text(CORPUS_HEAD + "".join(line + "\n" for line in frame_lines("a", 4)))

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk file started a process pool")

        with chunked(lines=4, cpus=2), mock.patch.object(
            concurrent.futures, "ProcessPoolExecutor", no_pool
        ):
            assert_reads_like_oracle(path)

    def test_binary_save_is_byte_deterministic(self, tmp_path):
        corpus = pm.split_corpus(
            pm.generate_synthetic(pm.SynthSpec(**SMALL, seed=8)),
            {"train": 0.6, "dev": 0.2, "test": 0.2}, seed=1,
        )
        corpus = dataclasses.replace(corpus, provenance={"seed": 8, "digest": "0123"})
        for suffix in (".npz", ".txt"):
            pm.save_corpus(corpus, tmp_path / f"a{suffix}")
            pm.save_corpus(corpus, tmp_path / f"b{suffix}")
            first = (tmp_path / f"a{suffix}").read_bytes()
            assert (tmp_path / f"b{suffix}").read_bytes() == first
            # save -> load -> save is a fixpoint
            pm.save_corpus(pm.load_corpus(tmp_path / f"a{suffix}"), tmp_path / f"c{suffix}")
            assert (tmp_path / f"c{suffix}").read_bytes() == first
        assert pm.load_corpus(tmp_path / "a.npz").provenance == corpus.provenance

    def test_ground_truth_map_files(self, tmp_path):
        spec = pm.SynthSpec(**{**SMALL, "shared_phone_fraction": 1.0}, seed=3)
        corpus = pm.generate_synthetic(spec)
        written = pm.save_ground_truth_maps(corpus, tmp_path)
        assert len(written) == 4  # phone + senone files for both directions
        # a fully shared corpus's truth file is a complete, loadable manual map
        phone_file = tmp_path / "truth_phone_lang0_to_lang1.txt"
        loaded = pm.load_manual_map(
            phone_file, corpus.phone_inventories["lang0"], corpus.phone_inventories["lang1"]
        )
        assert {s: int(t) for s, t in enumerate(loaded.table)} == corpus.phone_truth[("lang0", "lang1")]


class TestRecovery:
    def test_phone_map_recovers_ground_truth(self):
        spec = pm.SynthSpec(
            num_languages=2, feature_dim=8, phones_per_language=5, senones_per_phone=2,
            shared_phone_fraction=1.0, frames_per_senone=60, cluster_spread=0.05, seed=12,
        )
        corpus = pm.generate_synthetic(spec)
        net = pm.init_network([8, 24], [("lang0", 10)], seed=1)
        net, _ = pm.train(net, corpus.frames["lang0"], pm.TrainConfig(epochs=8, shuffle_seed=2))
        counts = pm.accumulate_confusion(
            net, corpus.frames["lang1"],
            corpus.senone_inventories["lang0"], corpus.senone_inventories["lang1"],
        )
        recovered = pm.phone_map(counts, corpus.g_tables["lang1"], corpus.g_tables["lang0"])
        truth = corpus.phone_truth[("lang1", "lang0")]
        assert {s: int(t) for s, t in enumerate(recovered.table)} == truth


class TestNpzWriter:
    def test_corpus_archive_matches_in_memory_writer(self, tmp_path):
        corpus = pm.split_corpus(
            pm.generate_synthetic(pm.SynthSpec(**SMALL, seed=8)),
            {"train": 0.6, "dev": 0.2, "test": 0.2}, seed=1,
        )
        pm.save_corpus(corpus, tmp_path / "streamed.npz")
        with mock.patch.object(corpus_module, "write_npz", reference_write_npz):
            pm.save_corpus(corpus, tmp_path / "in_memory.npz")
        expected = (tmp_path / "in_memory.npz").read_bytes()
        assert (tmp_path / "streamed.npz").read_bytes() == expected

    def test_member_kinds_match_in_memory_writer(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "meta": np.array(json.dumps({"language": "tamil \u0ba4\u0bae\u0bbf\u0bb4\u0bcd"},
                                        ensure_ascii=False)),
            "features": rng.normal(size=(300, 5)),
            "fortran": np.asfortranarray(rng.normal(size=(7, 3))),
            "empty": np.empty((0, 5)),
            "labels": rng.integers(0, 9, size=300),
            "flags": rng.random(11) < 0.5,
            "scalar": np.int64(4),
        }
        write_npz(tmp_path / "streamed.npz", arrays)
        reference_write_npz(tmp_path / "in_memory.npz", arrays)
        expected = (tmp_path / "in_memory.npz").read_bytes()
        assert (tmp_path / "streamed.npz").read_bytes() == expected
        loaded = read_npz(tmp_path / "streamed.npz")
        assert sorted(loaded) == sorted(arrays)
        for name, array in arrays.items():
            assert loaded[name].dtype == np.asarray(array).dtype
            np.testing.assert_array_equal(loaded[name], array)

    def test_member_bytes_are_not_copied(self, tmp_path):
        # numpy's write_array hands a stream each piece of up to 16 MiB as a copy
        features = np.random.default_rng(2).normal(size=(475_000,))
        peak = traced_peak(write_npz, tmp_path / "big.npz", {"features": features})[1]
        assert peak < features.nbytes / 16
        np.testing.assert_array_equal(read_npz(tmp_path / "big.npz")["features"], features)

    def test_member_is_not_built_in_memory(self, tmp_path):
        features = np.random.default_rng(1).normal(size=(110_000, 10))
        tracemalloc.start()
        try:
            write_npz(tmp_path / "big.npz", {"features": features})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * features.nbytes

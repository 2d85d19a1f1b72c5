import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import polymap as pm
from polymap.errors import (
    ArtifactError,
    DuplicateEntryError,
    IncompleteMapError,
    IncompleteMapSetError,
    IncompleteTableError,
    InventoryError,
    LabelRangeError,
    MapFormatError,
    PolymapError,
    RangeError,
)
from polymap.mapping import UnmappedLabelWarning
from target_oracles import reference_forward_batch

SRC = pm.LabelInventory("src", 3, "senone")
TGT = pm.LabelInventory("tgt", 3, "senone")


def identity_logit_net(dim):
    """Single-layer net whose prediction is the argmax input coordinate."""
    return pm.Network([dim, dim], [np.eye(dim)], [np.zeros(dim)], [("tgt", dim)])


def oracle_senone_table(labels, preds, n_source, n_target):
    """Per-frame tally and argmax in pure Python, lowest index on ties."""
    tally = [[0] * n_target for _ in range(n_source)]
    for r, c in zip(labels, preds):
        tally[r][c] += 1
    table = []
    for row in tally:
        if sum(row) == 0:
            table.append(0)
        else:
            best = max(row)
            table.append(min(c for c, v in enumerate(row) if v == best))
    return table


def oracle_phone_table(labels, preds, g_src, g_tgt, n_src_phones, n_tgt_phones):
    src_phones = [g_src[r] for r in labels]
    tgt_phones = [g_tgt[c] for c in preds]
    return oracle_senone_table(src_phones, tgt_phones, n_src_phones, n_tgt_phones)


class TestAccumulate:
    def test_direct_counting(self):
        net = identity_logit_net(3)
        feats = np.eye(3)[[0, 1, 1]].astype(float)
        frames = pm.FrameSet("src", feats, np.array([2, 2, 2]), np.arange(3))
        counts = pm.accumulate_confusion(net, frames, TGT, SRC)
        np.testing.assert_array_equal(counts.counts, [[0, 0, 0], [0, 0, 0], [1, 2, 0]])

    def test_empty_frames(self):
        net = identity_logit_net(3)
        frames = pm.FrameSet("src", np.zeros((0, 3)), np.zeros(0, int), np.zeros(0, int))
        counts = pm.accumulate_confusion(net, frames, TGT, SRC)
        assert (counts.counts == 0).all()

    def test_row_sums_are_label_counts(self):
        rng = np.random.default_rng(0)
        net = pm.init_network([4], [("tgt", 5)], seed=1)
        labels = rng.integers(0, 6, size=200)
        frames = pm.FrameSet("src", rng.normal(size=(200, 4)), labels, np.arange(200))
        counts = pm.accumulate_confusion(
            net, frames, pm.LabelInventory("tgt", 5), pm.LabelInventory("src", 6)
        )
        np.testing.assert_array_equal(counts.counts.sum(axis=1), np.bincount(labels, minlength=6))

    def test_matches_per_frame_oracle(self):
        rng = np.random.default_rng(7)
        net = pm.init_network([4], [("tgt", 3)], seed=2)
        labels = rng.integers(0, 3, size=200)
        feats = rng.normal(size=(200, 4))
        frames = pm.FrameSet("src", feats, labels, np.arange(200))
        counts = pm.accumulate_confusion(net, frames, TGT, SRC)
        tally = np.zeros((3, 3), int)
        for i in range(200):
            tally[labels[i], pm.predict_batch(net, feats[i : i + 1])[0]] += 1
        np.testing.assert_array_equal(counts.counts, tally)

    def test_wrong_output_dim(self):
        net = identity_logit_net(4)
        frames = pm.FrameSet("src", np.zeros((1, 4)), np.array([0]), np.array([0]))
        with pytest.raises(pm.errors.ShapeError):
            pm.accumulate_confusion(net, frames, TGT, SRC)

    def test_classifier_of_another_language(self):
        # same size as the target inventory, but trained for another language
        net = pm.init_network([4], [("other", 3)], seed=6)
        frames = pm.FrameSet("src", np.zeros((2, 4)), np.array([0, 1]), np.arange(2))
        with pytest.raises(InventoryError, match=r"\['other'\], not of 'tgt'"):
            pm.accumulate_confusion(net, frames, TGT, SRC)

    def test_sharding_independent(self):
        # accumulating shards of the frame set and summing matches one pass
        rng = np.random.default_rng(11)
        net = pm.init_network([4], [("tgt", 3)], seed=6)
        columns = rng.normal(size=(90, 4)), rng.integers(0, 3, size=90), np.arange(90)
        frames = pm.FrameSet("src", *columns)
        whole = pm.accumulate_confusion(net, frames, TGT, SRC).counts
        summed = sum(
            pm.accumulate_confusion(
                net, pm.FrameSet("src", *(column[lo:hi] for column in columns)), TGT, SRC
            ).counts
            for lo, hi in [(0, 30), (30, 31), (31, 90)]
        )
        np.testing.assert_array_equal(whole, summed)


class TestSenoneMap:
    def test_argmax_of_counts(self):
        counts = pm.ConfusionCounts(SRC, TGT, np.array([[9, 0, 0], [0, 0, 4], [1, 2, 0]]))
        mapped = pm.senone_map(counts)
        assert list(mapped.table) == [0, 2, 1]
        assert mapped.provenance == "data-driven-senone"

    def test_tie_breaks_low(self):
        counts = pm.ConfusionCounts(SRC, TGT, np.array([[3, 3, 0], [0, 1, 1], [0, 0, 1]]))
        assert list(pm.senone_map(counts).table)[:2] == [0, 1]

    def test_unobserved_label_warns_and_maps_to_zero(self):
        counts = pm.ConfusionCounts(SRC, TGT, np.array([[0, 0, 0], [0, 5, 0], [0, 0, 0]]))
        with pytest.warns(UnmappedLabelWarning, match="2 source label"):
            mapped = pm.senone_map(counts)
        assert list(mapped.table) == [0, 1, 0]

    def test_matches_normalized_density_argmax(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            counts = rng.integers(1, 50, size=(6, 4))
            cc = pm.ConfusionCounts(
                pm.LabelInventory("src", 6), pm.LabelInventory("tgt", 4), counts
            )
            density = counts / counts.sum(axis=1, keepdims=True)
            np.testing.assert_array_equal(pm.senone_map(cc).table, np.argmax(density, axis=1))

    @given(
        counts=st.lists(
            st.lists(st.integers(0, 30), min_size=4, max_size=4), min_size=3, max_size=3
        ),
        row=st.integers(0, 2),
        factor=st.integers(1, 9),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_scaling_never_changes_map(self, counts, row, factor):
        matrix = np.asarray(counts, dtype=np.int64)
        inv_s = pm.LabelInventory("src", 3)
        inv_t = pm.LabelInventory("tgt", 4)
        scaled = matrix.copy()
        scaled[row] *= factor
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("ignore", UnmappedLabelWarning)
            a = pm.senone_map(pm.ConfusionCounts(inv_s, inv_t, matrix))
            b = pm.senone_map(pm.ConfusionCounts(inv_s, inv_t, scaled))
        np.testing.assert_array_equal(a.table, b.table)


class TestPhoneMap:
    def test_single_collapsed_class(self):
        counts = pm.ConfusionCounts(
            pm.LabelInventory("src", 2), pm.LabelInventory("tgt", 2), np.diag([5, 5])
        )
        g = pm.SenoneToPhoneTable("src", [0, 0])
        g2 = pm.SenoneToPhoneTable("tgt", [0, 0])
        mapped = pm.phone_map(counts, g, g2)
        assert list(mapped.table) == [0]
        assert mapped.source_inventory.kind == "phone"

    def test_relabeling_through_tables(self):
        counts = pm.ConfusionCounts(
            pm.LabelInventory("src", 2), pm.LabelInventory("tgt", 2), np.array([[4, 0], [0, 6]])
        )
        g_src = pm.SenoneToPhoneTable("src", [0, 1])
        g_tgt = pm.SenoneToPhoneTable("tgt", [1, 0])
        mapped = pm.phone_map(counts, g_src, g_tgt)
        assert list(mapped.table) == [1, 0]

    def test_matches_per_frame_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n_src, n_tgt = rng.integers(2, 9, size=2)
            ps, pt = rng.integers(1, 4, size=2)
            g_src = rng.integers(0, ps, size=n_src)
            g_tgt = rng.integers(0, pt, size=n_tgt)
            labels = rng.integers(0, n_src, size=300)
            preds = rng.integers(0, n_tgt, size=300)
            counts = np.zeros((n_src, n_tgt), int)
            np.add.at(counts, (labels, preds), 1)
            cc = pm.ConfusionCounts(
                pm.LabelInventory("src", int(n_src)), pm.LabelInventory("tgt", int(n_tgt)), counts
            )
            import warnings as w

            with w.catch_warnings():
                w.simplefilter("ignore", UnmappedLabelWarning)
                mapped = pm.phone_map(
                    pm.ConfusionCounts(cc.source_inventory, cc.target_inventory, counts),
                    pm.SenoneToPhoneTable("src", g_src, num_phones=int(ps)),
                    pm.SenoneToPhoneTable("tgt", g_tgt, num_phones=int(pt)),
                )
            expected = oracle_phone_table(labels, preds, g_src, g_tgt, int(ps), int(pt))
            np.testing.assert_array_equal(mapped.table, expected)

    def test_uncovered_senones_rejected(self):
        counts = pm.ConfusionCounts(SRC, TGT, np.zeros((3, 3), int))
        short = pm.SenoneToPhoneTable("src", [0, 0])
        full = pm.SenoneToPhoneTable("tgt", [0, 0, 1])
        with pytest.raises(IncompleteTableError):
            pm.phone_map(counts, short, full)
        with pytest.raises(IncompleteTableError):
            pm.phone_map(counts, full, short)

    def test_tables_of_other_languages_are_refused(self):
        counts = pm.ConfusionCounts(SRC, TGT, np.eye(3, dtype=int))
        g_src, g_tgt, other = (
            pm.SenoneToPhoneTable(lang, [0, 1, 1]) for lang in ("src", "tgt", "other")
        )
        with pytest.raises(InventoryError, match="'other', not 'src'"):
            pm.phone_map(counts, other, g_tgt)
        with pytest.raises(InventoryError, match="'other', not 'tgt'"):
            pm.phone_map(counts, g_src, other)


def answer_key_map():
    return pm.LabelMap(pm.LabelInventory("src", 5), pm.LabelInventory("tgt", 4),
                       [2, 0, 3, 3, 1], "manual")


def test_answer_key_hits_counts_agreeing_pairs():
    # The key covers four of the five source labels; the map agrees on 0, 2 and 4.
    assert pm.answer_key_hits(answer_key_map(), {0: 2, 1: 1, 2: 3, 4: 1}) == (3, 4)
    assert pm.answer_key_hits(answer_key_map(), {}) == (0, 0)


@pytest.mark.parametrize("truth", [{99: 0}, {5: 0}, {-1: 1}, {0: 4}, {0: -1}])
def test_answer_key_hits_refuses_a_key_outside_the_map(truth):
    with pytest.raises(LabelRangeError, match="answer key pairs"):
        pm.answer_key_hits(answer_key_map(), truth)


class TestManualMap:
    def test_parse(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("# demo\n0 2\n1 0  # trailing comment\n")
        mapped = pm.load_manual_map(path, pm.LabelInventory("src", 2), TGT)
        assert list(mapped.table) == [2, 0]
        assert mapped.provenance == "manual"

    def test_missing_label(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("0 2\n")
        with pytest.raises(IncompleteMapError):
            pm.load_manual_map(path, pm.LabelInventory("src", 2), TGT)

    def test_duplicate_label(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("0 2\n0 1\n1 0\n")
        with pytest.raises(DuplicateEntryError):
            pm.load_manual_map(path, pm.LabelInventory("src", 2), TGT)

    def test_out_of_range_target(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("0 9\n1 0\n")
        with pytest.raises(RangeError):
            pm.load_manual_map(path, pm.LabelInventory("src", 2), TGT)

    def test_garbage_line(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(MapFormatError):
            pm.load_manual_map(path, pm.LabelInventory("src", 2), TGT)

    def test_save_round_trip(self, tmp_path):
        mapped = pm.LabelMap(pm.LabelInventory("src", 4), TGT, [2, 0, 1, 1], "manual")
        path = tmp_path / "map.txt"
        pm.save_map_file(mapped, path, comment="round trip")
        again = pm.load_manual_map(path, mapped.source_inventory, mapped.target_inventory)
        np.testing.assert_array_equal(again.table, mapped.table)


class TestApplyMap:
    def test_relabels(self):
        frames = pm.FrameSet("src", np.zeros((3, 2)), np.array([0, 1, 0]), np.arange(3))
        mapped = pm.apply_map(
            frames, pm.LabelMap(pm.LabelInventory("src", 2), TGT, [2, 0], "manual")
        )
        assert list(mapped.labels) == [2, 0, 2]
        assert mapped.language == "tgt"
        assert mapped.features.tobytes() == frames.features.tobytes()

    def test_identity_returns_equal_content(self):
        frames = pm.FrameSet("src", np.ones((4, 2)), np.array([0, 1, 1, 0]), np.arange(4))
        out = pm.apply_map(frames, pm.identity_map(pm.LabelInventory("src", 2)))
        assert list(out.labels) == list(frames.labels)
        assert out.features.tobytes() == frames.features.tobytes()

    def test_out_of_range_label(self):
        frames = pm.FrameSet("src", np.zeros((1, 2)), np.array([5]), np.array([0]))
        with pytest.raises(LabelRangeError):
            pm.apply_map(frames, pm.identity_map(pm.LabelInventory("src", 2)))

    @given(
        labels=st.lists(st.integers(0, 3), min_size=1, max_size=30),
        t1=st.lists(st.integers(0, 4), min_size=4, max_size=4),
        t2=st.lists(st.integers(0, 2), min_size=5, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_composition(self, labels, t1, t2):
        a = pm.LabelInventory("a", 4)
        b = pm.LabelInventory("b", 5)
        c = pm.LabelInventory("c", 3)
        m1 = pm.LabelMap(a, b, t1, "manual")
        m2 = pm.LabelMap(b, c, t2, "manual")
        frames = pm.FrameSet("a", np.zeros((len(labels), 2)), np.asarray(labels), np.arange(len(labels)))
        chained = pm.apply_map(pm.apply_map(frames, m1), m2)
        composed_table = [t2[v] for v in t1]
        composed = pm.LabelMap(a, c, composed_table, "manual")
        direct = pm.apply_map(frames, composed)
        assert list(chained.labels) == list(direct.labels)


class TestRealign:
    def test_labels_land_in_mapped_phone(self):
        rng = np.random.default_rng(2)
        g_src = pm.SenoneToPhoneTable("src", [0, 0, 1, 1])
        g_tgt = pm.SenoneToPhoneTable("tgt", [1, 0, 0, 1])
        pmap = pm.LabelMap(
            pm.LabelInventory("src", 2, "phone"), pm.LabelInventory("tgt", 2, "phone"),
            [1, 0], "data-driven-phone",
        )
        net = pm.init_network([3], [("tgt", 4)], seed=0)
        frames = pm.FrameSet("src", rng.normal(size=(50, 3)), rng.integers(0, 4, size=50), np.arange(50))
        out = pm.realign_with_phone_map(net, frames, pmap, g_src, g_tgt)
        assert out.language == "tgt"
        mapped_phone = pmap.table[g_src.table[frames.labels]]
        np.testing.assert_array_equal(g_tgt.table[out.labels], mapped_phone)

    def test_picks_best_senone_within_phone(self):
        # Bias-only posteriors [.1,.4,.3,.2]; phone 0 holds senones {1,2} of
        # the target, so every frame mapped to phone 0 must get senone 1.
        net = pm.Network([1, 4], [np.zeros((4, 1))], [np.log([0.1, 0.4, 0.3, 0.2])], [("tgt", 4)])
        g_src = pm.SenoneToPhoneTable("src", [0])
        g_tgt = pm.SenoneToPhoneTable("tgt", [1, 0, 0, 1])
        pmap = pm.LabelMap(
            pm.LabelInventory("src", 1, "phone"), pm.LabelInventory("tgt", 2, "phone"),
            [0], "data-driven-phone",
        )
        frames = pm.FrameSet("src", np.zeros((5, 1)), np.zeros(5, int), np.arange(5))
        out = pm.realign_with_phone_map(net, frames, pmap, g_src, g_tgt)
        assert list(out.labels) == [1] * 5

    def test_classifier_of_another_language(self):
        net, frames, pmap, g_src, g_tgt = recipe_realignment(10, seed=1)
        other = pm.Network(net.layer_dims, net.weights, net.biases, [("src", 36)])
        with pytest.raises(InventoryError, match=r"\['src'\], not of 'tgt'"):
            pm.realign_with_phone_map(other, frames, pmap, g_src, g_tgt)

    @pytest.mark.parametrize("part,language", [
        ("frames", "src"), ("g_source", "src"), ("g_target", "tgt"),
    ])
    def test_frames_or_table_of_another_language_are_refused(self, part, language):
        net, frames, pmap, g_src, g_tgt = recipe_realignment(10, seed=1)
        args = {"frames": frames, "g_source": g_src, "g_target": g_tgt}
        if part == "frames":
            args[part] = frames.relabeled("other", frames.labels)
        else:
            args[part] = dataclasses.replace(args[part], task_id="other")
        with pytest.raises(InventoryError, match=f"'other', not '{language}'"):
            pm.realign_with_phone_map(net, pm=pmap, **args)

    def test_features_untouched(self):
        rng = np.random.default_rng(4)
        g = pm.SenoneToPhoneTable("src", [0, 1])
        g2 = pm.SenoneToPhoneTable("tgt", [0, 1])
        pmap = pm.LabelMap(
            pm.LabelInventory("src", 2, "phone"), pm.LabelInventory("tgt", 2, "phone"),
            [0, 1], "manual",
        )
        net = pm.init_network([2], [("tgt", 2)], seed=1)
        frames = pm.FrameSet("src", rng.normal(size=(10, 2)), rng.integers(0, 2, 10), np.arange(10))
        out = pm.realign_with_phone_map(net, frames, pmap, g, g2)
        assert out.features.tobytes() == frames.features.tobytes()


def recipe_realignment(n, seed):
    """A recipe-sized net, frames of ``n`` rows, a random phone map and both
    phone tables (12 phones of 3 senones each)."""
    rng = np.random.default_rng(seed)
    g_src = pm.SenoneToPhoneTable("src", np.repeat(np.arange(12), 3))
    g_tgt = pm.SenoneToPhoneTable("tgt", rng.permutation(np.repeat(np.arange(12), 3)))
    pmap = pm.LabelMap(
        pm.LabelInventory("src", 12, "phone"), pm.LabelInventory("tgt", 12, "phone"),
        rng.integers(0, 12, size=12), "data-driven-phone",
    )
    net = pm.init_network([20, 64, 64, 64, 64], [("tgt", 36)], seed=seed)
    frames = pm.FrameSet(
        "src", rng.normal(size=(n, 20)), rng.integers(0, 36, size=n), np.arange(n)
    )
    return net, frames, pmap, g_src, g_tgt


class TestBlockedRealign:
    @pytest.mark.parametrize("n", [1, 1025, 2 * 1024 + 26, 8640])
    def test_matches_one_call_formula(self, n):
        net, frames, pmap, g_src, g_tgt = recipe_realignment(n, seed=n)
        out = pm.realign_with_phone_map(net, frames, pmap, g_src, g_tgt)
        target_phones = pmap.table[g_src.table[frames.labels]]
        allowed = g_tgt.table[None, :] == target_phones[:, None]
        scores = np.where(allowed, reference_forward_batch(net, frames.features), -1.0)
        assert out.labels.tobytes() == np.argmax(scores, axis=1).astype(np.int64).tobytes()

    def test_holds_no_posterior_matrix(self):
        n = 50_000
        net, frames, pmap, g_src, g_tgt = recipe_realignment(n, seed=3)
        tracemalloc.start()
        try:
            pm.realign_with_phone_map(net, frames, pmap, g_src, g_tgt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * 36 * 8 / 2


def toy_language(lang, seed, n_labels=4, n=120):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=3.0, size=(n_labels, 3))
    labels = rng.integers(0, n_labels, size=n)
    feats = centers[labels] + rng.normal(scale=0.2, size=(n, 3))
    return pm.FrameSet(lang, feats, labels, np.arange(n))


class TestAllPairs:
    def make_world(self, languages):
        nets, frames, invs = {}, {}, {}
        for i, lang in enumerate(languages):
            frames[lang] = toy_language(lang, seed=i)
            invs[lang] = pm.LabelInventory(lang, 4)
            net = pm.init_network([3, 8], [(lang, 4)], seed=10 + i)
            nets[lang], _ = pm.train(
                net, frames[lang], pm.TrainConfig(epochs=6, shuffle_seed=i)
            )
        return nets, frames, invs

    def test_single_language_identity(self):
        nets, frames, invs = self.make_world(["a"])
        ms = pm.all_pairs_senone_maps(nets, frames, invs)
        assert set(ms.maps) == {("a", "a")}
        np.testing.assert_array_equal(ms.get("a", "a").table, np.arange(4))

    def test_two_languages_four_maps(self):
        nets, frames, invs = self.make_world(["a", "b"])
        ms = pm.all_pairs_senone_maps(nets, frames, invs)
        assert len(ms.maps) == 4
        for lang in ("a", "b"):
            assert ms.get(lang, lang).provenance == "identity"
            np.testing.assert_array_equal(ms.get(lang, lang).table, np.arange(4))

    def test_off_diagonal_matches_direct_construction(self):
        nets, frames, invs = self.make_world(["a", "b", "c"])
        ms = pm.all_pairs_senone_maps(nets, frames, invs)
        for src in ("a", "b", "c"):
            for tgt in ("a", "b", "c"):
                if src == tgt:
                    continue
                direct = pm.senone_map(
                    pm.accumulate_confusion(nets[tgt], frames[src], invs[tgt], invs[src])
                )
                np.testing.assert_array_equal(ms.get(src, tgt).table, direct.table)

    def test_missing_pair_raises(self):
        ms = pm.MapSet({})
        with pytest.raises(IncompleteMapSetError):
            ms.get("a", "b")

    def test_mismatched_inputs(self):
        nets, frames, invs = self.make_world(["a", "b"])
        del frames["b"]
        with pytest.raises(InventoryError):
            pm.all_pairs_senone_maps(nets, frames, invs)


class TestMapSetFiles:
    def test_round_trip(self, tmp_path):
        nets, frames, invs = TestAllPairs().make_world(["a", "b"])
        ms = pm.all_pairs_senone_maps(nets, frames, invs)
        manifest = pm.save_map_set(ms, tmp_path / "maps")
        assert manifest.name == "mapset.json"
        again = pm.load_map_set(tmp_path / "maps")
        assert set(again.maps) == set(ms.maps)
        for key in ms.maps:
            np.testing.assert_array_equal(again.maps[key].table, ms.maps[key].table)
            assert again.maps[key].provenance == ms.maps[key].provenance

    def test_loader_failures_are_polymap_errors(self, tmp_path):
        ms = pm.MapSet({("a", "a"): pm.identity_map(pm.LabelInventory("a", 4))})
        manifest = pm.save_map_set(ms, tmp_path / "maps")
        good = manifest.read_text()
        manifest.write_text(good.replace('"provenance"', '"origin"'))
        with pytest.raises(MapFormatError, match="malformed map entry"):
            pm.load_map_set(tmp_path / "maps")
        manifest.write_text("{bad")
        with pytest.raises(MapFormatError, match="not valid JSON"):
            pm.load_map_set(tmp_path / "maps")
        manifest.write_text(good)
        (tmp_path / "maps" / "map_a_to_a.txt").unlink()
        with pytest.raises(ArtifactError, match="map_a_to_a.txt"):
            pm.load_map_set(tmp_path / "maps")
        # a valid map file outside the maps directory must not be reachable
        outside = tmp_path / "outside.txt"
        outside.write_text("0 0\n1 1\n2 2\n3 3\n")
        for name in ["../outside.txt", str(outside), "..", ""]:
            manifest.write_text(good.replace('"map_a_to_a.txt"', json.dumps(name)))
            with pytest.raises(MapFormatError, match="mapset.json"):
                pm.load_map_set(tmp_path / "maps")
        manifest.unlink()
        with pytest.raises(ArtifactError, match="mapset.json"):
            pm.load_map_set(tmp_path / "maps")

    @pytest.mark.parametrize(
        "change,key",
        [
            (lambda m: m["maps"][0].update(source_size=8.0), "source_size"),
            (lambda m: m["maps"][0].update(source=7), "source"),
            (lambda m: m["maps"][0].update(source_size=True), "source_size"),
            (lambda m: m["maps"][0].update(provenance=[1]), "provenance"),
            (lambda m: m["maps"][0].update(target_size="3"), "target_size"),
            (lambda m: m["maps"][0].update(target=None), "target"),
            (lambda m: m["maps"][0].update(kind=0), "kind"),
            (lambda m: m["maps"][0].update(file=["map_a_to_b.txt"]), "file"),
            (lambda m: m["maps"][0].update(kind="word"), "word"),
            (lambda m: m["maps"][0].update(source_size=0), "size"),
            (lambda m: m.update(version=2), "version"),
            (lambda m: m.update(version=True), "version"),
            (lambda m: m.update(version=1.0), "version"),
            (lambda m: m.pop("version"), "version"),
            (lambda m: m.update(maps={}), "maps"),
            (lambda m: m["maps"].append("a"), "source"),
            (lambda m: m["maps"].append(dict(m["maps"][0])), r"\('a', 'b'\)"),
        ],
        ids=[
            "size-float", "source-number", "size-bool", "provenance-list", "size-text",
            "target-null", "kind-number", "file-list", "kind-unknown", "size-zero",
            "version-2", "version-bool", "version-float", "version-missing", "maps-object",
            "entry-not-object", "pair-repeated",
        ],
    )
    def test_manifest_fields_are_type_checked(self, tmp_path, change, key):
        inv_a, inv_b = pm.LabelInventory("a", 4), pm.LabelInventory("b", 3)
        ms = pm.MapSet({("a", "b"): pm.LabelMap(inv_a, inv_b, [0, 1, 2, 0], "manual")})
        manifest_path = pm.save_map_set(ms, tmp_path / "maps")
        manifest = json.loads(manifest_path.read_text())
        change(manifest)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(MapFormatError, match=rf"mapset\.json.*{key}"):
            pm.load_map_set(tmp_path / "maps")

    @given(
        in_manifest=st.booleans(),
        position=st.integers(0, 10**6),
        flip=st.one_of(st.none(), st.integers(1, 255)),
    )
    @settings(max_examples=150, deadline=None)
    def test_damaged_map_set_loads_or_raises_polymap_error(
        self, tmp_path_factory, in_manifest, position, flip
    ):
        # flip None cuts the file at ``position``; otherwise one byte is XORed
        directory = tmp_path_factory.mktemp("maps")
        inv_a, inv_b = pm.LabelInventory("a", 4), pm.LabelInventory("b", 3)
        ms = pm.MapSet({
            ("a", "b"): pm.LabelMap(inv_a, inv_b, [0, 1, 2, 0], "manual"),
            ("b", "b"): pm.identity_map(inv_b),
        })
        manifest = pm.save_map_set(ms, directory)
        path = manifest if in_manifest else directory / "map_a_to_b.txt"
        data = bytearray(path.read_bytes())
        if flip is None:
            del data[position % (len(data) + 1) :]
        else:
            data[position % len(data)] ^= flip
        path.write_bytes(bytes(data))
        try:
            loaded = pm.load_map_set(directory)
        except PolymapError:
            return
        assert isinstance(loaded, pm.MapSet)
        for (source, target), label_map in loaded.maps.items():
            assert isinstance(label_map, pm.LabelMap)
            assert (label_map.source_inventory.task_id, label_map.target_inventory.task_id) == (
                source, target
            )

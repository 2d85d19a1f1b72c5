import dataclasses
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polymap as pm
from polymap import cli, harness
from polymap.errors import ArtifactError, ConfigError, EmptyDataError, MissingBaselineError
from polymap.harness import derive_seed

TINY_SYNTH = {
    "num_languages": 2,
    "feature_dim": 6,
    "phones_per_language": 4,
    "senones_per_phone": 2,
    "shared_phone_fraction": 1.0,
    "frames_per_senone": 40,
    "cluster_spread": 0.2,
}

TINY_TRAIN = {"initial_lr": 0.08, "epochs": 4, "batch_size": 32}
TINY_MT = {"initial_lr": 0.02, "epochs": 4, "batch_size": 8}


def tiny_config(tmp_path, method="baseline", **overrides):
    raw = {
        "version": 1,
        "method": method,
        "target": "lang0",
        "sources": [] if method == "baseline" else ["lang1"],
        "seed": 3,
        "output_dir": str(tmp_path / "run"),
        "corpus": {"synth": dict(TINY_SYNTH)},
        "hidden_dims": [16, 16],
        "train": dict(TINY_TRAIN),
        "mt_train": dict(TINY_MT),
        "finetune": {"epochs": 2, "lr": 0.0008},
    }
    raw.update(overrides)
    return raw


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestConfig:
    def test_load_and_defaults(self, tmp_path):
        path = write_config(tmp_path, tiny_config(tmp_path))
        cfg = harness.load_experiment_config(path)
        assert cfg.method == "baseline"
        assert cfg.split_fractions == {"train": 0.8, "dev": 0.1, "test": 0.1}
        assert cfg.finetune_epochs == 2
        assert cfg.train.epochs == 4
        assert cfg.mt_train == dataclasses.replace(pm.MT_RECIPE, **TINY_MT)

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, tiny_config(tmp_path))
        assert harness.load_experiment_config(path, seed=99).seed == 99

    def test_relative_paths_resolve_against_config(self, tmp_path):
        raw = tiny_config(tmp_path, corpus={"path": "data/corpus.npz"}, output_dir="out")
        cfg = harness.experiment_config_from_dict(raw, tmp_path)
        assert cfg.corpus_path == tmp_path / "data/corpus.npz"
        assert cfg.output_dir == tmp_path / "out"

    @pytest.mark.parametrize(
        "mutate",
        [
            {"method": "nonsense"},
            {"sources": ["lang0"], "method": "senone-map"},
            {"sources": ["lang1", "lang1"], "method": "senone-map"},
            {"sources": [], "method": "senone-map"},
            {"corpus": {}},
            {"corpus": {"path": "x.npz", "synth": dict(TINY_SYNTH)}},
            {"split": {"train": 0.5, "dev": 0.1, "test": 0.1}},
            {"hidden_dims": [0]},
            {"finetune": {"epochs": -1}},
            {"bogus_key": 1},
            {"train": {"bogus": 2}},
            {"version": 99},
        ],
    )
    def test_rejected_configs(self, tmp_path, mutate):
        raw = tiny_config(tmp_path)
        raw.update(mutate)
        with pytest.raises(ConfigError):
            harness.experiment_config_from_dict(raw, tmp_path)

    def test_manual_map_requires_files(self, tmp_path):
        raw = tiny_config(tmp_path, method="manual-map", sources=["lang1"])
        with pytest.raises(ConfigError):
            harness.experiment_config_from_dict(raw, tmp_path)

    def test_integers_in_number_fields_load_as_before(self):
        raw = {
            "method": "senone-map", "target": "lang0", "sources": ["lang1"], "seed": 3,
            "output_dir": "run", "corpus": {"synth": {"shared_phone_fraction": 1}},
            "split": {"train": 1, "dev": 0, "test": 0}, "hidden_dims": [16, 16],
            "train": {"initial_lr": 1, "halve_every_epoch": False}, "mt_train": {"initial_lr": 1},
            "finetune": {"lr": 1},
        }
        cfg = harness.experiment_config_from_dict(raw)
        assert (cfg.finetune_lr, type(cfg.finetune_lr)) == (1.0, float)
        assert (cfg.train.initial_lr, cfg.split_fractions["train"]) == (1, 1)
        assert harness.config_hash(cfg) == "43b0c6d5def5d4c9"  # as before the type checks

    @pytest.mark.parametrize("fields", [{"method": "nonsense"}, {"finetune_lr": 0}])
    def test_a_config_checks_itself_when_built(self, tmp_path, fields):
        given = {"method": "baseline", "target": "lang0", "output_dir": tmp_path,
                 "synth": pm.SynthSpec(), **fields}
        with pytest.raises(ConfigError):
            harness.ExperimentConfig(**given)

    @pytest.mark.parametrize("section", ["train", "mt_train"])
    def test_a_schedule_with_a_shuffle_seed_is_refused(self, tmp_path, section):
        # the stages replace it with one derived from the run seed, so it
        # could only change the config hash, never a model
        with pytest.raises(ConfigError, match=f"^{section}: shuffle_seed must be 0"):
            harness.ExperimentConfig("baseline", "lang0", tmp_path, synth=pm.SynthSpec(),
                                     **{section: pm.TrainConfig(shuffle_seed=12345)})

    def test_a_config_is_frozen_and_has_no_validate(self, tmp_path):
        cfg = harness.experiment_config_from_dict(tiny_config(tmp_path), tmp_path)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.method = "nonsense"
        assert not hasattr(cfg, "validate")

    def test_a_config_is_deeply_frozen_and_pickles(self, tmp_path):
        raw = tiny_config(tmp_path, method="manual-map", manual_maps={"lang1": "lang1.txt"})
        cfg = harness.experiment_config_from_dict(raw, tmp_path)
        mutations = [
            lambda: cfg.sources.append(cfg.target),
            lambda: cfg.hidden_dims.append(8),
            lambda: cfg.split_fractions.update(train=0.5),
            lambda: cfg.split_fractions.__setitem__("train", 0.5),
            lambda: cfg.manual_maps.pop("lang1"),
            lambda: cfg.manual_maps.__delitem__("lang1"),
        ]
        for mutate in mutations:
            with pytest.raises((AttributeError, TypeError)):
                mutate()
        assert (cfg.sources, cfg.hidden_dims) == (("lang1",), (16, 16))
        assert cfg.split_fractions == {"train": 0.8, "dev": 0.1, "test": 0.1}
        assert cfg.manual_maps == {"lang1": tmp_path / "lang1.txt"}
        assert pickle.loads(pickle.dumps(cfg)) == cfg
        assert hash(pickle.loads(pickle.dumps(cfg))) == hash(cfg)

    def test_a_missing_key_keeps_the_dataclass_default(self, tmp_path):
        raw = {"method": "baseline", "target": "lang0", "output_dir": "run",
               "corpus": {"synth": {}}}
        cfg = harness.experiment_config_from_dict(raw, tmp_path)
        assert cfg == harness.ExperimentConfig(
            "baseline", "lang0", tmp_path / "run", synth=pm.SynthSpec(seed=None)
        )
        assert harness.finetune_schedule(cfg) == dataclasses.replace(
            pm.FINETUNE_RECIPE, shuffle_seed=derive_seed(0, "shuffle:finetune")
        )

    def test_zero_finetune_epochs_is_a_schedule(self, tmp_path):
        raw = tiny_config(tmp_path, finetune={"epochs": 0})
        assert harness.experiment_config_from_dict(raw, tmp_path).finetune_epochs == 0

    def test_config_hash_ignores_seed_and_output(self, tmp_path):
        a = harness.experiment_config_from_dict(tiny_config(tmp_path, seed=1), tmp_path)
        b = harness.experiment_config_from_dict(
            tiny_config(tmp_path, seed=2, output_dir="elsewhere"), tmp_path
        )
        c_raw = tiny_config(tmp_path)
        c_raw["train"]["epochs"] = 5
        c = harness.experiment_config_from_dict(c_raw, tmp_path)
        assert harness.config_hash(a) == harness.config_hash(b)
        assert harness.config_hash(a) != harness.config_hash(c)


class TestFrameErrorRate:
    def fixed_net(self, log_probs):
        return pm.Network(
            [np.zeros((len(log_probs), 1))], [np.log(log_probs)], [("x", len(log_probs))],
        )

    def test_all_correct(self):
        net = self.fixed_net(np.array([0.6, 0.4]))
        frames = pm.FrameSet("x", np.zeros((4, 1)), np.zeros(4, int), np.arange(4))
        assert harness.frame_error_rate(net, frames) == 0.0

    def test_all_wrong(self):
        net = self.fixed_net(np.array([0.6, 0.4]))
        frames = pm.FrameSet("x", np.zeros((4, 1)), np.ones(4, int), np.arange(4))
        assert harness.frame_error_rate(net, frames) == 100.0

    def test_three_of_ten(self):
        net = self.fixed_net(np.array([0.6, 0.4]))
        labels = np.array([0] * 7 + [1] * 3)
        frames = pm.FrameSet("x", np.zeros((10, 1)), labels, np.arange(10))
        assert harness.frame_error_rate(net, frames) == 30.0

    def test_empty(self):
        net = self.fixed_net(np.array([0.6, 0.4]))
        frames = pm.FrameSet("x", np.zeros((0, 1)), np.zeros(0, int), np.zeros(0, int))
        with pytest.raises(EmptyDataError):
            harness.frame_error_rate(net, frames)


class TestImprovement:
    @pytest.mark.parametrize(
        "baseline,value,expected",
        [(33.14, 29.94, 9.66), (13.56, 11.67, 13.94), (13.56, 10.68, 21.24)],
    )
    def test_reported_pairs(self, baseline, value, expected):
        assert abs(harness.relative_improvement(baseline, value) - expected) <= 0.01

    def test_equal_is_zero(self):
        assert harness.relative_improvement(20.0, 20.0) == 0.0


def make_row(method, seed=0, dev=20.0, test=25.0):
    return harness.ResultRow(
        method=method, target="lang0", sources=("lang1",), seed=seed,
        config_hash="abc", dev_frame_error=dev, test_frame_error=test,
    )


def row_json(**overrides):
    """A result row file's text, with ``overrides`` replacing its values."""
    return json.dumps({**harness.row_to_dict(make_row("baseline")), **overrides})


class TestEmitTable:
    def test_baseline_marked_na(self):
        text, payload = harness.emit_table([make_row("baseline")])
        assert "(NA)" in text
        assert payload["rows"][0]["method"] == "baseline"

    def test_improvements_rendered(self):
        rows = [make_row("baseline", dev=32.87, test=33.14), make_row("senone-map", dev=30.64, test=29.94)]
        text, _ = harness.emit_table(rows)
        assert "29.94 (9.66)" in text
        assert "30.64 (6.78)" in text

    def test_method_equal_to_baseline(self):
        rows = [make_row("baseline", test=20.0), make_row("senone-map", test=20.0)]
        text, _ = harness.emit_table(rows)
        assert "20.00 (0.00)" in text

    def test_multi_seed_rows_average(self):
        rows = [
            make_row("baseline", seed=0, test=20.0),
            make_row("baseline", seed=1, test=30.0),
        ]
        _, payload = harness.emit_table(rows)
        assert payload["rows"][0]["test_frame_error"] == 25.0
        assert payload["rows"][0]["seeds"] == [0, 1]

    def test_missing_baseline(self):
        with pytest.raises(MissingBaselineError):
            harness.emit_table([make_row("senone-map")])

    @pytest.mark.parametrize("other", [{"target": "lang2"}, {"sources": ("lang2",)}])
    def test_rows_of_two_targets_or_source_lists_are_refused(self, other):
        rows = [make_row("baseline"), make_row("senone-map"),
                dataclasses.replace(make_row("senone-map", seed=1), **other)]
        with pytest.raises(ArtifactError, match="one target and one source list"):
            harness.emit_table(rows)

    def test_baseline_sources_are_not_compared(self):
        # a baseline trains on the target alone, whatever its config's sources
        rows = [dataclasses.replace(make_row("baseline"), sources=()), make_row("senone-map")]
        assert [r["method"] for r in harness.emit_table(rows)[1]["rows"]] == [
            "baseline", "senone-map"]

    def test_text_and_payload_round_trip(self, tmp_path):
        rows = [make_row("baseline"), make_row("senone-map", test=18.0)]
        text = harness.write_report(rows, tmp_path, metadata={"target": "lang0"})
        payload = json.loads((tmp_path / "report.json").read_text())
        assert harness.render_table(payload) == text
        assert (tmp_path / "report.txt").read_text() == text + "\n"


class TestRunExperiment:
    def run(self, tmp_path, method, seed=3, **overrides):
        raw = tiny_config(tmp_path, method=method, **overrides)
        cfg = harness.experiment_config_from_dict(raw, tmp_path)
        return harness.run_experiment(cfg), harness.RunPaths(cfg.output_dir)

    def test_baseline_artifacts(self, tmp_path):
        row, paths = self.run(tmp_path, "baseline")
        assert paths.baseline_model.exists()
        assert not paths.final_model.exists()
        assert paths.row("baseline", 3).exists()
        loaded = harness.read_row(paths.row("baseline", 3))
        assert loaded == row
        assert 0.0 <= row.test_frame_error <= 100.0

    def test_rerun_is_bit_identical(self, tmp_path):
        row1, paths = self.run(tmp_path, "senone-map", sources=["lang1"])
        row_bytes = paths.row("senone-map", 3).read_bytes()
        model_bytes = paths.final_model.read_bytes()
        row2, _ = self.run(tmp_path, "senone-map", sources=["lang1"])
        assert row1 == row2
        assert paths.row("senone-map", 3).read_bytes() == row_bytes
        assert paths.final_model.read_bytes() == model_bytes

    @pytest.mark.parametrize("method", ["baseline", "phone-map", "mtdnn-mapped"])
    def test_empty_target_split_fails_before_the_first_stage(self, tmp_path, method):
        # 3 utterances per language split 3 / 0 / 0 at the default fractions
        synth = {"num_languages": 2, "phones_per_language": 3, "senones_per_phone": 2,
                 "frames_per_senone": 20}
        raw = tiny_config(tmp_path, method=method, corpus={"synth": synth})
        cfg = harness.experiment_config_from_dict(raw, tmp_path)
        with pytest.raises(EmptyDataError, match="'lang0' has no utterances in its dev split"):
            harness.run_experiment(cfg)
        assert not list(cfg.output_dir.rglob("*.npz"))
        assert not list(cfg.output_dir.rglob("*.json"))

    def test_map_method_writes_maps(self, tmp_path):
        _, paths = self.run(tmp_path, "phone-map", sources=["lang1"])
        assert (paths.maps_dir / "mapset.json").exists()
        assert paths.pooled_model.exists()
        assert paths.baseline_model.exists()

    def test_mtdnn_masked_pipeline(self, tmp_path):
        row, paths = self.run(tmp_path, "mtdnn-masked", sources=["lang1"])
        assert paths.mtdnn_model.exists()
        assert paths.pruned_model.exists()
        assert paths.final_model.exists()
        assert row.method == "mtdnn-masked"

    def test_mtdnn_mapped_pipeline(self, tmp_path):
        _, paths = self.run(tmp_path, "mtdnn-mapped", sources=["lang1"])
        assert paths.mapper_model("lang0").exists()
        assert paths.mapper_model("lang1").exists()
        assert (paths.maps_dir / "mapset.json").exists()

    def test_train_log_lines(self, tmp_path):
        # one epoch of each recipe; fine-tuning runs the tiny config's 2 epochs
        one_epoch = {"train": {**TINY_TRAIN, "epochs": 1}, "mt_train": {**TINY_MT, "epochs": 1}}
        _, base = self.run(tmp_path / "baseline", "baseline", **one_epoch)
        _, masked = self.run(tmp_path / "masked", "mtdnn-masked", **one_epoch)
        loss = r"\d+\.\d{6}"
        expected = {
            base.logs_dir / "baseline_train.log": [rf"epoch=0 lr=0\.08 loss={loss}"],
            masked.logs_dir / "mtdnn_train.log": [
                rf"epoch=0 lr=0\.02 loss\[lang0\]={loss} loss\[lang1\]={loss}"
            ],
            masked.logs_dir / "finetune.log": [
                rf"epoch={e} lr=0\.0008 loss={loss}" for e in (0, 1)
            ],
        }
        for path, lines in expected.items():
            assert re.fullmatch("\n".join(lines) + "\n", path.read_text()), path

    def test_train_log_line_from_the_record(self, tmp_path):
        history = [
            pm.EpochStats(0, 0.08, 1.25, {"lang0": 1.25}),
            pm.EpochStats(1, 0.04, 0.5, {"lang1": 0.75, "lang0": 0.25}),
        ]
        harness._write_train_log(tmp_path / "train.log", history)
        assert (tmp_path / "train.log").read_text() == (
            "epoch=0 lr=0.08 loss=1.250000\n"
            "epoch=1 lr=0.04 loss[lang0]=0.250000 loss[lang1]=0.750000\n"
        )

    def test_finetune_stage_trains_on_the_finetune_schedule(self, tmp_path, monkeypatch):
        raw = tiny_config(tmp_path, method="mtdnn-masked", train={**TINY_TRAIN, "batch_size": 8},
                          finetune={"epochs": 3, "lr": 0.002})
        cfg = harness.experiment_config_from_dict(raw, tmp_path)
        paths = harness.RunPaths(cfg.output_dir)
        model = tmp_path / "pruned.npz"
        pm.save_network(pm.init_network([6, 16, 16], [("lang0", 8)], seed=1), model)
        schedules = []

        def finetune(net, frames, schedule):
            schedules.append(schedule)
            return pm.finetune(net, frames, schedule)

        monkeypatch.setattr(harness, "finetune", finetune)
        harness.stage_finetune(cfg, paths, {"prune": model}, harness.prepare_corpus(cfg))
        assert schedules == [dataclasses.replace(
            pm.FINETUNE_RECIPE, initial_lr=0.002, epochs=3, batch_size=8,
            shuffle_seed=derive_seed(3, "shuffle:finetune"),
        )]
        assert len(paths.logs_dir.joinpath("finetune.log").read_text().splitlines()) == 3

    def test_manual_map_pipeline(self, tmp_path):
        # the generator's phone answer key doubles as a manual map file
        corpus = pm.generate_synthetic(pm.SynthSpec(**TINY_SYNTH, seed=51))
        files = pm.save_ground_truth_maps(corpus, tmp_path / "truth")
        corpus_path = tmp_path / "corpus.npz"
        pm.save_corpus(corpus, corpus_path)
        raw = tiny_config(
            tmp_path,
            method="manual-map",
            sources=["lang1"],
            corpus={"path": str(corpus_path)},
            manual_maps={"lang1": str(tmp_path / "truth" / "truth_phone_lang1_to_lang0.txt")},
        )
        cfg = harness.experiment_config_from_dict(raw, tmp_path)
        row = harness.run_experiment(cfg)
        assert row.method == "manual-map"

    @pytest.mark.parametrize("method", harness.METHODS)
    def test_stagewise_equals_end_to_end(self, tmp_path, method):
        manual_maps = {}
        if method == "manual-map":
            # the generator's phone answer key doubles as a manual map file
            corpus = pm.generate_synthetic(pm.SynthSpec(**TINY_SYNTH, seed=51))
            pm.save_ground_truth_maps(corpus, tmp_path / "truth")
            manual_maps = {"lang1": str(tmp_path / "truth" / "truth_phone_lang1_to_lang0.txt")}
        synth = {"synth": {**TINY_SYNTH, "seed": 51}}

        def config(output_dir):
            raw = tiny_config(
                tmp_path, method=method, sources=["lang1"], output_dir=output_dir,
                corpus=synth, manual_maps=manual_maps,
            )
            return harness.experiment_config_from_dict(raw, tmp_path)

        auto_cfg = config("auto")
        row = harness.run_experiment(auto_cfg)
        auto = harness.RunPaths(auto_cfg.output_dir)

        cfg = config("manual")
        manual = harness.RunPaths(cfg.output_dir)
        harness.stage_synth(cfg, manual, harness.prepare_corpus(cfg))
        for name in harness.PIPELINES[method]:
            assert harness.run_stage(cfg, name) == getattr(manual, harness.STAGES[name].writes)
        last = harness.STAGES[harness.PIPELINES[method][-1]]
        assert getattr(manual, last.writes).read_bytes() == getattr(auto, last.writes).read_bytes()
        assert harness.evaluate(cfg, split="dev") == row.dev_frame_error
        assert harness.evaluate(cfg, split="test") == row.test_frame_error


def missing_input_cases():
    """(method, command, missing input stage, present input stages) for
    every input of every stage in every pipeline, and of ``evaluate``,
    which reads the output of the pipeline's last stage."""
    cases = []
    for method, pipeline in harness.PIPELINES.items():
        steps = [(s, harness.STAGES[s].reads, pipeline[:i]) for i, s in enumerate(pipeline)]
        for command, reads, earlier in [*steps, ("evaluate", pipeline[-1:], pipeline)]:
            inputs = [r for r in reads if r in earlier]
            for missing in inputs:
                name = getattr(harness.RunPaths(""), harness.STAGES[missing].writes).name
                present = [r for r in inputs if r != missing]
                cases.append(
                    pytest.param(method, command, missing, present, id=f"{method}-{command}-{name}")
                )
    return cases


class TestCli:
    def test_experiment_and_report(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path))
        assert cli.main(["experiment", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "method=baseline" in out
        assert cli.main(["report", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "(NA)" in out

    def test_synth_writes_corpus(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path))
        assert cli.main(["synth", "--config", str(path)]) == 0
        assert (tmp_path / "run" / "corpus.npz").exists()
        assert (tmp_path / "run" / "truth" / "truth_phone_lang0_to_lang1.txt").exists()

    def test_stage_chain(self, tmp_path, capsys):
        raw = tiny_config(tmp_path, method="mtdnn-masked", sources=["lang1"])
        path = write_config(tmp_path, raw)
        for command in ("synth", "mt-train", "prune", "finetune"):
            assert cli.main([command, "--config", str(path)]) == 0
        assert cli.main(["evaluate", "--config", str(path), "--split", "dev"]) == 0
        assert "frame_error_rate dev" in capsys.readouterr().out

    def test_pool_train_stage_chain(self, tmp_path, capsys):
        raw = tiny_config(tmp_path, method="senone-map", sources=["lang1"])
        path = write_config(tmp_path, raw)
        for command in ("synth", "train-baseline", "build-map", "pool-train", "finetune"):
            assert cli.main([command, "--config", str(path)]) == 0
        assert cli.main(["evaluate", "--config", str(path)]) == 0
        assert "frame_error_rate test" in capsys.readouterr().out

    def test_error_prints_class_and_fails(self, tmp_path, capsys):
        raw = tiny_config(tmp_path)
        raw["method"] = "bogus"
        path = write_config(tmp_path, raw)
        assert cli.main(["experiment", "--config", str(path)]) == 1
        assert "ConfigError" in capsys.readouterr().err

    def test_validate_map(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path))
        cli.main(["synth", "--config", str(path)])
        good = tmp_path / "run" / "truth" / "truth_phone_lang1_to_lang0.txt"
        assert cli.main([
            "validate-map", "--config", str(path), "--map", str(good),
            "--source", "lang1", "--target", "lang0", "--kind", "phone",
        ]) == 0
        assert "ok" in capsys.readouterr().out
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n")
        assert cli.main([
            "validate-map", "--config", str(path), "--map", str(bad),
            "--source", "lang1", "--target", "lang0", "--kind", "phone",
        ]) == 1
        assert "IncompleteMapError" in capsys.readouterr().err

    def test_build_map_requires_baseline(self, tmp_path, capsys):
        raw = tiny_config(tmp_path, method="senone-map", sources=["lang1"])
        path = write_config(tmp_path, raw)
        err = self.one_error_line(capsys, ["build-map", "--config", str(path)])
        baseline = harness.RunPaths(tmp_path / "run").baseline_model
        assert err == f"ArtifactError: {baseline} not found; run train-baseline first"

    @pytest.mark.parametrize("method,command,missing,present", missing_input_cases())
    def test_stage_before_its_input_fails_cleanly(
        self, tmp_path, capsys, method, command, missing, present
    ):
        raw = tiny_config(tmp_path, method=method, sources=["lang1"])
        if method == "manual-map":
            raw["manual_maps"] = {"lang1": "never-read.txt"}
        path = write_config(tmp_path, raw)
        paths = harness.RunPaths(tmp_path / "run")
        # Inputs are checked before any is read, so an empty file stands in
        # for an input that is present.
        for stage in present:
            output = getattr(paths, harness.STAGES[stage].writes)
            output.parent.mkdir(parents=True, exist_ok=True)
            output.touch()
        err = self.one_error_line(capsys, [command, "--config", str(path)])
        output = getattr(paths, harness.STAGES[missing].writes)
        assert err == f"ArtifactError: {output} not found; run {missing} first"

    @pytest.mark.parametrize(
        "method,command", [("senone-map", "mt-train"), ("baseline", "finetune")]
    )
    def test_stage_outside_the_pipeline_fails_cleanly(self, tmp_path, capsys, method, command):
        path = write_config(tmp_path, tiny_config(tmp_path, method=method))
        err = self.one_error_line(capsys, [command, "--config", str(path)])
        assert err.startswith("ConfigError: ") and ", ".join(harness.PIPELINES[method]) in err

    def test_diverging_training_fails_cleanly(self, tmp_path, capsys):
        raw = tiny_config(tmp_path, train={**TINY_TRAIN, "initial_lr": 1e12})
        path = write_config(tmp_path, raw)
        assert cli.main(["train-baseline", "--config", str(path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("NonFiniteLossError: ")

    def test_finetune_ignores_stale_pruned_model(self, tmp_path, capsys):
        raw = tiny_config(tmp_path, method="phone-map", sources=["lang1"])
        path = write_config(tmp_path, raw)
        for command in ("synth", "train-baseline", "build-map", "pool-train", "finetune"):
            assert cli.main([command, "--config", str(path)]) == 0
        paths = harness.RunPaths(tmp_path / "run")
        expected = paths.final_model.read_bytes()
        # left behind by an earlier multitask run in the same directory
        pm.save_network(pm.init_network([6, 16, 16], [("lang0", 8)], seed=99), paths.pruned_model)
        assert cli.main(["finetune", "--config", str(path)]) == 0
        assert paths.final_model.read_bytes() == expected

    def test_evaluate_refuses_a_model_of_other_languages(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path, method="mtdnn-mapped"))
        for command in ("synth", "build-map", "mt-train"):
            assert cli.main([command, "--config", str(path)]) == 0
        paths = harness.RunPaths(tmp_path / "run")
        evaluate = ["evaluate", "--config", str(path), "--model"]
        assert cli.main([*evaluate, str(paths.mapper_model("lang0"))]) == 0
        capsys.readouterr()
        for model, heads in ((paths.mapper_model("lang1"), ["lang1"]),
                             (paths.mtdnn_model, ["lang0", "lang1"])):
            err = self.one_error_line(capsys, [*evaluate, str(model)])
            expected = f"{model} holds a model of language(s) {heads}, not ['lang0']"
            assert err == f"ArtifactError: {expected}"

    @pytest.mark.parametrize("method,stage,reads", [
        ("senone-map", "build-map", "train-baseline"),
        ("senone-map", "pool-train", "train-baseline"),
        ("mtdnn-masked", "prune", "mt-train"),
        ("mtdnn-masked", "finetune", "prune"),
    ])
    def test_stage_refuses_a_model_of_other_languages(
        self, tmp_path, capsys, method, stage, reads
    ):
        path = write_config(tmp_path, tiny_config(tmp_path, method=method))
        pipeline = harness.PIPELINES[method]
        for command in ("synth", *pipeline[: pipeline.index(stage)]):
            assert cli.main([command, "--config", str(path)]) == 0
        # the input model with the languages of its heads swapped
        model = getattr(harness.RunPaths(tmp_path / "run"), harness.STAGES[reads].writes)
        net, swap = pm.load_multihead(model), {"lang0": "lang1", "lang1": "lang0"}
        heads = [(swap[lang], size) for lang, size in net.heads]
        pm.save_multihead(dataclasses.replace(net, heads=heads), model)
        err = self.one_error_line(capsys, [stage, "--config", str(path)])
        assert err.startswith(f"ArtifactError: {model} holds a model of language(s) ")

    def one_error_line(self, capsys, argv):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        return err[0]

    @pytest.mark.parametrize("override,key", [
        ({"seed": "x"}, "'seed'"),
        ({"seed": True}, "'seed'"),
        ({"hidden_dims": ["x"]}, "'hidden_dims'"),
        ({"hidden_dims": [16.0]}, "'hidden_dims'"),
        ({"train": {"epochs": "x"}}, "train key 'epochs'"),
        ({"train": {"halve_every_epoch": 1}}, "train key 'halve_every_epoch'"),
        ({"mt_train": {"batch_size": 2.5}}, "mt_train key 'batch_size'"),
        ({"finetune": {"lr": "x"}}, "finetune key 'lr'"),
        ({"finetune": []}, "'finetune'"),
        ({"output_dir": 5}, "'output_dir'"),
        ({"manual_maps": []}, "'manual_maps'"),
        ({"sources": "lang1"}, "'sources'"),
        ({"target": ["lang0"]}, "'target'"),
        ({"split": {"train": "0.8", "dev": 0.1, "test": 0.1}}, "'split'"),
        ({"corpus": {"path": 5}}, "corpus key 'path'"),
        ({"corpus": {"synth": {"feature_dim": "6"}}}, "corpus.synth key 'feature_dim'"),
        ({"corpus": {"synth": {"seed": 1.5}}}, "corpus.synth key 'seed'"),
    ])
    def test_config_value_of_the_wrong_type_fails_cleanly(self, tmp_path, capsys, override, key):
        path = write_config(tmp_path, tiny_config(tmp_path, **override))
        err = self.one_error_line(capsys, ["train-baseline", "--config", str(path)])
        assert err.startswith("ConfigError: ") and key in err

    @pytest.mark.parametrize(
        "value", [{"frames_per_senone": 0}, {"shared_phone_fraction": 1.5}, {"seed": -1}]
    )
    def test_synth_value_out_of_range_names_the_file_and_section(self, tmp_path, capsys, value):
        raw = tiny_config(tmp_path, corpus={"synth": {**TINY_SYNTH, **value}})
        path = write_config(tmp_path, raw)
        err = self.one_error_line(capsys, ["synth", "--config", str(path)])
        assert err.startswith(f"ConfigError: {path}: corpus.synth: {next(iter(value))} ")

    @pytest.mark.parametrize("section,value", [
        ("train", {"initial_lr": -1}),
        ("mt_train", {"initial_lr": -1}),
        ("mt_train", {"epochs": -1}),
        ("finetune", {"epochs": -1}),
        ("finetune", {"lr": 0}),
    ])
    def test_schedule_value_out_of_range_names_the_file_and_section(
        self, tmp_path, capsys, section, value
    ):
        path = write_config(tmp_path, tiny_config(tmp_path, **{section: value}))
        err = self.one_error_line(capsys, ["train-baseline", "--config", str(path)])
        assert err.startswith(f"ConfigError: {path}: {section}: ")

    @pytest.mark.parametrize("command", ["experiment", "synth", "report"])
    def test_output_dir_that_is_a_file_fails_cleanly(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        write_config(tmp_path, tiny_config(tmp_path, output_dir=str(path)))
        rows = tmp_path / "row.json"
        rows.write_text(row_json())
        extra = ["--rows", str(rows)] if command == "report" else []
        err = self.one_error_line(capsys, [command, "--config", str(path), *extra])
        assert err.startswith(f"ArtifactError: cannot make the run directory {path}: ")

    @pytest.mark.parametrize("command,method,blocked,kind,written", [
        ("train-baseline", "baseline", "models", "file", "models/baseline.npz"),
        ("train-baseline", "baseline", "logs", "file", "logs/baseline_train.log"),
        ("train-baseline", "baseline", "models/baseline.npz", "dir", "models/baseline.npz"),
        ("experiment", "baseline", "rows", "file", "rows/baseline_seed3.json"),
        ("build-map", "mtdnn-mapped", "maps", "file", "maps/map_lang0_to_lang0.txt"),
        ("synth", "baseline", "corpus.npz", "dir", "corpus.npz"),
    ])
    def test_an_artifact_that_cannot_be_written_fails_cleanly(
        self, tmp_path, capsys, command, method, blocked, kind, written
    ):
        path = write_config(tmp_path, tiny_config(tmp_path, method=method))
        blocker = tmp_path / "run" / blocked
        blocker.parent.mkdir(parents=True)
        if kind == "dir":
            blocker.mkdir()
        else:
            blocker.write_text("")
        err = self.one_error_line(capsys, [command, "--config", str(path)])
        assert err.startswith(f"ArtifactError: cannot write {tmp_path / 'run' / written}: ")

    def test_a_cached_corpus_that_is_a_directory_fails_cleanly(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path))
        corpus = tmp_path / "run" / "corpus.npz"
        corpus.mkdir(parents=True)
        err = self.one_error_line(capsys, ["train-baseline", "--config", str(path)])
        assert err == f"ArtifactError: cannot read {corpus}: is a directory"

    @pytest.mark.parametrize("line", ["feature_dim 0", "language lang0 senones 2 phonez 1"])
    def test_a_corpus_header_line_out_of_form_fails_cleanly(self, tmp_path, capsys, line):
        corpus = tmp_path / "corpus.txt"
        head = ["polymap-corpus 1", "feature_dim 2", "language lang0 senones 2 phones 1"]
        head[1 if line.startswith("feature_dim") else 2] = line
        corpus.write_text("\n".join(head) + "\n")
        path = write_config(tmp_path, tiny_config(tmp_path, corpus={"path": str(corpus)}))
        err = self.one_error_line(capsys, ["train-baseline", "--config", str(path)])
        assert err.startswith(f"ArtifactError: cannot read {corpus}: line {head.index(line) + 1} ")

    @pytest.mark.parametrize("content", [
        pytest.param("{bad", id="bad JSON"),
        pytest.param("[1]", id="not an object"),
        pytest.param('{"format": "polymap-result-row", "method": "baseline"}', id="row without target"),
        pytest.param(None, id="missing file"),
        pytest.param(row_json(sources="lang1"), id="sources a string"),
        pytest.param(row_json(seed=True), id="seed a boolean"),
        pytest.param(row_json(seed=1.5), id="seed a fraction"),
        pytest.param(row_json(config_hash=5), id="config hash a number"),
        pytest.param(row_json(test_frame_error="nan"), id="error rate a string"),
        pytest.param(row_json(test_frame_error=float("nan")), id="error rate NaN"),
        pytest.param(row_json(dev_frame_error=-5.0), id="error rate negative"),
    ])
    def test_report_on_a_bad_row_file_fails_cleanly(self, tmp_path, capsys, content):
        path = write_config(tmp_path, tiny_config(tmp_path))
        row = tmp_path / "row.json"
        if content is not None:
            row.write_text(content)
        err = self.one_error_line(capsys, ["report", "--config", str(path), "--rows", str(row)])
        assert err.startswith(f"ArtifactError: cannot read {row}: ")

    def test_report_reads_each_row_file_once(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path))
        rows = harness.RunPaths(tmp_path / "run").rows_dir
        for seed, dev in ((0, 60.0), (1, 70.0)):
            harness.write_row(make_row("baseline", seed=seed, dev=dev), harness.RunPaths(
                tmp_path / "run").row("baseline", seed))
        # the default rows directory, named again as a directory, by file and by another path
        for extra in ([str(rows)], [str(rows / "baseline_seed1.json")],
                      [str(rows / ".." / "rows" / "baseline_seed0.json"), str(rows)]):
            assert cli.main(["report", "--config", str(path), "--rows", *extra]) == 0
            capsys.readouterr()
            (report,) = json.loads((tmp_path / "run" / "report.json").read_text())["rows"]
            assert (report["seeds"], report["dev_frame_error"]) == ([0, 1], 65.0)

    def test_report_refuses_two_files_of_one_row(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path))
        rows = harness.RunPaths(tmp_path / "run").rows_dir
        harness.write_row(make_row("baseline", seed=1), rows / "baseline_seed1.json")
        copy = tmp_path / "copy.json"
        harness.write_row(make_row("baseline", seed=1, dev=30.0), copy)
        err = self.one_error_line(capsys, ["report", "--config", str(path), "--rows", str(copy)])
        other = rows / "baseline_seed1.json"
        assert err == f"ArtifactError: {copy} and {other} both hold a row of baseline seed 1"

    @pytest.mark.parametrize("other,method", [
        ({"target": "lang2"}, "baseline"), ({"target": "lang2"}, "senone-map"),
        ({"sources": ("lang2",)}, "senone-map"),
    ])
    def test_report_refuses_a_row_of_another_target_or_sources(
        self, tmp_path, capsys, other, method
    ):
        # a lang0 config whose rows directory also holds a row of another setting
        path = write_config(tmp_path, tiny_config(tmp_path, method=method))
        paths = harness.RunPaths(tmp_path / "run")
        harness.write_row(make_row(method, seed=0, test=30.0), paths.row(method, 0))
        stray = dataclasses.replace(make_row(method, seed=1, test=70.0), **other)
        harness.write_row(stray, paths.row(method, 1))
        err = self.one_error_line(capsys, ["report", "--config", str(path)])
        assert err.startswith(f"ArtifactError: {paths.row(method, 1)} holds a row of target ")
        assert not paths.report_json.exists()

    @pytest.mark.parametrize("method,sources", [
        ("baseline", []), ("senone-map", ["lang1", "lang2"]),
    ])
    def test_report_takes_matrix_rows_of_one_setting(self, tmp_path, capsys, method, sources):
        # matrix rows: every method's sources are the other languages, and each
        # seed's config hash differs, since the corpus path is hashed
        path = write_config(tmp_path, tiny_config(tmp_path, method=method, sources=sources))
        matrix = tmp_path / "matrix"
        for seed in (0, 1):
            for name in ("baseline", "senone-map"):
                row = dataclasses.replace(
                    make_row(name, seed=seed, test=20.0 + seed), sources=("lang1", "lang2"),
                    config_hash=f"{name}-{seed}",
                )
                harness.write_row(row, matrix / f"{name}_seed{seed}.json")
        assert cli.main(["report", "--config", str(path), "--rows", str(matrix)]) == 0
        capsys.readouterr()
        report = json.loads(harness.RunPaths(tmp_path / "run").report_json.read_text())
        assert [(r["method"], r["seeds"], r["test_frame_error"]) for r in report["rows"]] == [
            ("baseline", [0, 1], 20.5), ("senone-map", [0, 1], 20.5)]

    def test_pool_train_without_maps_fails_cleanly(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path, method="senone-map"))
        assert cli.main(["train-baseline", "--config", str(path)]) == 0
        capsys.readouterr()
        err = self.one_error_line(capsys, ["pool-train", "--config", str(path)])
        assert err.startswith("ArtifactError: ") and "mapset.json" in err

    def test_malformed_map_set_fails_cleanly(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path, method="senone-map"))
        for command in ("train-baseline", "build-map"):
            assert cli.main([command, "--config", str(path)]) == 0
        capsys.readouterr()
        (tmp_path / "run" / "maps" / "mapset.json").write_text("{bad")
        err = self.one_error_line(capsys, ["pool-train", "--config", str(path)])
        assert err.startswith("MapFormatError: ")

    def test_validate_missing_map_file_fails_cleanly(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path))
        err = self.one_error_line(capsys, [
            "validate-map", "--config", str(path), "--map", str(tmp_path / "missing.txt"),
            "--source", "lang1", "--target", "lang0",
        ])
        assert err.startswith("ArtifactError: ") and "missing.txt" in err

    @pytest.mark.parametrize("side", ["--source", "--target"])
    def test_validate_map_of_an_unknown_language_fails_cleanly(self, tmp_path, capsys, side):
        path = write_config(tmp_path, tiny_config(tmp_path))
        languages = {"--source": "lang1", "--target": "lang0", side: "lang9"}
        err = self.one_error_line(capsys, [
            "validate-map", "--config", str(path), "--map", str(tmp_path / "map.txt"),
            *[arg for pair in languages.items() for arg in pair],
        ])
        expected = "corpus has no language 'lang9'; it has ['lang0', 'lang1']"
        assert err == f"UnknownLanguageError: {expected}"

    def test_missing_or_malformed_config_fails_cleanly(self, tmp_path, capsys):
        err = self.one_error_line(capsys, ["synth", "--config", str(tmp_path / "none.json")])
        assert err.startswith("ConfigError: ") and "none.json" in err
        (tmp_path / "bad.json").write_text("{bad")
        err = self.one_error_line(capsys, ["synth", "--config", str(tmp_path / "bad.json")])
        assert err.startswith("ConfigError: ")

    def test_cached_corpus_of_another_seed_is_refused(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_config(tmp_path))
        assert cli.main(["synth", "--config", str(path), "--seed", "0"]) == 0
        capsys.readouterr()
        err = self.one_error_line(capsys, ["train-baseline", "--config", str(path), "--seed", "7"])
        assert err.startswith("StaleArtifactError: ") and "corpus.npz" in err
        assert cli.main(["train-baseline", "--config", str(path), "--seed", "0"]) == 0

    def test_missing_or_malformed_text_corpus_fails_cleanly(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        path = write_config(tmp_path, tiny_config(tmp_path, corpus={"path": str(corpus)}))
        err = self.one_error_line(capsys, ["train-baseline", "--config", str(path)])
        assert err.startswith("ArtifactError: ") and "corpus.txt" in err
        corpus.write_text(
            "polymap-corpus 1\nfeature_dim 6\nlanguage lang0 senones 2 phones 1\n"
            "gtable lang0 0 0\nframe lang1 0 1 0 0 0 0 0 0\n"
        )
        err = self.one_error_line(capsys, ["train-baseline", "--config", str(path)])
        assert err.startswith("ArtifactError: ") and "corpus.txt" in err and "'lang1'" in err

    def test_corpus_with_partial_split_tags_fails_cleanly(self, tmp_path, capsys):
        corpus = pm.split_corpus(
            pm.generate_synthetic(pm.SynthSpec(**TINY_SYNTH, seed=51)),
            {"train": 0.8, "dev": 0.1, "test": 0.1}, seed=2,
        )
        del corpus.splits["lang1"]
        pm.save_corpus(corpus, tmp_path / "corpus.txt")
        raw = tiny_config(
            tmp_path, method="senone-map", corpus={"path": str(tmp_path / "corpus.txt")}
        )
        path = write_config(tmp_path, raw)
        err = self.one_error_line(capsys, ["experiment", "--config", str(path)])
        assert err.startswith("ArtifactError: ") and "corpus.txt" in err and "['lang1']" in err
        assert not harness.RunPaths(tmp_path / "run").models_dir.exists()


def test_cli_import_loads_no_process_pool_module():
    # the pool that parses a large text corpus imports these when it starts
    code = (
        "import sys, polymap.cli; "
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(pm.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"

"""The matrix runner and the two scripts that call it and the recovery count."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import polymap as pm
from polymap import harness

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
TINY = pm.SynthSpec(
    num_languages=2, feature_dim=6, phones_per_language=4, senones_per_phone=2,
    frames_per_senone=40, cluster_spread=0.2,
)


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(Path(pm.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env=env, capture_output=True, text=True, check=True,
    ).stdout


def test_run_matrix_rows_are_the_hand_built_runs(tmp_path):
    out = tmp_path / "matrix"
    methods = ("baseline", "manual-map", "senone-map")
    rows = list(harness.run_matrix(out, [3], methods, spec=TINY))

    corpus = pm.load_corpus(out / "corpus_seed3.npz")
    drawn = pm.generate_synthetic(dataclasses.replace(TINY, seed=harness.derive_seed(3, "corpus")))
    assert corpus.languages == ["lang0", "lang1"]
    for lang in corpus.languages:
        assert np.array_equal(corpus.frames[lang].features, drawn.frames[lang].features)
    assert (out / "truth_seed3").is_dir()

    manual = out / "manual_maps_seed3" / "lang1_to_lang0.txt"
    truth = corpus.phone_truth[("lang1", "lang0")]
    assert manual.read_text().splitlines() == [
        "# manual phone map lang1 -> lang0", *(f"{p} {truth.get(p, 0)}" for p in range(4))
    ]

    expected = [
        harness.run_experiment(harness.ExperimentConfig(
            method=method, target="lang0", sources=["lang1"], seed=3,
            output_dir=tmp_path / "by_hand" / method, corpus_path=out / "corpus_seed3.npz",
            manual_maps={"lang1": manual} if method == "manual-map" else {},
        ))
        for method in methods
    ]
    assert rows == expected
    for row in rows:
        assert harness.read_row(harness.RunPaths(out / f"{row.method}_seed3").row(row.method, 3)) == row


def test_map_recovery_sweep_prints_its_table():
    lines = run_script(
        "map_recovery_sweep.py", "--spreads", "0.05", "--seeds", "0", "--frames", "60"
    ).splitlines()
    assert lines[0].split() == ["spread", "senone", "recovery", "phone", "recovery"]
    assert lines[1].split()[0] == "0.05" and len(lines) == 2


def test_run_matrix_script_help():
    out = run_script("run_matrix.py", "--help")
    assert out.startswith("usage: run_matrix.py")
    assert "Run the full method comparison matrix on a synthetic corpus." in out

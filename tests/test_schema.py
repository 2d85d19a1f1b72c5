"""Every JSON record the package reads goes through one schema.

Each reader refuses a record of another format or version, or with a key
its schema does not know, with the reader's own error class, naming the
file and the key; and no module but ``polymap._schema`` decodes JSON.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import polymap as pm
from polymap import harness
from polymap._npz import read_npz, write_npz
from polymap.errors import ArtifactError, ConfigError, MapFormatError, ShapeError

SRC = Path(pm.__file__).parent


def edit_json(path, change):
    record = json.loads(path.read_text())
    change(record)
    path.write_text(json.dumps(record))


def edit_meta(path, change):
    arrays = read_npz(path)
    meta = json.loads(str(arrays["meta"][()]))
    change(meta)
    write_npz(path, {**arrays, "meta": np.array(json.dumps(meta))})


def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "version": 1, "method": "baseline", "target": "lang0", "output_dir": "run",
        "corpus": {"synth": {}},
    }))
    return path, edit_json, harness.load_experiment_config, ConfigError


def row_file(tmp_path):
    path = tmp_path / "row.json"
    harness.write_row(harness.ResultRow("baseline", "lang0", (), 0, "abc", 20.0, 25.0), path)
    return path, edit_json, harness.read_row, ArtifactError


def manifest_file(tmp_path):
    map_set = pm.MapSet({("a", "a"): pm.identity_map(pm.LabelInventory("a", 2))})
    path = pm.save_map_set(map_set, tmp_path / "maps")
    return path, edit_json, lambda p: pm.load_map_set(p.parent), MapFormatError


def model_file(tmp_path):
    path = tmp_path / "model.npz"
    pm.save_network(pm.init_network([2, 3], [("a", 2)], seed=0), path)
    return path, edit_meta, pm.load_network, ShapeError


def multihead_file(tmp_path):
    path = tmp_path / "multihead.npz"
    pm.save_multihead(pm.init_network([2, 3], [("a", 2), ("b", 1)], seed=0), path)
    return path, edit_meta, pm.load_multihead, ShapeError


def corpus_file(tmp_path):
    path = tmp_path / "corpus.npz"
    spec = pm.SynthSpec(
        num_languages=2, feature_dim=2, phones_per_language=2, senones_per_phone=1,
        frames_per_senone=2, seed=0,
    )
    pm.save_corpus(pm.generate_synthetic(spec), path)
    return path, edit_meta, pm.load_corpus, ArtifactError


RECORDS = {
    "config": config_file, "row": row_file, "map-set manifest": manifest_file,
    "model": model_file, "multi-head model": multihead_file, "npz corpus": corpus_file,
}

# Case -> (change to the record, the key its error must name).
HEADER_CASES = {
    "wrong format": (lambda r: r.update(format="other"), "format"),
    "version true": (lambda r: r.update(version=True), "version"),
    "version as a float": (lambda r: r.update(version=float(r["version"])), "version"),
    "next version": (lambda r: r.update(version=r["version"] + 1), "version"),
    "no version": (lambda r: r.pop("version"), "version"),
    "unknown key": (lambda r: r.update(extra=1), "extra"),
}


@pytest.mark.parametrize("record", RECORDS)
def test_record_as_written_loads(tmp_path, record):
    path, _, load, _ = RECORDS[record](tmp_path)
    load(path)


@pytest.mark.parametrize("record,case", [
    (record, case) for record in RECORDS for case in HEADER_CASES
    # a config has no format marker and may leave its version out
    if (record, case) != ("config", "no version")
])
def test_damaged_header_or_unknown_key_raises_the_readers_error(tmp_path, record, case):
    path, edit, load, error = RECORDS[record](tmp_path)
    change, key = HEADER_CASES[case]
    edit(path, change)
    with pytest.raises(error) as info:
        load(path)
    assert str(path) in str(info.value) and key in str(info.value)


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_number_raises_the_readers_error(tmp_path, number):
    # Python's json reads these, though JSON has no such numbers
    path, _, load, error = config_file(tmp_path)
    config = path.read_text()[:-1] + f', "split": {{"train": {number}, "dev": 0.5, "test": 0.5}}}}'
    path.write_text(config)
    with pytest.raises(error, match="'split'"):
        load(path)


def test_config_value_that_is_no_json_raises_config_error():
    raw = {"method": "baseline", "target": "lang0", "output_dir": Path("run"), "corpus": {}}
    with pytest.raises(ConfigError, match="'output_dir'"):
        harness.experiment_config_from_dict(raw)


def json_decoders(source):
    """Lines of ``source`` that call or import ``json.loads`` or ``json.load``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "json" and node.attr in ("load", "loads"):
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [node.lineno for alias in node.names if alias.name in ("load", "loads")]
    return found


def test_only_the_schema_module_decodes_json():
    decoders = {path.name: json_decoders(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert decoders.pop("_schema.py"), "the schema module decodes every record"
    assert {name: lines for name, lines in decoders.items() if lines} == {}


@pytest.mark.parametrize("source", [
    "import json\njson.loads(text)", "import json\nwith open(p) as f:\n    json.load(f)",
    "from json import loads",
])
def test_json_decoder_scan_finds_each_form(source):
    assert json_decoders(source)

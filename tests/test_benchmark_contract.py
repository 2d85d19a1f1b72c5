"""The names perfbench reaches into polymap by, and the calls it expects.

perfbench wraps polymap functions by module and attribute name, reads
their arguments by parameter name and reads ``RunPaths`` attributes.  Its
traced runs also check that each workload's pass calls every function
the workload is known to reach.  A rename, or a refactor that stops one
public function from calling another, would otherwise show only as a
failed benchmark run.
"""

import importlib
import inspect
from pathlib import Path

import pytest

import polymap as pm
from polymap import harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("layers")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def targets(layers):
    return [*layers.TARGETS, *layers.TRAIN_TARGETS, layers.CLI_TARGET]


def resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


class Anything:
    """Stands in for any argument a hook reads: sized, empty and path-like."""

    epochs = batch_size = 1

    def __len__(self):
        return 0

    def values(self):
        return []

    def __fspath__(self):
        return __file__


class Reads(dict):
    """A wrapped function's arguments by parameter name, recording each read."""

    def __init__(self, parameters):
        super().__init__({name: Anything() for name in parameters})
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


def test_every_target_resolves(layers):
    for span, module_name, attr, _hook in targets(layers):
        assert module_name.startswith("polymap"), span
        assert callable(resolve(module_name, attr)), span


def test_no_two_targets_are_one_function(layers):
    # The tracer wraps a target in every module that holds it, so a name that
    # aliases another target would be wrapped twice and its calls counted twice.
    names = {}
    for span, module_name, attr, _hook in layers.TARGETS:
        names.setdefault(id(resolve(module_name, attr)), []).append(span)
    assert [spans for spans in names.values() if len(spans) > 1] == []


def test_hooks_read_only_parameters_of_the_wrapped_function(layers):
    read = set()
    for span, module_name, attr, hook in targets(layers):
        if hook is None:
            continue
        args = Reads(inspect.signature(resolve(module_name, attr)).parameters)
        try:
            hook(args, None)
        except KeyError as exc:
            pytest.fail(f"{span}'s hook reads {exc}, which {module_name}.{attr} does not take")
        read |= args.read
    assert {"net", "frames", "cfg", "frames_by_language", "x", "source_frames", "path"} <= read


def test_run_paths_attributes_exist(tmp_path):
    paths = harness.RunPaths(tmp_path)
    for name in ("row", "models_dir", "maps_dir", "mtdnn_model", "pruned_model",
                 "final_model", "corpus"):
        assert hasattr(paths, name), name


def test_benchmark_text_corpus_is_the_text_format(workloads, tmp_path):
    # perfbench writes its text corpus with its own copy of the text writer;
    # the same bytes mean the benchmark times the reader on save_corpus's format.
    corpus = pm.generate_synthetic(pm.SynthSpec(
        num_languages=2, feature_dim=3, phones_per_language=2, frames_per_senone=2, seed=5,
    ))
    workloads.write_text_corpus(corpus, tmp_path / "bench.txt")
    pm.save_corpus(corpus, tmp_path / "x.txt")
    assert (tmp_path / "bench.txt").read_bytes() == (tmp_path / "x.txt").read_bytes()


@pytest.mark.parametrize("name", ["pool-recipe", "mt-recipe"])
def test_traced_pass_calls_every_required_function(workloads, layers, tmp_path, name):
    # One pass of each method at one epoch per schedule, traced as the
    # benchmark traces it; the benchmark fails a run whose pass misses one.
    base = workloads.WORKLOADS[name]

    class OneEpoch(base):
        train = {**base.train, "epochs": 1}
        mt_train = {**base.mt_train, "epochs": 1}
        finetune = {**base.finetune, "epochs": 1}

    workload = OneEpoch(tmp_path, 5, workloads.Ledger())
    workload.make_inputs()
    tracer = importlib.import_module("tracing").Tracer(layers.TARGETS)
    tracer.run = "pass0"
    tracer.install()
    try:
        workload.run_pass("pass0", tracer)
    finally:
        tracer.uninstall()
    assert workload.ledger.failures == []
    assert layers.missing_calls(tracer.spans, name) == []

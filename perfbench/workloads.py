"""The benchmark's workloads: inputs from a seed, set-up, one pipeline
pass, and the checks on what a pass wrote.

Each workload is a closed loop with one client: the pipelines of a pass
run one after another, and the next pass starts when the last one ends.
The program sees only the corpus files written here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

import polymap as pm
from polymap import harness
from polymap.errors import PolymapError

from layers import CLI_PROCESS, TARGET_SETS
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD_TIMEOUT_S = 170
TARGET = "lang0"
HIDDEN = [64, 64, 64, 64]
_UNMAPPED = re.compile(r"(\d+) source label")
# Twice the generator's default.  At the default, test FER over ten seeds
# spread by 0.25 (mt-recipe) and 0.34 (byod-stages, FER about 3.7 %) of
# its median, too much for a quality bound; at 0.9 the spreads were at
# most 0.06, 0.04 (pool-recipe) and 0.08.  The amount of work does not
# change.
CLUSTER_SPREAD = 0.9


class Ledger:
    """Operations attempted, and why each failed one failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` as one operation; its result, or None if it raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def count_unmapped(messages: list[tuple[str, str]]) -> int:
    """Source labels the map builders reported as never observed."""
    total = 0
    for category, message in messages:
        if category == "UnmappedLabelWarning":
            match = _UNMAPPED.search(message)
            total += int(match.group(1)) if match else 1
    return total


def check_fer(raw) -> float:
    value = float(raw)
    if not (math.isfinite(value) and 0.0 <= value <= 100.0):
        raise ValueError(f"frame error rate {value!r} outside [0, 100]")
    return value


def load_model(path: Path) -> None:
    try:
        pm.load_network(path)
    except PolymapError:
        pm.load_multihead(path)


def train_sizes(corpus, languages: list[str]) -> dict[str, int]:
    return {lang: len(corpus.subset(lang, "train")) for lang in languages}


class Workload:
    name = ""
    setup_repeats = 3
    # Whose peak resident memory is the program's: this process
    # (in-process workloads) or the subprocesses it waited for.
    rss_of = "self"

    def __init__(self, work: Path, seed: int, ledger: Ledger):
        self.work = work
        self.seed = seed
        self.ledger = ledger
        self.phone_truth: dict = {}
        self.senone_truth: dict = {}
        self.unmapped: dict[str, int] = {}  # pass label -> unmapped source labels

    def recovery(self, map_dirs: list[Path]) -> dict[str, list[int]]:
        """Answer-key hits and base counts of the data-driven maps written."""
        found = {"senone": [0, 0], "phone": [0, 0]}
        for directory in map_dirs:
            for (source, target), label_map in pm.load_map_set(directory).maps.items():
                if source == target or label_map.provenance in ("manual", "identity"):
                    continue
                kind = label_map.source_inventory.kind
                truth = (self.senone_truth if kind == "senone" else self.phone_truth)
                pairs = truth[(source, target)]
                found[kind][0] += sum(int(label_map.table[s]) == t for s, t in pairs.items())
                found[kind][1] += len(pairs)
        return found


class InProcess(Workload):
    """Methods run one after another through ``harness.run_experiment``."""

    setup_repeats = 9
    methods: tuple[str, ...] = ()
    train = {"initial_lr": 0.08, "epochs": 6, "batch_size": 32, "halve_every_epoch": True}
    mt_train = {"initial_lr": 0.008, "epochs": 3, "batch_size": 4, "halve_every_epoch": True}
    finetune = {"epochs": 2, "lr": 0.0008}

    def make_inputs(self) -> None:
        corpus = pm.generate_synthetic(
            pm.SynthSpec(cluster_spread=CLUSTER_SPREAD, seed=self.seed)
        )
        pm.save_corpus(corpus, self.work / "corpus.npz")
        self.languages = list(corpus.languages)
        self.sources = [lang for lang in self.languages if lang != TARGET]
        self.phone_truth, self.senone_truth = corpus.phone_truth, corpus.senone_truth
        for source in self.sources:
            # What a phonetically informed annotator would write: shared
            # phones per the answer key, private ones to target phone 0.
            truth = corpus.phone_truth[(source, TARGET)]
            size = corpus.phone_inventories[source].size
            path = self.work / "manual" / f"{source}_to_{TARGET}.txt"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("".join(f"{p} {truth.get(p, 0)}\n" for p in range(size)))
        self.rows: dict[str, bytes] = {}
        self.fers: dict[str, float] = {}

    def config(self, method: str, output_dir: str):
        raw = {
            "method": method, "target": TARGET, "sources": self.sources, "seed": self.seed,
            "output_dir": output_dir, "corpus": {"path": "corpus.npz"}, "hidden_dims": HIDDEN,
            "train": self.train, "mt_train": self.mt_train, "finetune": self.finetune,
        }
        if method == "manual-map":
            raw["manual_maps"] = {s: f"manual/{s}_to_{TARGET}.txt" for s in self.sources}
        return harness.experiment_config_from_dict(raw, self.work)

    def setup(self, tracer: Tracer | None) -> float:
        """Import in a fresh interpreter, then prepare the corpus in-process."""
        probe = (
            "import time; t = time.perf_counter(); import polymap.harness; "
            "print(repr(time.perf_counter() - t))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        ok = self.ledger.check("setup import", proc.returncode == 0, proc.stderr[-500:])
        import_s = float(proc.stdout) if ok else 0.0
        cfg = self.config(self.methods[0], "setup")
        start = time.perf_counter()
        corpus = self.ledger.call("setup prepare_corpus", harness.prepare_corpus, cfg)
        prepare_s = time.perf_counter() - start
        if corpus is not None:
            self.corpus = corpus
        return import_s + prepare_s

    def run_pass(self, label: str, tracer: Tracer | None) -> float:
        seconds = 0.0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for method in self.methods:
                cfg = self.config(method, f"{label}/{method}")
                start = time.perf_counter()
                self.ledger.call(f"{label} {method}", harness.run_experiment, cfg)
                seconds += time.perf_counter() - start
        self.unmapped[label] = count_unmapped(
            [(w.category.__name__, str(w.message)) for w in caught]
        )
        return seconds

    def check_pass(self, label: str) -> None:
        for method in self.methods:
            paths = harness.RunPaths(self.work / label / method)
            row_path = paths.row(method, self.seed)
            self.ledger.call(f"{label} {method} row", self._check_row, row_path, method)
            for model in sorted(paths.models_dir.glob("*.npz")):
                self.ledger.call(f"{label} {method} load {model.name}", load_model, model)
            if method.startswith("mtdnn"):
                self.ledger.call(f"{label} {method} pruned head", self._check_pruned, paths)

    def _check_row(self, path: Path, method: str) -> None:
        data = path.read_bytes()
        raw = json.loads(data)
        check_fer(raw["dev_frame_error"])
        self.fers[method] = check_fer(raw["test_frame_error"])
        first = self.rows.setdefault(method, data)
        if data != first:
            raise AssertionError("row differs from the first pass of this run")

    def _check_pruned(self, paths) -> None:
        """The pruned net must reproduce the multi-head target head bit for bit."""
        x = self.corpus.subset(TARGET, "test").features
        head = pm.forward_head(pm.load_multihead(paths.mtdnn_model), TARGET, x)
        pruned = pm.forward_batch(pm.load_network(paths.pruned_model), x)
        if not np.array_equal(head, pruned):
            raise AssertionError(f"max abs diff {float(np.max(np.abs(head - pruned)))!r}")

    def map_dirs(self, label: str) -> list[Path]:
        return [
            d for m in self.methods
            if (d := harness.RunPaths(self.work / label / m).maps_dir).is_dir()
        ]

    def test_fers(self) -> dict[str, float]:
        return dict(self.fers)

    def frame_visits(self) -> int:
        """SGD frame visits of one pass, from the split sizes and epochs."""
        n = train_sizes(self.corpus, self.languages)
        target, pooled = n[TARGET], sum(n.values())
        e, me, fe = self.train["epochs"], self.mt_train["epochs"], self.finetune["epochs"]
        per_method = {
            "baseline": target * e,
            "manual-map": target * e + pooled * e + target * fe,
            "mtdnn-masked": pooled * me + target * fe,
            "mtdnn-mapped": pooled * e + pooled * me + target * fe,
        }
        per_method["phone-map"] = per_method["senone-map"] = per_method["manual-map"]
        return sum(per_method[m] for m in self.methods)


class MtRecipe(InProcess):
    name = "mt-recipe"
    methods = ("mtdnn-masked", "mtdnn-mapped")
    # The recipe's 16 multi-head, 16 plain and 5 fine-tune epochs, cut in
    # the same proportion, so its mix of multi-head and plain SGD holds.
    train = {**InProcess.train, "epochs": 3}
    finetune = {**InProcess.finetune, "epochs": 1}


class PoolRecipe(InProcess):
    name = "pool-recipe"
    methods = ("baseline", "manual-map", "phone-map", "senone-map")


def write_text_corpus(corpus, path: Path) -> None:
    """Write a corpus in polymap's text format, one frame per line."""
    with open(path, "w") as f:
        f.write(f"polymap-corpus 1\nfeature_dim {corpus.feature_dim}\n")
        for lang in corpus.languages:
            f.write(
                f"language {lang} senones {corpus.senone_inventories[lang].size} "
                f"phones {corpus.phone_inventories[lang].size}\n"
            )
        for lang in corpus.languages:
            f.write(f"gtable {lang} {' '.join(map(str, corpus.g_tables[lang].table.tolist()))}\n")
        for kind, truth in (("phone", corpus.phone_truth), ("senone", corpus.senone_truth)):
            for (a, b), pairs in sorted(truth.items()):
                f.writelines(f"truth {kind} {a} {b} {s} {t}\n" for s, t in sorted(pairs.items()))
        for lang in corpus.languages:
            fs = corpus.frames[lang]
            rows = zip(fs.utterance_ids.tolist(), fs.labels.tolist(), fs.features.tolist())
            f.writelines(
                f"frame {lang} {u} {y} {' '.join(map(repr, x))}\n" for u, y, x in rows
            )


class ByodStages(Workload):
    """A user's text corpus through the CLI, one process per subcommand."""

    name = "byod-stages"
    rss_of = "children"
    subcommands = ("train-baseline", "build-map", "pool-train", "finetune", "evaluate")
    expected = {
        "synth": r"wrote .*corpus\.npz",
        "train-baseline": r"wrote .*baseline\.npz",
        "build-map": r"wrote .*mapset\.json",
        "pool-train": r"wrote .*pooled\.npz",
        "finetune": r"wrote .*final\.npz",
        "evaluate": r"frame_error_rate test (\S+)",
    }
    train = {"initial_lr": 0.08, "epochs": 2, "batch_size": 32, "halve_every_epoch": True}
    finetune = {"epochs": 1, "lr": 0.0008}

    def make_inputs(self) -> None:
        spec = pm.SynthSpec(
            num_languages=4, feature_dim=40, frames_per_senone=1000,
            cluster_spread=CLUSTER_SPREAD, seed=self.seed,
        )
        corpus = pm.generate_synthetic(spec)
        write_text_corpus(corpus, self.work / "corpus.txt")
        self.languages = list(corpus.languages)
        self.phone_truth, self.senone_truth = corpus.phone_truth, corpus.senone_truth
        config = {
            "method": "phone-map", "target": TARGET,
            "sources": [lang for lang in self.languages if lang != TARGET],
            "seed": self.seed, "output_dir": "run", "corpus": {"path": "corpus.txt"},
            "hidden_dims": HIDDEN, "train": self.train, "finetune": self.finetune,
        }
        self.config = self.work / "config.json"
        self.config.write_text(json.dumps(config))
        self.paths = harness.RunPaths(self.work / "run")
        self.env = child_env()
        self.fer: float | None = None
        self.first: tuple | None = None

    def cli(self, label: str, sub: str, tracer: Tracer | None) -> float:
        """Run one subcommand in its own interpreter; its wall time."""
        tail = [sub, "--config", str(self.config)]
        spans_file = self.work / f"spans-{label}-{sub}.json"
        if tracer is None:
            argv = [sys.executable, "-m", "polymap.cli", *tail]
        else:
            kind = next(k for k, targets in TARGET_SETS.items() if targets is tracer.targets)
            argv = [sys.executable, str(HERE / "cli_child.py"), str(spans_file), kind, *tail]
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            self.ledger.check(f"{label} {sub}", False, f"timed out after {CHILD_TIMEOUT_S} s")
            return time.perf_counter() - start
        end = time.perf_counter()
        lines = proc.stdout.strip().splitlines()
        match = re.fullmatch(self.expected[sub], lines[-1]) if lines else None
        ok = self.ledger.check(
            f"{label} {sub}", proc.returncode == 0 and match is not None,
            f"exit {proc.returncode}, stdout {lines[-1:]}, stderr {proc.stderr[-500:]!r}",
        )
        if ok and sub == "evaluate":
            self.fer = self.ledger.call(f"{label} evaluate fer", check_fer, match.group(1))
        if tracer is not None:
            child = json.loads(spans_file.read_text()) if spans_file.exists() else {}
            span = tracer.record(CLI_PROCESS, start, end, {"import_s": child.get("import_s", 0.0)})
            tracer.adopt(child.get("spans", []), span)
            self.unmapped[label] = self.unmapped.get(label, 0) + count_unmapped(
                child.get("warnings", [])
            )
        return end - start

    def setup(self, tracer: Tracer | None) -> float:
        return self.cli(tracer.run if tracer else "setup", "synth", tracer)

    def run_pass(self, label: str, tracer: Tracer | None) -> float:
        # Start from the synth output alone, so no check can pass on a
        # model or map left by an earlier pass.
        shutil.rmtree(self.paths.models_dir, ignore_errors=True)
        shutil.rmtree(self.paths.maps_dir, ignore_errors=True)
        self.fer = None
        return sum(self.cli(label, sub, tracer) for sub in self.subcommands)

    def check_pass(self, label: str) -> None:
        for model in sorted(self.paths.models_dir.glob("*.npz")):
            self.ledger.call(f"{label} load {model.name}", load_model, model)
        self.ledger.call(f"{label} rerun", self._check_rerun)

    def _check_rerun(self) -> None:
        outputs = (self.fer, hashlib.sha256(self.paths.final_model.read_bytes()).hexdigest())
        self.first = self.first or outputs
        if outputs != self.first:
            raise AssertionError("FER or final model differ from the first pass of this run")

    def map_dirs(self, label: str) -> list[Path]:
        return [self.paths.maps_dir]

    def test_fers(self) -> dict[str, float]:
        return {} if self.fer is None else {"phone-map": self.fer}

    def frame_visits(self) -> int:
        n = train_sizes(pm.load_corpus(self.paths.corpus), self.languages)
        target, pooled = n[TARGET], sum(n.values())
        e, fe = self.train["epochs"], self.finetune["epochs"]
        return target * e + pooled * e + target * fe


WORKLOADS = {w.name: w for w in (MtRecipe, PoolRecipe, ByodStages)}

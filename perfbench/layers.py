"""Which polymap functions the traced run wraps, and the per-layer metrics
computed from their spans.

Only public functions are wrapped.  Metrics named ``*_s`` are self times
(a span minus its child spans); rates divide the work a call did by the
call's inclusive time, which is what its caller waits for.  See
METRICS.md for every name, unit and direction.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import defaultdict

import numpy as np

from tracing import Span, Target, self_times


def digest(*objects) -> str:
    """Content hash of arrays, containers and plain objects, recursively."""
    h = hashlib.sha256()

    def feed(obj) -> None:
        if isinstance(obj, np.ndarray):
            h.update(f"{obj.dtype}{obj.shape}".encode())
            h.update(np.ascontiguousarray(obj))
        elif isinstance(obj, dict):
            for key in sorted(obj, key=repr):
                feed(key)
                feed(obj[key])
        elif isinstance(obj, (list, tuple)):
            h.update(b"[")
            for item in obj:
                feed(item)
            h.update(b"]")
        elif hasattr(obj, "__dict__"):
            h.update(type(obj).__name__.encode())
            feed(vars(obj))
        else:
            h.update(repr(obj).encode())

    for obj in objects:
        feed(obj)
    return h.hexdigest()


def _sgd(frames: int, cfg) -> dict:
    return {
        "frames": frames,
        "visits": frames * cfg.epochs,
        "steps": math.ceil(frames / cfg.batch_size) * cfg.epochs,
    }


def _plain_train_attrs(args: dict, _result) -> dict:
    return _sgd(len(args["frames"]), args["cfg"])


def _train_attrs(args: dict, result) -> dict:
    attrs = _plain_train_attrs(args, result)
    attrs["digest"] = digest(args["net"], args["frames"], args["cfg"])
    return attrs


def _mt_train_attrs(args: dict, _result) -> dict:
    return _sgd(sum(len(f) for f in args["frames_by_language"].values()), args["cfg"])


def _rows(arg: str):
    return lambda args, _result: {"frames": len(args[arg])}


def _file_bytes(args: dict, _result) -> dict:
    return {"bytes": os.path.getsize(args["path"])}


TARGETS: list[Target] = [
    *[
        (f"harness.{fn}", "polymap.harness", fn, None)
        for fn in (
            "run_experiment", "prepare_corpus", "stage_synth", "stage_train_baseline",
            "stage_build_map", "stage_pool_train", "stage_mt_train", "stage_prune",
            "stage_finetune", "stage_evaluate", "frame_error_rate",
        )
    ],
    ("nnet.train", "polymap.nnet", "train", _train_attrs),
    ("nnet.finetune", "polymap.nnet", "finetune", None),
    ("nnet.predict_batch", "polymap.nnet", "predict_batch", _rows("x")),
    ("nnet.forward_batch", "polymap.nnet", "forward_batch", _rows("x")),
    ("nnet.save_network", "polymap.nnet", "save_network", None),
    ("nnet.load_network", "polymap.nnet", "load_network", None),
    ("multitask.train_multihead", "polymap.multitask", "train_multihead", _mt_train_attrs),
    ("multitask.prune", "polymap.multitask", "prune", None),
    ("multitask.save_multihead", "polymap.multitask", "save_multihead", None),
    ("multitask.load_multihead", "polymap.multitask", "load_multihead", None),
    ("mapping.accumulate_confusion", "polymap.mapping", "accumulate_confusion",
     _rows("source_frames")),
    ("mapping.realign_with_phone_map", "polymap.mapping", "realign_with_phone_map", None),
    ("mapping.all_pairs_senone_maps", "polymap.mapping", "all_pairs_senone_maps", None),
    ("mapping.save_map_set", "polymap.mapping", "save_map_set", None),
    ("mapping.load_map_set", "polymap.mapping", "load_map_set", None),
    ("mapping.load_manual_map", "polymap.mapping", "load_manual_map", None),
    ("corpus.load_corpus", "polymap.corpus", "load_corpus", _file_bytes),
    ("corpus.save_corpus", "polymap.corpus", "save_corpus", None),
    ("corpus.subset", "polymap.corpus", "MultiCorpus.subset", None),
    ("corpus.pool_and_relabel", "polymap.corpus", "pool_and_relabel", None),
    ("_npz.read_npz", "polymap._npz", "read_npz", _file_bytes),
    ("_npz.write_npz", "polymap._npz", "write_npz", _file_bytes),
]
# The untraced run wraps only the training calls, to time them.
TRAIN_SPANS = ("nnet.train", "multitask.train_multihead")
TRAIN_TARGETS: list[Target] = [
    ("nnet.train", "polymap.nnet", "train", _plain_train_attrs),
    ("multitask.train_multihead", "polymap.multitask", "train_multihead", _mt_train_attrs),
]
TARGET_SETS = {"all": TARGETS, "train": TRAIN_TARGETS}
CLI_TARGET: Target = ("cli.main", "polymap.cli", "main", None)
CLI_PROCESS = "cli.process"  # parent-side span around one CLI subprocess
SPAN_NAMES = [t[0] for t in TARGETS] + [CLI_TARGET[0], CLI_PROCESS]

_SCORING = ("nnet.predict_batch", "nnet.forward_batch")

# Wrapped functions each workload's pipeline must call at least once.
_COMMON = [
    "harness.prepare_corpus", "harness.stage_build_map", "harness.stage_finetune",
    "harness.frame_error_rate", "nnet.train", "nnet.finetune", "nnet.predict_batch",
    "nnet.save_network", "nnet.load_network", "mapping.accumulate_confusion",
    "mapping.save_map_set", "mapping.load_map_set", "corpus.load_corpus", "corpus.subset",
    "_npz.read_npz", "_npz.write_npz",
]
_POOLED = [
    "harness.stage_train_baseline", "harness.stage_pool_train", "nnet.forward_batch",
    "mapping.realign_with_phone_map", "corpus.pool_and_relabel",
]
REQUIRED = {
    "mt-recipe": _COMMON + [
        "harness.run_experiment", "harness.stage_mt_train", "harness.stage_prune",
        "multitask.train_multihead", "multitask.prune", "multitask.save_multihead",
        "multitask.load_multihead", "mapping.all_pairs_senone_maps",
    ],
    "pool-recipe": _COMMON + _POOLED + ["harness.run_experiment", "mapping.load_manual_map"],
    "byod-stages": _COMMON + _POOLED + [
        "harness.stage_synth", "harness.stage_evaluate", "corpus.save_corpus", "cli.main",
        CLI_PROCESS,
    ],
}

STAGES = {
    "prepare_corpus": ["harness.prepare_corpus"],
    "train_baseline": ["harness.stage_train_baseline"],
    "build_map": ["harness.stage_build_map"],
    "pool_train": ["harness.stage_pool_train"],
    "mt_train": ["harness.stage_mt_train"],
    "prune": ["harness.stage_prune"],
    "finetune": ["harness.stage_finetune"],
    "evaluate": ["harness.stage_evaluate", "harness.frame_error_rate"],
}


def missing_calls(spans: list[Span], workload: str) -> list[str]:
    called = {s.name for s in spans}
    return [name for name in REQUIRED[workload] if name not in called]


def train_visits(spans: list[Span]) -> int:
    """SGD frame visits of every plain and multi-head training call."""
    return sum(s.attrs["visits"] for s in spans if s.name in TRAIN_SPANS)


def train_seconds(spans: list[Span]) -> float:
    """Wall time inside plain and multi-head training calls (outermost only)."""
    names = {s.id: s.name for s in spans}
    return sum(
        s.duration for s in spans
        if s.name in TRAIN_SPANS and names.get(s.parent) not in TRAIN_SPANS
    )


def layer_metrics(spans: list[Span]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from one traced pass, plus notes on metrics that
    do not apply (they read 0)."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    names = {s.id: s.name for s in spans}
    notes = [
        f"{name} is not called on this workload; metrics read from it are 0"
        for name in SPAN_NAMES
        if name not in names.values()
    ]

    def self_s(*fns: str) -> float:
        return sum(own[s.id] for fn in fns for s in by_name[fn])

    def incl_s(*fns: str) -> float:
        return sum(s.duration for fn in fns for s in by_name[fn])

    def attr(fn: str, key: str) -> int:
        return sum(s.attrs[key] for s in by_name[fn])

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    m: dict[str, tuple[float, str]] = {}
    for stage, fns in STAGES.items():
        m[f"harness.{stage}_s"] = (self_s(*fns), "s")

    # Repeated training: a plain training call whose initial net, frames
    # and config match an earlier call in the same pass.  Calls made by
    # finetune belong to finetune and are not counted here.
    direct = [s for s in by_name["nnet.train"] if names.get(s.parent) != "nnet.finetune"]
    seen: set[str] = set()
    repeats = []
    for span in sorted(direct, key=lambda s: s.start):
        if span.attrs["digest"] in seen:
            repeats.append(span)
        seen.add(span.attrs["digest"])
    m["harness.train_calls"] = (len(direct), "count")
    m["harness.repeat_train_calls"] = (len(repeats), "count")
    m["harness.repeat_train_share"] = (
        rate(sum(s.duration for s in repeats), sum(s.duration for s in direct)), "ratio"
    )

    for layer, fn in (("nnet", "nnet.train"), ("multitask", "multitask.train_multihead")):
        steps = attr(fn, "steps")
        m[f"{layer}.train_s"] = (self_s(fn), "s")
        m[f"{layer}.train_steps"] = (steps, "count")
        m[f"{layer}.train_us_per_step"] = (1e6 * rate(incl_s(fn), steps), "us")
        m[f"{layer}.train_frames_per_s"] = (rate(attr(fn, "visits"), incl_s(fn)), "frames/s")

    outer = [
        s for fn in _SCORING for s in by_name[fn] if names.get(s.parent) not in _SCORING
    ]
    scored = sum(s.attrs["frames"] for s in outer)
    m["nnet.score_frames"] = (scored, "count")
    m["nnet.score_frames_per_s"] = (rate(scored, sum(s.duration for s in outer)), "frames/s")
    m["nnet.model_io_s"] = (self_s("nnet.save_network", "nnet.load_network"), "s")
    m["multitask.prune_s"] = (self_s("multitask.prune"), "s")
    m["multitask.model_io_s"] = (
        self_s("multitask.save_multihead", "multitask.load_multihead"), "s"
    )

    confusion = "mapping.accumulate_confusion"
    m["mapping.confusion_s"] = (self_s(confusion), "s")
    m["mapping.confusion_frames_per_s"] = (
        rate(attr(confusion, "frames"), incl_s(confusion)), "frames/s"
    )
    m["mapping.realign_s"] = (self_s("mapping.realign_with_phone_map"), "s")
    m["mapping.all_pairs_s"] = (self_s("mapping.all_pairs_senone_maps"), "s")
    m["mapping.mapset_io_s"] = (
        self_s("mapping.save_map_set", "mapping.load_map_set", "mapping.load_manual_map"), "s"
    )

    m["corpus.load_s"] = (self_s("corpus.load_corpus"), "s")
    m["corpus.load_MB_per_s"] = (
        rate(attr("corpus.load_corpus", "bytes") / 1e6, incl_s("corpus.load_corpus")), "MB/s"
    )
    m["corpus.save_s"] = (self_s("corpus.save_corpus"), "s")
    m["corpus.subset_calls"] = (len(by_name["corpus.subset"]), "count")
    m["corpus.subset_s"] = (self_s("corpus.subset"), "s")
    m["corpus.pool_s"] = (self_s("corpus.pool_and_relabel"), "s")
    for op in ("read", "write"):
        m[f"npz.{op}_s"] = (self_s(f"_npz.{op}_npz"), "s")
        m[f"npz.{op}_bytes"] = (attr(f"_npz.{op}_npz", "bytes"), "bytes")

    processes = by_name[CLI_PROCESS]
    m["cli.calls"] = (len(processes), "count")
    m["cli.import_s"] = (sum(s.attrs["import_s"] for s in processes), "s")
    m["cli.process_s"] = (self_s(CLI_PROCESS), "s")

    return m, notes

#!/usr/bin/env python3
"""polymap benchmark: one workload, one seed, one run.

Usage (from the root of a polymap checkout):

    python3 perfbench/run.py --workload mt-recipe --seed 1 --seconds 20 --trace 0

The run writes its inputs from ``--seed`` under ``.perfbench/``, sets up
several times, then repeats the workload's pipeline pass until
``--seconds`` have gone by, checking what every pass wrote.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record, with machine facts and (traced) spans, goes to
``.perfbench/results/``.  METRICS.md describes every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["mt-recipe", "pool-recipe", "byod-stages"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, as found (None if unknown)."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
        lib = next(line.split()[-1] for line in maps if "openblas" in line.lower())
        handle = ctypes.CDLL(lib)
    except (OSError, StopIteration):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(handle, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs between numpy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def peak_rss_mb(of: str) -> float:
    """Peak resident memory of this process (``self``) or of the largest
    child it waited for (``children``)."""
    who = resource.RUSAGE_SELF if of == "self" else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_passes(workload, seconds: float, tracer=None, setups=None, timer=None):
    """Repeat the pass (and its checks) while the next one fits in
    ``seconds`` of passes.

    Given a ``setups`` list, a timed set-up runs before each pass until
    the workload's number of set-ups is reached, so that set-up samples
    spread over the run like the passes do; set-ups do not count against
    ``seconds``.  Given a tracer, untraced and traced passes alternate, at
    least one of each.  Without one, every pass runs under ``timer`` (if
    given), a tracer of the training calls alone; such passes count as
    untraced.  Returns (label, seconds) lists for untraced and traced
    passes.
    """
    untraced, traced = [], []
    spent = longest = 0.0
    while True:
        if setups is not None and len(setups) < workload.setup_repeats:
            setups.append(workload.setup(None))
        began = time.perf_counter()
        use = timer
        if tracer is not None:
            use = tracer if len(traced) < len(untraced) else None
        label = f"pass{len(untraced) + len(traced)}"
        if use is not None:
            use.run = label
            use.install()
        try:
            took = workload.run_pass(label, use)
        finally:
            if use is not None:
                use.uninstall()
        (traced if tracer is not None and use is tracer else untraced).append((label, took))
        workload.check_pass(label)
        with_checks = time.perf_counter() - began
        spent += with_checks
        longest = max(longest, with_checks)
        if spent + longest > seconds and (tracer is None or traced):
            return untraced, traced


def end_to_end(workload, seconds: float) -> dict:
    import layers
    from tracing import Tracer

    setups = []
    timer = Tracer(layers.TRAIN_TARGETS)
    untraced, _ = run_passes(workload, seconds, setups=setups, timer=timer)
    while len(setups) < workload.setup_repeats:
        setups.append(workload.setup(None))
    visits = workload.frame_visits()
    train_s = {}
    for label, _ in untraced:
        spans = [s for s in timer.spans if s.run == label]
        counted = layers.train_visits(spans)
        workload.ledger.check(f"{label} frame visits", counted == visits, f"{counted} != {visits}")
        train_s[label] = layers.train_seconds(spans)
    train = statistics.median(train_s.values())  # 0 only if no training call ran
    fers = workload.test_fers()
    return {
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "pipeline_s": (statistics.median(t for _, t in untraced), "s"),
            "train_frames_per_s": (visits / train if train else 0.0, "frames/s"),
            "peak_rss_mb": (peak_rss_mb(workload.rss_of), "MB"),
            "test_fer": (statistics.mean(fers.values()) if fers else 0.0, "%"),
        },
        "setups_s": setups,
        "passes_s": dict(untraced),
        "train_s": train_s,
        "test_fer_by_method": fers,
    }


def per_layer(workload, seconds: float) -> dict:
    import layers
    from polymap.harness import METHODS
    from tracing import Tracer

    tracer = Tracer(layers.TARGETS)
    tracer.run = "setup"
    tracer.install()
    try:
        workload.setup(tracer)
    finally:
        tracer.uninstall()
    untraced, traced = run_passes(workload, seconds, tracer)
    visits = workload.frame_visits()
    ledger = workload.ledger
    passes, notes = [], set()
    for label, _ in traced:
        spans = [s for s in tracer.spans if s.run in ("setup", label)]
        missing = layers.missing_calls(spans, workload.name)
        ledger.check(f"{label} trace guard", not missing, f"no call recorded for {missing}")
        counted = layers.train_visits([s for s in spans if s.run == label])
        ledger.check(f"{label} frame visits", counted == visits, f"{counted} != {visits}")
        metrics, pass_notes = layers.layer_metrics(spans)
        notes.update(pass_notes)
        fers = workload.test_fers()
        for method in METHODS:
            metrics[f"harness.test_fer.{method}"] = (fers.get(method, 0.0), "%")
            if method not in fers:
                notes.add(f"method {method} is not run on this workload; its test_fer reads 0")
        recovery = workload.recovery(workload.map_dirs(label))
        for kind, (hits, base) in recovery.items():
            metrics[f"mapping.{kind}_recovery"] = (hits / base if base else 0.0, "ratio")
            metrics[f"mapping.{kind}_recovery_base"] = (base, "count")
            if not base:
                notes.add(f"no data-driven {kind} map is built on this workload; "
                          f"mapping.{kind}_recovery reads 0")
        metrics["mapping.unmapped_labels"] = (workload.unmapped.get(label, 0), "count")
        passes.append(metrics)
    traced_s = statistics.median(t for _, t in traced)
    untraced_s = statistics.median(t for _, t in untraced)
    metrics = {
        name: (statistics.median(p[name][0] for p in passes), unit)
        for name, (_, unit) in passes[0].items()
    }
    metrics["trace.pipeline_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return {
        "metrics": metrics,
        "notes": sorted(notes),
        "passes_s": {"untraced": dict(untraced), "traced": dict(traced)},
        "spans": [s.to_dict() for s in tracer.spans],
    }


def _terminate(signum, _frame):
    # Unwind on SIGTERM too, so the running child is killed and waited
    # for and the run directory is removed.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "polymap" / "__init__.py").is_file():
        print(f"perfbench: no polymap package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    work = STATE / f"run-{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = workloads.Ledger()
    workload = workloads.WORKLOADS[args.workload](work, args.seed, ledger)
    try:
        workload.make_inputs()
        measure = per_layer if args.trace else end_to_end
        record = measure(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }
    machine = machine_facts()
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(
        {"args": vars(args), "machine": machine, "failures": ledger.failures,
         "failed_frac": len(ledger.failures) / max(ledger.attempted, 1), **record, **result},
        indent=1,
    ))
    for failure in ledger.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    for note in record.get("notes", []):
        print(f"perfbench: note: {note}")
    print(f"perfbench: machine {json.dumps(machine)}")
    print(f"perfbench: failed_frac {len(ledger.failures)}/{ledger.attempted}; record in {out}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

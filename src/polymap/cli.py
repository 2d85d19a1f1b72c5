"""Command-line entry point.

Every subcommand reads the same JSON experiment config (``--config``)
and accepts ``--seed`` to override the config's run seed.  Each row of
:data:`polymap.harness.STAGES` is a subcommand that runs that stage of
the configured method's pipeline, writing under the config's output
directory, so the stages can be chained by hand; ``evaluate`` scores the
output of the method's last stage, and ``experiment`` runs the method
end to end.  Errors exit nonzero after printing the specific error class.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .errors import PolymapError, UnknownLanguageError
from .harness import RunPaths, load_experiment_config
from .mapping import load_manual_map


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")


def _synth(cfg: harness.ExperimentConfig, args: argparse.Namespace, paths: RunPaths) -> str:
    return f"wrote {harness.stage_synth(cfg, paths, harness.prepare_corpus(cfg))}"


def _stage(cfg: harness.ExperimentConfig, args: argparse.Namespace, paths: RunPaths) -> str:
    harness.run_stage(cfg, args.command)
    return f"wrote {getattr(paths, harness.STAGES[args.command].writes)}"


def _evaluate(cfg: harness.ExperimentConfig, args: argparse.Namespace, paths: RunPaths) -> str:
    fer = harness.evaluate(cfg, args.split, args.model)
    return f"frame_error_rate {args.split} {fer:.4f}"


def _experiment(cfg: harness.ExperimentConfig, args: argparse.Namespace, paths: RunPaths) -> str:
    row = harness.run_experiment(cfg)
    return (
        f"method={row.method} seed={row.seed} "
        f"dev={row.dev_frame_error:.4f} test={row.test_frame_error:.4f}\n"
        + f"wrote {paths.row(cfg.method, cfg.seed)}"
    )


def _report(cfg: harness.ExperimentConfig, args: argparse.Namespace, paths: RunPaths) -> str:
    rows = _collect_rows(args.rows, paths.rows_dir)
    return harness.write_report(rows, cfg.output_dir, metadata={"target": cfg.target})


def _validate_map(cfg: harness.ExperimentConfig, args: argparse.Namespace, paths: RunPaths) -> str:
    corpus = harness.prepare_corpus(cfg, paths.corpus)
    inventories = corpus.phone_inventories if args.kind == "phone" else corpus.senone_inventories
    for lang in (args.source, args.target):
        if lang not in inventories:
            raise UnknownLanguageError(
                f"corpus has no language {lang!r}; it has {corpus.languages}"
            )
    load_manual_map(args.map, inventories[args.source], inventories[args.target])
    return "ok"


# Subcommand -> (help, call returning the text to print).  The calls look harness
# functions up at call time, so a function replaced on its module is the one run.
COMMANDS = {
    "synth": ("generate the synthetic corpus and its answer-key maps", _synth),
    **{name: (stage.help, _stage) for name, stage in harness.STAGES.items()},
    "evaluate": ("frame error rate of the method's last model on a split", _evaluate),
    "experiment": ("run the configured method end to end", _experiment),
    "report": ("aggregate result rows into a table", _report),
    "validate-map": ("check a map file against the corpus inventories", _validate_map),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymap",
        description="Cross-lingual label mapping and multitask transfer experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, (help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        parsers[name] = p

    parsers["evaluate"].add_argument("--model", default=None, help="model file to evaluate")
    parsers["evaluate"].add_argument(
        "--split", default="test", choices=["train", "dev", "test"]
    )
    parsers["report"].add_argument(
        "--rows", nargs="*", default=[], help="extra row files or directories to include"
    )
    parsers["validate-map"].add_argument("--map", required=True, help="map file to validate")
    parsers["validate-map"].add_argument("--source", required=True, help="source language")
    parsers["validate-map"].add_argument("--target", required=True, help="target language")
    parsers["validate-map"].add_argument(
        "--kind", default="phone", choices=["phone", "senone"]
    )
    return parser


def _collect_rows(paths: list[str], default_dir: Path) -> list[harness.ResultRow]:
    files: list[Path] = []
    candidates = [Path(p) for p in paths] if paths else []
    if default_dir.is_dir():
        candidates.append(default_dir)
    for candidate in candidates:
        if candidate.is_dir():
            files.extend(sorted(candidate.glob("*.json")))
        else:
            files.append(candidate)
    return [harness.read_row(f) for f in files]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_experiment_config(args.config, seed=args.seed)
        _, run = COMMANDS[args.command]
        print(run(cfg, args, RunPaths(cfg.output_dir)))
        return 0
    except PolymapError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

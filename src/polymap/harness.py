"""Config-driven experiment pipelines comparing transfer-training methods.

A run is a pure function of (config, seed): sub-seeds for corpus
generation, splitting, initialization and shuffling are derived from
the run seed by hashing stage names, so a config plus a seed pins every
number in the emitted results.  Wall-clock time goes to the run log
only, never into results files, keeping those byte-reproducible.

Each method is a sequence of stages (:data:`PIPELINES`); each stage is a
row of :data:`STAGES` naming its function, the file it writes and the
stages it may read.  :func:`run_stage` runs one stage, whose inputs are
the outputs of the stages it reads that come earlier in the pipeline.
:func:`run_matrix` runs methods over seeds, one synthetic corpus per seed.

Methods
-------
baseline      train on the target language's own data only
manual-map    relabel source data through hand-written phone maps, pool,
              train, fine-tune
phone-map     same, with phone maps learned from confusion counts
senone-map    relabel source data through learned senone maps (finest)
mtdnn-masked  shared-trunk multi-head training with per-frame loss
              masking, then prune to the target head and fine-tune
mtdnn-mapped  multi-head training with mapped targets on all heads,
              then prune and fine-tune
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._npz import open_artifact
from ._schema import checked, decoded
from .corpus import (
    SPLIT_NAMES,
    MultiCorpus,
    SynthSpec,
    generate_synthetic,
    load_corpus,
    pool_and_relabel,
    save_corpus,
    save_ground_truth_maps,
    split_corpus,
)
from .data import FrameSet
from .errors import (
    ArtifactError,
    ConfigError,
    EmptyDataError,
    MissingBaselineError,
    StaleArtifactError,
    SynthSpecError,
)
from .mapping import (
    MAPSET_MANIFEST,
    LabelMap,
    MapSet,
    accumulate_confusion,
    all_pairs_senone_maps,
    load_manual_map,
    load_map_set,
    phone_map,
    save_map_set,
    senone_map,
    write_map_lines,
)
from .multitask import (
    MT_RECIPE,
    load_multihead,
    prune,
    save_multihead,
    train_multihead,
)
from .nnet import (
    FINETUNE_RECIPE,
    EpochStats,
    Network,
    TrainConfig,
    finetune,
    init_network,
    load_network,
    predict_batch,
    save_network,
    train,
)


@dataclass(frozen=True)
class Stage:
    """A stage's ``stage_*`` function, the :class:`RunPaths` attribute it
    writes, the stages it may read, its CLI help and whether it reads the corpus."""

    function: str
    writes: str
    reads: tuple[str, ...]
    help: str
    uses_corpus: bool = True


STAGES = {
    "train-baseline": Stage("stage_train_baseline", "baseline_model", (),
                            "train the target language's own classifier"),
    "build-map": Stage("stage_build_map", "map_manifest", ("train-baseline",),
                       "build and persist the configured method's label maps"),
    "pool-train": Stage("stage_pool_train", "pooled_model", ("train-baseline", "build-map"),
                        "train a fresh net on pooled, relabeled data"),
    "mt-train": Stage("stage_mt_train", "mtdnn_model", ("build-map",),
                      "train the multi-head network"),
    "prune": Stage("stage_prune", "pruned_model", ("mt-train",),
                   "prune the multi-head network to the target head", uses_corpus=False),
    "finetune": Stage("stage_finetune", "final_model", ("pool-train", "prune"),
                      "fine-tune the pooled or pruned model on target training data"),
}

_MAP_PIPELINE = ("train-baseline", "build-map", "pool-train", "finetune")
PIPELINES = {
    "baseline": ("train-baseline",),
    "manual-map": _MAP_PIPELINE,
    "phone-map": _MAP_PIPELINE,
    "senone-map": _MAP_PIPELINE,
    "mtdnn-masked": ("mt-train", "prune", "finetune"),
    "mtdnn-mapped": ("build-map", "mt-train", "prune", "finetune"),
}
METHODS = tuple(PIPELINES)

CONFIG_VERSION = 1
ROW_FORMAT = "polymap-result-row"
REPORT_FORMAT = "polymap-report"


def derive_seed(base_seed: int, label: str) -> int:
    """Stable sub-seed for a named pipeline stage."""
    digest = hashlib.sha256(f"{base_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


@dataclass
class RunPaths:
    """Artifact layout under one experiment's output directory."""

    root: Path

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def made(self) -> RunPaths:
        """These paths, once the run directory exists; :class:`ArtifactError` if it cannot."""
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ArtifactError(f"cannot make the run directory {self.root}: {exc}") from exc
        return self

    @property
    def corpus(self) -> Path:
        return self.root / "corpus.npz"

    @property
    def truth_dir(self) -> Path:
        return self.root / "truth"

    @property
    def models_dir(self) -> Path:
        return self.root / "models"

    @property
    def baseline_model(self) -> Path:
        return self.models_dir / "baseline.npz"

    def mapper_model(self, language: str) -> Path:
        return self.models_dir / f"mapper_{language}.npz"

    @property
    def maps_dir(self) -> Path:
        return self.root / "maps"

    @property
    def map_manifest(self) -> Path:
        return self.maps_dir / MAPSET_MANIFEST

    @property
    def pooled_model(self) -> Path:
        return self.models_dir / "pooled.npz"

    @property
    def mtdnn_model(self) -> Path:
        return self.models_dir / "mtdnn.npz"

    @property
    def pruned_model(self) -> Path:
        return self.models_dir / "pruned.npz"

    @property
    def final_model(self) -> Path:
        return self.models_dir / "final.npz"

    @property
    def rows_dir(self) -> Path:
        return self.root / "rows"

    def row(self, method: str, seed: int) -> Path:
        return self.rows_dir / f"{method}_seed{seed}.json"

    @property
    def logs_dir(self) -> Path:
        return self.root / "logs"

    def log(self, method: str, seed: int) -> Path:
        return self.logs_dir / f"{method}_seed{seed}.log"

    @property
    def report_text(self) -> Path:
        return self.root / "report.txt"

    @property
    def report_json(self) -> Path:
        return self.root / "report.json"


class FrozenMap(Mapping):
    """A read-only mapping; unlike :class:`types.MappingProxyType` it pickles."""

    def __init__(self, items=()) -> None:
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:  # a dataclass takes only a hashable value as a default
        return hash(frozenset(self._items.items()))

    def __repr__(self) -> str:
        return f"FrozenMap({self._items!r})"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs, checked when built; see README for the JSON schema.
    Sequences given are kept as tuples and mappings as :class:`FrozenMap` s."""

    method: str
    target: str
    output_dir: Path
    sources: tuple[str, ...] = ()
    seed: int = 0
    corpus_path: Path | None = None
    synth: SynthSpec | None = None
    split_fractions: Mapping[str, float] = FrozenMap({"train": 0.8, "dev": 0.1, "test": 0.1})
    hidden_dims: tuple[int, ...] = (64, 64, 64, 64)
    train: TrainConfig = TrainConfig()
    mt_train: TrainConfig = MT_RECIPE
    finetune_epochs: int = FINETUNE_RECIPE.epochs
    finetune_lr: float = FINETUNE_RECIPE.initial_lr
    manual_maps: Mapping[str, Path] = FrozenMap()

    def __post_init__(self) -> None:
        for name, kind in (("sources", tuple), ("hidden_dims", tuple),
                           ("split_fractions", FrozenMap), ("manual_maps", FrozenMap)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if not self.target:
            raise ConfigError("target language must be set")
        if self.target in self.sources:
            raise ConfigError(f"target {self.target!r} must not appear in sources")
        if len(set(self.sources)) != len(self.sources):
            raise ConfigError(f"duplicate source languages in {list(self.sources)}")
        if self.method != "baseline" and not self.sources:
            raise ConfigError(f"method {self.method!r} needs at least one source language")
        missing = [s for s in self.sources if s not in self.manual_maps]
        if self.method == "manual-map" and missing:
            raise ConfigError(f"manual-map needs a map file for source(s) {missing}")
        if (self.corpus_path is None) == (self.synth is None):
            raise ConfigError("exactly one of corpus path or synth spec must be given")
        if set(self.split_fractions) != set(SPLIT_NAMES):
            keys, given = "/".join(SPLIT_NAMES), sorted(self.split_fractions)
            raise ConfigError(f"split fractions need keys {keys}, got {given}")
        values = list(self.split_fractions.values())
        if any(v < 0 for v in values) or abs(sum(values) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must be non-negative and sum to 1, got {values}")
        if any(int(d) < 1 for d in self.hidden_dims):
            raise ConfigError(f"hidden dims must all be >= 1, got {list(self.hidden_dims)}")
        for section in ("train", "mt_train"):
            if getattr(self, section).shuffle_seed != 0:
                raise ConfigError(f"{section}: shuffle_seed must be 0; each stage derives its own")
        finetune_schedule(self)


def _schedule(section: str, base: TrainConfig, **values) -> TrainConfig:
    """``base`` with ``values``; :class:`ConfigError` naming ``section`` if they fit no schedule."""
    try:
        return dataclasses.replace(base, **values)
    except ConfigError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def finetune_schedule(cfg: ExperimentConfig) -> TrainConfig:
    """The schedule of :func:`stage_finetune`: :data:`~polymap.nnet.FINETUNE_RECIPE`
    at the config's fine-tuning epochs and rate, the baseline's batch size and
    the run's fine-tuning shuffle seed."""
    return _schedule("finetune", FINETUNE_RECIPE, epochs=cfg.finetune_epochs,
                     initial_lr=cfg.finetune_lr, batch_size=cfg.train.batch_size,
                     shuffle_seed=derive_seed(cfg.seed, "shuffle:finetune"))


def _train_config_from(raw, section: str) -> TrainConfig:
    """The JSON config's ``section``: its :class:`ExperimentConfig` default and ``raw``'s keys."""
    kinds = {f.name: f.type for f in dataclasses.fields(TrainConfig) if f.name != "shuffle_seed"}
    values = checked(raw, kinds, section, ConfigError, required=())
    return _schedule(section, getattr(ExperimentConfig, section), **values)


def _synth_from(raw, context: str) -> SynthSpec:
    kinds = {f.name: f.type for f in dataclasses.fields(SynthSpec)}
    values = checked(raw, kinds, context, ConfigError, required=())
    try:
        return SynthSpec(**{"seed": None, **values})
    except SynthSpecError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def experiment_config_from_dict(raw: dict, base_dir: Path | str = ".") -> ExperimentConfig:
    """Build and fully validate a config before any compute happens.  A
    wrong value raises :class:`ConfigError` naming its key; a key left out
    keeps the :class:`ExperimentConfig` default."""
    raw = checked(raw, {
        "version": "int", "method": "str", "target": "str", "sources": "list[str]", "seed": "int",
        "output_dir": "str", "corpus": "dict", "split": "dict[float]", "hidden_dims": "list[int]",
        "train": "dict", "mt_train": "dict", "finetune": "dict", "manual_maps": "dict[str]",
    }, "config", ConfigError, required=("method", "target", "output_dir"))
    base_dir = Path(base_dir)
    if raw.get("version", CONFIG_VERSION) != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {raw.get('version')!r}")
    corpus = checked(raw.get("corpus", {}), {"path": "str", "synth": "dict"}, "corpus", ConfigError,
                     required=())
    finetune = checked(raw.get("finetune", {}), {"epochs": "int", "lr": "float"}, "finetune",
                       ConfigError, required=())
    # field -> (JSON object, key, field value of the key's value); absent keys keep the default
    optional = {
        "sources": (raw, "sources", list),
        "seed": (raw, "seed", int),
        "split_fractions": (raw, "split", dict),
        "hidden_dims": (raw, "hidden_dims", list),
        "train": (raw, "train", lambda section: _train_config_from(section, "train")),
        "mt_train": (raw, "mt_train", lambda section: _train_config_from(section, "mt_train")),
        "finetune_epochs": (finetune, "epochs", int),
        "finetune_lr": (finetune, "lr", float),
        "manual_maps": (raw, "manual_maps", lambda m: {k: base_dir / p for k, p in m.items()}),
    }
    return ExperimentConfig(
        method=raw["method"], target=raw["target"], output_dir=base_dir / raw["output_dir"],
        corpus_path=base_dir / corpus["path"] if "path" in corpus else None,
        synth=_synth_from(corpus["synth"], "corpus.synth") if "synth" in corpus else None,
        **{name: value(part[key]) for name, (part, key, value) in optional.items() if key in part},
    )


def load_experiment_config(path: str | Path, seed: int | None = None) -> ExperimentConfig:
    """The config in the JSON file ``path``; :class:`ConfigError` naming the
    file if it cannot be read or is not a valid config."""
    path = Path(path)
    try:
        raw = decoded(path.read_text(), "config", ConfigError)
        cfg = experiment_config_from_dict(raw, path.resolve().parent)
    except (OSError, ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=int(seed))
    return cfg


def _digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _corpus_definition(cfg: ExperimentConfig) -> dict:
    """The config fields that, with the seed, define a run's corpus and split."""
    return {
        "corpus_path": str(cfg.corpus_path) if cfg.corpus_path else None,
        "synth": dataclasses.asdict(cfg.synth) if cfg.synth else None,
        "split": {k: cfg.split_fractions[k] for k in sorted(cfg.split_fractions)},
    }


def _corpus_stamp(cfg: ExperimentConfig) -> dict:
    """Provenance of the corpus a run prepares: its seed and a digest of
    its corpus source and split fractions."""
    return {"seed": cfg.seed, "digest": _digest(_corpus_definition(cfg))}


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the experiment definition (seed and output paths excluded)."""
    payload = {
        "method": cfg.method,
        "target": cfg.target,
        "sources": cfg.sources,
        **_corpus_definition(cfg),
        "hidden_dims": cfg.hidden_dims,
        "train": dataclasses.asdict(cfg.train),
        "mt_train": dataclasses.asdict(cfg.mt_train),
        "finetune": {"epochs": cfg.finetune_epochs, "lr": cfg.finetune_lr},
        "manual_maps": {k: str(v) for k, v in sorted(cfg.manual_maps.items())},
    }
    return _digest(payload)


def prepare_corpus(cfg: ExperimentConfig, cached_path: Path | None = None) -> MultiCorpus:
    """Load or generate the corpus and make sure it carries split tags.

    A corpus without split tags is split here; a corpus file whose tags
    miss a configured language raises :class:`ArtifactError`.  A cached
    corpus (written by :func:`stage_synth`) must carry this config's
    :func:`_corpus_stamp`, or :class:`StaleArtifactError` is raised.
    """
    source = None
    if cached_path is not None and Path(cached_path).exists():
        source = cached_path
        corpus = load_corpus(cached_path)
        stamp = _corpus_stamp(cfg)
        if corpus.provenance != stamp:
            raise StaleArtifactError(
                f"{cached_path} was made for another corpus, split or seed "
                f"({corpus.provenance or 'unstamped'}, this run {stamp}); rerun synth"
            )
    elif cfg.corpus_path is not None:
        source = cfg.corpus_path
        corpus = load_corpus(cfg.corpus_path)
    else:
        spec = cfg.synth
        assert spec is not None
        if spec.seed is None:
            spec = dataclasses.replace(spec, seed=derive_seed(cfg.seed, "corpus"))
        corpus = generate_synthetic(spec)
    missing = [l for l in (cfg.target, *cfg.sources) if l not in corpus.languages]
    if missing:
        raise ConfigError(f"corpus has no language(s) {missing}; it has {corpus.languages}")
    if not corpus.splits:
        return split_corpus(corpus, cfg.split_fractions, derive_seed(cfg.seed, "split"))
    untagged = [l for l in (cfg.target, *cfg.sources) if l not in corpus.splits]
    if untagged:
        raise ArtifactError(
            f"{source} has split tags for {sorted(corpus.splits)} but not for {untagged}; "
            "tag the utterances of every language or of none"
        )
    return corpus


def frame_error_rate(net: Network, frames: FrameSet) -> float:
    """Percentage of frames whose predicted label differs from the reference."""
    if len(frames) == 0:
        raise EmptyDataError("cannot compute a frame error rate on zero frames")
    preds = predict_batch(net, frames)
    return 100.0 * float(np.mean(preds != frames.labels))


def _new_network(
    corpus: MultiCorpus, cfg: ExperimentConfig, languages: list[str], stage: str
) -> Network:
    """A fresh network of the configured hidden stack with a head per language."""
    heads = [(lang, corpus.senone_inventories[lang].size) for lang in languages]
    return init_network([corpus.feature_dim, *cfg.hidden_dims], heads, derive_seed(cfg.seed, stage))


def _load_model(load, path: Path, languages: list[str]) -> Network:
    """The model ``load`` reads from ``path``, if its heads name ``languages``
    in order; :class:`ArtifactError` naming the file otherwise, so no stage
    scores, tunes, maps through or prunes a model of other languages."""
    net = load(path)
    found = [lang for lang, _ in net.heads]
    if found != languages:
        raise ArtifactError(f"{path} holds a model of language(s) {found}, not {languages}")
    return net


def _write_train_log(path: Path, history: list[EpochStats]) -> None:
    """One line per epoch: the mean loss if one language trained, else each
    language's mean loss."""
    lines = []
    for stats in history:
        if len(stats.per_language) == 1:
            losses = f"loss={stats.mean_loss:.6f}"
        else:
            per_lang = sorted(stats.per_language.items())
            losses = " ".join(f"loss[{lang}]={loss:.6f}" for lang, loss in per_lang)
        lines.append(f"epoch={stats.epoch} lr={stats.lr:.6g} {losses}")
    with open_artifact(path) as f:
        f.write("\n".join(lines) + "\n" if lines else "")


def train_language_net(
    corpus: MultiCorpus, cfg: ExperimentConfig, language: str, stage: str, frames: FrameSet
) -> tuple[Network, list[EpochStats]]:
    """Train a fresh classifier for ``language`` on ``frames`` with the baseline recipe."""
    net = _new_network(corpus, cfg, [language], f"init:{stage}")
    tcfg = dataclasses.replace(cfg.train, shuffle_seed=derive_seed(cfg.seed, f"shuffle:{stage}"))
    return train(net, frames, tcfg)


def build_source_maps(corpus: MultiCorpus, cfg: ExperimentConfig, mapper: Network) -> MapSet:
    """One (source -> target) map per source language, per the method."""
    maps: dict[str, LabelMap] = {}
    for source in cfg.sources:
        if cfg.method == "manual-map":
            maps[source] = load_manual_map(
                cfg.manual_maps[source],
                corpus.phone_inventories[source],
                corpus.phone_inventories[cfg.target],
            )
            continue
        counts = accumulate_confusion(
            mapper,
            corpus.subset(source, "train"),
            corpus.senone_inventories[cfg.target],
            corpus.senone_inventories[source],
        )
        if cfg.method == "senone-map":
            maps[source] = senone_map(counts)
        else:
            maps[source] = phone_map(
                counts, corpus.g_tables[source], corpus.g_tables[cfg.target]
            )
    return MapSet({(source, cfg.target): m for source, m in maps.items()})


# ---------------------------------------------------------------------------
# stages: each takes the config, paths, inputs (stage -> file) and corpus; returns None


def stage_synth(cfg: ExperimentConfig, paths: RunPaths, corpus: MultiCorpus) -> Path:
    """Materialize the corpus, stamped with :func:`_corpus_stamp`, plus the
    generator's answer-key map files."""
    paths.made()
    save_corpus(dataclasses.replace(corpus, provenance=_corpus_stamp(cfg)), paths.corpus)
    save_ground_truth_maps(corpus, paths.truth_dir)
    return paths.corpus


def stage_train_baseline(
    cfg: ExperimentConfig, paths: RunPaths, inputs: dict[str, Path], corpus: MultiCorpus
) -> None:
    frames = corpus.subset(cfg.target, "train")
    net, history = train_language_net(corpus, cfg, cfg.target, "baseline", frames)
    save_network(net, paths.baseline_model)
    _write_train_log(paths.logs_dir / "baseline_train.log", history)


def stage_build_map(
    cfg: ExperimentConfig, paths: RunPaths, inputs: dict[str, Path], corpus: MultiCorpus
) -> None:
    """Build and persist source-to-target maps through the target baseline if
    the pipeline trains one, else senone maps between all language pairs."""
    if "train-baseline" in inputs:
        mapper = _load_model(load_network, inputs["train-baseline"], [cfg.target])
        map_set = build_source_maps(corpus, cfg, mapper)
    else:
        languages = [cfg.target, *cfg.sources]
        frames = dict(zip(languages, corpus.gather(languages, "train")))
        nets: dict[str, Network] = {}
        for lang in languages:
            net, history = train_language_net(corpus, cfg, lang, f"mapper:{lang}", frames[lang])
            save_network(net, paths.mapper_model(lang))
            _write_train_log(paths.logs_dir / f"mapper_{lang}_train.log", history)
            nets[lang] = net
        map_set = all_pairs_senone_maps(
            nets, frames, {lang: corpus.senone_inventories[lang] for lang in languages}
        )
    save_map_set(map_set, paths.maps_dir)


def stage_pool_train(
    cfg: ExperimentConfig, paths: RunPaths, inputs: dict[str, Path], corpus: MultiCorpus
) -> None:
    """Train a fresh network on pooled, relabeled data."""
    mapper = _load_model(load_network, inputs["train-baseline"], [cfg.target])
    map_set = load_map_set(inputs["build-map"].parent)
    maps = [map_set.get(src, cfg.target) for src in cfg.sources]
    pooled = pool_and_relabel(corpus, "train", cfg.target, maps, mapper)
    trained, history = train_language_net(corpus, cfg, cfg.target, "pooled", pooled)
    save_network(trained, paths.pooled_model)
    _write_train_log(paths.logs_dir / "pooled_train.log", history)


def stage_mt_train(
    cfg: ExperimentConfig, paths: RunPaths, inputs: dict[str, Path], corpus: MultiCorpus
) -> None:
    """Multi-head training: every head takes a target through the maps
    when the pipeline built maps, only the frame's own head otherwise."""
    languages = [cfg.target, *cfg.sources]
    map_set = load_map_set(inputs["build-map"].parent) if "build-map" in inputs else None
    net = _new_network(corpus, cfg, languages, "init:mtdnn")
    mt_cfg = dataclasses.replace(cfg.mt_train, shuffle_seed=derive_seed(cfg.seed, "shuffle:mtdnn"))
    frames = dict(zip(languages, corpus.gather(languages, "train")))
    trained, history = train_multihead(net, frames, mt_cfg, map_set)
    save_multihead(trained, paths.mtdnn_model)
    _write_train_log(paths.logs_dir / "mtdnn_train.log", history)


def stage_prune(
    cfg: ExperimentConfig, paths: RunPaths, inputs: dict[str, Path], corpus: MultiCorpus | None
) -> None:
    languages = [cfg.target, *cfg.sources]
    net = prune(_load_model(load_multihead, inputs["mt-train"], languages), cfg.target)
    save_network(net, paths.pruned_model)


def stage_finetune(
    cfg: ExperimentConfig, paths: RunPaths, inputs: dict[str, Path], corpus: MultiCorpus
) -> None:
    """Fine-tune the one input model on target training data on the
    :func:`finetune_schedule`."""
    (model_path,) = inputs.values()
    net = _load_model(load_network, model_path, [cfg.target])
    tuned, history = finetune(net, corpus.subset(cfg.target, "train"), finetune_schedule(cfg))
    save_network(tuned, paths.final_model)
    _write_train_log(paths.logs_dir / "finetune.log", history)


def stage_evaluate(cfg: ExperimentConfig, corpus: MultiCorpus, model: Path, split: str) -> float:
    net = _load_model(load_network, model, [cfg.target])
    return frame_error_rate(net, corpus.subset(cfg.target, split))


def _output(paths: RunPaths, stage: str) -> Path:
    """The existing output file of ``stage``; :class:`ArtifactError` if missing."""
    path = getattr(paths, STAGES[stage].writes)
    if not path.exists():
        raise ArtifactError(f"{path} not found; run {stage} first")
    return path


def run_stage(cfg: ExperimentConfig, name: str, corpus: MultiCorpus | None = None) -> Path:
    """Run one stage of the configured method's pipeline and return the file it wrote.

    Its inputs, the outputs of the stages it reads that come earlier in the
    pipeline, must exist.  The stage function is looked up on this module at
    call time, so a function replaced on the module is the one run.
    """
    pipeline = PIPELINES[cfg.method]
    if name not in pipeline:
        raise ConfigError(f"{name} is not a stage of {cfg.method}; it runs {', '.join(pipeline)}")
    stage = STAGES[name]
    paths = RunPaths(cfg.output_dir).made()
    earlier = pipeline[: pipeline.index(name)]
    inputs = {r: _output(paths, r) for r in stage.reads if r in earlier}
    if corpus is None and stage.uses_corpus:
        corpus = prepare_corpus(cfg, paths.corpus)
    globals()[stage.function](cfg, paths, inputs, corpus)
    return getattr(paths, stage.writes)


def evaluate(cfg: ExperimentConfig, split: str = "test", model_path: Path | None = None) -> float:
    """Frame error rate of ``model_path``, by default the last stage's output."""
    paths = RunPaths(cfg.output_dir)
    model = Path(model_path) if model_path else _output(paths, PIPELINES[cfg.method][-1])
    return stage_evaluate(cfg, prepare_corpus(cfg, paths.corpus), model, split)


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class ResultRow:
    method: str
    target: str
    sources: tuple[str, ...]
    seed: int
    config_hash: str
    dev_frame_error: float
    test_frame_error: float


def row_to_dict(row: ResultRow) -> dict:
    fields = {**dataclasses.asdict(row), "sources": list(row.sources)}
    return {"format": ROW_FORMAT, "version": 1, **fields}


def row_from_dict(raw: dict, context: str = "row") -> ResultRow:
    """A result row; :class:`ArtifactError` naming ``context`` and the key
    unless ``raw`` is a :data:`ROW_FORMAT` v1 record of percentages."""
    raw = checked(raw, {
        "method": "str", "target": "str", "sources": "list[str]", "seed": "int",
        "config_hash": "str", "dev_frame_error": "float", "test_frame_error": "float",
    }, context, ArtifactError, header=(ROW_FORMAT, 1))
    for key in ("dev_frame_error", "test_frame_error"):
        if not 0 <= raw[key] <= 100:
            raise ArtifactError(f"{context} key {key!r} must be a percentage, got {raw[key]}")
    return ResultRow(
        raw["method"], raw["target"], tuple(raw["sources"]), raw["seed"], raw["config_hash"],
        float(raw["dev_frame_error"]), float(raw["test_frame_error"]),
    )


def write_row(row: ResultRow, path: Path) -> None:
    with open_artifact(path) as f:
        f.write(json.dumps(row_to_dict(row), sort_keys=True, indent=2) + "\n")


def read_row(path: str | Path) -> ResultRow:
    """A result row file; :class:`ArtifactError` naming it if it is missing or not a row."""
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"cannot read {path}: {exc}") from exc
    context = f"cannot read {path}: row"
    return row_from_dict(decoded(text, context, ArtifactError), context)


def relative_improvement(baseline: float, value: float) -> float:
    """Percentage improvement of ``value`` over ``baseline`` (higher is better)."""
    if baseline == 0.0:
        return 0.0
    return 100.0 * (baseline - value) / baseline


def compared_sources(row: ResultRow) -> tuple[str, ...] | None:
    """The source languages ``row``'s result depends on: its sources, or None
    for a baseline row, whose network trains on the target alone."""
    return None if row.method == "baseline" else row.sources


def _table_payload(rows: list[ResultRow], metadata: dict | None) -> dict:
    """The report of ``rows``; :class:`ArtifactError` unless they share one
    target and one list of :func:`compared_sources`."""
    targets = sorted({row.target for row in rows})
    sources = sorted({compared_sources(row) for row in rows} - {None})
    if len(targets) > 1 or len(sources) > 1:
        lists = [list(s) for s in sources]
        raise ArtifactError(f"rows of targets {targets} and source lists {lists}; a report "
                            "compares rows of one target and one source list")
    by_method: dict[str, list[ResultRow]] = {}
    for row in rows:
        by_method.setdefault(row.method, []).append(row)
    if "baseline" not in by_method:
        raise MissingBaselineError("results contain no baseline row to compare against")
    ordered = [m for m in METHODS if m in by_method]
    ordered += sorted(m for m in by_method if m not in METHODS)
    payload_rows = []
    for method in ordered:
        group = by_method[method]
        payload_rows.append(
            {
                "method": method,
                "seeds": sorted(r.seed for r in group),
                "dev_frame_error": float(np.mean([r.dev_frame_error for r in group])),
                "test_frame_error": float(np.mean([r.test_frame_error for r in group])),
            }
        )
    return {
        "format": REPORT_FORMAT,
        "version": 1,
        "metadata": metadata or {},
        "rows": payload_rows,
    }


def render_table(payload: dict) -> str:
    """Aligned text table; improvements vs baseline shown in parentheses."""
    if payload.get("format") != REPORT_FORMAT:
        raise ConfigError(f"not a {REPORT_FORMAT} payload")
    rows = payload["rows"]
    baseline = next((r for r in rows if r["method"] == "baseline"), None)
    if baseline is None:
        raise MissingBaselineError("results contain no baseline row to compare against")

    def cell(value: float, base: float, is_baseline: bool) -> str:
        if is_baseline:
            return f"{value:.2f} (NA)"
        return f"{value:.2f} ({relative_improvement(base, value):.2f})"

    lines = [f"{'method':<14} {'seeds':>5}  {'dev_fer':<16} {'test_fer':<16}"]
    for row in rows:
        is_base = row["method"] == "baseline"
        lines.append(
            f"{row['method']:<14} {len(row['seeds']):>5}  "
            f"{cell(row['dev_frame_error'], baseline['dev_frame_error'], is_base):<16} "
            f"{cell(row['test_frame_error'], baseline['test_frame_error'], is_base):<16}"
        )
    return "\n".join(lines)


def emit_table(rows: list[ResultRow], metadata: dict | None = None) -> tuple[str, dict]:
    """Text table plus the machine-readable payload carrying the same numbers."""
    payload = _table_payload(rows, metadata)
    return render_table(payload), payload


def write_report(rows: list[ResultRow], out_dir: Path, metadata: dict | None = None) -> str:
    text, payload = emit_table(rows, metadata)
    paths = RunPaths(out_dir).made()
    with open_artifact(paths.report_text) as f:
        f.write(text + "\n")
    with open_artifact(paths.report_json) as f:
        f.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return text


# ---------------------------------------------------------------------------
# the full pipeline


def run_experiment(cfg: ExperimentConfig) -> ResultRow:
    """Run the configured method's pipeline end to end on one prepared corpus,
    persisting every artifact, and score its last file as :func:`evaluate` does.
    A target dev or test split of no utterances raises :class:`EmptyDataError`
    before the first stage."""
    started = time.monotonic()
    paths = RunPaths(cfg.output_dir).made()
    corpus = prepare_corpus(cfg, paths.corpus)
    for split in ("dev", "test"):
        if not corpus.splits[cfg.target][split]:
            raise EmptyDataError(f"target {cfg.target!r} has no utterances in its {split} split")
    for name in PIPELINES[cfg.method]:
        final = run_stage(cfg, name, corpus)
    dev = stage_evaluate(cfg, corpus, final, "dev")
    test = stage_evaluate(cfg, corpus, final, "test")
    row = ResultRow(cfg.method, cfg.target, cfg.sources, cfg.seed, config_hash(cfg), dev, test)
    write_row(row, paths.row(cfg.method, cfg.seed))
    elapsed = time.monotonic() - started
    with open_artifact(paths.log(cfg.method, cfg.seed)) as f:
        f.write(
            f"method={cfg.method} seed={cfg.seed} config_hash={row.config_hash}\n"
            f"dev_frame_error={dev!r} test_frame_error={test!r}\n"
            f"runtime_seconds={elapsed:.3f}\n"
        )
    return row


def _write_manual_map(corpus: MultiCorpus, source: str, target: str, path: Path) -> None:
    """The phone map an annotator would write: the answer key for shared phones,
    target phone 0 for the source's private phones, which have no counterpart."""
    truth = corpus.phone_truth[(source, target)]
    pairs = [(p, truth.get(p, 0)) for p in range(corpus.phone_inventories[source].size)]
    write_map_lines(path, pairs, f"manual phone map {source} -> {target}")


def run_matrix(
    out_dir: Path | str, seeds: Iterable[int], methods: Sequence[str], target: str = "lang0",
    spec: SynthSpec = SynthSpec(),
) -> Iterator[ResultRow]:
    """Run each method on one synthetic corpus per seed ``s``; yield each row.

    The corpus, ``spec`` drawn with ``derive_seed(s, "corpus")``, goes to
    ``<out_dir>/corpus_seed<s>.npz`` and its answer-key maps to ``truth_seed<s>``.
    Every other language is a source.  Each run writes under ``<method>_seed<s>``;
    manual-map reads the answer-key maps :func:`_write_manual_map` writes under
    ``manual_maps_seed<s>``.
    """
    out = Path(out_dir)
    for seed in seeds:
        corpus = generate_synthetic(dataclasses.replace(spec, seed=derive_seed(seed, "corpus")))
        corpus_path = out / f"corpus_seed{seed}.npz"
        save_corpus(corpus, corpus_path)
        save_ground_truth_maps(corpus, out / f"truth_seed{seed}")
        sources = [lang for lang in corpus.languages if lang != target]
        for method in methods:
            manual = {}
            if method == "manual-map":
                manual_dir = out / f"manual_maps_seed{seed}"
                manual = {src: manual_dir / f"{src}_to_{target}.txt" for src in sources}
                for src, path in manual.items():
                    _write_manual_map(corpus, src, target, path)
            yield run_experiment(ExperimentConfig(
                method=method, target=target, output_dir=out / f"{method}_seed{seed}",
                sources=sources, seed=seed, corpus_path=corpus_path, manual_maps=manual,
            ))

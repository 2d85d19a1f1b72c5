"""Cross-lingual label mapping and multitask transfer training on frame corpora."""

from .corpus import (
    MultiCorpus,
    SynthSpec,
    generate_synthetic,
    load_corpus,
    pool_and_relabel,
    save_corpus,
    save_ground_truth_maps,
    split_corpus,
)
from .data import FrameSet, LabelInventory, SenoneToPhoneTable
from .harness import (
    ExperimentConfig,
    ResultRow,
    emit_table,
    frame_error_rate,
    load_experiment_config,
    relative_improvement,
    run_experiment,
    run_matrix,
)
from .mapping import (
    ConfusionCounts,
    LabelMap,
    MapSet,
    accumulate_confusion,
    all_pairs_senone_maps,
    answer_key_hits,
    apply_map,
    identity_map,
    load_manual_map,
    load_map_set,
    phone_map,
    realign_with_phone_map,
    save_map_file,
    save_map_set,
    senone_map,
)
from .multitask import forward_head, load_multihead, save_multihead, train_multihead
from .nnet import (
    FINETUNE_RECIPE,
    MT_RECIPE,
    EpochStats,
    Network,
    TrainConfig,
    finetune,
    forward_batch,
    init_network,
    load_network,
    lr_at_epoch,
    predict_batch,
    prune,
    save_network,
    train,
)

__version__ = "0.1.0"

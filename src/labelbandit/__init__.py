"""Weakly supervised label inference.

Instance-level labels are inferred from bag-level weak supervision by a
combinatorial upper-confidence-bound bandit: every candidate (instance,
label) pair is an arm, a full labelling is a super arm, and a labelling's
reward is how well a classifier trained on it respects the weak labels of a
held-out set. A final classifier is then trained on the inferred labels.
"""

from .bandit import (
    FIXED,
    BanditState,
    InferenceResult,
    PullLog,
    best_assignment,
    initialization_assignments,
    new_bandit,
    run_inference,
    select_super_arm,
    select_super_arm_batch,
    ucb_scores,
    update,
)
from .classifiers import ClassifierSpec, TrainedModel, fit, predict_arrays
from .data import (
    Bag,
    Dataset,
    Instance,
    WeakLabel,
    generate_binary_mil,
    generate_gaussian_blobs,
    generate_multiclass_mil,
    load_dataset,
    save_dataset,
    strip_ground_truth,
)
from .errors import LabelBanditError
from .pipeline import (
    ClassifierConfig,
    InferenceConfig,
    PipelineResult,
    apply_random_feature_map,
    bootstrap_infer,
    derive_label_sets,
    kfold_infer,
    split_bags_by_inferred_label,
    train_final,
)
from .rewards import RewardEnvironment, RewardParams, build_reward_context

__version__ = "0.1.0"

__all__ = [
    "FIXED",
    "Bag",
    "BanditState",
    "ClassifierConfig",
    "ClassifierSpec",
    "Dataset",
    "InferenceConfig",
    "InferenceResult",
    "Instance",
    "LabelBanditError",
    "PipelineResult",
    "PullLog",
    "RewardEnvironment",
    "RewardParams",
    "TrainedModel",
    "WeakLabel",
    "apply_random_feature_map",
    "best_assignment",
    "bootstrap_infer",
    "build_reward_context",
    "derive_label_sets",
    "fit",
    "generate_binary_mil",
    "generate_gaussian_blobs",
    "generate_multiclass_mil",
    "initialization_assignments",
    "kfold_infer",
    "load_dataset",
    "new_bandit",
    "predict_arrays",
    "run_inference",
    "save_dataset",
    "select_super_arm",
    "select_super_arm_batch",
    "split_bags_by_inferred_label",
    "strip_ground_truth",
    "train_final",
    "ucb_scores",
    "update",
]

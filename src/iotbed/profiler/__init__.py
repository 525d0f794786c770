"""Traffic-based device profiling: features, tree model, evaluation."""

from .features import (SESSION_GAP_S, SUMMARY_LENGTH, SUMMARY_NAMES,
                       SequenceInstance, extract_features, summarize)
from .profile import (ProfileDistribution, confusion_matrix, matrix_accuracy,
                      profile_device, profile_pairs, render_confusion,
                      render_profile_record, render_profile_table)
from .tree import (Leaf, Node, StatModel, TrainParams, best_split,
                   class_entropy, classify_sequence, load_model, predict_class,
                   save_model, split_gain, train_model)

__all__ = [
    "SESSION_GAP_S", "SUMMARY_LENGTH", "SUMMARY_NAMES", "SequenceInstance",
    "extract_features", "summarize", "ProfileDistribution", "confusion_matrix",
    "matrix_accuracy", "profile_device", "profile_pairs", "render_confusion",
    "render_profile_record", "render_profile_table", "Leaf", "Node",
    "StatModel", "TrainParams", "best_split", "class_entropy",
    "classify_sequence", "load_model", "predict_class", "save_model",
    "split_gain", "train_model",
]

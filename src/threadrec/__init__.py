"""Dynamic thread recommendation for course discussion forums.

Students and threads carry evolving embeddings that update together at
every post, conditioned on the post's topic mixture and the time elapsed
since each side was last active. Rankings come from projecting a student
forward to the query time and scoring candidate threads by distance to a
jointly predicted thread state.

The exported names resolve on first use, so importing the package, or one
of its modules, loads only the modules that are used.
"""
import importlib

__version__ = "0.1.0"

__all__ = [
    "AblationFlags", "CourseSchedule", "Dataset", "DynamicStateStore",
    "EmptyDatasetError", "EvalReport", "GroundTruth", "IntegrityError",
    "LdaModel", "ModelParams", "ParseError", "PostEvent", "SplitSpec",
    "SynthConfig", "TrainConfig", "Vocabulary",
    "algo_like", "average_precision", "baseline_pop", "baseline_rec",
    "baseline_user_rec", "build_model_ranker", "build_vocabulary",
    "course_topics", "evaluate", "event_queries", "excitation", "fit",
    "generate", "gradient_check", "ingest_jsonl", "lda_fit", "lda_infer_batch",
    "load_checkpoint", "load_schedule", "prepare_event_features", "preprocess",
    "project_thread", "save_checkpoint", "split_by_time", "split_queries",
    "t_batch", "term_frequency", "validate_dataset", "__version__",
]

_HOMES = {
    "corpus": ("CourseSchedule", "Dataset", "EmptyDatasetError", "IntegrityError",
               "ParseError", "PostEvent", "SplitSpec", "ingest_jsonl", "load_schedule",
               "split_by_time", "validate_dataset"),
    "model": ("AblationFlags", "DynamicStateStore", "ModelParams", "excitation",
              "load_checkpoint", "project_thread", "save_checkpoint"),
    "recommend": ("EvalReport", "average_precision", "baseline_pop", "baseline_rec",
                  "baseline_user_rec", "build_model_ranker", "evaluate", "event_queries",
                  "split_queries"),
    "synth": ("GroundTruth", "SynthConfig", "algo_like", "generate"),
    "text": ("LdaModel", "Vocabulary", "build_vocabulary", "course_topics", "lda_fit",
             "lda_infer_batch", "preprocess", "term_frequency"),
    "train": ("TrainConfig", "fit", "gradient_check", "prepare_event_features", "t_batch"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name):
    """An exported name, imported from its module on first use (PEP 562)."""
    if name not in _HOME_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME_OF[name], __name__), name)
    globals()[name] = value
    return value

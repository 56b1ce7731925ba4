"""Span tracing of threadrec from outside the package.

`install` replaces the public functions of the traced threadrec modules, and
a few public methods, with wrappers that record one span per call: a name,
a start, an end and the index of the enclosing span. Spans live in compact
arrays in memory and are written to one `.npz` file when the process ends.
Counts are taken in the same wrappers, after the call returns, from its
arguments and result.

Run a threadrec command under tracing with

    python3 perfbench/tracing.py SPANS_OUT -- lda --data ... --out ...

The package under `src/` is imported unchanged; a function that no longer
exists is listed as absent instead of failing the run.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
import types
from array import array
from pathlib import Path

# Modules of the layer map; `stem` is left out, it runs once per token.
TRACED_MODULES = ("synth", "corpus", "text", "train", "model", "recommend", "cli")

# Public methods traced besides every public module-level function.
TRACED_METHODS = ("corpus.ThreadEventIndex.history", "train.Adam.step")

# Functions the per-layer metrics are read from; any of them missing is
# reported as absent.
EXPECTED = (
    "synth.generate", "corpus.ingest_jsonl", "corpus.ThreadEventIndex.history",
    "text.preprocess", "text.lda_fit", "text.lda_infer", "text.course_topics",
    "train.prepare_event_features", "train.t_batch", "train.fit",
    "train.clip_gradients", "train.Adam.step", "model.event_grads",
    "model.excitation", "model.save_checkpoint", "model.load_checkpoint",
    "recommend.build_model_ranker", "recommend.rank_threads",
    "recommend.evaluate", "recommend.evaluate_per_event", "cli.write_manifest",
)


class Recorder:
    """Spans of one process, kept in parallel arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.hook_errors = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def dump(self, path) -> None:
        import numpy as np
        meta = {"names": self.names, "counts": self.counts,
                "absent": self.absent, "hook_errors": self.hook_errors}
        np.savez(path, name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 meta=np.array(json.dumps(meta)))


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Counters taken at a span's boundary: (recorder, function, args, kwargs,
# result) -> None. Each adds under the span's own name.
def _count_ingest(rec, fn, args, kwargs, result):
    rec.add("corpus.ingest_jsonl.posts", len(result.events))


def _count_history(rec, fn, args, kwargs, result):
    rec.add("corpus.ThreadEventIndex.history.owned", result[0] is not None)


def _count_lda_fit(rec, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    tokens = sum(sum(doc.values()) for doc in a["docs"])
    rec.add("text.lda_fit.tokens", tokens)
    rec.add("text.lda_fit.token_steps", tokens * a["iters"])


def _count_features(rec, fn, args, kwargs, result):
    rec.add("train.prepare_event_features.posts", len(_bound(fn, args, kwargs)["train"].events))


def _count_t_batch(rec, fn, args, kwargs, result):
    rec.add("train.t_batch.batches", len(result))
    rec.add("train.t_batch.events", sum(len(b) for b in result))


def _count_fit(rec, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    rec.add("train.fit.event_steps", len(a["train"].events) * a["config"].epochs)


def _count_excitation(rec, fn, args, kwargs, result):
    rec.add("model.excitation.nonzero", result > 0.0)


def _count_save(rec, fn, args, kwargs, result):
    rec.add("model.save_checkpoint.bytes", os.path.getsize(_bound(fn, args, kwargs)["path"]))


def _count_rank_threads(rec, fn, args, kwargs, result):
    rec.add("recommend.rank_threads.candidates", len(_bound(fn, args, kwargs)["candidates"]))


HOOKS = {
    "corpus.ingest_jsonl": _count_ingest,
    "corpus.ThreadEventIndex.history": _count_history,
    "text.lda_fit": _count_lda_fit,
    "train.prepare_event_features": _count_features,
    "train.t_batch": _count_t_batch,
    "train.fit": _count_fit,
    "model.excitation": _count_excitation,
    "model.save_checkpoint": _count_save,
    "recommend.rank_threads": _count_rank_threads,
}


def _wrap(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)
    hook = HOOKS.get(name)
    begin, end = rec.begin, rec.end

    def traced(*args, **kwargs):
        idx = begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            end(idx)
        if hook is not None:
            try:
                hook(rec, fn, args, kwargs, result)
            except (AttributeError, KeyError, IndexError, TypeError, ValueError):
                # an API change moved what the counter reads; the span stays
                rec.hook_errors += 1
        return result

    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__doc__ = fn.__doc__
    traced.__wrapped__ = fn
    return traced


def install(rec: Recorder) -> None:
    """Wrap the traced functions in every threadrec module that refers to
    them, so calls through `from .x import f` names are traced too."""
    modules = {}
    for short in TRACED_MODULES:
        modules[short] = importlib.import_module("threadrec." + short)
    modules["__init__"] = importlib.import_module("threadrec")

    replaced: dict[int, object] = {}
    found = set()
    for short in TRACED_MODULES:
        mod = modules[short]
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__):
                continue
            name = "%s.%s" % (short, attr)
            replaced[id(fn)] = _wrap(rec, name, fn)
            found.add(name)
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in replaced and isinstance(value, types.FunctionType):
                setattr(mod, attr, replaced[id(value)])

    for name in TRACED_METHODS:
        short, cls_name, meth = name.split(".")
        cls = getattr(modules[short], cls_name, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        if isinstance(fn, types.FunctionType):
            setattr(cls, meth, _wrap(rec, name, fn))
            found.add(name)
    rec.absent = [name for name in EXPECTED if name not in found]


class Trace:
    """Per-name call counts, total and self time of one process's spans."""

    def __init__(self, path):
        import numpy as np
        with np.load(path) as z:
            meta = json.loads(str(z["meta"]))
            name, parent = z["name"], z["parent"]
            start, end = z["start"], z["end"]
        self.names = meta["names"]
        self.counts = meta["counts"]
        self.absent = meta["absent"]
        self.hook_errors = meta["hook_errors"]
        dur = end - start
        nested = parent >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, parent[nested], dur[nested])
        k = len(self.names)
        self._calls = np.bincount(name, minlength=k)
        self._total = np.bincount(name, weights=dur, minlength=k)
        self._self = np.bincount(name, weights=dur - covered, minlength=k)
        self._name, self._dur = name, dur
        self._parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
        ids, first = np.unique(name, return_index=True)
        self._first = {self.names[i]: float(start[j]) for i, j in zip(ids, first)}

    def _get(self, arr, name):
        return arr[self.names.index(name)] if name in self.names else 0

    def calls(self, name) -> int:
        return int(self._get(self._calls, name))

    def total(self, name) -> float:
        return float(self._get(self._total, name))

    def self_time(self, name) -> float:
        return float(self._get(self._self, name))

    def total_under(self, name, parent) -> float:
        """Total time of `name` spans called directly from `parent` spans."""
        if name not in self.names or parent not in self.names:
            return 0.0
        mask = ((self._name == self.names.index(name))
                & (self._parent_name == self.names.index(parent)))
        return float(self._dur[mask].sum())

    def first_start(self, name):
        return self._first.get(name)

    def count(self, key) -> float:
        return float(self.counts.get(key, 0.0))


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracing.py SPANS_OUT -- THREADREC_ARGS...", file=sys.stderr)
        return 2
    out = Path(argv[0])
    rec = Recorder()
    install(rec)
    from threadrec import cli
    try:
        return cli.main(argv[2:])
    finally:
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Forum event log: data model, ingestion, splitting, interaction history.

A dataset is an ordered list of post events over dense student and thread
indices, together with the course schedule. External ids from the raw log
are re-indexed at ingest time, and the dataset keeps the mapping in its
student_ids and thread_ids.
"""
from __future__ import annotations

import bisect
import functools
import json
import math
import sys
from dataclasses import dataclass, field, fields
from operator import itemgetter
from typing import NamedTuple

from .text import preprocess


class ParseError(ValueError):
    """A line of the input file could not be parsed. Carries the 1-based
    line number."""

    def __init__(self, line_no, message):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


class IntegrityError(ValueError):
    """The file parsed but violates a dataset invariant (duplicate ids,
    bad parent references, and the like)."""


class EmptyDatasetError(ValueError):
    pass


@dataclass
class PostEvent:
    post_id: int
    student_id: int
    thread_id: int
    timestamp: float
    text: str
    parent_post_id: int | None = None

    @functools.cached_property
    def tokens(self) -> list[str]:
        """The preprocessed text, computed on first read: most commands
        never read the tokens of most posts."""
        return preprocess(self.text)


@dataclass
class CourseSchedule:
    """Per-week syllabus documents and the week start times."""
    week_docs: list[list[str]]
    week_boundaries: list[float]

    def __post_init__(self):
        if len(self.week_docs) != len(self.week_boundaries):
            raise ValueError("week_docs and week_boundaries must have equal length")
        if not self.week_docs:
            raise ValueError("schedule must contain at least one week")
        for a, b in zip(self.week_boundaries, self.week_boundaries[1:]):
            if not b > a:
                raise ValueError("week boundaries must be strictly increasing")

    @property
    def num_weeks(self) -> int:
        return len(self.week_docs)

    def week_of(self, t: float) -> int:
        """Index of the week containing time t, clamped to the schedule."""
        i = bisect.bisect_right(self.week_boundaries, t) - 1
        return min(max(i, 0), self.num_weeks - 1)


@dataclass
class Dataset:
    events: list[PostEvent]
    num_students: int
    num_threads: int
    course: CourseSchedule
    # dense index -> external id, identity when the input was already dense
    student_ids: list[int] = field(default_factory=list)
    thread_ids: list[int] = field(default_factory=list)


@dataclass
class SplitSpec:
    train_end: float
    test_end: float

    def __post_init__(self):
        if not (0 < self.train_end < self.test_end):
            raise ValueError("need 0 < train_end < test_end")


class ReplyHistory(NamedTuple):
    """Interaction record of one student on one thread up to a query time.

    last_own_post is the time of the student's latest post on the thread
    before the query time, or None if they never posted there. post_times
    and reply_times hold events by other students strictly between
    last_own_post and the query time: explicit replies to any of the
    student's posts on the thread land in reply_times, every other post
    lands in post_times. The two lists never share an event."""
    last_own_post: float | None
    post_times: list[float]
    reply_times: list[float]


def validate_dataset(ds: Dataset) -> None:
    """Check ordering, index range, and parent reference invariants."""
    if ds.num_students < 1 or ds.num_threads < 1:
        raise IntegrityError("dataset must register at least one student and thread")
    seen_posts: dict[int, PostEvent] = {}
    prev_t = None
    prev_id = None
    for ev in ds.events:
        if ev.timestamp < 0:
            raise IntegrityError("post %d has negative timestamp" % ev.post_id)
        if not (0 <= ev.student_id < ds.num_students):
            raise IntegrityError("post %d references unknown student %d" % (ev.post_id, ev.student_id))
        if not (0 <= ev.thread_id < ds.num_threads):
            raise IntegrityError("post %d references unknown thread %d" % (ev.post_id, ev.thread_id))
        if ev.post_id in seen_posts:
            raise IntegrityError("duplicate post id %d" % ev.post_id)
        if prev_t is not None:
            if ev.timestamp < prev_t:
                raise IntegrityError("events not sorted by timestamp at post %d" % ev.post_id)
            if ev.timestamp == prev_t and ev.post_id <= prev_id:
                raise IntegrityError("post ids not increasing within timestamp tie at post %d" % ev.post_id)
        if ev.parent_post_id is not None:
            parent = seen_posts.get(ev.parent_post_id)
            if parent is None:
                raise IntegrityError("post %d replies to unknown or later post %d" % (ev.post_id, ev.parent_post_id))
            if parent.thread_id != ev.thread_id:
                raise IntegrityError("post %d replies across threads" % ev.post_id)
            if not parent.timestamp < ev.timestamp:
                raise IntegrityError("post %d does not strictly follow its parent" % ev.post_id)
        seen_posts[ev.post_id] = ev
        prev_t, prev_id = ev.timestamp, ev.post_id


def number_fault(value) -> str | None:
    """None if value is a JSON number whose float is finite, else what it
    must be instead. A bool, which isinstance counts as an int and float()
    reads as 0 or 1, and a string such as "7.5", which float() reads as its
    number, are not numbers."""
    if type(value) not in (int, float):
        return "a number, not %r" % (value,)
    if not abs(value) <= sys.float_info.max:  # nan, and ints beyond a float's range
        return "finite, not %r" % (value,)
    return None


def check_finite_fields(config) -> None:
    """Refuse a dataclass config with a float field that is not finite,
    naming the field: a NaN passes every range check."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError("%s must be finite" % f.name)


def write_json(payload, path) -> None:
    """Write payload in the one JSON artifact format of schedules, reports,
    ablation tables and manifests: keys sorted, one-space indent, a newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def load_schedule(path) -> CourseSchedule:
    """The course schedule a JSON file holds, decoded as UTF-8 whatever the
    locale."""
    with open(path, "rb") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValueError("schedule %s is not JSON: %s" % (path, exc)) from None
    if not isinstance(raw, dict):
        raise ValueError("schedule %s must be a JSON object, not %s" % (path, type(raw).__name__))
    weeks = raw.get("weeks")
    if not isinstance(weeks, list) or not weeks:
        raise ValueError("schedule must contain a non-empty 'weeks' list")
    docs = []
    bounds = []
    for i, wk in enumerate(weeks):
        try:
            fault = number_fault(wk["start_ts"])
            if fault:
                raise ValueError("start_ts must be " + fault)
            bounds.append(float(wk["start_ts"]))
            if not isinstance(wk["text"], str):
                raise ValueError("text must be a string, not %r" % (wk["text"],))
            docs.append(preprocess(wk["text"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("week %d malformed in schedule: %s" % (i, exc)) from None
    return CourseSchedule(docs, bounds)


def _field(record, name, line_no):
    if name not in record:
        raise ParseError(line_no, "missing field %r" % name)
    return record[name]


def _id_field(record, name, line_no) -> int:
    """The integer id record[name]: a JSON integer or an integral float.
    int() would merge a boolean, a string such as "03" or a number with a
    fractional part into another id, so those are refused."""
    value = _field(record, name, line_no)
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ParseError(line_no, "%s must be an integer, not %r" % (name, value))


_scan = json.JSONDecoder().scan_once  # json's C decoder, without whitespace handling
_encode_sorted = json.JSONEncoder(sort_keys=True).encode  # json.dumps builds one per call


def _plain_row(line: bytes) -> tuple | None:
    """The row of a post line in the form write_jsonl writes, or None.

    The line must be UTF-8 holding one JSON object and at most a newline,
    with int ids, a float timestamp in [0, float max], a string text and a
    parent that is absent, null or an int. Such a line reads as it would
    through json.loads and the field checks. Any other line, a refused one
    included, returns None, and the checked path reads it."""
    try:
        text = line.decode()
        record, end = _scan(text, 0)
    except (ValueError, RecursionError, StopIteration):  # StopIteration: no value at 0
        return None
    if end != len(text) and text[end:] != "\n" or type(record) is not dict:
        return None
    post_id = record.get("post_id")
    student = record.get("student_id")
    thread = record.get("thread_id")
    timestamp = record.get("timestamp")
    body = record.get("text")
    parent = record.get("parent_post_id")
    if (type(post_id) is int and type(student) is int and type(thread) is int
            and type(timestamp) is float and 0.0 <= timestamp <= sys.float_info.max
            and type(body) is str and (parent is None or type(parent) is int)):
        return post_id, student, thread, timestamp, body, parent
    return None


def _checked_row(line: bytes, line_no: int) -> tuple | None:
    """The row of any post line, None for a blank one; a line that is not
    a post raises ParseError naming line_no and what is wrong."""
    if not line.strip():
        return None
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:  # a too-long integer, deep nesting
        raise ParseError(line_no, "invalid JSON (%s)" % getattr(exc, "msg", exc)) from None
    if not isinstance(record, dict):
        raise ParseError(line_no, "expected a JSON object")
    post_id = _id_field(record, "post_id", line_no)
    student = _id_field(record, "student_id", line_no)
    thread = _id_field(record, "thread_id", line_no)
    timestamp = _field(record, "timestamp", line_no)
    fault = number_fault(timestamp)
    if fault:
        raise ParseError(line_no, "timestamp must be " + fault)
    timestamp = float(timestamp)
    text = _field(record, "text", line_no)
    if not isinstance(text, str):
        raise ParseError(line_no, "text must be a string")
    if timestamp < 0:
        raise ParseError(line_no, "timestamp must be >= 0")
    parent = (None if record.get("parent_post_id") is None
              else _id_field(record, "parent_post_id", line_no))
    return post_id, student, thread, timestamp, text, parent


def ingest_jsonl(posts_path, schedule_path) -> Dataset:
    """Read a JSONL post log and its course schedule into a Dataset.

    Each line is an object with post_id, student_id, thread_id, timestamp,
    text, and optionally parent_post_id, in UTF-8. Text is kept raw; each event
    tokenizes it on the first read of its tokens.
    Student and thread ids are re-indexed densely in ascending external id
    order; events are sorted by (timestamp, post_id).
    """
    course = load_schedule(schedule_path)
    rows = []
    with open(posts_path, "rb") as fh:  # json decodes each line as UTF-8
        for line_no, line in enumerate(fh, start=1):
            row = _plain_row(line) or _checked_row(line, line_no)
            if row is not None:
                rows.append(row)

    if not rows:
        raise EmptyDatasetError("post log %s contains no events" % posts_path)

    student_ids = sorted({r[1] for r in rows})
    thread_ids = sorted({r[2] for r in rows})
    student_map = {ext: i for i, ext in enumerate(student_ids)}
    thread_map = {ext: i for i, ext in enumerate(thread_ids)}

    rows.sort(key=itemgetter(3, 0))  # (timestamp, post_id)
    events = [
        PostEvent(pid, student_map[s], thread_map[t], ts, text, parent)
        for pid, s, t, ts, text, parent in rows
    ]
    ds = Dataset(events, len(student_ids), len(thread_ids), course, student_ids, thread_ids)
    validate_dataset(ds)
    return ds


def write_jsonl(ds: Dataset, path) -> None:
    """Serialize events using the dataset's dense ids; together with
    write_schedule this round-trips through ingest_jsonl."""
    with open(path, "w") as fh:
        for ev in ds.events:
            record = {
                "post_id": ev.post_id,
                "student_id": ev.student_id,
                "thread_id": ev.thread_id,
                "timestamp": ev.timestamp,
                "text": ev.text,
            }
            if ev.parent_post_id is not None:
                record["parent_post_id"] = ev.parent_post_id
            fh.write(_encode_sorted(record))
            fh.write("\n")


def write_schedule(course: CourseSchedule, path) -> None:
    weeks = [
        {"start_ts": b, "text": " ".join(doc)}
        for b, doc in zip(course.week_boundaries, course.week_docs)
    ]
    write_json({"weeks": weeks}, path)


def events_before(ds: Dataset, t_end: float) -> Dataset:
    """Training window [0, t_end) of ds, sharing its id registries and
    course schedule. An empty window is an error."""
    events = [ev for ev in ds.events if ev.timestamp < t_end]
    if not events:
        raise EmptyDatasetError("no events before train_end=%r" % t_end)
    return Dataset(events, ds.num_students, ds.num_threads, ds.course,
                   ds.student_ids, ds.thread_ids)


def split_by_time(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Partition events into a training window [0, train_end) and a test
    window [train_end, test_end). Both halves share the id registries and
    the course schedule. An empty training window is an error; an empty
    test window only warns."""
    train = events_before(ds, spec.train_end)
    test_events = [
        ev for ev in ds.events if spec.train_end <= ev.timestamp < spec.test_end
    ]
    if not test_events:
        import logging  # this warning is its only use, and a rare one
        logging.getLogger(__name__).warning("test window [%r, %r) contains no events",
                                            spec.train_end, spec.test_end)
    test = Dataset(test_events, ds.num_students, ds.num_threads, ds.course,
                   ds.student_ids, ds.thread_ids)
    return train, test


class ThreadEventIndex:
    """Per-thread events and their timestamps, the post times of each
    student on each thread, the threads each student posted on (in order of
    their first post there), and a post author lookup, for repeated
    interaction-history queries against a fixed dataset. Queries bisect the
    timestamp lists, so the events must be in time order, as
    validate_dataset requires."""

    def __init__(self, ds: Dataset):
        self.by_thread: dict[int, list[PostEvent]] = {}
        self.thread_times: dict[int, list[float]] = {}
        self.own_times: dict[tuple[int, int], list[float]] = {}
        self.student_threads: dict[int, list[int]] = {}
        self.author_of: dict[int, int] = {}
        for ev in ds.events:
            self.by_thread.setdefault(ev.thread_id, []).append(ev)
            self.thread_times.setdefault(ev.thread_id, []).append(ev.timestamp)
            own = self.own_times.setdefault((ev.student_id, ev.thread_id), [])
            if not own:
                self.student_threads.setdefault(ev.student_id, []).append(ev.thread_id)
            own.append(ev.timestamp)
            self.author_of[ev.post_id] = ev.student_id

    def history(self, student: int, thread: int, t_end: float) -> ReplyHistory:
        """The student's ReplyHistory on thread before t_end: no own post follows t_up."""
        own = self.own_times.get((student, thread), ())
        n_own = bisect.bisect_left(own, t_end)
        if n_own == 0:
            return ReplyHistory(None, [], [])
        t_up = own[n_own - 1]
        times = self.thread_times[thread]
        lo = bisect.bisect_right(times, t_up)
        hi = bisect.bisect_left(times, t_end, lo)
        posts = []
        replies = []
        for ev in self.by_thread[thread][lo:hi]:
            parent = ev.parent_post_id
            if parent is not None and self.author_of.get(parent) == student:
                replies.append(ev.timestamp)
            else:
                posts.append(ev.timestamp)
        return ReplyHistory(t_up, posts, replies)


import json
import re

import numpy as np
import pytest

from threadrec import corpus
from threadrec.corpus import (CourseSchedule, Dataset, EmptyDatasetError,
                              IntegrityError, ParseError, PostEvent, SplitSpec)

from conftest import WEEK, make_event


def write_posts(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def write_weeks(path, n=2):
    weeks = [{"start_ts": i * WEEK, "text": "zqaaa zqaab"} for i in range(n)]
    with open(path, "w") as fh:
        json.dump({"weeks": weeks}, fh)


def test_week_of_boundaries(course2):
    assert course2.week_of(0.0) == 0
    assert course2.week_of(WEEK - 1) == 0
    assert course2.week_of(WEEK) == 1
    assert course2.week_of(10 * WEEK) == 1  # clamped to the last week
    assert course2.week_of(-5.0) == 0


def test_schedule_requires_sorted_boundaries():
    with pytest.raises(ValueError):
        CourseSchedule([["a"], ["b"]], [10.0, 5.0])
    with pytest.raises(ValueError):
        CourseSchedule([["a"]], [0.0, 1.0])


def test_schedule_requires_a_week():
    with pytest.raises(ValueError, match="at least one week"):
        CourseSchedule([], [])


def test_load_schedule_refuses_an_empty_weeks_list(tmp_path):
    schedule = tmp_path / "schedule.json"
    schedule.write_text('{"weeks": []}')
    with pytest.raises(ValueError, match="non-empty 'weeks' list"):
        corpus.load_schedule(schedule)


def test_ingest_skips_blank_lines(tmp_path, tiny_ds):
    posts = tmp_path / "posts.jsonl"
    schedule = tmp_path / "schedule.json"
    corpus.write_jsonl(tiny_ds, posts)
    corpus.write_schedule(tiny_ds.course, schedule)
    lines = posts.read_text().splitlines()
    posts.write_text("\n" + lines[0] + "\n  \n\n" + "\n".join(lines[1:]) + "\n\t\n")
    assert corpus.ingest_jsonl(posts, schedule).events == tiny_ds.events


def test_ingest_roundtrip(tmp_path, tiny_ds):
    posts = tmp_path / "posts.jsonl"
    schedule = tmp_path / "schedule.json"
    corpus.write_jsonl(tiny_ds, posts)
    corpus.write_schedule(tiny_ds.course, schedule)
    loaded = corpus.ingest_jsonl(posts, schedule)
    assert loaded.num_students == tiny_ds.num_students
    assert loaded.num_threads == tiny_ds.num_threads
    assert loaded.events == tiny_ds.events


def test_ingest_reindexes_sparse_ids(tmp_path):
    posts = tmp_path / "posts.jsonl"
    schedule = tmp_path / "schedule.json"
    write_weeks(schedule)
    write_posts(posts, [
        {"post_id": 900, "student_id": 77, "thread_id": 400, "timestamp": 10.0,
         "text": "zqaaa zqaab"},
        {"post_id": 100, "student_id": 9, "thread_id": 420, "timestamp": 20.0,
         "text": "zqaab zqaab", "parent_post_id": 900},
    ])
    # cross-thread parent should fail integrity, so use same thread
    write_posts(posts, [
        {"post_id": 900, "student_id": 77, "thread_id": 400, "timestamp": 10.0,
         "text": "zqaaa zqaab"},
        {"post_id": 100, "student_id": 9, "thread_id": 400, "timestamp": 20.0,
         "text": "zqaab zqaab", "parent_post_id": 900},
    ])
    ds = corpus.ingest_jsonl(posts, schedule)
    assert ds.student_ids == [9, 77]
    assert ds.thread_ids == [400]
    # dense ids assigned by sorted external id; post ids stay as-is so
    # parents keep referring to source posts
    assert [ev.student_id for ev in ds.events] == [1, 0]
    assert [ev.post_id for ev in ds.events] == [900, 100]
    assert ds.events[1].parent_post_id == 900
    assert ds.events[0].tokens == ["zqaaa", "zqaab"]


def test_ingest_orders_ties_by_post_id(tmp_path):
    posts = tmp_path / "posts.jsonl"
    schedule = tmp_path / "schedule.json"
    write_weeks(schedule)
    write_posts(posts, [
        {"post_id": 5, "student_id": 1, "thread_id": 1, "timestamp": 10.0, "text": "zqaaa"},
        {"post_id": 2, "student_id": 2, "thread_id": 1, "timestamp": 10.0, "text": "zqaaa"},
    ])
    ds = corpus.ingest_jsonl(posts, schedule)
    assert [ev.student_id for ev in ds.events] == [1, 0]  # post 2 first


def test_ingest_reports_bad_json_line(tmp_path):
    posts = tmp_path / "posts.jsonl"
    schedule = tmp_path / "schedule.json"
    write_weeks(schedule)
    with open(posts, "w") as fh:
        fh.write(json.dumps({"post_id": 1, "student_id": 1, "thread_id": 1,
                             "timestamp": 1.0, "text": "zqaaa"}) + "\n")
        fh.write("{broken\n")
    with pytest.raises(ParseError) as err:
        corpus.ingest_jsonl(posts, schedule)
    assert err.value.line_no == 2
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("line, message", [
    ('{"post_id": 2, "student_id": %s}' % ("9" * 5001), "line 2: invalid JSON .*4300 digits"),
    ("[" * 100000, "line 2: invalid JSON .*recursion")])
def test_ingest_names_the_line_json_cannot_read(tmp_path, line, message):
    posts = tmp_path / "posts.jsonl"
    schedule = tmp_path / "schedule.json"
    write_weeks(schedule)
    first = {"post_id": 1, "student_id": 3, "thread_id": 1, "timestamp": 1.0, "text": "x"}
    posts.write_text(json.dumps(first) + "\n" + line + "\n")
    with pytest.raises(ParseError, match=message):
        corpus.ingest_jsonl(posts, schedule)


FIRST = b'{"post_id": 1, "student_id": 3, "thread_id": 1, "timestamp": 1.0, "text": "x"}'
REPLY = (b'{"post_id": 2, "student_id": 4, "thread_id": 1, "timestamp": 2.0, "text": "y", '
         b'"parent_post_id": 1}')
# the two posts of FIRST and REPLY as events: students 3 and 4, thread 1
BOTH = [(1, 0, 0, 1.0, "x", None), (2, 1, 0, 2.0, "y", 1)]


@pytest.mark.parametrize("posts, expected", [
    (FIRST + b"\r\n" + REPLY + b"\r\n", BOTH),
    (FIRST + b"\n\xef\xbb\xbf" + REPLY + b"\n", BOTH),
    (FIRST + b"\n" + REPLY.replace(b'"post_id": 2', b'"post_id": 3.0') + b"\n",
     [BOTH[0], (3, 1, 0, 2.0, "y", 1)]),
    (FIRST + b"\n" + REPLY.replace(b"2.0", b"2") + b"\n", BOTH),
    (FIRST + b"\n \t \n" + REPLY + b"\n", BOTH),
    (FIRST + b"\n" + REPLY.replace(b'"parent_post_id": 1', b'"parent_post_id": null') + b"\n",
     [BOTH[0], (2, 1, 0, 2.0, "y", None)]),
    (FIRST + b"\n" + REPLY.replace(b'"y"', "\"café ☃\"".encode()) + b"\n",
     [BOTH[0], (2, 1, 0, 2.0, "café ☃", 1)]),
    (FIRST + b"\n" + REPLY + b" " + REPLY + b"\n", "line 2: invalid JSON (Extra data)"),
    (FIRST + b"\n" + REPLY.replace(b'"thread_id"', b'\n"thread_id"') + b"\n",
     "line 2: invalid JSON (Expecting property name enclosed in double quotes)"),
    (FIRST + b"\n" + REPLY.replace(b"2.0", b"1e400") + b"\n",
     "line 2: timestamp must be finite, not inf")],
    ids=["crlf", "utf8-bom", "integral-float-id", "integer-timestamp", "whitespace-line",
         "null-parent", "non-ascii-text", "two-objects", "split-object", "timestamp-1e400"])
def test_ingest_reads_each_form_of_line_as_json_loads_does(tmp_path, posts, expected):
    # a line json.loads reads with a conversion, or refuses, keeps its result
    # after the decoder's shortcut for plain lines
    (tmp_path / "posts.jsonl").write_bytes(posts)
    write_weeks(tmp_path / "schedule.json")
    if isinstance(expected, str):
        with pytest.raises(ParseError) as err:
            corpus.ingest_jsonl(tmp_path / "posts.jsonl", tmp_path / "schedule.json")
        assert str(err.value) == expected and err.value.line_no == 2
        return
    ds = corpus.ingest_jsonl(tmp_path / "posts.jsonl", tmp_path / "schedule.json")
    rows = [(ev.post_id, ev.student_id, ev.thread_id, ev.timestamp, ev.text, ev.parent_post_id)
            for ev in ds.events]
    assert rows == expected
    assert [list(map(type, row)) for row in rows] == [list(map(type, row)) for row in expected]
    assert (ds.num_students, ds.num_threads, ds.student_ids, ds.thread_ids) == (2, 1, [3, 4], [1])


def test_load_schedule_names_a_file_that_is_not_json(tmp_path):
    schedule = tmp_path / "schedule.json"
    schedule.write_text('{"weeks":\n')
    with pytest.raises(ValueError, match="schedule .*schedule.json is not JSON: Expecting value"):
        corpus.load_schedule(schedule)


def test_ingest_reports_missing_field_and_bad_types(tmp_path):
    posts = tmp_path / "posts.jsonl"
    schedule = tmp_path / "schedule.json"
    write_weeks(schedule)
    write_posts(posts, [{"post_id": 1, "student_id": 1, "timestamp": 1.0, "text": "x"}])
    with pytest.raises(ParseError, match="thread_id"):
        corpus.ingest_jsonl(posts, schedule)
    write_posts(posts, [{"post_id": 1, "student_id": 1, "thread_id": 1,
                         "timestamp": -4.0, "text": "x"}])
    with pytest.raises(ParseError, match="timestamp"):
        corpus.ingest_jsonl(posts, schedule)
    write_posts(posts, [{"post_id": "abc", "student_id": 1, "thread_id": 1,
                         "timestamp": 1.0, "text": "x"}])
    with pytest.raises(ParseError):
        corpus.ingest_jsonl(posts, schedule)


@pytest.mark.parametrize("field, value", [
    ("student_id", 3.7), ("thread_id", True), ("post_id", 2.9), ("parent_post_id", True),
    ("student_id", False), ("post_id", float("inf")), ("thread_id", float("nan"))])
def test_ingest_refuses_ids_int_would_merge(tmp_path, field, value):
    # int() reads 3.7 as 3 and True as 1: the post would join another
    # student, thread or post, or turn into a reply
    posts = tmp_path / "posts.jsonl"
    schedule = tmp_path / "schedule.json"
    write_weeks(schedule)
    records = [{"post_id": 1, "student_id": 3, "thread_id": 1, "timestamp": 1.0, "text": "x"},
               {"post_id": 2, "student_id": 4, "thread_id": 1, "timestamp": 2.0, "text": "x"}]
    write_posts(posts, records)
    ds = corpus.ingest_jsonl(posts, schedule)
    assert ds.student_ids == [3, 4] and [ev.post_id for ev in ds.events] == [1, 2]
    # integral floats name the same ids as before
    records[1].update(student_id=4.0, parent_post_id=1.0)
    write_posts(posts, records)
    assert corpus.ingest_jsonl(posts, schedule).student_ids == [3, 4]
    records[1][field] = value
    write_posts(posts, records)
    with pytest.raises(ParseError, match="line 2: %s must be an integer" % field):
        corpus.ingest_jsonl(posts, schedule)


@pytest.mark.parametrize("value", [True, False])
def test_ingest_and_schedule_refuse_boolean_times(tmp_path, value):
    # float() reads true as 1.0 and false as 0.0: a post or a week would
    # move to the start of the course without a word
    posts = tmp_path / "posts.jsonl"
    schedule = tmp_path / "schedule.json"
    write_weeks(schedule)
    records = [{"post_id": 1, "student_id": 3, "thread_id": 1, "timestamp": 1, "text": "x"},
               {"post_id": 2, "student_id": 4, "thread_id": 1, "timestamp": 2.5, "text": "x"}]
    write_posts(posts, records)
    # integers and floats read as before
    ds = corpus.ingest_jsonl(posts, schedule)
    assert [ev.timestamp for ev in ds.events] == [1.0, 2.5]
    records[1]["timestamp"] = value
    write_posts(posts, records)
    with pytest.raises(ParseError, match="line 2: timestamp must be a number, not %s" % value):
        corpus.ingest_jsonl(posts, schedule)

    weeks = json.loads(schedule.read_text())
    assert corpus.load_schedule(schedule).week_boundaries == [0.0, float(WEEK)]
    weeks["weeks"][1]["start_ts"] = value
    schedule.write_text(json.dumps(weeks))
    with pytest.raises(ValueError, match="week 1 malformed in schedule: start_ts must be "
                                         "a number, not %s" % value):
        corpus.load_schedule(schedule)


@pytest.mark.parametrize("field, value", [
    ("student_id", "03"), ("thread_id", "1"), ("post_id", "2"), ("parent_post_id", "1")])
def test_ingest_refuses_ids_as_strings(tmp_path, field, value):
    # int("03") == 3: a string id would join the student, thread or post
    # that the number names
    posts = tmp_path / "posts.jsonl"
    schedule = tmp_path / "schedule.json"
    write_weeks(schedule)
    records = [{"post_id": 1, "student_id": 3, "thread_id": 1, "timestamp": 1.0, "text": "x"},
               {"post_id": 2, "student_id": 4, "thread_id": 1, "timestamp": 2.0, "text": "x"}]
    records[1][field] = value
    write_posts(posts, records)
    with pytest.raises(ParseError, match="line 2: %s must be an integer, not '%s'"
                       % (field, value)):
        corpus.ingest_jsonl(posts, schedule)


@pytest.mark.parametrize("value, message", [
    ("7.5", "a number, not '7.5'"), ("1", "a number, not '1'"), (None, "a number, not None"),
    (10 ** 400, "finite, not 1000")])
def test_ingest_and_schedule_refuse_times_that_are_not_finite_numbers(tmp_path, value,
                                                                     message):
    # float("7.5") is 7.5: a string would pass for the number it spells
    posts = tmp_path / "posts.jsonl"
    schedule = tmp_path / "schedule.json"
    write_weeks(schedule)
    records = [{"post_id": 1, "student_id": 3, "thread_id": 1, "timestamp": 1.0, "text": "x"},
               {"post_id": 2, "student_id": 4, "thread_id": 1, "timestamp": value, "text": "x"}]
    write_posts(posts, records)
    with pytest.raises(ParseError, match="line 2: timestamp must be " + message):
        corpus.ingest_jsonl(posts, schedule)

    weeks = json.loads(schedule.read_text())
    weeks["weeks"][0]["start_ts"] = value
    schedule.write_text(json.dumps(weeks))
    with pytest.raises(ValueError, match="week 0 malformed in schedule: start_ts must be "
                       + message):
        corpus.load_schedule(schedule)


@pytest.mark.parametrize("text", [12345, ["zqalj", "zqalk"], None])
def test_load_schedule_refuses_a_week_text_that_is_not_a_string(tmp_path, text):
    # str() would read a list as the tokens of its repr and a number as an
    # empty week
    schedule = tmp_path / "schedule.json"
    write_weeks(schedule)
    weeks = json.loads(schedule.read_text())
    weeks["weeks"][1]["text"] = text
    schedule.write_text(json.dumps(weeks))
    with pytest.raises(ValueError, match=re.escape(
            "week 1 malformed in schedule: text must be a string, not %r" % (text,))):
        corpus.load_schedule(schedule)


@pytest.mark.parametrize("top", [[], "weeks", 3, None])
def test_load_schedule_refuses_a_top_level_that_is_not_an_object(tmp_path, top):
    schedule = tmp_path / "schedule.json"
    schedule.write_text(json.dumps(top))
    with pytest.raises(ValueError, match="schedule .*schedule.json must be a JSON object"):
        corpus.load_schedule(schedule)


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "line 2: expected a JSON object"),
    ('"post"', "line 2: expected a JSON object"),
    (json.dumps({"post_id": 2, "student_id": 4, "thread_id": 1, "timestamp": 2.0,
                 "text": 5}), "line 2: text must be a string"),
    (json.dumps({"post_id": 2, "student_id": 4, "thread_id": 1, "timestamp": 2.0,
                 "text": None}), "line 2: text must be a string")])
def test_ingest_refuses_a_line_that_is_not_a_post_object(tmp_path, line, message):
    posts = tmp_path / "posts.jsonl"
    schedule = tmp_path / "schedule.json"
    write_weeks(schedule)
    first = {"post_id": 1, "student_id": 3, "thread_id": 1, "timestamp": 1.0, "text": "x"}
    posts.write_text(json.dumps(first) + "\n" + line + "\n")
    with pytest.raises(ParseError, match=message):
        corpus.ingest_jsonl(posts, schedule)


def test_ingest_empty_file_raises(tmp_path):
    posts = tmp_path / "posts.jsonl"
    schedule = tmp_path / "schedule.json"
    write_weeks(schedule)
    posts.write_text("")
    with pytest.raises(EmptyDatasetError):
        corpus.ingest_jsonl(posts, schedule)


@pytest.mark.parametrize("students, threads", [(0, 1), (1, 0)])
def test_validate_requires_a_student_and_a_thread(course2, students, threads):
    with pytest.raises(IntegrityError, match="at least one student and thread"):
        corpus.validate_dataset(Dataset([], students, threads, course2))


def test_validate_rejects_unsorted_events(course2):
    events = [make_event(0, 0, 0, 50.0), make_event(1, 0, 0, 40.0)]
    with pytest.raises(IntegrityError):
        corpus.validate_dataset(Dataset(events, 1, 1, course2, [0], [0]))


def test_validate_rejects_duplicate_post_ids(course2):
    events = [make_event(0, 0, 0, 10.0), make_event(0, 0, 0, 20.0)]
    with pytest.raises(IntegrityError):
        corpus.validate_dataset(Dataset(events, 1, 1, course2, [0], [0]))


def test_validate_rejects_cross_thread_parent(course2):
    events = [make_event(0, 0, 0, 10.0), make_event(1, 1, 1, 20.0, parent=0)]
    with pytest.raises(IntegrityError):
        corpus.validate_dataset(Dataset(events, 2, 2, course2, [0, 1], [0, 1]))


def test_validate_rejects_future_parent(course2):
    events = [make_event(0, 0, 0, 10.0, parent=1), make_event(1, 1, 0, 20.0)]
    with pytest.raises(IntegrityError):
        corpus.validate_dataset(Dataset(events, 2, 1, course2, [0, 1], [0]))


def test_validate_rejects_out_of_range_ids(course2):
    events = [make_event(0, 5, 0, 10.0)]
    with pytest.raises(IntegrityError):
        corpus.validate_dataset(Dataset(events, 1, 1, course2, [0], [0]))


def test_validate_rejects_negative_timestamp(course2):
    events = [make_event(0, 0, 0, -1.0)]
    with pytest.raises(IntegrityError, match="post 0 has negative timestamp"):
        corpus.validate_dataset(Dataset(events, 1, 1, course2, [0], [0]))


def test_validate_rejects_unknown_thread(course2):
    events = [make_event(0, 0, 3, 10.0)]
    with pytest.raises(IntegrityError, match="post 0 references unknown thread 3"):
        corpus.validate_dataset(Dataset(events, 1, 2, course2, [0], [0, 1]))


def test_validate_rejects_post_ids_out_of_order_within_a_tie(course2):
    events = [make_event(5, 0, 0, 10.0), make_event(2, 1, 0, 10.0)]
    with pytest.raises(IntegrityError, match="within timestamp tie at post 2"):
        corpus.validate_dataset(Dataset(events, 2, 1, course2, [0, 1], [0]))


def test_validate_rejects_reply_at_its_parents_time(course2):
    events = [make_event(0, 0, 0, 10.0), make_event(1, 1, 0, 10.0, parent=0)]
    with pytest.raises(IntegrityError, match="post 1 does not strictly follow its parent"):
        corpus.validate_dataset(Dataset(events, 2, 1, course2, [0, 1], [0]))


def test_split_spec_validation():
    SplitSpec(10.0, 20.0)
    with pytest.raises(ValueError):
        SplitSpec(20.0, 10.0)
    with pytest.raises(ValueError):
        SplitSpec(0.0, 10.0)


def test_split_by_time_partitions(tiny_ds):
    train, test = corpus.split_by_time(tiny_ds, SplitSpec(WEEK, 2 * WEEK))
    assert [ev.post_id for ev in train.events] == [0, 1, 2, 3]
    assert [ev.post_id for ev in test.events] == [4, 5, 6]
    assert train.num_students == tiny_ds.num_students
    # an event exactly at the boundary falls on the test side, so a split
    # at the first timestamp leaves the training window empty
    with pytest.raises(EmptyDatasetError):
        corpus.split_by_time(tiny_ds, SplitSpec(100.0, 2 * WEEK))


def test_split_by_time_drops_events_at_or_after_test_end(tiny_ds):
    _, test = corpus.split_by_time(tiny_ds, SplitSpec(WEEK, WEEK + 500.0))
    assert [ev.post_id for ev in test.events] == [4]


def test_split_by_time_warns_of_an_empty_test_window(tiny_ds, caplog):
    with caplog.at_level("WARNING", logger="threadrec.corpus"):
        _, test = corpus.split_by_time(tiny_ds, SplitSpec(WEEK, WEEK + 50.0))
    assert test.events == []
    assert "test window [%r, %r) contains no events" % (WEEK, WEEK + 50.0) in caplog.text


def test_reply_history_worked_example(course2):
    # student 0 posts at 10; a non-reply by student 1 at 11; student 2
    # replies to the post at 12; query at 13
    events = [
        make_event(0, 0, 0, 10.0),
        make_event(1, 1, 0, 11.0),
        make_event(2, 2, 0, 12.0, parent=0),
    ]
    ds = Dataset(events, 3, 1, course2, [0, 1, 2], [0])
    hist = corpus.ThreadEventIndex(ds).history(0, 0, 13.0)
    assert hist.last_own_post == 10.0
    assert hist.post_times == [11.0]
    assert hist.reply_times == [12.0]


def test_reply_history_no_own_post(course2):
    events = [make_event(0, 1, 0, 10.0)]
    ds = Dataset(events, 2, 1, course2, [0, 1], [0])
    hist = corpus.ThreadEventIndex(ds).history(0, 0, 20.0)
    assert hist.last_own_post is None
    assert hist.post_times == [] and hist.reply_times == []


def test_reply_history_window_is_open(course2):
    # only events strictly after the last own post and strictly before the
    # query count; replies to other students count as plain posts
    events = [
        make_event(0, 0, 0, 10.0),
        make_event(1, 1, 0, 11.0),
        make_event(2, 0, 0, 12.0),        # own later post moves the window
        make_event(3, 1, 0, 13.0, parent=1),  # reply to student 1's own post
        make_event(4, 2, 0, 14.0, parent=2),  # reply to student 0
        make_event(5, 1, 0, 15.0),
    ]
    ds = Dataset(events, 3, 1, course2, [0, 1, 2], [0])
    hist = corpus.ThreadEventIndex(ds).history(0, 0, 15.0)
    assert hist.last_own_post == 12.0
    assert hist.post_times == [13.0]
    assert hist.reply_times == [14.0]


def _history_by_linear_scan(ds, student, thread, t_end):
    # the index's former query: walk the whole thread
    events = [ev for ev in ds.events if ev.thread_id == thread]
    author_of = {ev.post_id: ev.student_id for ev in ds.events}
    t_up = None
    for ev in events:
        if ev.student_id == student and ev.timestamp < t_end:
            t_up = ev.timestamp
    if t_up is None:
        return corpus.ReplyHistory(None, [], [])
    posts = []
    replies = []
    for ev in events:
        if ev.timestamp >= t_end:
            break
        if ev.timestamp <= t_up or ev.student_id == student:
            continue
        parent = ev.parent_post_id
        if parent is not None and author_of.get(parent) == student:
            replies.append(ev.timestamp)
        else:
            posts.append(ev.timestamp)
    return corpus.ReplyHistory(t_up, posts, replies)


def test_history_matches_linear_scan_with_ties_and_replies(course2):
    # timestamps on a coarse grid, so many posts tie, in and across threads;
    # about half the posts reply to an earlier post of the same thread
    rng = np.random.default_rng(11)
    events = []
    for post_id in range(160):
        t = float(rng.integers(0, 40))
        thread = int(rng.integers(0, 3))
        earlier = [ev for ev in events if ev.thread_id == thread and ev.timestamp < t]
        parent = None
        if earlier and rng.random() < 0.5:
            parent = earlier[int(rng.integers(0, len(earlier)))].post_id
        events.append(make_event(post_id, int(rng.integers(0, 4)), thread, t, parent=parent))
    events.sort(key=lambda ev: (ev.timestamp, ev.post_id))
    ds = Dataset(events, 4, 3, course2, [0, 1, 2, 3], [0, 1, 2])
    corpus.validate_dataset(ds)
    index = corpus.ThreadEventIndex(ds)
    queries = sorted({ev.timestamp + dt for ev in ds.events for dt in (-0.5, 0.0, 0.5)})
    with_replies = 0
    for student in range(4):
        for thread in range(3):
            for t in queries:
                expect = _history_by_linear_scan(ds, student, thread, t)
                assert index.history(student, thread, t) == expect
                with_replies += bool(expect.reply_times)
    assert with_replies > 0


def test_ingest_tokenizes_posts_on_first_read(tmp_path, monkeypatch):
    from threadrec.synth import algo_like, generate
    from threadrec.text import preprocess
    ds, _ = generate(algo_like(0.1))
    posts, schedule = tmp_path / "posts.jsonl", tmp_path / "schedule.json"
    corpus.write_jsonl(ds, posts)
    corpus.write_schedule(ds.course, schedule)

    calls = []
    monkeypatch.setattr(corpus, "preprocess",
                        lambda text: calls.append(text) or preprocess(text))
    loaded = corpus.ingest_jsonl(posts, schedule)
    # only the schedule's weeks are tokenized at ingest
    assert len(calls) == loaded.course.num_weeks

    texts = {}
    with open(posts) as fh:
        for line in fh:
            record = json.loads(line)
            texts[record["post_id"]] = record["text"]
    for ev in loaded.events:
        assert ev.text == texts[ev.post_id]
        assert ev.tokens == preprocess(texts[ev.post_id])
    assert len(calls) == loaded.course.num_weeks + len(loaded.events)
    # each event tokenizes once
    assert all(ev.tokens is ev.tokens for ev in loaded.events)
    assert len(calls) == loaded.course.num_weeks + len(loaded.events)

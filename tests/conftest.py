import numpy as np
import pytest

from threadrec.corpus import CourseSchedule, Dataset, PostEvent
from threadrec.model import DynamicStateStore, EventFeatures, ModelParams

WEEK = 604800.0


def make_event(post_id, student, thread, t, tokens=None, parent=None):
    return PostEvent(post_id, student, thread, t, tokens or ["zqaaa", "zqaab"], parent)


@pytest.fixture
def course2():
    docs = [["zqaaa", "zqaab", "zqaaa"], ["zqaac", "zqaad", "zqaac"]]
    return CourseSchedule(docs, [0.0, WEEK])


@pytest.fixture
def tiny_ds(course2):
    # three students, four threads, two weeks; student 0 revisits thread 0
    events = [
        make_event(0, 0, 0, 100.0),
        make_event(1, 1, 0, 200.0),
        make_event(2, 1, 1, 300.0, parent=None),
        make_event(3, 2, 0, 400.0, parent=0),
        make_event(4, 0, 0, WEEK + 100.0),
        make_event(5, 0, 2, WEEK + 500.0),
        make_event(6, 2, 3, WEEK + 900.0),
    ]
    return Dataset(events, 3, 4, course2, [0, 1, 2], [0, 1, 2, 3])


@pytest.fixture
def small_params():
    rng = np.random.default_rng(3)
    return ModelParams.init(rng, embed_dim=3, num_topics=2, num_weeks=2,
                            num_students=3, num_threads=4)


def random_batch(rng, params, cold_start=False):
    """Random but well-posed t-batch and entering states for gradient
    checking: one event per student or per thread, whichever is fewer, no
    student or thread twice. Previous threads and weeks may repeat; a
    previous thread is sometimes -1 (none), and always with cold_start."""
    d, k = params.embed_dim, params.num_topics
    size = min(params.num_students, params.num_threads)
    store = DynamicStateStore(params.num_students, params.num_threads, d, k)
    store.student_vecs[:] = rng.uniform(0.05, 0.95, store.student_vecs.shape)
    store.thread_vecs[:] = rng.uniform(0.05, 0.95, store.thread_vecs.shape)
    batch = EventFeatures(
        student=rng.permutation(params.num_students)[:size],
        thread=rng.permutation(params.num_threads)[:size],
        last_thread=(np.full(size, -1) if cold_start
                     else rng.integers(-1, params.num_threads, size)),
        theta=rng.dirichlet(np.ones(k), size),
        delta_student=rng.uniform(0.1, 2.0, size),
        delta_thread=rng.uniform(0.1, 2.0, size),
        week=rng.integers(params.num_weeks, size=size),
        excitation_value=rng.uniform(0.0, 3.0, size),
        timestamp=np.zeros(size),
        post_id=np.arange(size),
    )
    return batch, store

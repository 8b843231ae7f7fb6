import os
import threading

import pytest

from soundcue import parallel
from soundcue.errors import SchemaError

pytestmark = [
    pytest.mark.skipif(not parallel.FORKS, reason="split forks only on Linux"),
    pytest.mark.usefixtures("no_process_left"),
]


def test_work_zero_runs_here_and_every_other_in_its_own_process(tmp_path):
    def work(k):
        (tmp_path / str(k)).write_text(str(os.getpid()))

    parallel.split(work, 4)
    pids = [int((tmp_path / str(k)).read_text()) for k in range(4)]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == 4


def test_one_part_forks_nothing(monkeypatch):
    ran = []
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    parallel.split(ran.append, 1)
    assert ran == [0]


def test_schema_error_crosses_with_its_field_path():
    def work(k):
        if k == 2:
            raise SchemaError("objects[0].fps", "must be positive")

    with pytest.raises(SchemaError) as caught:
        parallel.split(work, 3)
    assert (caught.value.path, caught.value.reason) == ("objects[0].fps", "must be positive")
    assert "SchemaError" in str(caught.value.__cause__)


def test_first_failing_process_in_order_wins():
    def work(k):
        if k:
            raise LookupError(f"part {k}")

    with pytest.raises(LookupError, match="part 1"):
        parallel.split(work, 3)


def test_exception_that_cannot_be_pickled_crosses_as_its_text():
    class Unpicklable(Exception):
        def __init__(self):
            super().__init__("holds a lock")
            self.lock = threading.Lock()

    def work(k):
        if k:
            raise Unpicklable()

    with pytest.raises(RuntimeError, match="Unpicklable: holds a lock"):
        parallel.split(work, 2)


def test_processes_one_per_cpu_up_to_the_parts(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    assert [parallel.processes(parts) for parts in (0, 1, 2, 3, 9)] == [1, 1, 2, 3, 3]


def test_no_fork_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    thread.start()
    try:
        assert parallel.processes(9) == 1
    finally:
        release.set()
        thread.join(10)
    assert not thread.is_alive()
    assert parallel.processes(9) == 3

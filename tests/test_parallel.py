import os
import re
import signal
import threading
import time

import pytest

from textuq import parallel
from textuq.errors import MalformedRow
from textuq.parallel import fork_map, usable_cpus


@pytest.fixture
def deadline():
    """Fail a test that is still running after 30 s instead of hanging."""
    def on_alarm(signum, frame):
        raise TimeoutError("fork_map did not return within 30 s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)


def dies_without_result(status):
    def fn(i):
        if i == 1:
            os._exit(status)
        return i
    return fn


class TestUsableCpus:
    def test_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert usable_cpus() == 3

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1


class TestForkMap:
    def test_results_in_item_order_from_child_processes(self, deadline):
        got = fork_map(lambda i: (i * i, os.getpid()), range(4))
        assert [value for value, _ in got] == [0, 1, 4, 9]
        pids = [pid for _, pid in got]
        assert pids[0] == os.getpid()  # the caller runs the first item
        assert len(set(pids)) == 4
        for pid in pids[1:]:
            assert_reaped(pid)

    def test_large_results_come_back_whole(self, deadline):
        # far more than a pipe holds, so a child blocks until the caller reads
        got = fork_map(lambda i: bytes([i]) * (8 << 20), range(3))
        assert [len(b) for b in got] == [8 << 20] * 3
        assert [b[-1] for b in got] == [0, 1, 2]

    def test_exceptions_are_raised_in_item_order_after_every_child_is_reaped(self, deadline):
        def fn(i):
            if i >= 2:
                raise MalformedRow(f"item {i} in process {os.getpid()}")
            return i

        with pytest.raises(MalformedRow, match="item 2") as excinfo:
            fork_map(fn, range(4))
        assert_reaped(int(re.search(r"process (\d+)", str(excinfo.value)).group(1)))

    def test_the_callers_own_exception_comes_first(self, deadline):
        def fn(i):
            raise ValueError(f"item {i}")

        with pytest.raises(ValueError, match="item 0"):
            fork_map(fn, range(3))

    @pytest.mark.parametrize("status", [0, 1])
    def test_a_child_that_exits_without_a_result_is_an_internal_error(self, deadline, status):
        with pytest.raises(RuntimeError, match=f"ended with status {status} before") as excinfo:
            fork_map(dies_without_result(status), range(3))
        assert_reaped(int(re.search(r"worker process (\d+)", str(excinfo.value)).group(1)))

    def test_a_killed_child_is_an_internal_error(self, deadline):
        def fn(i):
            if i == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        with pytest.raises(RuntimeError, match="ended with status -9 before"):
            fork_map(fn, range(3))

    def test_an_unpicklable_result_is_an_internal_error(self, deadline):
        with pytest.raises(RuntimeError, match="ended with status 1 before"):
            fork_map(lambda i: (lambda: i), range(2))

    def test_inline_for_one_item(self):
        assert fork_map(lambda i: os.getpid(), [7]) == [os.getpid()]
        assert fork_map(lambda i: i, []) == []

    def test_inline_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert fork_map(lambda i: os.getpid(), range(3)) == [os.getpid()] * 3

    def test_inline_while_another_thread_runs(self):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert fork_map(lambda i: os.getpid(), range(3)) == [os.getpid()] * 3
        finally:
            stop.set()
            thread.join()

    def test_children_are_killed_and_reaped_when_the_caller_is_interrupted(
            self, monkeypatch, deadline):
        spawned = []
        spawn = parallel._spawn

        def recording_spawn(fn, item):
            spawned.append(spawn(fn, item))
            return spawned[-1]

        def fn(i):
            if i == 0:
                raise KeyboardInterrupt
            time.sleep(60)  # a child that outlives the test unless it is killed

        monkeypatch.setattr(parallel, "_spawn", recording_spawn)
        with pytest.raises(KeyboardInterrupt):
            fork_map(fn, range(3))
        assert len(spawned) == 2
        for pid, _ in spawned:
            assert_reaped(pid)

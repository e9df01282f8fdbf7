"""Independent pieces of work on every usable CPU, in forked processes.

A forked child gets a copy-on-write image of the caller, so its input needs
no pickling; only its result travels back, pickled through a pipe. The
feature-CSV reader and writer in ``corpus`` are the users of both
``workers_for`` and ``fork_map``.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading

# Text to format or parse is split over one worker process per this many
# bytes, at most one per usable CPU; less stays in the calling process.
MIN_CHUNK_BYTES = 4 << 20


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, or the CPU count
    where the platform has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - platforms without CPU affinity


def workers_for(nbytes: int) -> int:
    """Processes for nbytes of text: one per MIN_CHUNK_BYTES, no more than
    the usable CPUs, and at least one."""
    return max(1, min(usable_cpus(), nbytes // MIN_CHUNK_BYTES))


def fork_map(fn, items) -> list:
    """``[fn(item) for item in items]``: the caller runs the first item while
    one forked child per other item runs that item.

    Each child pickles its result or its exception into a pipe and ends with
    ``os._exit``. Every child is reaped before anything is raised, and
    exceptions are raised in item order. A child that ends without sending
    its outcome raises RuntimeError. Runs inline for a single item, without
    ``os.fork``, or while other threads run (a child gets no copy of them,
    so a lock one of them holds would stay held).
    """
    items = list(items)
    if len(items) < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(item) for item in items]
    children = []
    try:
        for item in items[1:]:
            children.append(_spawn(fn, item))
        outcomes = [_outcome(fn, items[0])]
        while children:
            outcomes.append(_collect(*children.pop(0)))
    finally:
        for pid, read_fd in children:  # left only when something above raised
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _outcome(fn, item):
    try:
        return True, fn(item)
    except Exception as exc:
        return False, exc


def _spawn(fn, item):
    """Fork a child that sends ``_outcome(fn, item)``; returns (pid, read fd)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as out:
            pickle.dump(_outcome(fn, item), out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)  # never return into, or flush the buffers of, the caller


def _collect(pid, read_fd):
    """The outcome a child sent. It is read whole before the child is reaped,
    so a child blocked on a full pipe cannot deadlock the wait."""
    try:
        with open(read_fd, "rb") as src:
            outcome = pickle.load(src)
    except (EOFError, pickle.UnpicklingError):
        outcome = None
    finally:
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if outcome is None:
        return False, RuntimeError(
            f"worker process {pid} ended with status {status} before sending its result")
    return outcome

"""How many CPUs soundcue uses, and work split across forked processes.

`usable_cpus` is the one rule for the number of CPUs: the correlation
engine runs that many threads, and the curve writer that many processes
at most. It is the process's CPU affinity where the platform has one,
so `taskset -c 0` runs one of each.

`split(work, count)` runs `work(0)` in the calling process and `work(1)`
... `work(count - 1)` each in a child forked for it, and returns once
every child has been reaped. A child that fails sends its exception
back, pickled, over a pipe, and the caller re-raises it, its traceback
text as the cause. The caller's own error goes first: it kills the
children and reaps them before it propagates, so no child outlives the
call on any path.

The children are forked, not spawned, because `work` reads what the
caller has built, closures among it, and a fresh interpreter would pay
the imports again. `processes` asks for more than one process only
where a fork is safe: on Linux (`FORKS`; macOS frameworks are not
fork-safe), and while no other thread runs, whose locks a child would
inherit held. The correlation engine joins its threads before it returns.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading
import traceback
from typing import Callable

FORKS = hasattr(os, "fork") and sys.platform.startswith("linux")


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def processes(parts: int) -> int:
    """How many processes to `split` `parts` parts across: one per usable CPU but no more
    than `parts`, and one where a fork is unsafe."""
    if not FORKS or threading.active_count() > 1:
        return 1
    return max(1, min(usable_cpus(), parts))


class RemoteTraceback(Exception):
    """The formatted traceback of an exception raised in a forked child."""


def split(work: Callable[[int], None], count: int) -> None:
    """Run work(k) for k in range(count): k = 0 here, every other k in its own forked child."""
    children = {}  # pid -> the pipe its exception comes back on
    try:
        for k in range(1, count):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(work, k, read_fd, write_fd)
            os.close(write_fd)
            children[pid] = open(read_fd, "rb")
        work(0)
        failures = []
        for pid, pipe in list(children.items()):
            with pipe:
                payload = pipe.read()  # to the end before waiting: a large one would fill the pipe
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if payload:
                failures.append(pickle.loads(payload))
            elif status != 0:
                failures.append((ChildProcessError(f"forked process {pid} {_ended(status)}"), None))
        if failures:
            exc, remote = failures[0]
            raise exc from remote
    finally:
        for pid, pipe in children.items():  # left only when this process failed first
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            pipe.close()
            os.waitpid(pid, 0)


def _child(work: Callable[[int], None], k: int, read_fd: int, write_fd: int) -> None:
    """A forked child's whole life: it runs work(k) and leaves by `os._exit`, never by returning."""
    status = 1
    try:
        os.close(read_fd)
        work(k)
        status = 0
    except BaseException as exc:
        remote = RemoteTraceback("".join(traceback.format_exception(exc)))
        try:
            payload = pickle.dumps((exc, remote))
            pickle.loads(payload)
        except Exception:  # an exception that cannot cross: its text still does
            payload = pickle.dumps((RuntimeError(f"{type(exc).__name__}: {exc}"), remote))
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(status)


def _ended(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"

"""Worker processes, forked once, that run rounds of claims over tasks.

A :class:`Pool` is the calling process plus children forked when the pool
opens, which live until it closes; it sizes itself (:func:`pool_size`) from
its caller's ``workers``, task count and bytes per task. Each
:meth:`Pool.round` runs ``run(lo, hi)`` over the pool's tasks ``[0, tasks)``:
the tasks are cut into contiguous claims, and every process takes the next
claim from one shared queue (a pipe) until it takes one of the round's end
tokens, so a process that the OS runs slower takes fewer claims. The
children inherit ``run`` and its inputs through the fork (nothing is
pickled on the way in); what changes between rounds, and what they write,
is in arrays of :func:`shared_array`, which every process maps, or in
files. Every caller runs ``with Pool(run, workers, tasks, task_bytes) as
pool: pool.round()``: ``vqsct phantom`` one round over its cases, inference
one over its slices or cubes, evaluation one over a case's axial slabs, and
training one per step over its items.

A round raises the error of its earliest failed claim, which is the error
the serial path raises: claims are taken in order, every claim before the
failed one was taken and ran to its end, and a failed claim makes every
process skip the claims it takes after the one it holds. A child killed by
a signal counts after every claim. A child waits between rounds on a pipe
of its own, and leaves through ``os._exit`` at that pipe's end of file (or
the queue's): the pool closed, or the process that opened it died. A pool
closed by an exception SIGKILLs its children first; either way it reaps
them all. A pool of one process (at most one worker or task, or a platform
or caller where forking is unsafe: not Linux, no ``os.fork``, or another
live Python thread) forks nothing, and each round is ``run(0, tasks)`` in
the calling process: the same code over the same tasks.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import pickle
import signal
import sys
import threading

import numpy as np

from .errors import VqsctError

__all__ = ["Pool", "pool_size", "shared_array"]

# A claim's token is its ``lo`` and ``hi``, each little-endian in _HALF
# bytes. A round writes one token per claim and one _END per process: at
# most _MAX_CLAIMS of each, so the round fills at most one page, the least
# a pipe holds, and is written whole at once.
_HALF = 4
_TOKEN = 2 * _HALF
_END = b"\xff" * _TOKEN
_MAX_CLAIMS = 256
# Claims per worker: enough that the workers end within a small claim of
# each other however the OS shares the CPUs out, few enough that each
# claim's fixed cost (a read of the queue) stays small.
_CLAIMS_PER_WORKER = 16
# A child's report after each round: the byte length of a pickled
# ``(lo, error)`` in _HEAD bytes, then the pickle; 0 for a round without failure.
_HEAD = 8


def _fork_safe() -> bool:
    """Whether worker processes may be forked: Linux, and no other live thread."""
    return (sys.platform.startswith("linux") and hasattr(os, "fork")
            and threading.active_count() == 1)


def _free_bytes() -> int | None:
    """Physical memory free now, where the OS reports it."""
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError):
        return None


def pool_size(tasks: int, workers: int, task_bytes: int) -> int:
    """Processes to run rounds of ``tasks`` tasks of ``task_bytes`` each on:
    ``workers``, at most one per task, ``_MAX_CLAIMS`` in all and as many
    tasks as fit in the memory free now, and one where forking is unsafe;
    never fewer than one, which runs every round itself."""
    if not _fork_safe():
        return 1
    size = min(workers, tasks, _MAX_CLAIMS)
    free = _free_bytes()
    return max(1, size if free is None else min(size, free // task_bytes))


def _claims(tasks: int, workers: int) -> list:
    """Contiguous ``[lo, hi)`` runs of about equal task counts covering the
    tasks in order: one per task, but at most ``_CLAIMS_PER_WORKER`` per
    worker and ``_MAX_CLAIMS`` in all."""
    n = min(tasks, _CLAIMS_PER_WORKER * workers, _MAX_CLAIMS)
    return [(tasks * k // n, tasks * (k + 1) // n) for k in range(n)]


def shared_array(shape, dtype) -> np.ndarray:
    """An uninitialized ``dtype`` array of ``shape`` in an anonymous shared
    ``mmap``, which every process forked after it writes and reads; without
    a fork it costs what ``np.empty`` costs."""
    dtype, count = np.dtype(dtype), math.prod(shape)
    buffer = mmap.mmap(-1, max(1, count) * dtype.itemsize)
    return np.frombuffer(buffer, dtype, count).reshape(shape)


def _take(queue: int) -> bytes:
    """The next token of ``queue``; EOFError once it is closed and empty.
    Tokens are written whole and read whole, so a read gets one or none."""
    token = os.read(queue, _TOKEN)
    if not token:
        raise EOFError
    return token


def _drain(queue: int, run, stop) -> tuple | None:
    """Run ``run(lo, hi)`` over the claims taken from ``queue`` up to an end token.

    Returns ``(lo, error)`` of a failed claim, else None. A failed claim sets
    the shared flag ``stop[0]``, so every process skips the claims it takes
    after the one it holds.
    """
    failure = None
    while (token := _take(queue)) != _END:
        if stop[0]:
            continue
        lo, hi = int.from_bytes(token[:_HALF], "little"), int.from_bytes(token[_HALF:], "little")
        try:
            run(lo, hi)
        except Exception as exc:
            stop[0] = 1
            failure = lo, exc
    return failure


def _report(fd: int, failure) -> None:
    """Write one round's report: empty, or the pickled ``(lo, error)``."""
    payload = b""
    if failure is not None:
        try:
            payload = pickle.dumps(failure)
        except Exception:
            lo, exc = failure
            payload = pickle.dumps((lo, VqsctError(f"{type(exc).__name__}: {exc}")))
    view = memoryview(len(payload).to_bytes(_HEAD, "little") + payload)
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int) -> bytes:
    """``size`` bytes of ``fd``, or fewer where it ends first."""
    chunks = []
    while size and (chunk := os.read(fd, size)):
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _exit_error(status: int) -> VqsctError | None:
    """The error of a child's wait status, or None for a clean exit."""
    if os.WIFSIGNALED(status):
        return VqsctError(f"a worker process was killed by "
                          f"{signal.Signals(os.WTERMSIG(status)).name}")
    code = os.waitstatus_to_exitcode(status)
    return VqsctError(f"a worker process exited with status {code}") if code else None


class Pool:
    """Processes that run rounds of ``run(lo, hi)`` claims over ``[0, tasks)``.

    :func:`pool_size` gives their number, at most ``workers``, for ``tasks``
    tasks of ``task_bytes`` each; all but one are children forked here. Each
    child has two pipes of its own: one on which the parent starts each
    round, one on which the child reports it. Use the pool as a context
    manager: leaving the block reaps every child.
    """

    def __init__(self, run, workers: int, tasks: int, task_bytes: int):
        self._run, self._tasks = run, tasks
        self._workers = pool_size(tasks, workers, task_bytes)
        self._children = []  # (pid, read end of its report pipe)
        self._starts = {}  # pid: write end of its start pipe, while open
        if self._workers == 1:
            return
        self._stop = shared_array((1,), np.uint8)
        self._queue, self._feed = os.pipe()
        try:
            for _ in range(self._workers - 1):
                self._children.append(self._fork())
        except BaseException:
            self.close(kill=True)
            raise

    def _fork(self) -> tuple:
        """Fork a child that serves a round per start byte, until its start pipe ends.

        The child keeps only its own pipes and the queue's read end, so the
        death of the process that opened the pool ends its start pipe and the
        queue. It never returns into the caller's frames: it leaves through
        ``os._exit``, so it neither flushes the caller's stdio nor runs its
        exit handlers. An error that escapes a claim's handling, such as an
        interrupt, is reported as failing after every claim, with status 1.
        """
        start_read, start_write = os.pipe()
        report_read, report_write = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 0
            try:
                for fd in (start_write, report_read, self._feed, *self._starts.values(),
                           *(report for _, report in self._children)):
                    os.close(fd)
                while os.read(start_read, 1):
                    _report(report_write, _drain(self._queue, self._run, self._stop))
            except EOFError:
                pass
            except BaseException as exc:
                status = 1
                try:
                    _report(report_write, (math.inf, exc))
                except BaseException:
                    pass
            finally:
                os._exit(status)
        os.close(start_read)
        os.close(report_write)
        self._starts[pid] = start_write
        return pid, report_read

    def round(self) -> None:
        """Run ``run`` over the pool's tasks; raise the earliest failure.

        Every process stops at its first end token, and every child has
        reported on the round when this returns. After a round that raised,
        close the pool: it runs no further round.
        """
        if self._workers == 1:
            self._run(0, self._tasks)
            return
        claims = _claims(self._tasks, self._workers)
        self._stop[0] = 0
        os.write(self._feed, b"".join(lo.to_bytes(_HALF, "little") + hi.to_bytes(_HALF, "little")
                                      for lo, hi in claims) + _END * self._workers)
        for start in self._starts.values():
            with contextlib.suppress(BrokenPipeError):  # a dead child: its report says so
                os.write(start, b"\x01")
        failures = [_drain(self._queue, self._run, self._stop)]
        for child in list(self._children):
            failures.append(self._receive(child))
        failures = [f for f in failures if f is not None]
        if failures:
            raise min(failures, key=lambda f: f[0])[1]

    def _receive(self, child) -> tuple | None:
        """A child's report on the round; a child that ended instead is reaped."""
        pid, report = child
        head = _read(report, _HEAD)
        if len(head) == _HEAD:
            payload = _read(report, int.from_bytes(head, "little"))
            if not payload:
                return None
            try:
                return pickle.loads(payload)
            except Exception as exc:
                return math.inf, VqsctError(
                    f"a worker process failed, and its error did not load: {exc}")
        self._children.remove(child)
        _, status = os.waitpid(pid, 0)
        if pid in self._starts:
            os.close(self._starts.pop(pid))
        os.close(report)
        return math.inf, _exit_error(status) or VqsctError("a worker process ended mid-round")

    def close(self, kill: bool = False) -> None:
        """End every child's start pipe and reap the children, SIGKILLed first if ``kill``.

        An idle child leaves at the end of its start pipe. If this process is
        interrupted while it waits, every child still here is SIGKILLed and
        reaped before the interrupt goes on.
        """
        if self._workers == 1:
            return
        self._workers = 1
        while self._starts:
            os.close(self._starts.popitem()[1])
        try:
            while self._children and not kill:
                pid, report = self._children[-1]
                os.waitpid(pid, 0)
                self._children.pop()
                os.close(report)
        finally:
            for pid, _ in self._children:  # a zombie not yet reaped takes it too
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            for pid, report in self._children:
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
                os.close(report)
            self._children.clear()
            os.close(self._feed)
            os.close(self._queue)

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(kill=exc_type is not None)


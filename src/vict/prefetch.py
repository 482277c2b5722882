"""Run an iterator ahead of its consumer, in a forked child process.

Pre-training draws and renders its batches through a ``Prefetcher``, so
that this work runs on a second core while this process runs the model.
A bench sweep's workers are ``Prefetcher``s over their shares of the
sweep's jobs' records. Each item is pickled (protocol 5) through a
pipe, so every array arrives with the bytes and layout it was made with,
in the order the iterator yields them.
It needs ``os.fork`` (POSIX). ``fork_child`` and ``kill_and_reap`` are
the fork and the end it shares with ``training.fit``'s AdamW worker.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
from collections.abc import Callable, Iterator
from typing import Any, NoReturn


def _send(fd: int, items: Iterator) -> NoReturn:
    """The child's body: write ``(None, item)`` to ``fd`` for each item, or
    ``(message, None)`` on an error. Never returns."""
    status, pipe = 1, open(fd, "wb")
    try:
        for item in items:
            pipe.write(pickle.dumps((None, item), protocol=5))
            pipe.flush()
        status = 0
    except BrokenPipeError:
        pass  # the consumer stopped reading
    except Exception as err:
        with contextlib.suppress(OSError):
            pipe.write(pickle.dumps((f"{type(err).__name__}: {err}", None), protocol=5))
            pipe.flush()
    finally:
        os._exit(status)


def fork_child(body: Callable[..., NoReturn], child_fds: tuple[int, ...], parent_fds: tuple[int, ...]) -> int:
    """Fork a child that closes ``parent_fds`` and runs ``body(*child_fds)``,
    which ends in ``os._exit``; here, close ``child_fds`` and return the
    child's pid. If the fork fails, every fd given is closed."""
    try:
        pid = os.fork()
    except OSError:
        for fd in child_fds + parent_fds:
            os.close(fd)
        raise
    if pid == 0:
        try:
            for fd in parent_fds:
                os.close(fd)
            body(*child_fds)
        finally:
            os._exit(1)
    for fd in child_fds:
        os.close(fd)
    return pid


def kill_and_reap(pid: int) -> None:
    os.kill(pid, signal.SIGKILL)  # it may still be at work, after a divergence
    os.waitpid(pid, 0)


class Prefetcher:
    """Runs ``items``, an iterator made in this process but not yet started,
    in a child forked at once, so that the first item is under way while
    the caller sets up; a caller with no items to get makes none. ``close``
    kills and reaps the child; use it through ``contextlib.closing``."""

    def __init__(self, what: str, items: Iterator):
        self.what = what
        read_fd, write_fd = os.pipe()
        self.pid = fork_child(lambda fd: _send(fd, items), (write_fd,), (read_fd,))
        self.pipe = open(read_fd, "rb")

    def get(self, label: str) -> Any:
        """The next item. A child that fails or exits before sending it is a
        ``RuntimeError`` naming the helper, ``label`` and the child's message."""
        try:
            message, item = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):
            message = "it exited before sending this item"
        if message is not None:
            raise RuntimeError(f"{self.what} failed at {label}: {message}")
        return item

    def close(self) -> None:
        self.pipe.close()
        kill_and_reap(self.pid)

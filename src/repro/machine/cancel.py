"""Cooperative cancellation for long-running extraction work.

Python threads cannot be force-killed, so a deadline can only be
enforced cooperatively: the service's deadline runner installs a
:class:`CancelToken` in the worker thread, and the extraction loops
(:func:`repro.rectangles.cover.kernel_extract` and the parallel cycle
loops) call :func:`check_cancelled` between steps.  When the deadline
fires, the token is set and the worker unwinds with
:class:`JobCancelled` at its next step boundary instead of running to
completion as a leaked daemon thread.

The check is one thread-local attribute read per extraction step —
nothing on the fault-free path gets measurably slower — and everything
here is layering-safe: this module depends only on the standard library,
sits in :mod:`repro.machine` below :mod:`repro.rectangles`, and the
service layer above installs the tokens.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "CancelToken",
    "JobCancelled",
    "cancel_scope",
    "check_cancelled",
]


class JobCancelled(Exception):
    """Raised at a step boundary after the thread's token was cancelled."""


class CancelToken:
    """A set-once cancellation flag shared between two threads."""

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    def cancelled(self) -> bool:
        return self._event.is_set()


_local = threading.local()


@contextmanager
def cancel_scope(token: CancelToken) -> Iterator[CancelToken]:
    """Install *token* as this thread's cancellation flag."""
    previous = getattr(_local, "token", None)
    _local.token = token
    try:
        yield token
    finally:
        _local.token = previous


def check_cancelled() -> None:
    """Raise :class:`JobCancelled` when this thread's token is set.

    No-op (one thread-local read) when no token is installed.
    """
    token = getattr(_local, "token", None)
    if token is not None and token.cancelled():
        raise JobCancelled("cancelled by deadline runner")

"""In-order mapping over independent work units.

Sequences are tracked and scored one after another in the calling thread;
results come back in input order and every reduction downstream runs in
that fixed order.  The work is bound by the interpreter lock, and a thread
pool measured slower than this loop, so there is no worker-count option.
"""

from __future__ import annotations

from typing import Callable, Iterable, TypeVar

__all__ = ["map_ordered", "thread_count"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def thread_count() -> int:
    """Number of threads map_ordered runs its work in: always 1."""
    return 1


def map_ordered(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """Apply fn to every item in the calling thread; results in input order."""
    return [fn(x) for x in items]

"""Memo tables that live as long as the chart that fills them.

A `Memo` holds one unbounded table per memoized function (the normal
forms and derivatives of `scalar`, the Lie brackets of `vecfield`), each
with its hit and miss counts.  A memoized function takes a `chart`
argument and finds its table in the memo of that chart: every
`vecfield.Chart(...)` starts a fresh memo and every chart `extend`
derives shares it, so one model (built once per suite run, trace or
cone family) fills one memo, which is freed with its charts.  A tuple
of names, or no chart, uses the process default `DEFAULT`.  A memo is a
pure cache: a call on another chart lineage returns the same result and
only misses the entries it could have hit.
"""

from __future__ import annotations

import functools
import inspect
from collections import namedtuple

__all__ = ["Memo", "DEFAULT", "Counts", "memoized"]

Counts = namedtuple("Counts", "hits misses")


class Memo:
    """One table per memoized function, made on the function's first
    call in this memo: a `functools.lru_cache(maxsize=None)`, which
    hashes each key once and counts its hits and misses."""

    def __init__(self):
        self.tables = {}  # memoized function -> its lru_cache in this memo

    def cache_info(self) -> dict:
        """{"module.function": functools' CacheInfo} of every table."""
        return {f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}":
                table.cache_info() for fn, table in self.tables.items()}


DEFAULT = Memo()


def memoized(function):
    """`function`, memoized in the memo of its argument `chart` (see
    above).  Its `cache_info()` counts the hits and misses of every memo
    of the process, those already gone included."""
    at = list(inspect.signature(function).parameters).index("chart")
    calls_misses = [0, 0]

    def miss(*args):
        calls_misses[1] += 1
        return function(*args)

    @functools.wraps(function)
    def lookup(*args):
        calls_misses[0] += 1
        tables = getattr(args[at], "memo", DEFAULT).tables
        table = tables.get(lookup)
        if table is None:
            table = tables[lookup] = functools.lru_cache(maxsize=None)(miss)
        return table(*args)

    lookup.cache_info = lambda: Counts(calls_misses[0] - calls_misses[1],
                                       calls_misses[1])
    return lookup

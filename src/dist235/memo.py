"""Memo tables that live as long as the chart that fills them.

A `Memo` holds one unbounded table per memoized function (the normal
forms and derivatives of `scalar`, the Lie brackets of `vecfield`), each
counting the hits and misses of its lookups.  A memoized function takes a `chart`
argument and finds its table in the memo of that chart: every
`vecfield.Chart(...)` starts a fresh memo and every chart `extend`
derives shares it, so one model (built once per suite run, trace or
cone family) fills one memo.  A memo belongs to one chart lineage, and
`extend` hands the lineage's registry on, so a table is keyed by the
call's arguments with the chart's names in place of the chart.  No
entry refers to a chart, so a memo is freed with the last of its
charts.  A memo is a pure cache: a call on another chart lineage
returns the same result and only misses the entries it could have hit.
"""

from __future__ import annotations

import functools
import inspect
from collections import namedtuple

__all__ = ["Memo", "Counts", "memoized"]

Counts = namedtuple("Counts", "hits misses")
_MISSING = object()


class _Table(dict):
    """One memoized function's results in a memo: {key: result}, with
    the hits and misses of its lookups."""

    hits = misses = 0


class Memo:
    """One `_Table` per memoized function, made on the function's first
    call in this memo, and the lineage's atom table, which fixes the
    exponent field of every atom of a normal form on its charts."""

    def __init__(self):
        self.tables = {}  # memoized function -> its _Table in this memo
        self.offsets = {}  # variable name or opaque atom key -> offset

    def cache_info(self) -> dict:
        """{"module.function": Counts} of every table."""
        return {f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}":
                Counts(table.hits, table.misses)
                for fn, table in self.tables.items()}


def memoized(function):
    """`function`, memoized in the memo of its argument `chart` (see
    above).  Its `cache_info()` counts the hits and misses of every memo
    of the process, those already gone included."""
    at = list(inspect.signature(function).parameters).index("chart")
    totals = [0, 0]  # hits, misses

    @functools.wraps(function)
    def lookup(*args):
        chart = args[at]
        tables = chart.memo.tables
        table = tables.get(lookup)
        if table is None:
            table = tables[lookup] = _Table()
        key = args[:at] + (chart.variables,) + args[at + 1:]
        result = table.get(key, _MISSING)
        if result is _MISSING:
            totals[1] += 1
            table.misses += 1
            result = table[key] = function(*args)
        else:
            totals[0] += 1
            table.hits += 1
        return result

    lookup.cache_info = lambda: Counts(*totals)
    return lookup

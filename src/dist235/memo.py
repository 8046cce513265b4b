"""Memo tables that live as long as the work that fills them.

A `Memo` holds one unbounded table per memoized function (the normal
forms and derivatives of `scalar`, the Lie brackets of `vecfield`, the
Halton points of `boxes`), each with its hit and miss counts.  A context
variable selects the active memo: `scope(memo)` enters one, and outside
every scope the process default `DEFAULT` is active.

`cli.run_suite` and `cli.trace_lines` each run in a fresh memo
(`fresh`), which every object they build shares.
`conedual.build_model`, `ConeFamily.build`,
`PseudoProductStructure.build` and a `Distribution235` itself keep on
the object they build the memo it was built in (`owning`).  The work
done on such an object (a family's checks and `prolong_cone`;
`prolong_235`, `solve_e`, the derived brackets and the checks of a
splitting in `distduality`; the control systems, launches, lifts and
duality checks of `paths`) runs in the memo it keeps, and what that
work returns keeps the memo too (`within`), so the entries live as long
as the objects and the process default is left alone.  A memo is a pure
cache: a call made in another memo returns the same result and only
misses the entries it could have hit.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from collections import namedtuple

__all__ = ["Memo", "DEFAULT", "Counts", "memoized", "scope", "fresh",
           "owning", "within", "kept"]

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
_ACTIVE = contextvars.ContextVar("dist235.memo", default=DEFAULT)


def memoized(function):
    """`function`, memoized in the active memo.  Its `cache_info()`
    counts the hits and misses of every memo of the process, those
    already gone included."""
    calls_misses = [0, 0]

    def miss(*args):
        calls_misses[1] += 1
        return function(*args)

    @functools.wraps(function)
    def lookup(*args):
        calls_misses[0] += 1
        tables = _ACTIVE.get().tables
        table = tables.get(lookup)
        if table is None:
            table = tables[lookup] = functools.lru_cache(maxsize=None)(miss)
        return table(*args)

    lookup.cache_info = lambda: Counts(calls_misses[0] - calls_misses[1],
                                       calls_misses[1])
    return lookup


@contextlib.contextmanager
def scope(memo: Memo):
    """Make `memo` the active memo inside the block."""
    token = _ACTIVE.set(memo)
    try:
        yield memo
    finally:
        _ACTIVE.reset(token)


def fresh(function):
    """`function(...)` run in a fresh memo, freed when it returns."""
    @functools.wraps(function)
    def run(*args, **kwargs):
        with scope(Memo()):
            return function(*args, **kwargs)
    return run


_KEY = "_memo"


def _keep(owner, memo: Memo) -> None:
    """Unless `memo` is the process default, `owner` keeps it (in its
    `__dict__`, which frozen dataclasses have too) for as long as it
    lives, if it keeps none already."""
    attributes = getattr(owner, "__dict__", None)
    if attributes is not None and memo is not DEFAULT:
        attributes.setdefault(_KEY, memo)


def _keeping(memo: Memo, function, args, kwargs):
    """`function(*args, **kwargs)` run in `memo`; an object the call
    returns keeps the memo (`_keep`)."""
    with scope(memo):
        result = function(*args, **kwargs)
    _keep(result, memo)
    return result


def owning(build):
    """`build(...)` run in the active memo, or outside every scope in a
    fresh one, so that it does not fill the process default; the object
    it returns keeps that memo.  On an initializer (`__post_init__`,
    which returns None) the object it initializes keeps it."""
    @functools.wraps(build)
    def run(*args, **kwargs):
        memo = _ACTIVE.get()
        if memo is DEFAULT:
            memo = Memo()
        with scope(memo):
            result = build(*args, **kwargs)
        _keep(args[0] if result is None else result, memo)
        return result
    return run


def within(method):
    """`method(owner, ...)` run in the memo `owner` keeps, else the
    active one (see `kept`), so that what it derives lives as long as
    the owner; an object it returns keeps that memo too."""
    @functools.wraps(method)
    def run(owner, *args, **kwargs):
        return _keeping(kept(owner), method, (owner,) + args, kwargs)
    return run


def kept(owner) -> Memo:
    """The memo `owner` keeps, else the active one."""
    return owner.__dict__.get(_KEY) or _ACTIVE.get()

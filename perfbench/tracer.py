"""Per-layer figures of the dist235 layers from ``cProfile`` statistics.

The traced process runs under the standard-library profiler; no file of
the program changes.  A function belongs to the layer whose module file
(``dist235/<layer>.py``) holds its code, so private helpers, methods
and nested functions count for their own layer.  Time spent in code
outside dist235 (``fractions``, numpy, builtins) is charged to the
dist235 functions that called it, following the callers table up to
the nearest dist235 frame and splitting by the time spent under each
caller.  What no dist235 frame called (the harness, interpreter start)
stays unattributed.

``summarize`` turns a ``pstats.Stats`` (one process, or several merged
with ``Stats.add``) into per-function and per-layer figures.
"""

from __future__ import annotations

from pathlib import PurePath

LAYERS = ("scalar", "vecfield", "linalg", "boxes", "distduality",
          "conedual", "paths", "cli")

# Functions whose inclusive time is reported; cProfile counts only the
# outermost call of a recursion in it.
TOTAL_NAMES = (
    "scalar.normalize", "scalar.differentiate", "scalar.is_zero",
    "scalar.evaluate", "vecfield.lie_bracket",
    "vecfield.symbolic_decompose", "vecfield.reduce_mod",
    "linalg.solve_membership", "linalg.exact_rank", "paths.compile_exprs",
    "distduality.verify_pseudo_product",
    "distduality.solve_e", "conedual.check_osculating_condition",
    "conedual.solve_U", "conedual.prolong_cone",
    "paths.integrate_biextremal", "paths.integrate_flow",
    "paths.hamiltonian",
)

# (callee, caller): calls of the callee made directly by the caller.
EDGES = (("vecfield.reduce_mod", "distduality.verify_pseudo_product"),)


def function_name(key) -> str | None:
    """``<layer>.<function>`` for a pstats key in a dist235 layer module,
    else None."""
    filename, _line, funcname = key
    path = PurePath(filename)
    if path.parent.name == "dist235" and path.stem in LAYERS:
        return f"{path.stem}.{funcname}"
    return None


def _owners(key, table, memo, active) -> dict:
    """Shares of ``key``'s time owed to dist235 function names, found by
    walking the callers table up to the nearest dist235 frames."""
    name = function_name(key)
    if name is not None:
        return {name: 1.0}
    if key in memo:
        return memo[key]
    if key in active:          # a cycle outside dist235: leave it out
        return {}
    active.add(key)
    callers = table[key][4]
    weight = sum(edge[3] for edge in callers.values())
    shares: dict = {}
    for caller, edge in callers.items():
        if caller not in table or weight <= 0:
            continue
        for owner, share in _owners(caller, table, memo, active).items():
            shares[owner] = shares.get(owner, 0.0) + share * edge[3] / weight
    active.discard(key)
    memo[key] = shares
    return shares


def summarize(table: dict) -> dict:
    """Per-function and per-layer figures from a pstats table
    (``Stats.stats``: key -> (primitive calls, calls, internal time,
    cumulative time, callers)).

    Returns ``functions`` (calls, self_s, total_s per name), ``layers``
    (calls, self_s per layer), ``edges`` (callee calls per EDGES pair)
    and ``profiled_s`` (the internal time of every profiled function).
    """
    functions: dict = {}

    def entry(name):
        return functions.setdefault(
            name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    memo: dict = {}
    profiled = 0.0
    for key, (_cc, calls, internal, cumulative, callers) in table.items():
        profiled += internal
        name = function_name(key)
        if name is not None:
            own = entry(name)
            own["calls"] += calls
            own["self_s"] += internal
            own["total_s"] += cumulative
            continue
        for caller, edge in callers.items():
            if caller not in table:
                continue
            for owner, share in _owners(caller, table, memo, set()).items():
                entry(owner)["self_s"] += edge[2] * share

    edges = {}
    for callee, caller in EDGES:
        edges[f"{callee}<{caller}"] = sum(
            edge[1] for key, value in table.items()
            if function_name(key) == callee
            for from_key, edge in value[4].items()
            if function_name(from_key) == caller)

    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for name, figures in functions.items():
        layer = layers[name.split(".", 1)[0]]
        layer["calls"] += figures["calls"]
        layer["self_s"] += figures["self_s"]
    return {"functions": functions, "layers": layers, "edges": edges,
            "profiled_s": profiled}

"""Vector fields, frames, derived flags, and differential forms on charts.

Fields and forms hold one normal-form record per coefficient, and all
coefficient arithmetic folds records; rank and membership decisions
happen pointwise, exactly at rational points, and every one of them
reads a `PointValues` table: each field is evaluated once per point and
each frame eliminated once per point.
"""

from __future__ import annotations

import re
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import linalg
from .boxes import Box, as_fraction
from .memo import Memo, memoized
from .scalar import (
    _MINUS_ONE, _NF_ONE, _NF_ZERO, OpaqueRegistry, _coerce,
    _NFBuilder, _NormalForm, _value, default_registry,
)

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class ChartError(Exception):
    pass


class ChartMismatchError(ChartError):
    pass


class DegenerateFrameError(Exception):
    pass


@dataclass(frozen=True)
class Chart:
    """An ordered tuple of coordinate names; the order fixes the monomial
    order of every normal form computed on the chart.  `registry` holds
    the opaque functions that expressions on the chart may apply (the
    default registry when none is given); two charts are equal only when
    they share it, so fields whose opaques differ never mix.  `memo` is
    the `memo.Memo` that the normal forms, derivatives and brackets
    computed on the chart fill: each `Chart(...)` starts a fresh one and
    `extend` hands it on with the registry, so the charts that share a
    memo share one registry; equality, hashing and `repr` ignore it."""

    variables: tuple
    registry: Optional[OpaqueRegistry] = field(default=None, repr=False)
    memo: Memo = field(default_factory=Memo, init=False, repr=False,
                       compare=False)

    def __post_init__(self):
        names = tuple(self.variables)
        object.__setattr__(self, "variables", names)
        seen = set()
        for name in names:
            if not _IDENT.match(name):
                raise ChartError(f"bad coordinate name {name!r}")
            if name in seen:
                raise ChartError(f"duplicate coordinate {name!r}")
            seen.add(name)
        if self.registry is None:
            object.__setattr__(self, "registry", default_registry())

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise ChartError(f"{name!r} is not a coordinate of this chart")

    def extend(self, *names: str) -> "Chart":
        chart = Chart(self.variables + tuple(names), self.registry)
        object.__setattr__(chart, "memo", self.memo)
        return chart

    def point(self, *values) -> dict:
        if len(values) != len(self.variables):
            raise ChartError("wrong number of coordinate values")
        return {name: as_fraction(v) if not isinstance(v, float) else v
                for name, v in zip(self.variables, values)}

    def origin(self) -> dict:
        return {name: Fraction(0) for name in self.variables}


def _records(chart: Chart, components) -> tuple:
    """One record per chart coordinate: a record is kept, and a tree
    folded, once; a variable outside the chart anywhere in a tree
    (inside an opaque argument or a denominator too) is a ChartError."""
    comps = tuple(components)
    if len(comps) != chart.dimension:
        raise ChartError(
            f"expected {chart.dimension} components, got {len(comps)}")
    builder = _NFBuilder(chart)
    records = tuple(c if isinstance(c, _NormalForm)
                    else builder.finish(builder.visit(c)) for c in comps)
    extra = builder.variables() - set(chart.variables)
    if extra:
        raise ChartError(
            f"components use undeclared variables {sorted(extra)}")
    return records


@dataclass(frozen=True)
class _Coefficients:
    """One record per chart coordinate, made from the records or trees
    it is given (`_records`), and printed as `components`."""

    chart: Chart
    records: tuple

    def __post_init__(self):
        object.__setattr__(self, "records",
                           _records(self.chart, self.records))

    @property
    def components(self) -> tuple:
        return tuple(nf.tree for nf in self.records)


@dataclass(frozen=True)
class VectorField(_Coefficients):
    name: str = ""

    def evaluate_at(self, point: dict) -> list:
        registry = self.chart.registry
        return [_value(nf, point, registry) for nf in self.records]

    def lifted(self, chart: Chart) -> "VectorField":
        """The same field on an extended chart (zero new components)."""
        n = self.chart.dimension
        if (chart.variables[:n] != self.chart.variables
                or chart.registry is not self.chart.registry):
            raise ChartMismatchError(
                "target chart does not extend this field's chart")
        pad = (_NF_ZERO,) * (chart.dimension - n)
        return VectorField(chart, self.records + pad, self.name)

    def renamed(self, name: str) -> "VectorField":
        return VectorField(self.chart, self.records, name)


def combine(v: VectorField, s, w: VectorField, name: str) -> VectorField:
    """The field v + s * w, each component the fold of v^i + s * w^i on
    records in one builder: the one way fields are combined.  The scalar
    s is a record, a tree or a rational number."""
    if v.chart != w.chart:
        raise ChartMismatchError("cannot add fields on different charts")
    builder = _NFBuilder(v.chart)
    reuse, product = builder.reuse, builder.product
    factor = (reuse(s) if isinstance(s, _NormalForm)
              else builder.visit(_coerce(s)))
    return VectorField(v.chart, tuple(
        builder.finish(builder.sum((reuse(a), product((factor, reuse(b))))))
        for a, b in zip(v.records, w.records)), name)


def coordinate_field(chart: Chart, name: str) -> VectorField:
    i = chart.index(name)
    comps = tuple(_NF_ONE if j == i else _NF_ZERO
                  for j in range(chart.dimension))
    return VectorField(chart, comps, name=f"d/d{name}")


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    """[v, w]^j = sum_i v^i d(w^j)/dx_i - w^i d(v^j)/dx_i, normalized.

    Memoized in the chart's memo, keyed by the chart's names and the
    records of v and w (field names play no part), so asking again for a
    bracket on a chart that shares the memo computes nothing new.  A
    field's bracket with itself is the zero field, built without a fold:
    the fold of its terms, which cancel pairwise, is zero in every
    component."""
    if v.chart != w.chart:
        raise ChartMismatchError("bracket of fields on different charts")
    if v.records == w.records:
        return VectorField(v.chart, (_NF_ZERO,) * v.chart.dimension)
    return VectorField(v.chart, _bracket(v.chart, v.records, w.records))


@memoized
def _bracket(chart: Chart, v: tuple, w: tuple) -> tuple:
    """The records of [v, w]: each the fold of sum_i v^i d(w^j) +
    (-1) w^i d(v^j), in that order, in one builder."""
    builder = _NFBuilder(chart)
    vs = [builder.reuse(c) for c in v]
    ws = [builder.reuse(c) for c in w]
    comps = []
    for j in range(chart.dimension):
        terms = []
        for i, var in enumerate(chart.variables):
            terms.append(builder.product((
                vs[i], builder.derivative(w[j], var))))
            terms.append(builder.product((
                _MINUS_ONE, ws[i], builder.derivative(v[j], var))))
        comps.append(builder.finish(builder.sum(terms)))
    return tuple(comps)


class PointValues:
    """Field values and frame spans at one point, each computed once.

    A field is keyed by its registry and records, so equal fields (a
    bracket asked for twice, a renamed field) share a row; a frame is
    keyed by identity, and the table holds every frame it keys on, so no
    `id` is reused while it is alive.  Each field's
    values are scaled to an integer row once (a `linalg.Row`), and rank
    and membership are decided by `linalg`: exactly when the values are
    rational, with its relative tolerance otherwise.
    """

    def __init__(self, point: dict):
        self.point = point
        self._rows = {}   # (registry, records) -> linalg.Row
        self._spans = {}  # id(frame) -> (frame, linalg.Span)

    def row(self, f: VectorField) -> linalg.Row:
        key = (f.chart.registry, f.records)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = linalg.as_row(f.evaluate_at(self.point))
        return row

    def value(self, f: VectorField) -> list:
        return self.row(f).values

    def rank(self, fields: Sequence[VectorField]) -> int:
        return linalg.matrix_rank([self.row(f) for f in fields])

    def _span(self, frame: "Frame") -> linalg.Span:
        entry = self._spans.get(id(frame))
        if entry is None:
            entry = (frame,
                     linalg.Span([self.row(w) for w in frame.fields]))
            self._spans[id(frame)] = entry
        return entry[1]

    def member(self, v: VectorField, frame: "Frame") -> bool:
        return self._span(frame).contains(self.row(v))

    def residual(self, v: VectorField, frame: "Frame") -> Optional[tuple]:
        """None when v lies in the frame's span, else its nonzero
        residual vector."""
        if v.chart != frame.chart:
            raise ChartMismatchError("field and frame on different charts")
        residual = self._span(frame).residual(self.row(v))
        return None if residual is None else tuple(residual)


def rank_at(fields: Sequence[VectorField], point: dict) -> int:
    return PointValues(point).rank(fields)


@dataclass(frozen=True)
class Frame:
    """An ordered list of fields required to be independent at the base
    point.  `values`, when given, is a `PointValues` table at the base
    point, read instead of evaluating anew."""

    chart: Chart
    fields: tuple
    base_point: dict = field(compare=False)
    values: InitVar[Optional[PointValues]] = None

    def __post_init__(self, values):
        object.__setattr__(self, "fields", tuple(self.fields))
        for f in self.fields:
            if f.chart != self.chart:
                raise ChartMismatchError("frame fields live on another chart")
        if values is None:
            values = PointValues(self.base_point)
        r = values.rank(self.fields)
        if r != len(self.fields):
            raise DegenerateFrameError(
                f"frame fields have rank {r} < {len(self.fields)} at the "
                f"base point")

    @property
    def rank(self) -> int:
        return len(self.fields)


def symbolic_decompose(targets: Sequence[VectorField],
                       basis: Sequence[VectorField], base_point: dict
                       ) -> tuple:
    """For each target v, the records of the coefficients c_i with
    v = sum_i c_i * basis_i, obtained by one symbolic Gauss-Jordan
    elimination of the basis with every target appended as a column.

    The basis must be square (as many fields as chart dimensions) and
    invertible at the base point; each pivot is the remaining entry of
    largest magnitude among those nonzero there (`linalg.largest_nonzero`),
    so every denominator introduced along the way is nonzero at the base
    point and the result is valid on a neighbourhood of it.  Pivots and
    row factors come from the basis columns alone, so each target's
    coefficients do not depend on the other targets, and no targets give
    no coefficients.

    Only live columns are computed: the step that pivots on column `col`
    scales and eliminates the columns after it, since no later step and
    not the result reads column `col` or one before it again.  Entries
    are records, folded in one builder as their trees would fold, and
    none is printed.
    """
    if not targets:
        return ()
    chart = targets[0].chart
    n = chart.dimension
    if len(basis) != n:
        raise DegenerateFrameError(
            "symbolic decomposition needs a square basis "
            f"({len(basis)} fields on a {n}-dimensional chart)")
    columns = tuple(basis) + tuple(targets)
    for f in columns:
        if f.chart != chart:
            raise ChartMismatchError("field on a different chart")
    builder = _NFBuilder(chart)
    reuse, finish = builder.reuse, builder.finish
    # Augmented rows: one per chart component, columns follow the basis
    # order with the targets appended.
    width = len(columns)
    rows = [[f.records[i] for f in columns] for i in range(n)]
    pivot_of_col = {}
    free = list(range(n))  # the rows not yet holding a pivot, ascending
    for col in range(n):
        pick = linalg.largest_nonzero(
            [_value(rows[r][col], base_point, chart.registry)
             for r in free])
        if pick is None:
            raise DegenerateFrameError(
                "basis degenerates at the base point "
                f"(no usable pivot in column {col})")
        best_row = free.pop(pick)
        pivot_of_col[col] = best_row
        pivot_row = rows[best_row]
        inv = builder.power(reuse(pivot_row[col]), -1)
        live = range(col + 1, width)
        for j in live:
            pivot_row[j] = finish(builder.product((reuse(pivot_row[j]), inv)))
        for r, row in enumerate(rows):
            if r == best_row or not row[col].num:
                continue
            negated = builder.product((_MINUS_ONE, reuse(row[col])))
            for j in live:
                row[j] = finish(builder.sum((reuse(row[j]), builder.product(
                    (negated, reuse(pivot_row[j]))))))
    return tuple(tuple(rows[pivot_of_col[col]][j] for col in range(n))
                 for j in range(n, width))


@dataclass(frozen=True)
class DistributionFlag:
    """Weak derived flag of a generating frame: frames of increasing rank,
    the growth vector, and whether ranks were constant on the sampled box."""

    frames: tuple
    growth: tuple
    constant_rank: bool
    rank_witnesses: tuple = ()


def _pass_brackets(generators: Frame, frame: Frame, start: int = 0):
    """[g_a, f_k] for each generator g_a and each field f_k of `frame`
    with k >= a and k >= start, in that order.  Every frame of the flag
    starts with the generators, so [g_a, g_k] with k < a is -[g_k, g_a],
    which comes earlier, and neither it nor a zero bracket changes a
    span."""
    for a, gen in enumerate(generators.fields):
        for fld in frame.fields[max(a, start):]:
            yield lie_bracket(gen, fld)


def derived_flag(generators: Frame, box: Optional[Box] = None,
                 samples: int = 16) -> DistributionFlag:
    """Iterate F_{i+1} = F_i + [F_0, F_i] until the rank stops growing or
    fills the chart, extending frames in deterministic bracket order.

    Each pass grows the rank or stops, so the chart dimension bounds the
    number of passes.  A pass brackets the generators with the fields
    the pass before it added (`_pass_brackets`); the first pass, with
    the generators themselves.  The brackets with older fields were
    tried by an earlier pass and lie in the current frame at the base
    point, so they cannot grow it.  A pass also skips the mirror
    [g_a, g_k] of a bracket of generators already tried, a generator's
    bracket with itself (the zero field), and every bracket after its
    frame fills the chart.

    With a box, the rank of every frame (and, below the full chart, that
    of the top frame with the generators' brackets with each of its
    fields) is checked at `samples` Halton points of it.  Every frame is
    a prefix of the top one, so at a point where the top frame's values
    are rational and of full rank every frame has full rank, and only
    the top one is ranked; float values are ranked frame by frame, since
    their tolerance rule need not keep full rank on a prefix.
    """
    chart = generators.chart
    base = generators.base_point
    at_base = PointValues(base)
    frames = [generators]
    growth = [generators.rank]
    start = 0  # the index of the first field the last pass added
    while frames[-1].rank < chart.dimension:
        current = frames[-1]
        extended = list(current.fields)
        for b in _pass_brackets(generators, current, start):
            if not any(nf.num for nf in b.records):
                continue
            if at_base.rank(extended + [b]) > len(extended):
                extended.append(b)
                if len(extended) == chart.dimension:
                    break
        if len(extended) == current.rank:
            break
        frames.append(Frame(chart, tuple(extended), base, at_base))
        growth.append(len(extended))
        start = current.rank
    constant_rank = True
    witnesses = []
    if box is not None:
        top = frames[-1]
        # brackets that failed to grow the span at the base point must
        # keep failing on the box, else the growth is not constant
        candidates = (tuple(_pass_brackets(generators, top))
                      if top.rank < chart.dimension else ())
        for pt in box.sample_points(samples):
            at = PointValues(pt)
            exact = all(at.row(f).ints is not None for f in top.fields)
            if not (exact and at.rank(top.fields) == top.rank):
                for k, fr in enumerate(frames):
                    r = at.rank(fr.fields)
                    if r != fr.rank:
                        constant_rank = False
                        witnesses.append((k, tuple(sorted(pt.items())), r))
            if candidates:
                r = at.rank(top.fields + candidates)
                if r != top.rank:
                    constant_rank = False
                    witnesses.append((len(frames) - 1,
                                      tuple(sorted(pt.items())), r))
    return DistributionFlag(tuple(frames), tuple(growth),
                            constant_rank, tuple(witnesses))


# ---------------------------------------------------------------------------
# differential forms

@dataclass(frozen=True)
class OneForm(_Coefficients):
    """The coefficient of dx_i per chart variable."""


@dataclass(frozen=True)
class TwoForm:
    """A two-form: the record of the coefficient of dx_i ^ dx_j for each
    i < j where it is not zero."""

    chart: Chart
    records: dict

    def coefficient(self, i: int, j: int) -> _NormalForm:
        if i == j:
            return _NF_ZERO
        if i < j:
            return self.records.get((i, j), _NF_ZERO)
        builder = _NFBuilder(self.chart)
        flipped = self.records.get((j, i), _NF_ZERO)
        return builder.finish(builder.product(
            (_MINUS_ONE, builder.reuse(flipped))))


def exterior_derivative(alpha: OneForm) -> TwoForm:
    """d(sum a_i dx_i) = sum_{i<j} (da_j/dx_i - da_i/dx_j) dx_i ^ dx_j,
    each coefficient the fold of da_j/dx_i + (-1) da_i/dx_j on records in
    one builder, kept when it is not zero."""
    chart = alpha.chart
    builder = _NFBuilder(chart)
    a, names = alpha.records, chart.variables
    comps = {}
    n = chart.dimension
    for i in range(n):
        for j in range(i + 1, n):
            nf = builder.finish(builder.sum((
                builder.derivative(a[j], names[i]),
                builder.product((_MINUS_ONE, builder.derivative(
                    a[i], names[j]))))))
            if nf.num:
                comps[(i, j)] = nf
    return TwoForm(chart, comps)


def pair(form, v: VectorField, w: Optional[VectorField] = None
         ) -> _NormalForm:
    """Pair a one-form with a field, or a two-form with two fields: the
    record of the fold of sum_i a_i v^i, or of sum_{i<j} c_ij
    (v^i w^j + (-1) v^j w^i), on records in one builder."""
    if isinstance(form, OneForm):
        if w is not None:
            raise TypeError("one-form pairs with a single field")
        if form.chart != v.chart:
            raise ChartMismatchError("form and field on different charts")
        builder = _NFBuilder(form.chart)
        reuse, product = builder.reuse, builder.product
        return builder.finish(builder.sum(
            product((reuse(a), reuse(c)))
            for a, c in zip(form.records, v.records)))
    if isinstance(form, TwoForm):
        if w is None:
            raise TypeError("two-form needs two fields")
        if form.chart != v.chart or form.chart != w.chart:
            raise ChartMismatchError("form and fields on different charts")
        builder = _NFBuilder(form.chart)
        reuse, product = builder.reuse, builder.product
        vs = [reuse(c) for c in v.records]
        ws = [reuse(c) for c in w.records]
        return builder.finish(builder.sum(
            product((reuse(c), builder.sum((
                product((vs[i], ws[j])),
                product((_MINUS_ONE, vs[j], ws[i]))))))
            for (i, j), c in sorted(form.records.items())))
    raise TypeError(f"not a form: {form!r}")


def check_contact(alpha: OneForm, point: dict) -> bool:
    """True when alpha is a contact form at the point: the bordered
    antisymmetric matrix [[0, alpha], [-alpha^T, d(alpha)]] has rank 6,
    which holds exactly when alpha ^ d(alpha) ^ d(alpha) is nonzero."""
    if alpha.chart.dimension != 5:
        raise ChartError("contact check needs a 5-dimensional chart")
    d = exterior_derivative(alpha)
    registry = alpha.chart.registry
    a = [_value(nf, point, registry) for nf in alpha.records]
    rows = [[0] + a] + [
        [-a[i]] + [_value(d.coefficient(i, j), point, registry)
                   for j in range(5)]
        for i in range(5)]
    return linalg.matrix_rank(rows) == 6

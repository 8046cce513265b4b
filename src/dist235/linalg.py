"""Small dense linear algebra over exact rationals with float fallback.

Every exact answer (rank, membership, residual, solve, nullspace) comes
from one elimination: rows are scaled to integers and reduced
fraction-free into a row echelon (`ExactSpan`), so an answer at a
rational point is exact, not an estimate.  Data with a float entry falls
back to float rules with a relative tolerance: rank by partial-pivot
elimination, membership by a least-squares residual, nullspace by SVD.
No other module chooses between the two.

A row or vector may be passed as a `Row`, which carries its integer
scaling; a caller that tests one vector many times (`PointValues`)
scales it once that way.  A plain sequence is scaled where it is used.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

FLOAT_RTOL = 1e-9


def is_rational_matrix(rows) -> bool:
    return all(isinstance(x, (Fraction, int)) for row in rows for x in row)


class Row(NamedTuple):
    """A value vector and the same line scaled to coprime integers, or
    None in place of those when an entry is a float."""

    values: list
    ints: Optional[list]


def as_row(values) -> Row:
    """The `Row` of a value vector: its integer scaling, done once."""
    if not is_rational_matrix((values,)):
        return Row(values, None)
    lcm = math.lcm(*(x.denominator for x in values))
    ints = [x.numerator * (lcm // x.denominator) for x in values]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return Row(values, ints)


def _row(x) -> Row:
    return x if isinstance(x, Row) else as_row(x)


class ExactSpan:
    """The span of rational row vectors, held as a fraction-free integer
    row echelon.

    Each row is scaled to coprime integers and reduced against the echelon
    rows by cross-multiplication; dividing every result by its content
    keeps the entries small, as the exact divisions of Bareiss's
    elimination do.  Rank and membership are exact, with no `Fraction`
    arithmetic; the residual and the reduced row echelon form are read
    off the echelon rows in `Fraction` arithmetic.
    """

    def __init__(self, rows=()):
        self._echelon = []  # (pivot column, integer row), pivots ascending
        for row in rows:
            v = self._reduce(_row(row).ints)
            for col, x in enumerate(v):
                if x:
                    # append and sort rather than bisect.insort: importing
                    # bisect loads an extension module, which raised the
                    # peak memory of an `analyze` process by about 0.2 MB
                    self._echelon.append((col, v))
                    self._echelon.sort()
                    break

    @property
    def rank(self) -> int:
        return len(self._echelon)

    def _reduce(self, v: list) -> list:
        # In ascending pivot order each step clears v at one pivot column
        # without touching the earlier ones (echelon rows vanish there).
        for col, row in self._echelon:
            a = v[col]
            if a:
                p = row[col]
                v = [x * p - y * a for x, y in zip(v, row)]
                g = math.gcd(*v)
                if g > 1:
                    v = [x // g for x in v]
        return v

    def contains(self, vec) -> bool:
        """True when the rational vector lies in the span."""
        return not any(self._reduce(_row(vec).ints))

    def residual(self, vec) -> list:
        """vec minus the combination of echelon rows that clears every
        pivot column: linear in vec, and zero exactly on the span."""
        r = [Fraction(x) for x in vec]
        for col, row in self._echelon:
            if r[col]:
                f = r[col] / row[col]
                r = [x - f * y for x, y in zip(r, row)]
        return r

    def rref(self) -> list:
        """The reduced row echelon form, by back-substitution on the
        echelon: (pivot column, `Fraction` row with 1 at its pivot and 0
        at every other pivot column), pivots ascending."""
        reduced = []
        for col, row in reversed(self._echelon):
            r = [Fraction(x, row[col]) for x in row]
            for later, other in reduced:
                if r[later]:
                    f = r[later]
                    r = [x - f * y for x, y in zip(r, other)]
            reduced.append((col, r))
        return reduced[::-1]


def exact_rank(rows) -> int:
    """Rank of a matrix with rational entries, by integer row echelon."""
    return ExactSpan(rows).rank


def float_rank(rows, rtol: float = FLOAT_RTOL) -> int:
    """Rank by partial-pivot elimination; pivots below rtol * max|entry|
    of the original matrix count as zero."""
    a = np.array(rows, dtype=float)
    if a.size == 0:
        return 0
    scale = np.max(np.abs(a))
    if scale == 0.0:
        return 0
    threshold = rtol * scale
    n_rows, n_cols = a.shape
    rank = 0
    col = 0
    while rank < n_rows and col < n_cols:
        pivot_row = rank + int(np.argmax(np.abs(a[rank:, col])))
        if abs(a[pivot_row, col]) <= threshold:
            col += 1
            continue
        a[[rank, pivot_row]] = a[[pivot_row, rank]]
        a[rank + 1:, col:] -= np.outer(a[rank + 1:, col] / a[rank, col],
                                       a[rank, col:])
        rank += 1
        col += 1
    return rank


def matrix_rank(rows, rtol: float = FLOAT_RTOL) -> int:
    rows = [_row(r) for r in rows]
    if all(r.ints is not None for r in rows):
        return exact_rank(rows)
    return float_rank([r.values for r in rows], rtol)


def exact_solve(columns, b):
    """One rational x with sum_j x_j * columns[j] = b, read from the
    reduced row echelon form of the augmented matrix with free variables
    set to 0, or None when b is not in the span of the columns."""
    k = len(columns)
    aug = [[c[r] for c in columns] + [b[r]] for r in range(len(b))]
    x = [Fraction(0)] * k
    for col, row in ExactSpan(aug).rref():
        if col == k:
            return None
        x[col] = row[k]
    return x


def exact_nullspace(rows):
    """Basis of the right nullspace of a rational matrix, read from its
    reduced row echelon form: one vector per free column, ascending."""
    if not rows:
        return []
    reduced = ExactSpan(rows).rref()
    pivots = {col for col, _ in reduced}
    basis = []
    for free in range(len(rows[0])):
        if free in pivots:
            continue
        v = [Fraction(0)] * len(rows[0])
        v[free] = Fraction(1)
        for col, row in reduced:
            v[col] = -row[free]
        basis.append(v)
    return basis


class Span:
    """The span of row vectors, for membership and decomposition.

    Rational rows are eliminated once into an `ExactSpan`, against which
    rational vectors are decided exactly.  A float row or a float vector
    uses the float rule instead: the least-squares residual r of vec
    counts as zero when |r| <= rtol * max(1, |vec|).
    """

    def __init__(self, rows, rtol: float = FLOAT_RTOL):
        self.rows = [_row(r) for r in rows]
        self.rtol = rtol
        self._exact = (ExactSpan(self.rows)
                       if all(r.ints is not None for r in self.rows)
                       else None)

    def contains(self, vec) -> bool:
        vec = _row(vec)
        if self._exact is not None and vec.ints is not None:
            return self._exact.contains(vec)
        return self.decompose(vec)[0] is not None

    def decompose(self, vec):
        """(coefficients, residual) of vec over the rows.  The
        coefficients c give sum_i c_i * rows[i] = vec (the exact solve,
        or least squares), or are None when vec is not in the span; the
        residual is linear in vec and zero exactly on the span."""
        vec = _row(vec)
        values = vec.values
        if self._exact is not None and vec.ints is not None:
            if self._exact.contains(vec):
                return (exact_solve([r.values for r in self.rows], values),
                        [Fraction(0)] * len(values))
            return None, self._exact.residual(values)
        a = np.array([r.values for r in self.rows],
                     dtype=float).reshape(len(self.rows), len(values)).T
        bv = np.array([float(x) for x in values])
        coeffs = np.linalg.lstsq(a, bv, rcond=None)[0]
        residual = [float(r) for r in bv - a @ coeffs]
        norm_r = math.sqrt(sum(r ** 2 for r in residual))
        norm_b = math.sqrt(sum(float(x) ** 2 for x in values))
        if norm_r <= self.rtol * max(1.0, norm_b):
            return [float(c) for c in coeffs], residual
        return None, residual


def float_nullspace(rows, rtol: float = FLOAT_RTOL):
    """Orthonormal nullspace basis via SVD, sign-fixed for determinism."""
    a = np.array(rows, dtype=float)
    if a.size == 0:
        return []
    _, s, vt = np.linalg.svd(a)
    tol = rtol * (s[0] if len(s) else 1.0)
    null_mask = np.ones(vt.shape[0], dtype=bool)
    null_mask[: len(s)] = s <= tol
    basis = []
    for row in vt[null_mask]:
        idx = int(np.argmax(np.abs(row)))
        if row[idx] < 0:
            row = -row
        basis.append([float(x) for x in row])
    return basis


def nullspace(rows, rtol: float = FLOAT_RTOL):
    """Exact nullspace basis of a rational matrix, else the SVD one."""
    if is_rational_matrix(rows):
        return exact_nullspace(rows)
    return float_nullspace(rows, rtol)

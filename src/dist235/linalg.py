"""Small dense linear algebra over exact rationals with float fallback.

Rank and membership decisions prefer exact arithmetic: rows are scaled
to integers and eliminated fraction-free, so a rank answer at a rational
point is exact, not an estimate.  Float matrices fall back to
partial-pivot elimination with a relative tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

FLOAT_RTOL = 1e-9


def is_rational_matrix(rows) -> bool:
    return all(isinstance(x, (Fraction, int)) for row in rows for x in row)


def _integer_row(row) -> list:
    """A rational row scaled to coprime integers (the same line)."""
    fracs = [x if isinstance(x, (Fraction, int)) else Fraction(x)
             for x in row]
    lcm = math.lcm(*(f.denominator for f in fracs))
    ints = [f.numerator * (lcm // f.denominator) for f in fracs]
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints


class ExactSpan:
    """The span of rational row vectors, held as a fraction-free integer
    row echelon.

    Each row is scaled to coprime integers and reduced against the echelon
    rows by cross-multiplication; dividing every result by its content
    keeps the entries small, as the exact divisions of Bareiss's
    elimination do.  Rank and membership are exact, with no `Fraction`
    arithmetic.
    """

    def __init__(self, rows=()):
        self._echelon = []  # (pivot column, integer row), pivots ascending
        for row in rows:
            v = self._reduce(_integer_row(row))
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
        return not any(self._reduce(_integer_row(vec)))


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
    if is_rational_matrix(rows):
        return exact_rank(rows)
    return float_rank(rows, rtol)


def _rref(aug: list, n_cols: int) -> list:
    """Reduce `Fraction` rows in place to reduced row echelon form,
    pivoting on the first `n_cols` columns only; returns the pivot
    columns.  Later columns (an augmented right-hand side) are carried
    along."""
    n = len(aug)
    pivots = []
    row = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(row, n):
            if aug[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        aug[row], aug[pivot_row] = aug[pivot_row], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(n):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == n:
            break
    return pivots


def _exact_gauss_solve(a_rows, b):
    """One exact solution of A x = b (A given as rows), or None if
    inconsistent.  Free variables are set to zero."""
    n = len(a_rows)
    if n == 0:
        return []
    k = len(a_rows[0])
    aug = [[Fraction(a_rows[r][c]) for c in range(k)] + [Fraction(b[r])]
           for r in range(n)]
    pivots = _rref(aug, k)
    for r in range(len(pivots), n):
        if aug[r][k] != 0:
            return None
    x = [Fraction(0)] * k
    for r, col in enumerate(pivots):
        x[col] = aug[r][k]
    return x


def solve_membership(columns, b, rtol: float = FLOAT_RTOL):
    """Decompose b over the given column vectors.

    Returns (coefficients, residual): coefficients minimize the residual
    (exact least squares over rationals when possible), and residual is
    b - A c.  Membership holds when the residual vanishes (exactly, or
    below rtol * max(1, |b|) in the float case).
    """
    n = len(b)
    k = len(columns)
    if k == 0:
        return [], list(b)
    rational = is_rational_matrix(columns) and all(
        isinstance(x, (Fraction, int)) for x in b)
    if rational:
        cols = [[Fraction(x) for x in c] for c in columns]
        bb = [Fraction(x) for x in b]
        # normal equations: exact least squares (A^T A is invertible for
        # independent columns; otherwise fall through to consistent solve)
        ata = [[sum(cols[i][r] * cols[j][r] for r in range(n))
                for j in range(k)] for i in range(k)]
        atb = [sum(cols[i][r] * bb[r] for r in range(n)) for i in range(k)]
        coeffs = _exact_gauss_solve(ata, atb)
        if coeffs is None:
            a_rows = [[cols[j][r] for j in range(k)] for r in range(n)]
            coeffs = _exact_gauss_solve(a_rows, bb)
            if coeffs is None:
                coeffs = [Fraction(0)] * k
        residual = [bb[r] - sum(coeffs[j] * cols[j][r] for j in range(k))
                    for r in range(n)]
        return coeffs, residual
    a = np.array(columns, dtype=float).T
    bv = np.array([float(x) for x in b])
    coeffs, *_ = np.linalg.lstsq(a, bv, rcond=None)
    residual = bv - a @ coeffs
    return [float(c) for c in coeffs], [float(r) for r in residual]


def residual_is_zero(residual, b, rtol: float = FLOAT_RTOL) -> bool:
    if all(isinstance(x, (Fraction, int)) for x in residual):
        return all(x == 0 for x in residual)
    norm_r = math.sqrt(sum(float(x) ** 2 for x in residual))
    norm_b = math.sqrt(sum(float(x) ** 2 for x in b))
    return norm_r <= rtol * max(1.0, norm_b)


def exact_nullspace(rows):
    """Basis of the right nullspace of a rational matrix, exact."""
    if not rows:
        return []
    k = len(rows[0])
    aug = [[Fraction(x) for x in row] for row in rows]
    pivots = _rref(aug, k)
    free = [c for c in range(k) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * k
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -aug[r][fc]
        basis.append(v)
    return basis


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

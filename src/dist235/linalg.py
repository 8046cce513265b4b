"""Small dense linear algebra over exact rationals with float fallback.

Every exact answer (rank, membership, residual, nullspace) comes from
one elimination: rows are scaled to integers and reduced fraction-free
into a row echelon (`ExactSpan`), so an answer at a rational point is
exact, not an estimate.  Data with a float entry falls back to one
Householder QR with column pivoting (`_FloatQR`) under a relative
tolerance: it gives the rank, the least-squares residual that decides
membership, and an orthonormal nullspace.  No other module chooses
between the two.

A row or vector may be passed as a `Row`, which carries its integer
scaling; a caller that tests one vector many times (`PointValues`)
scales it once that way.  A plain sequence is scaled where it is used.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

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


def _dot(a, b) -> float:
    """Sum of the products, added by `math.fsum` (correctly rounded)."""
    return math.fsum(x * y for x, y in zip(a, b))


def _reflect(c: list, k: int, v: list, w: float):
    """c <- (I - w v v^T) c on the entries k, k+1, ...; in place."""
    s = w * _dot(v, c[k:])
    for i, vi in enumerate(v, k):
        c[i] -= s * vi


class _FloatQR:
    """Householder QR with column pivoting (Golub & Van Loan, *Matrix
    Computations*, Alg. 5.4.1) of the float matrix A whose columns are
    the given vectors: A P = Q R, Q = H_0 ... H_{rank-1}.

    Each step moves the remaining column of largest norm to the front,
    so the diagonal of R does not grow.  The factorization stops at the
    first diagonal entry |R_kk| <= FLOAT_RTOL * |R_00|, and `rank` is the
    number of steps taken.  A NaN or infinite entry never passes that
    test, so it raises the rank instead of hiding in a zero.
    """

    def __init__(self, vectors, length: int):
        cols = [[float(x) for x in v] for v in vectors]
        # scaled by the largest entry, so no square under- or overflows
        self.scale = max((abs(x) for c in cols for x in c), default=0.0)
        if 0.0 < self.scale < math.inf:
            cols = [[x / self.scale for x in c] for c in cols]
        else:
            self.scale = 1.0
        self.length = length
        self.perm = list(range(len(cols)))
        self.reflectors = []  # (k, v, 2 / (v . v)): H_k = I - w v v^T
        self.r = cols  # column-major; R is read from rows < rank
        threshold = None
        for k in range(min(length, len(cols))):
            norms = [_dot(c[k:], c[k:]) for c in cols[k:]]
            j = k
            for i, sq in enumerate(norms):
                if sq > norms[j - k]:
                    j = k + i
            top = math.sqrt(norms[j - k])
            if threshold is None:
                threshold = FLOAT_RTOL * top if math.isfinite(top) else 0.0
            if top <= threshold:
                break
            cols[k], cols[j] = cols[j], cols[k]
            self.perm[k], self.perm[j] = self.perm[j], self.perm[k]
            x = cols[k]
            alpha = -math.copysign(top, x[k])
            v = [x[k] - alpha] + x[k + 1:]
            w = 2.0 / _dot(v, v)
            for c in cols[k + 1:]:
                _reflect(c, k, v, w)
            x[k:] = [alpha] + [0.0] * (length - k - 1)
            self.reflectors.append((k, v, w))

    @property
    def rank(self) -> int:
        return len(self.reflectors)

    def least_squares(self, b) -> list:
        """Coefficients x minimizing |A x - b|: Q^T b, then
        back-substitution on the leading rank x rank block of R, with 0
        for the columns left over."""
        z = list(b)
        for k, v, w in self.reflectors:
            _reflect(z, k, v, w)
        rank = self.rank
        y = [0.0] * rank
        for i in reversed(range(rank)):
            acc = z[i]
            for j in range(i + 1, rank):
                acc -= self.r[j][i] * y[j]
            y[i] = acc / self.r[i][i]
        x = [0.0] * len(self.perm)
        for i in range(rank):
            x[self.perm[i]] = y[i] / self.scale
        return x

    def complement(self) -> list:
        """The columns rank, ..., length-1 of Q: an orthonormal basis of
        the complement of the numerical column span."""
        basis = []
        for j in range(self.rank, self.length):
            e = [0.0] * self.length
            e[j] = 1.0
            for k, v, w in reversed(self.reflectors):
                _reflect(e, k, v, w)
            basis.append(e)
        return basis


def float_rank(rows) -> int:
    """Rank by pivoted QR: diagonal entries of R at or below FLOAT_RTOL
    times the largest column norm count as zero."""
    if not rows:
        return 0
    return _FloatQR(rows, len(rows[0])).rank


def matrix_rank(rows) -> int:
    rows = [_row(r) for r in rows]
    if all(r.ints is not None for r in rows):
        return exact_rank(rows)
    return float_rank([r.values for r in rows])


def is_zero_value(x) -> bool:
    """`matrix_rank`'s zero rule for one value: exactly 0 for a rational,
    and for a float the relative rule, which for one number means 0.0."""
    return matrix_rank([[x]]) == 0


def largest_nonzero(values) -> Optional[int]:
    """The pivot rule: the index of the value of largest magnitude among
    those not zero by `is_zero_value`, the first on a tie, or None when
    every value is zero."""
    best, best_mag = None, -1.0
    for i, x in enumerate(values):
        if is_zero_value(x):
            continue
        mag = abs(float(x))
        if mag > best_mag:
            best, best_mag = i, mag
    return best


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
    """The span of row vectors, for membership and its residual.

    Rational rows are eliminated once into an `ExactSpan`, against which
    rational vectors are decided exactly.  A float row or a float vector
    uses the float rule instead, on one QR of the rows: the least-squares
    residual r of vec counts as zero when |r| <= FLOAT_RTOL * max(1, |vec|).
    """

    def __init__(self, rows):
        self.rows = [_row(r) for r in rows]
        self._exact = (ExactSpan(self.rows)
                       if all(r.ints is not None for r in self.rows)
                       else None)
        self._qr = None

    def contains(self, vec) -> bool:
        vec = _row(vec)
        if self._exact is not None and vec.ints is not None:
            return self._exact.contains(vec)
        return self.residual(vec) is None

    def residual(self, vec):
        """None when vec lies in the span, else its residual: linear in
        vec and zero exactly on the span (the exact residual, or that of
        the least-squares fit)."""
        vec = _row(vec)
        if self._exact is not None and vec.ints is not None:
            if self._exact.contains(vec):
                return None
            return self._exact.residual(vec.values)
        b = [float(x) for x in vec.values]
        if self._qr is None:
            self._qr = _FloatQR([r.values for r in self.rows], len(b))
        coeffs = self._qr.least_squares(b)
        residual = b
        for c, row in zip(coeffs, self.rows):
            residual = [x - c * float(y) for x, y in zip(residual, row.values)]
        if math.sqrt(_dot(residual, residual)) <= \
                FLOAT_RTOL * max(1.0, math.sqrt(_dot(b, b))):
            return None
        return residual


def float_nullspace(rows):
    """Orthonormal nullspace basis: the trailing columns of Q in the
    pivoted QR of the transpose, each signed so that its entry of
    largest magnitude is positive."""
    if not rows or not rows[0]:
        return []
    basis = []
    for v in _FloatQR(rows, len(rows[0])).complement():
        big = max(range(len(v)), key=lambda i: abs(v[i]))
        basis.append([-x for x in v] if v[big] < 0 else v)
    return basis


def nullspace(rows):
    """Exact nullspace basis of a rational matrix, else the QR one."""
    if is_rational_matrix(rows):
        return exact_nullspace(rows)
    return float_nullspace(rows)

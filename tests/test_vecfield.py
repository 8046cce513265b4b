"""Vector fields, brackets, flags, forms: exact pointwise linear algebra."""

import random
from fractions import Fraction

import pytest
import sympy

from dist235 import linalg
from dist235.boxes import Box
from dist235.scalar import Const, Prod, Sum, normalize, parse_expr, to_text
from dist235.vecfield import (
    Chart, ChartError, ChartMismatchError, DegenerateFrameError, Frame,
    OneForm, VectorField, cauchy_characteristic_at, check_contact,
    contact_volume, coordinate_field, derived_flag, exterior_derivative,
    field_from_strings, lie_bracket, pair, rank_at, reduce_mod, zero_field,
)

from helpers import random_tree

CH5 = Chart(("x", "y", "y1", "y2", "z"))
BASE = CH5.origin()
BOX = Box.around(BASE, Fraction(1, 4))


def growth_frame():
    """Rank-2 frame with growth vector (2, 3, 5)."""
    eta1 = field_from_strings(CH5, ["1", "y1", "y2", "0", "y2^2"], name="eta1")
    eta2 = field_from_strings(CH5, ["0", "0", "0", "1", "0"], name="eta2")
    return eta1, eta2


class TestChart:
    def test_validation(self):
        with pytest.raises(ChartError):
            Chart(("x", "x"))
        with pytest.raises(ChartError):
            Chart(("2bad",))

    def test_extend(self):
        ch = CH5.extend("t")
        assert ch.dimension == 6
        assert ch.variables[-1] == "t"

    def test_point(self):
        pt = CH5.point(1, "1/2", 0, 0, 0)
        assert pt["y"] == Fraction(1, 2)


class TestBracket:
    def test_coordinate_fields_commute(self):
        dx = coordinate_field(CH5, "x")
        dy = coordinate_field(CH5, "y")
        b = lie_bracket(dx, dy)
        assert all(c == Const(Fraction(0)) for c in b.components)

    def test_growth_frame_brackets(self):
        eta1, eta2 = growth_frame()
        eta3 = lie_bracket(eta1, eta2)
        # [eta1, eta2] = -(d/dy1 + 2 y2 d/dz)
        assert [to_text(c) for c in eta3.components] == \
            ["0", "0", "-1", "0", "-2*y2"]
        eta4 = lie_bracket(eta1, eta3)
        assert [to_text(c) for c in eta4.components] == \
            ["0", "1", "0", "0", "0"]
        eta5 = lie_bracket(eta2, eta3)
        assert [to_text(c) for c in eta5.components] == \
            ["0", "0", "0", "0", "-2"]

    def test_antisymmetry(self):
        eta1, eta2 = growth_frame()
        b1 = lie_bracket(eta1, eta2)
        b2 = lie_bracket(eta2, eta1)
        for c1, c2 in zip(b1.components, b2.components):
            assert normalize(Sum((c1, c2)), CH5.variables) == Const(Fraction(0))

    def _random_field(self, rng):
        comps = tuple(random_tree(rng, CH5.variables[:3], depth=2)
                      for _ in range(CH5.dimension))
        return VectorField(CH5, comps)

    def test_jacobi_identity(self):
        rng = random.Random(31415)
        for _ in range(10):
            u = self._random_field(rng)
            v = self._random_field(rng)
            w = self._random_field(rng)
            total = (lie_bracket(u, lie_bracket(v, w))
                     + lie_bracket(v, lie_bracket(w, u))
                     + lie_bracket(w, lie_bracket(u, v)))
            for c in total.components:
                assert normalize(c, CH5.variables) == Const(Fraction(0))

    def test_leibniz_scaling(self):
        # [v, f w] = f [v, w] + (v f) w
        rng = random.Random(2718)
        for _ in range(10):
            v = self._random_field(rng)
            w = self._random_field(rng)
            f = random_tree(rng, CH5.variables[:3], depth=2)
            lhs = lie_bracket(v, w * f)
            rhs = (lie_bracket(v, w) * f) + (w * v.apply_to(f))
            for c1, c2 in zip(lhs.components, rhs.components):
                diff = normalize(Sum((c1, Prod((Const(Fraction(-1)), c2)))),
                                 CH5.variables)
                assert diff == Const(Fraction(0))


class TestRank:
    def test_rank_exact(self):
        eta1, eta2 = growth_frame()
        assert rank_at([eta1, eta2], BASE) == 2
        assert rank_at([eta1, eta2, lie_bracket(eta1, eta2)], BASE) == 3
        assert rank_at([eta1, eta1], BASE) == 1
        assert rank_at([zero_field(CH5)], BASE) == 0

    def test_rank_float_point(self):
        eta1, eta2 = growth_frame()
        pt = {k: float(v) for k, v in BASE.items()}
        assert rank_at([eta1, eta2], pt) == 2

    def test_exact_vs_float_agree(self):
        rng = random.Random(55)
        for _ in range(50):
            rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(5)] for _ in range(4)]
            re = linalg.exact_rank(rows)
            rf = linalg.float_rank([[float(x) for x in row] for row in rows])
            assert re == rf

    def test_degenerate_frame_rejected(self):
        eta1, _ = growth_frame()
        with pytest.raises(DegenerateFrameError):
            Frame(CH5, (eta1, eta1), BASE)


def random_frame(rng, n_rows, n_cols, rank):
    """Rational rows of the given rank: `rank` random rows followed by
    random rational combinations of them."""
    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    basis = [[rational() for _ in range(n_cols)] for _ in range(rank)]
    rows = [list(row) for row in basis]
    while len(rows) < n_rows:
        coeffs = [rational() for _ in basis]
        rows.append([sum((c * row[j] for c, row in zip(coeffs, basis)),
                         Fraction(0)) for j in range(n_cols)])
    rng.shuffle(rows)
    return rows


def sympy_matrix(rows, n_cols):
    return sympy.Matrix(len(rows), n_cols,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in rows for x in map(Fraction, row)])


def as_fractions(entries):
    return [Fraction(int(x.p), int(x.q)) for x in entries]


def random_candidates(rng, rows, n_cols):
    """A random vector (usually outside the span) and an integer
    combination of the rows (inside it)."""
    return [
        random_frame(rng, 1, n_cols, 1)[0],
        [sum((Fraction(rng.randint(-3, 3)) * row[j] for row in rows),
             Fraction(0)) for j in range(n_cols)],
    ]


class TestExactSpan:
    """The integer echelon behind every exact rank, membership, residual,
    solve and nullspace agrees with sympy's elimination on seeded
    rational frames, including rank-deficient ones."""

    def test_rank_on_random_frames(self):
        rng = random.Random(71)
        for _ in range(60):
            n_cols = rng.randint(1, 6)
            n_rows = rng.randint(1, 7)
            rank = rng.randint(0, min(n_rows, n_cols))
            rows = random_frame(rng, n_rows, n_cols, rank)
            span = linalg.ExactSpan(rows)
            expected = sympy_matrix(rows, n_cols).rank()
            assert span.rank == expected == linalg.exact_rank(rows)

    def test_membership_on_random_frames(self):
        rng = random.Random(72)
        members = outsiders = 0
        for _ in range(60):
            n_cols = rng.randint(2, 6)
            rank = rng.randint(1, n_cols)
            rows = random_frame(rng, rng.randint(rank, rank + 2), n_cols,
                                rank)
            span = linalg.ExactSpan(rows)
            for vec in random_candidates(rng, rows, n_cols):
                expected = (sympy_matrix(rows + [vec], n_cols).rank()
                            == sympy_matrix(rows, n_cols).rank())
                assert span.contains(vec) == expected
                assert (not any(span.residual(vec))) == expected
                members += expected
                outsiders += not expected
        assert members > 0 and outsiders > 0

    def test_residual_is_linear(self):
        rng = random.Random(73)
        for _ in range(40):
            n_cols = rng.randint(2, 6)
            rank = rng.randint(0, n_cols)
            span = linalg.ExactSpan(random_frame(rng, rank + 1, n_cols,
                                                 rank))
            u, v = random_frame(rng, 2, n_cols, 2)
            a, b = Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(1, 5))
            combo = [a * x + b * y for x, y in zip(u, v)]
            assert span.residual(combo) == [
                a * x + b * y
                for x, y in zip(span.residual(u), span.residual(v))]

    def test_rref_and_nullspace_match_sympy(self):
        rng = random.Random(74)
        for _ in range(60):
            n_cols = rng.randint(1, 6)
            n_rows = rng.randint(1, 7)
            rank = rng.randint(0, min(n_rows, n_cols))
            rows = random_frame(rng, n_rows, n_cols, rank)
            m = sympy_matrix(rows, n_cols)
            reduced, pivots = m.rref()
            assert linalg.ExactSpan(rows).rref() == [
                (col, as_fractions(reduced.row(i)))
                for i, col in enumerate(pivots)]
            assert linalg.exact_nullspace(rows) == [
                as_fractions(v) for v in m.nullspace()]

    def test_exact_solve_matches_sympy(self):
        rng = random.Random(75)
        solved = inconsistent = 0
        for _ in range(60):
            n_cols = rng.randint(1, 6)
            rank = rng.randint(1, n_cols)
            columns = random_frame(rng, rng.randint(rank, rank + 2), n_cols,
                                   rank)
            a = sympy_matrix(columns, n_cols).T
            for b in random_candidates(rng, columns, n_cols):
                x = linalg.exact_solve(columns, b)
                try:
                    sol, params = a.gauss_jordan_solve(
                        sympy_matrix([b], n_cols).T)
                except ValueError:
                    assert x is None
                    inconsistent += 1
                    continue
                free_zero = sol.subs({t: 0 for t in params})
                assert x == as_fractions(free_zero)
                solved += 1
        assert solved > 0 and inconsistent > 0

    def test_zero_vector_and_zero_row(self):
        rows = [[Fraction(1, 2), Fraction(0), Fraction(3)],
                [0, 0, 0],
                [Fraction(-1), 0, Fraction(-6)]]
        span = linalg.ExactSpan(rows)
        assert span.rank == 1 == linalg.exact_rank(rows)
        assert span.contains([0, 0, 0])
        assert span.contains([Fraction(1, 3), 0, 2])
        assert not span.contains([0, 1, 0])
        assert span.residual([0, 1, 0]) == [0, 1, 0]
        assert span.rref() == [(0, [1, 0, 6])]
        assert linalg.exact_nullspace(rows) == [[0, 1, 0], [-6, 0, 1]]
        empty = linalg.ExactSpan([])
        assert empty.rank == 0
        assert empty.contains([0, 0])
        assert not empty.contains([0, Fraction(1, 7)])
        assert linalg.exact_solve([], [0, 0]) == []
        assert linalg.exact_solve([], [0, Fraction(1, 7)]) is None


class TestSpan:
    """Rational data is decided by the echelon, float data by the
    least-squares rule with its relative tolerance."""

    ROWS = [[Fraction(1), Fraction(2), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(1, 3)]]

    def test_rational_vector_is_exact(self):
        span = linalg.Span(self.ROWS)
        coeffs, residual = span.decompose([2, 7, 1])
        assert coeffs == [2, 3] and residual == [0, 0, 0]
        member = [Fraction(1), Fraction(2), Fraction(10 ** -12)]
        assert not span.contains(member)
        coeffs, residual = span.decompose(member)
        assert coeffs is None
        assert residual == linalg.ExactSpan(self.ROWS).residual(member)

    def test_float_vector_uses_the_tolerance(self):
        span = linalg.Span(self.ROWS)
        assert span.contains([1.0, 2.0, 1e-12])
        coeffs, _ = span.decompose([2.0, 7.0, 1.0])
        assert coeffs == [pytest.approx(2.0), pytest.approx(3.0)]
        assert not span.contains([1.0, 2.0, 1e-3])
        assert linalg.Span(self.ROWS, rtol=1e-15).decompose(
            [1.0, 2.0, 1e-12])[0] is None

    def test_nullspace_dispatch(self):
        assert linalg.nullspace(self.ROWS) == linalg.exact_nullspace(
            self.ROWS)
        floats = [[float(x) for x in row] for row in self.ROWS]
        (v,) = linalg.nullspace(floats)
        expected = [2 / 3, -1 / 3, 1]
        norm = sum(x * x for x in expected) ** 0.5
        assert v == pytest.approx([x / norm for x in expected], rel=1e-9)


class TestDerivedFlag:
    def test_growth_235(self):
        eta1, eta2 = growth_frame()
        flag = derived_flag(Frame(CH5, (eta1, eta2), BASE), box=BOX)
        assert flag.growth == (2, 3, 5)
        assert flag.stabilized
        assert flag.constant_rank

    def test_involutive_stops(self):
        dx = coordinate_field(CH5, "x")
        dy = coordinate_field(CH5, "y")
        flag = derived_flag(Frame(CH5, (dx, dy), BASE))
        assert flag.growth == (2,)
        assert flag.stabilized

    def test_goursat_growth(self):
        # chain system grows one rank at a time: (2, 3, 4, 5)
        ch = Chart(("x", "y", "y1", "y2", "y3"))
        v1 = field_from_strings(ch, ["1", "y1", "y2", "y3", "0"])
        v2 = field_from_strings(ch, ["0", "0", "0", "0", "1"])
        flag = derived_flag(Frame(ch, (v1, v2), ch.origin()))
        assert flag.growth == (2, 3, 4, 5)

    def test_non_constant_rank_detected(self):
        # the bracket vanishes at the base point but not on the box, so
        # the flag computed at the base understates the generic growth
        ch = Chart(("x", "y", "z"))
        v1 = field_from_strings(ch, ["1", "0", "0"])
        v2 = field_from_strings(ch, ["0", "1", "x^2"])
        flag = derived_flag(Frame(ch, (v1, v2), ch.origin()),
                            box=Box.around(ch.origin(), Fraction(1, 2)))
        assert flag.growth == (2,)
        assert not flag.constant_rank
        assert flag.rank_witnesses


class TestReduceMod:
    def test_member(self):
        eta1, eta2 = growth_frame()
        eta3 = lie_bracket(eta1, eta2)
        combo = (eta1 * Const(Fraction(2))) + (eta3 * Const(Fraction(-1, 3)))
        fr = Frame(CH5, (eta1, eta2, eta3), BASE)
        r = reduce_mod(combo, fr, BASE)
        assert r.member
        assert r.coefficients == (Fraction(2), Fraction(0), Fraction(-1, 3))

    def test_non_member_residual(self):
        eta1, eta2 = growth_frame()
        eta3 = lie_bracket(eta1, eta2)
        eta4 = lie_bracket(eta1, eta3)
        fr = Frame(CH5, (eta1, eta2, eta3), BASE)
        r = reduce_mod(eta4, fr, BASE)
        assert not r.member
        assert any(x != 0 for x in r.residual)

    def test_float_point(self):
        eta1, eta2 = growth_frame()
        fr = Frame(CH5, (eta1, eta2), BASE)
        pt = {k: 0.125 for k in CH5.variables}
        r = reduce_mod(eta1, fr, pt)
        assert r.member
        assert r.coefficients[0] == pytest.approx(1.0)


CHX = Chart(("x1", "x2", "x3", "x4", "x5"))


def sample_contact_form():
    comps = tuple(CHX.parse(s) for s in ["0", "-x3", "2*x2", "-x1", "1"])
    return OneForm(CHX, comps)


class TestForms:
    def test_exterior_derivative_values(self):
        alpha = sample_contact_form()
        d = exterior_derivative(alpha)
        assert to_text(d.coefficient(1, 2)) == "3"
        assert to_text(d.coefficient(0, 3)) == "-1"
        assert to_text(d.coefficient(2, 1)) == "-3"
        assert to_text(d.coefficient(0, 1)) == "0"

    def test_pair_one_form(self):
        alpha = sample_contact_form()
        v = field_from_strings(CHX, ["0", "0", "0", "0", "1"])
        assert pair(alpha, v) == Const(Fraction(1))

    def test_invariant_formula(self):
        # d(alpha)(v, w) = v(alpha(w)) - w(alpha(v)) - alpha([v, w])
        rng = random.Random(777)
        for _ in range(8):
            alpha = OneForm(CHX, tuple(
                random_tree(rng, CHX.variables[:3], depth=2)
                for _ in range(5)))
            v = VectorField(CHX, tuple(
                random_tree(rng, CHX.variables[:3], depth=2)
                for _ in range(5)))
            w = VectorField(CHX, tuple(
                random_tree(rng, CHX.variables[:3], depth=2)
                for _ in range(5)))
            lhs = pair(exterior_derivative(alpha), v, w)
            rhs = Sum((v.apply_to(pair(alpha, w)),
                       Prod((Const(Fraction(-1)),
                             w.apply_to(pair(alpha, v)))),
                       Prod((Const(Fraction(-1)),
                             pair(alpha, lie_bracket(v, w))))))
            diff = normalize(Sum((lhs, Prod((Const(Fraction(-1)), rhs)))),
                             CHX.variables)
            assert diff == Const(Fraction(0))

    def test_contact_check(self):
        alpha = sample_contact_form()
        assert check_contact(alpha, CHX.origin())
        assert contact_volume(alpha, CHX.origin()) == -6
        flat = OneForm(CHX, tuple(CHX.parse(s)
                                  for s in ["0", "0", "0", "0", "1"]))
        assert not check_contact(flat, CHX.origin())


class TestCauchy:
    def test_empty_for_growth_frame_derived(self):
        eta1, eta2 = growth_frame()
        eta3 = lie_bracket(eta1, eta2)
        sub = Frame(CH5, (eta1, eta2, eta3), BASE)
        assert cauchy_characteristic_at(sub, sub, BASE) == []

    def test_fiber_direction_on_prolonged_space(self):
        # on the 6-dim prolonged space the fiber direction is the Cauchy
        # characteristic of the rank-3 layer
        chz = CH5.extend("t")
        lift = lambda comps: field_from_strings(chz, comps + ["0"])
        eta1 = lift(["1", "y1", "y2", "0", "y2^2"])
        eta2 = lift(["0", "0", "0", "1", "0"])
        zeta2 = field_from_strings(chz, ["0", "0", "0", "0", "0", "1"])
        base = chz.origin()
        sub = Frame(chz, (eta1, eta2, zeta2), base)
        basis = cauchy_characteristic_at(sub, sub, base)
        assert len(basis) == 1
        assert basis[0] == [Fraction(0), Fraction(0), Fraction(1)]

    def test_containment_required(self):
        eta1, eta2 = growth_frame()
        eta3 = lie_bracket(eta1, eta2)
        sub = Frame(CH5, (eta1, eta3), BASE)
        ambient = Frame(CH5, (eta1, eta2), BASE)
        with pytest.raises(DegenerateFrameError):
            cauchy_characteristic_at(sub, ambient, BASE)

    def test_chart_mismatch(self):
        eta1, eta2 = growth_frame()
        other = Chart(("a", "b", "c", "d", "e"))
        with pytest.raises(ChartMismatchError):
            lie_bracket(eta1, field_from_strings(
                other, ["1", "0", "0", "0", "0"]))

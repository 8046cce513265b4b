"""Vector fields, brackets, flags, forms: exact pointwise linear algebra."""

import dataclasses
import importlib
import inspect
import json
import pkgutil
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

import dist235
from dist235 import (
    conedual, distduality, linalg, paths, scalar, vecfield,
)
from dist235.boxes import Box
from dist235.conedual import build_model, builtin_model, prolong_cone, solve_U
from dist235.models import BUNDLED, parse_model
from dist235.scalar import (
    ZERO, Const, OpaqueRegistry, Prod, Sum, default_registry, normalize,
    parse_expr, to_text,
)
from dist235.vecfield import (
    Chart, ChartError, ChartMismatchError, DegenerateFrameError, Frame,
    OneForm, PointValues, VectorField, _bracket, check_contact,
    coordinate_field, derived_flag, exterior_derivative, lie_bracket, pair,
    rank_at,
)

from helpers import (
    apply_to, contact_volume, count_calls, every_bracket_flag,
    full_width_decompose, on_fresh_charts, random_nf_tree, random_point,
    random_tree, record_evaluations, repeated_evaluations, text_field,
    tree_bracket, tree_coefficient, tree_exterior_derivative, tree_pair,
    zero_field,
)
from test_conedual import opaque_chain

CH5 = Chart(("x", "y", "y1", "y2", "z"))
BASE = CH5.origin()
BOX = Box.around(BASE, Fraction(1, 4))


def growth_frame():
    """Rank-2 frame with growth vector (2, 3, 5)."""
    eta1 = text_field(CH5, ["1", "y1", "y2", "0", "y2^2"], name="eta1")
    eta2 = text_field(CH5, ["0", "0", "0", "1", "0"], name="eta2")
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

    def test_registry_is_part_of_the_chart(self):
        other = Chart(CH5.variables, OpaqueRegistry())
        assert CH5.registry is default_registry()
        assert Chart(CH5.variables, default_registry()) == CH5
        assert hash(Chart(CH5.variables)) == hash(CH5)
        assert other != CH5
        assert other.extend("t").registry is other.registry
        assert "registry" not in repr(CH5)

    def test_fields_on_charts_with_other_registries_do_not_mix(self):
        # equal names, different opaque functions: different charts
        other = Chart(CH5.variables, OpaqueRegistry())
        eta1, eta2 = growth_frame()
        twin = VectorField(other, eta2.components, "eta2")
        with pytest.raises(ChartMismatchError):
            lie_bracket(eta1, twin)
        with pytest.raises(ChartMismatchError):
            eta1 + twin
        with pytest.raises(ChartMismatchError):
            Frame(CH5, (eta1, twin), BASE)
        with pytest.raises(ChartMismatchError):
            eta1.lifted(other.extend("t"))


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
            assert normalize(Sum((c1, c2)), CH5) == Const(Fraction(0))

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
                assert normalize(c, CH5) == Const(Fraction(0))

    def test_leibniz_scaling(self):
        # [v, f w] = f [v, w] + (v f) w
        rng = random.Random(2718)
        for _ in range(10):
            v = self._random_field(rng)
            w = self._random_field(rng)
            f = random_tree(rng, CH5.variables[:3], depth=2)
            lhs = lie_bracket(v, w * f)
            rhs = (lie_bracket(v, w) * f) + (w * apply_to(v, f))
            for c1, c2 in zip(lhs.components, rhs.components):
                diff = normalize(Sum((c1, Prod((Const(Fraction(-1)), c2)))),
                                 CH5)
                assert diff == Const(Fraction(0))

    def test_memoized_on_components_not_names(self):
        eta1, eta2 = growth_frame()
        first = lie_bracket(eta1, eta2)
        misses = _bracket.cache_info().misses
        hits = CH5.memo.cache_info()["vecfield._bracket"].hits
        again = lie_bracket(eta1.renamed("other"),
                            VectorField(CH5, eta2.components))
        assert again == first
        assert _bracket.cache_info().misses == misses
        assert CH5.memo.cache_info()["vecfield._bracket"].hits == hits + 1

    def test_registry_is_part_of_the_key(self):
        # the same opaque name with two derivative rules, f' = 2u and
        # f' = 3u^2, on two charts that differ in their registry only
        texts = []
        for rule in ("2*u", "3*u^2"):
            reg = OpaqueRegistry()
            reg.register("f", evaluator=lambda u: u, derivative=parse_expr(
                rule, ("u",)))
            chart = Chart(CH5.variables, reg)
            dx = coordinate_field(chart, "x")
            w = text_field(chart, ["0", "f(x)", "0", "0", "0"])
            texts.append(to_text(lie_bracket(dx, w).components[1]))
        assert texts == ["2*x", "3*x^2"]

    def test_chart_mismatch(self):
        eta1, eta2 = growth_frame()
        other = Chart(("a", "b", "c", "d", "e"))
        with pytest.raises(ChartMismatchError):
            lie_bracket(eta1, text_field(
                other, ["1", "0", "0", "0", "0"]))


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


class TestSpan:
    """Rational data is decided by the echelon, float data by the
    least-squares rule with its relative tolerance."""

    ROWS = [[Fraction(1), Fraction(2), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(1, 3)]]

    def test_rational_vector_is_exact(self):
        span = linalg.Span(self.ROWS)
        assert span.contains([2, 7, 1])
        assert span.residual([2, 7, 1]) is None
        near = [Fraction(1), Fraction(2), Fraction(10 ** -12)]
        assert not span.contains(near)
        assert span.residual(near) == \
            linalg.ExactSpan(self.ROWS).residual(near)

    def test_float_vector_uses_the_tolerance(self):
        span = linalg.Span(self.ROWS)
        assert span.contains([1.0, 2.0, 1e-12])
        assert span.residual([2.0, 7.0, 1.0]) is None
        assert not span.contains([1.0, 2.0, 1e-3])
        residual = span.residual([1.0, 2.0, 1e-3])
        assert residual is not None
        assert max(abs(x) for x in residual) > 1e-4

    def test_nullspace_dispatch(self):
        assert linalg.nullspace(self.ROWS) == linalg.exact_nullspace(
            self.ROWS)
        floats = [[float(x) for x in row] for row in self.ROWS]
        (v,) = linalg.nullspace(floats)
        expected = [2 / 3, -1 / 3, 1]
        norm = sum(x * x for x in expected) ** 0.5
        assert v == pytest.approx([x / norm for x in expected], rel=1e-9)


class TestZeroValue:
    def test_one_value_follows_the_rank_rule(self):
        values = (0, Fraction(0), 0.0, -0.0, Fraction(1, 10 ** 30), 1e-300,
                  -2, float("inf"), float("nan"))
        assert [linalg.is_zero_value(x) for x in values] == \
            [linalg.matrix_rank([[x]]) == 0 for x in values] == \
            [True] * 4 + [False] * 5


class TestLargestNonzero:
    """`linalg.largest_nonzero`, the pivot rule of `symbolic_decompose`
    and `solve_e`."""

    def test_first_index_wins_a_tie(self):
        assert linalg.largest_nonzero([1, -3, 3, Fraction(-3)]) == 1
        assert linalg.largest_nonzero([0.75, Fraction(3, 4)]) == 0

    def test_zeros_are_skipped(self):
        assert linalg.largest_nonzero(
            [0, 0.0, -0.0, Fraction(0), Fraction(1, 10 ** 30)]) == 4
        assert linalg.largest_nonzero([Fraction(0), 0.0, -2]) == 2

    def test_none_when_every_value_is_zero(self):
        assert linalg.largest_nonzero([0, 0.0, Fraction(0), -0.0]) is None
        assert linalg.largest_nonzero([]) is None

    def test_fractions_and_floats_mix(self):
        assert linalg.largest_nonzero(
            [Fraction(1, 3), 0.5, Fraction(-2, 3), 0.25]) == 2
        assert linalg.largest_nonzero([Fraction(1, 3), -0.5]) == 1


class TestFloatQR:
    """The float fallbacks (one pivoted Householder QR) agree with
    numpy's SVD rank, least squares and nullspace on seeded matrices,
    full rank and rank deficient, at scales from 1e-6 to 1e6."""

    @staticmethod
    def matrices():
        rng = random.Random(8080)
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            for _ in range(40):
                n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 8)
                rank = rng.randint(0, min(n_rows, n_cols))
                left = np.array([[rng.gauss(0, 1) for _ in range(rank)]
                                 for _ in range(n_rows)])
                right = np.array([[rng.gauss(0, 1) for _ in range(n_cols)]
                                  for _ in range(rank)])
                a = left.reshape(n_rows, rank) @ right.reshape(rank, n_cols)
                yield rng, scale * a, rank

    def test_rank(self):
        for _, a, rank in self.matrices():
            assert linalg.float_rank(a.tolist()) == rank \
                == np.linalg.matrix_rank(a)

    def test_membership_residual(self):
        for rng, a, _ in self.matrices():
            b = np.array([rng.gauss(0, 1) for _ in range(a.shape[1])])
            b *= float(np.max(np.abs(a))) or 1.0
            span = linalg.Span(a.tolist())
            qr = linalg._FloatQR(a.tolist(), a.shape[1])
            x = np.linalg.lstsq(a.T, b, rcond=None)[0]
            want = b - a.T @ x
            size = max(1.0, float(np.linalg.norm(b)))
            # the fitted vector is unique even where the coefficients
            # are not
            fitted = a.T @ np.array(qr.least_squares(b.tolist()))
            assert np.allclose(fitted, a.T @ x, rtol=0, atol=1e-9 * size)
            residual = span.residual(b.tolist())
            if residual is None:
                assert np.linalg.norm(want) <= 1e-9 * size
            else:
                assert np.allclose(residual, want, rtol=0,
                                   atol=1e-9 * size)
            member = a.T @ x
            assert span.residual(member.tolist()) is None
            coeffs = qr.least_squares(member.tolist())
            assert np.allclose(a.T @ np.array(coeffs), member,
                               rtol=0, atol=1e-9 * size)

    def test_nullspace_span(self):
        for _, a, rank in self.matrices():
            basis = linalg.float_nullspace(a.tolist())
            assert len(basis) == a.shape[1] - rank
            if not basis:
                continue
            got = np.array(basis)
            assert np.allclose(got @ got.T, np.eye(len(basis)),
                               atol=1e-12)
            for v in basis:
                big = max(range(len(v)), key=lambda i: abs(v[i]))
                assert v[big] > 0
            want = np.linalg.svd(a)[2][rank:]
            # equal spans have equal orthogonal projectors
            assert np.allclose(got.T @ got, want.T @ want, atol=1e-9)

    def test_non_finite_entries_are_not_zero(self):
        assert linalg.float_rank([[float("nan")]]) == 1
        assert linalg.float_rank([[float("inf")]]) == 1
        assert linalg.float_rank([[1e-300]]) == 1
        assert linalg.float_rank([[0.0, 0.0]]) == 0
        assert linalg.Span([[1.0, 0.0]]).residual(
            [float("nan"), 0.0]) is not None


class TestDerivedFlag:
    def test_growth_235(self):
        eta1, eta2 = growth_frame()
        flag = derived_flag(Frame(CH5, (eta1, eta2), BASE), box=BOX)
        assert flag.growth == (2, 3, 5)
        assert flag.constant_rank

    def test_involutive_stops(self):
        dx = coordinate_field(CH5, "x")
        dy = coordinate_field(CH5, "y")
        flag = derived_flag(Frame(CH5, (dx, dy), BASE))
        assert flag.growth == (2,)

    def test_goursat_growth(self):
        # chain system grows one rank at a time: (2, 3, 4, 5)
        ch = Chart(("x", "y", "y1", "y2", "y3"))
        v1 = text_field(ch, ["1", "y1", "y2", "y3", "0"])
        v2 = text_field(ch, ["0", "0", "0", "0", "1"])
        flag = derived_flag(Frame(ch, (v1, v2), ch.origin()))
        assert flag.growth == (2, 3, 4, 5)

    def test_non_constant_rank_detected(self):
        # the bracket vanishes at the base point but not on the box, so
        # the flag computed at the base understates the generic growth
        ch = Chart(("x", "y", "z"))
        v1 = text_field(ch, ["1", "0", "0"])
        v2 = text_field(ch, ["0", "1", "x^2"])
        flag = derived_flag(Frame(ch, (v1, v2), ch.origin()),
                            box=Box.around(ch.origin(), Fraction(1, 2)))
        assert flag.growth == (2,)
        assert not flag.constant_rank
        assert flag.rank_witnesses

    @pytest.mark.parametrize("box", [None, BOX], ids=["base", "box"])
    def test_each_field_evaluated_once_per_point(self, monkeypatch, box):
        eta1, eta2 = growth_frame()
        frame = Frame(CH5, (eta1, eta2), BASE)
        calls = record_evaluations(monkeypatch)
        flag = derived_flag(frame, box=box)
        assert flag.growth == (2, 3, 5)
        assert repeated_evaluations(calls) == []
        # the five flag fields at each of the 16 sample points
        base = tuple(sorted(BASE.items()))
        assert sum(pt != base for _, pt in calls) == \
            (0 if box is None else 16 * 5)


class TestReduceMod:
    """Reduction modulo a frame at a point: `PointValues.residual` is None
    for a member and the nonzero residual vector otherwise."""

    def test_member(self):
        eta1, eta2 = growth_frame()
        eta3 = lie_bracket(eta1, eta2)
        combo = (eta1 * Const(Fraction(2))) + (eta3 * Const(Fraction(-1, 3)))
        fr = Frame(CH5, (eta1, eta2, eta3), BASE)
        at = PointValues(BASE)
        assert at.residual(combo, fr) is None
        assert at.member(combo, fr)

    def test_non_member_residual(self):
        eta1, eta2 = growth_frame()
        eta3 = lie_bracket(eta1, eta2)
        eta4 = lie_bracket(eta1, eta3)
        fr = Frame(CH5, (eta1, eta2, eta3), BASE)
        at = PointValues(BASE)
        residual = at.residual(eta4, fr)
        assert residual is not None and any(x != 0 for x in residual)
        assert not at.member(eta4, fr)
        # the residual is eta4(BASE) minus its part in the frame's span
        span = linalg.Span([at.value(f) for f in fr.fields])
        assert residual == tuple(span.residual(at.value(eta4)))

    def test_float_point(self):
        eta1, eta2 = growth_frame()
        fr = Frame(CH5, (eta1, eta2), BASE)
        pt = {k: 0.125 for k in CH5.variables}
        at = PointValues(pt)
        assert at.residual(eta1, fr) is None
        assert at.residual(lie_bracket(eta1, eta2), fr) is not None


class TestFieldCombination:
    """v + w * s, normalized: the one way fields are combined."""

    def test_components_are_the_normalized_combination(self):
        eta1, eta2 = growth_frame()
        v = lie_bracket(eta1, eta2)
        w = lie_bracket(eta1, v)
        s = parse_expr("y2^2 - 3*x/2", CH5.variables)
        combo = (v + w * s).normalized("combo")
        assert combo.name == "combo" and combo.chart == CH5
        for c, a, b in zip(combo.components, v.components, w.components):
            assert c == normalize(Sum((a, Prod((s, b)))), CH5)

    def test_rational_factor_is_a_constant(self):
        eta1, eta2 = growth_frame()
        combo = (eta1 + eta2 * Fraction(1, 8)).normalized("combo")
        assert [to_text(c) for c in combo.components] == \
            ["1", "y1", "y2", "8^-1", "y2^2"]

    def test_fields_on_different_charts_rejected(self):
        eta1, _ = growth_frame()
        other = coordinate_field(Chart(("x1", "x2", "x3", "x4", "x5")), "x1")
        with pytest.raises(ChartMismatchError):
            eta1 + other
        with pytest.raises(ChartMismatchError):
            eta1 + other * parse_expr("x2", other.chart.variables)


class TestSymbolicDecompose:
    def test_no_targets_give_no_coefficients(self):
        basis = tuple(coordinate_field(CH5, v) for v in CH5.variables)
        assert vecfield.symbolic_decompose((), basis, BASE) == ()
        assert vecfield.symbolic_decompose([], growth_frame(), BASE) == ()


def _bc_opaque():
    # evaluated as b = th^3, c = (3/2)*th^4, which satisfy the condition
    return (opaque_chain("B", ("u^3", "3*u^2", "6*u", "6"), "0")
            + opaque_chain("C", ("3/2*u^4", "6*u^3", "18*u^2", "36*u"),
                           "36"))


# (bundled document, expressions in place of its own, opaque functions)
LIVE_WORK_MODELS = [
    ("hilbert-cartan", None, []),
    ("flat-cone", None, []),
    ("cubic-a", None, []),
    ("noncubic-bc", None, []),
    ("noncubic-bc-violating", None, []),
    ("cubic-a", {"a": "F(x1)"}, opaque_chain("F", ("u^2", "2*u", "2"), "0")),
    ("noncubic-bc", {"b": "B(th)", "c": "C(th)"}, _bc_opaque()),
    ("cubic-a", {"a": "x1^2/(1+x1)"}, []),
    ("noncubic-bc", {"b": "th^3", "c": "th^4/(1+th)"}, []),
]


def live_work_cases(name, expressions, opaque):
    """The flags (generators, box) and decompositions (targets, basis,
    base point) the program derives for one model: a cone family's flag
    only when `prolong_cone` derives it, after the osculating condition
    holds."""
    doc = dict(BUNDLED[name])
    if expressions is not None:
        doc.update(expressions=expressions, opaque=opaque)
    model = build_model(parse_model(json.dumps(doc), name))
    if isinstance(model, distduality.Distribution235):
        prolonged = distduality.prolong_235(model)
        flags = [(Frame(model.chart, (model.eta1, model.eta2),
                        model.base_point), model.box),
                 (Frame(prolonged.z_chart,
                        (prolonged.zeta1, prolonged.zeta2),
                        prolonged.base_point), prolonged.box)]
        targets = [lie_bracket(z, w)
                   for w in prolonged.flag.frames[3].fields
                   for z in (prolonged.zeta1, prolonged.zeta2)]
        decompositions = [(targets, prolonged.flag.frames[4].fields,
                           prolonged.base_point)]
    else:
        flags = []
        if conedual.check_osculating_condition(model).passed:
            flags.append((Frame(model.z_chart,
                                (model.zeta(1), model.zeta(2)),
                                model.base_point), model.box))
        bracket = lie_bracket(model.zeta(2), model.zeta(3))
        decompositions = [((bracket,), conedual._full_frame(model)[0],
                           model.base_point)]
    return flags, decompositions


def flag_summary(flag):
    return ([[(f.name, tuple(to_text(c) for c in f.components))
              for f in frame.fields] for frame in flag.frames],
            flag.growth, flag.constant_rank, flag.rank_witnesses)


def same_flag(generators, box):
    """The flag and its reference, each derived on a fresh chart."""
    flag = derived_flag(on_fresh_charts(generators), box=box)
    reference = every_bracket_flag(on_fresh_charts(generators), box=box)
    assert flag_summary(flag) == flag_summary(reference)
    return flag


class TestOnlyLiveWork:
    """The derived flag without self, mirror and surplus brackets, and
    `symbolic_decompose` on live columns only, give what the loops that
    do all the work give (`helpers.every_bracket_flag`,
    `helpers.full_width_decompose`), to the printed byte."""

    @pytest.mark.parametrize("name, expressions, opaque", LIVE_WORK_MODELS)
    def test_flags_and_decompositions_match_the_full_loops(
            self, name, expressions, opaque):
        flags, decompositions = live_work_cases(name, expressions, opaque)
        for generators, box in flags:
            same_flag(generators, box)
        for targets, basis, base in decompositions:
            live = vecfield.symbolic_decompose(
                *on_fresh_charts((targets, basis)), base)
            full = full_width_decompose(
                *on_fresh_charts((targets, basis)), base)
            assert [[to_text(c) for c in coeffs] for coeffs in live] == \
                [[to_text(c) for c in coeffs] for coeffs in full]

    def test_opaque_models_rank_float_rows(self):
        # the per-frame ranks that float rows keep are really run
        flags, _ = live_work_cases(*LIVE_WORK_MODELS[6])
        (generators, box), = flags
        at = PointValues(box.sample_points(1)[0])
        assert at.row(generators.fields[1]).ints is None

    def test_non_constant_rank_frame_matches(self):
        ch = Chart(("x", "y", "z"))
        v1 = text_field(ch, ["1", "0", "0"])
        v2 = text_field(ch, ["0", "1", "x^2"])
        flag = same_flag(Frame(ch, (v1, v2), ch.origin()),
                         Box.around(ch.origin(), Fraction(1, 2)))
        assert flag.rank_witnesses

    def test_rank_loss_at_a_halton_point_matches(self):
        # [v1, v2] = (0, 0, x - p) spans at the base point and vanishes
        # at the fourth Halton point, where the top frame loses rank
        ch = Chart(("x", "y", "z"))
        box = Box.around(ch.origin(), Fraction(1, 2))
        p = box.sample_points(16)[3]["x"]
        assert p != 0
        v1 = text_field(ch, ["1", "0", "0"])
        v2 = text_field(ch, ["0", "1", f"(x - ({p}))^2/2"])
        flag = same_flag(Frame(ch, (v1, v2), ch.origin()), box)
        assert flag.growth == (2, 3)
        assert [(k, r) for k, _, r in flag.rank_witnesses] == [(1, 2)]

    def test_self_bracket_is_the_fold_and_folds_nothing(self):
        rng = random.Random(20261019)
        for _ in range(10):
            comps = tuple(random_tree(rng, CH5.variables[:3], depth=2)
                          for _ in range(CH5.dimension))
            chart = on_fresh_charts(CH5)
            v = VectorField(chart, comps)
            misses = _bracket.cache_info().misses
            zero = lie_bracket(v, VectorField(chart, comps, "copy"))
            assert _bracket.cache_info().misses == misses
            folded = _bracket(chart, comps, comps)
            assert zero.components == folded
            assert all(c is ZERO for c in zero.components)

    def test_a_pass_stops_when_its_frame_fills_the_chart(self):
        # Engel: [g1, g2] fills layer 1 and [g1, g3] the chart, so
        # [g2, g1] (a mirror), [g2, g2] (a self-bracket) and [g2, g3]
        # (after the frame is full) are never folded
        ch = Chart(("x", "y", "y1", "y2"))
        g1 = text_field(ch, ["1", "y1", "y2", "0"])
        g2 = text_field(ch, ["0", "0", "0", "1"])
        misses = _bracket.cache_info().misses
        flag = derived_flag(Frame(ch, (g1, g2), ch.origin()))
        assert _bracket.cache_info().misses - misses == 2
        assert flag.growth == (2, 3, 4)

    def test_prolong_cone_brackets_only_what_can_grow_the_flag(self):
        # [zeta1, zeta1], [zeta2, zeta2] and [zeta2, zeta1] are no
        # longer folded: 9 -> 6 brackets; and the brackets, and the
        # exterior derivative and pairings of the Lagrangian check, fold
        # on records, with no normal-form lookup: 31 -> 5 -> 0 normal
        # forms
        family = builtin_model("noncubic-bc")
        solve_U(family)
        brackets = _bracket.cache_info().misses
        forms = scalar._normal_form.cache_info().misses
        prolong_cone(family)
        assert _bracket.cache_info().misses - brackets == 6
        assert scalar._normal_form.cache_info().misses - forms == 0

    def test_a_pass_brackets_only_the_fields_new_to_its_frame(
            self, monkeypatch):
        # pass k brackets the generators with the fields pass k-1 added:
        # 9 brackets asked for where every field of the frame gave 24,
        # and the same frames
        family = builtin_model("noncubic-bc")
        solve_U(family)
        calls = count_calls(monkeypatch, vecfield, "lie_bracket")
        structure = prolong_cone(family)
        assert len(calls) == 9
        reference = every_bracket_flag(
            on_fresh_charts(structure.flag.frames[0]), box=structure.box)
        assert flag_summary(structure.flag) == flag_summary(reference)


def unit_if(condition):
    return scalar.ONE if condition else ZERO


def chained_registry() -> OpaqueRegistry:
    # F' = F1, F1' = F2, F2' = 6: a derivative chain through names
    reg = OpaqueRegistry()
    reg.register("F", lambda u: u ** 3, derivative="F1")
    reg.register("F1", lambda u: 3 * u ** 2, derivative="F2")
    reg.register("F2", lambda u: 6 * u, derivative=Const(Fraction(6)))
    return reg


def random_component(rng, chart, opaques=("F", "F1")):
    """A component that normalizes on `chart`: now and then the constant
    1/2 (printed `2^-1`) or 0, else a random tree with rational
    constants, quotients and opaque applications, kept as parsed or
    normalized (so that it carries its normal form when it can)."""
    while True:
        roll = rng.random()
        if roll < 0.1:
            return Const(Fraction(1, 2))
        if roll < 0.2:
            return ZERO
        tree = random_nf_tree(rng, chart.variables,
                              opaques if rng.random() < 0.3 else (),
                              depth=2)
        try:
            normal = normalize(tree, chart)
        except scalar.ZeroDenominatorError:
            continue
        return normal if rng.random() < 0.7 else tree


def outcome(function, *args):
    """The printed components of what `function(*args)` returns with the
    fields and charts of `args` on fresh charts, or the type and message
    of the error it raises."""
    try:
        result = function(*on_fresh_charts(args))
    except (ArithmeticError, scalar.ExprError,
            DegenerateFrameError) as exc:
        return type(exc), str(exc)
    if isinstance(result, VectorField):
        return [to_text(c) for c in result.components]
    return [[to_text(c) for c in coeffs] for coeffs in result]


class TestRecordFold:
    """`lie_bracket` and `symbolic_decompose` fold on records and print
    only what they return: each must print what the tree folds print
    (`helpers.tree_bracket`, `helpers.full_width_decompose`), to the
    byte."""

    @pytest.mark.parametrize("dimension", (3, 4, 5))
    def test_bracket_equals_the_tree_fold(self, dimension):
        rng = random.Random(20261023 + dimension)
        chart = Chart(tuple(f"x{k}" for k in range(1, dimension + 1)),
                      chained_registry())
        kinds = set()
        for _ in range(30):
            v, w = (VectorField(chart, tuple(
                random_component(rng, chart)
                for _ in range(dimension))) for _ in range(2))
            got = outcome(lie_bracket, v, w)
            assert got == outcome(
                tree_bracket, chart, v.components, w.components)
            kinds.update("rational" if "^-" in text else
                         "opaque" if "F" in text else "polynomial"
                         for text in got)
        assert kinds == {"rational", "opaque", "polynomial"}

    @pytest.mark.parametrize("dimension", (3, 4))
    def test_decomposition_equals_the_full_width_loop(self, dimension):
        # a basis that is the identity plus a random field times a
        # coordinate, at a random rational base point, and random targets
        rng = random.Random(20261024 + dimension)
        chart = Chart(tuple(f"x{k}" for k in range(1, dimension + 1)),
                      chained_registry())
        decided, kinds = 0, set()
        for _ in range(12):
            basis = []
            for k in range(dimension):
                comps = [unit_if(j == k) for j in range(dimension)]
                i = rng.randrange(dimension)
                comps[i] = Sum((comps[i], Prod((
                    scalar.Var(rng.choice(chart.variables)),
                    random_component(rng, chart, ("F",))))))
                basis.append(VectorField(chart, tuple(comps)))
            targets = [VectorField(chart, tuple(
                random_component(rng, chart, ("F",))
                for _ in range(dimension))) for _ in range(2)]
            base = random_point(rng, chart.variables, Fraction(1, 4), 8)
            got = outcome(vecfield.symbolic_decompose, targets, basis, base)
            assert got == outcome(full_width_decompose, targets, basis, base)
            if isinstance(got, list):
                decided += 1
                kinds.update("opaque" if "F" in text else "rational"
                             for row in got for text in row if "^-" in text
                             or "F" in text)
        assert decided >= 8 and kinds == {"rational", "opaque"}

    def test_a_bracket_miss_prints_one_tree_per_component(self, monkeypatch):
        chart = Chart(("x", "y", "z", "u"))
        v = text_field(chart, ("1", "y/(1 + x)", "x^2*z", "1/2"))
        w = text_field(chart, ("z", "0", "x*y - u", "y^2")).normalized("w")
        printed = count_calls(monkeypatch, scalar, "_quotient_tree")
        misses = _bracket.cache_info().misses
        bracket = lie_bracket(v, w)
        assert _bracket.cache_info().misses == misses + 1
        assert len(printed) == chart.dimension
        assert [to_text(c) for c in bracket.components] == \
            outcome(tree_bracket, chart, v.components, w.components)

    def test_a_decomposition_prints_only_its_coefficients(self, monkeypatch):
        chart = Chart(("x", "y", "z"))
        basis = [text_field(chart, texts) for texts in (
            ("1", "x", "0"), ("y", "1/(1 - x)", "z^2"), ("0", "x*z", "2"))]
        targets = [text_field(chart, texts) for texts in (
            ("x^2", "1", "y"), ("1/2", "0", "x - z"))]
        base = {"x": Fraction(1, 3), "y": Fraction(-1, 2), "z": Fraction(1)}
        printed = count_calls(monkeypatch, scalar, "_quotient_tree")
        coeffs = vecfield.symbolic_decompose(targets, basis, base)
        assert len(printed) == chart.dimension * len(targets)
        assert [[to_text(c) for c in row] for row in coeffs] == outcome(
            full_width_decompose, targets, basis, base)

    @pytest.mark.parametrize("dimension", (3, 4, 5))
    def test_forms_equal_the_tree_fold(self, dimension):
        # the same random one-form and fields on two fresh charts: one
        # for the record folds, one for the tree folds
        rng = random.Random(20261024 + 10 * dimension)
        chart = Chart(tuple(f"x{k}" for k in range(1, dimension + 1)),
                      chained_registry())
        square = [(i, j) for i in range(dimension) for j in range(dimension)]
        kinds = set()
        for _ in range(12):
            comps = [tuple(random_component(rng, chart)
                           for _ in range(dimension)) for _ in range(3)]
            (alpha, v, w), (t_alpha, t_v, t_w) = (
                (OneForm(fresh, comps[0]), VectorField(fresh, comps[1]),
                 VectorField(fresh, comps[2]))
                for fresh in (on_fresh_charts(chart), on_fresh_charts(chart)))
            d = exterior_derivative(alpha)
            t_d = tree_exterior_derivative(t_alpha)
            assert sorted(d.components) == sorted(t_d.components)
            got = [to_text(d.coefficient(i, j)) for i, j in square]
            assert got == [to_text(tree_coefficient(t_d, i, j))
                           for i, j in square]
            got += [to_text(pair(alpha, v)), to_text(pair(d, v, w))]
            assert got[-2:] == [to_text(tree_pair(t_alpha, t_v)),
                                to_text(tree_pair(t_d, t_v, t_w))]
            kinds.update("rational" if "^-" in text else
                         "opaque" if "F" in text else "polynomial"
                         for text in got)
        assert kinds == {"rational", "opaque", "polynomial"}

    def test_forms_print_only_what_they_return(self, monkeypatch):
        chart = Chart(("x", "y", "z"))
        alpha = OneForm(chart, tuple(
            parse_expr(text, chart.variables)
            for text in ("y/(1 + x)", "x^2*z", "1/2")))
        v = text_field(chart, ("1", "y/(1 + x)", "x^2*z"))
        w = text_field(chart, ("z", "0", "x*y - 1"))
        printed = count_calls(monkeypatch, scalar, "_quotient_tree")
        d = exterior_derivative(alpha)
        assert len(printed) == len(d.components) == 2  # d(alpha)_02 = 0
        pair(d, v, w)
        pair(alpha, v)
        d.coefficient(2, 0)
        assert len(printed) == 5


CHX = Chart(("x1", "x2", "x3", "x4", "x5"))


def sample_contact_form():
    comps = tuple(parse_expr(s, CHX.variables)
                  for s in ["0", "-x3", "2*x2", "-x1", "1"])
    return OneForm(CHX, comps)


class TestForms:
    def test_exterior_derivative_values(self):
        alpha = sample_contact_form()
        d = exterior_derivative(alpha)
        assert to_text(d.coefficient(1, 2)) == "3"
        assert to_text(d.coefficient(0, 3)) == "-1"
        assert to_text(d.coefficient(2, 1)) == "-3"
        assert to_text(d.coefficient(0, 1)) == "0"

    def test_components_normalized_on_construction(self):
        comps = tuple(parse_expr(s, CHX.variables)
                      for s in ["0", "x3*(-1)", "x2 + x2", "-x1", "1"])
        alpha = OneForm(CHX, comps)
        assert alpha.components == tuple(normalize(c, CHX)
                                         for c in comps)
        assert alpha == sample_contact_form()

    def test_pair_one_form(self):
        alpha = sample_contact_form()
        v = text_field(CHX, ["0", "0", "0", "0", "1"])
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
            rhs = Sum((apply_to(v, pair(alpha, w)),
                       Prod((Const(Fraction(-1)),
                             apply_to(w, pair(alpha, v)))),
                       Prod((Const(Fraction(-1)),
                             pair(alpha, lie_bracket(v, w))))))
            diff = normalize(Sum((lhs, Prod((Const(Fraction(-1)), rhs)))),
                             CHX)
            assert diff == Const(Fraction(0))

    def test_contact_check(self):
        alpha = sample_contact_form()
        assert check_contact(alpha, CHX.origin())
        assert contact_volume(alpha, CHX.origin()) == -6
        flat = OneForm(CHX, tuple(parse_expr(s, CHX.variables)
                                  for s in ["0", "0", "0", "0", "1"]))
        assert not check_contact(flat, CHX.origin())

    def test_contact_rule_is_relative(self):
        # The standard form scaled by 1e-4 through an opaque coefficient:
        # its volume is about 6e-12, yet it is as much a contact form.
        reg = OpaqueRegistry()
        reg.register("s", evaluator=lambda u: 1e-4,
                     derivative=parse_expr("0", ()))
        chart = Chart(CHX.variables, reg)
        alpha = OneForm(chart, tuple(
            parse_expr(f"s(x1)*({c})", chart.variables, reg)
            for c in ["0", "-x3", "2*x2", "-x1", "1"]))
        vol = contact_volume(alpha, chart.origin())
        assert isinstance(vol, float) and 0 < abs(vol) < 1e-11
        assert check_contact(alpha, chart.origin())

    def test_contact_decision_matches_the_volume(self):
        rng = random.Random(4242)
        verdicts = []
        for _ in range(100):
            alpha = OneForm(CHX, tuple(
                random_tree(rng, CHX.variables[:3], depth=2)
                for _ in range(5)))
            point = random_point(rng, CHX.variables)
            contact = check_contact(alpha, point)
            assert contact == (contact_volume(alpha, point) != 0)
            verdicts.append(contact)
        assert 0 < verdicts.count(False) < len(verdicts)


def public_signatures(module):
    """(label, signature) of each public function of the module and of
    each public method of its public classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(
                obj, "__module__", None) != module.__name__:
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members = [(f"{name}.{attr}", getattr(obj, attr))
                       for attr in vars(obj) if not attr.startswith("_")]
        for label, fn in members:
            if callable(fn):
                yield f"{module.__name__}.{label}", inspect.signature(fn)


def test_no_public_function_takes_rtol():
    # the one tolerance for rank and membership decisions is linalg's
    # constant; only the two integrators take step tolerances, because
    # the duality check passes its own
    offenders = [
        label
        for module in (vecfield, distduality, conedual, linalg, paths)
        for label, sig in public_signatures(module)
        if "rtol" in sig.parameters]
    assert offenders == ["dist235.paths.integrate_flow",
                         "dist235.paths.integrate_biextremal"]


def test_only_the_chart_carries_a_registry():
    # the opaque functions of a model travel with the chart its fields
    # live on, never as a second argument or field beside it
    offenders = set()
    for module in (vecfield, distduality, conedual, paths):
        offenders.update(label for label, sig in public_signatures(module)
                         if "registry" in sig.parameters)
        for name, obj in vars(module).items():
            if (name.startswith("_") or not inspect.isclass(obj)
                    or obj.__module__ != module.__name__
                    or issubclass(obj, Exception)):
                continue
            label = f"{module.__name__}.{name}.registry"
            if "registry" in inspect.signature(obj).parameters:
                offenders.add(label)
            if dataclasses.is_dataclass(obj) and "registry" in {
                    f.name for f in dataclasses.fields(obj)}:
                offenders.add(label)
    assert offenders == {"dist235.vecfield.Chart.registry"}


def test_no_public_function_takes_arbitrary_keywords():
    modules = [importlib.import_module(f"dist235.{info.name}")
               for info in pkgutil.iter_modules(dist235.__path__)]
    assert len(modules) >= 8
    offenders = [
        label for module in modules
        for label, sig in public_signatures(module)
        if any(p.kind is p.VAR_KEYWORD for p in sig.parameters.values())]
    assert offenders == []

"""Expression engine: grammar, normal form, calculus, zero testing."""

import random
from fractions import Fraction

import pytest

from dist235 import scalar
from dist235.boxes import Box
from dist235.scalar import (
    Const, Opaque, OpaqueRegistry, ParseError, Pow, Prod, Sum,
    UndeclaredVariableError, UnknownSymbolError, UnregisteredOpaqueError, Var,
    ZeroDenominatorError, compile_expr, differentiate, evaluate, is_zero,
    min_degree, normalize, parse_expr, substitute, to_text,
)

from helpers import random_point, random_tree

CHART = ("x1", "x2", "x3", "x4", "x5")
BOX = Box.around({v: 0 for v in CHART}, Fraction(1, 4))


def make_registry():
    reg = OpaqueRegistry()
    reg.register("a", lambda u: u ** 3, derivative="a1")
    reg.register("a1", lambda u: 3 * u ** 2, derivative="a2")
    reg.register("a2", lambda u: 6 * u, derivative=Const(Fraction(6)))
    return reg


# ---------------------------------------------------------------------------
# parsing and printing

class TestParse:
    def test_basic_structure(self):
        e = parse_expr("x1^2*x2 - 3/4*x3", CHART)
        assert isinstance(e, Sum)
        assert len(e.terms) == 2
        first = e.terms[0]
        assert isinstance(first, Prod)
        assert first.factors[0] == Pow(Var("x1"), 2)

    def test_rational_literal(self):
        assert parse_expr("3/4", CHART) == Const(Fraction(3, 4))
        assert parse_expr("-3/4", CHART) == Const(Fraction(-3, 4))
        # division with a non-literal numerator stays a product
        e = parse_expr("x1/2", CHART)
        assert e == Prod((Var("x1"), Const(Fraction(1, 2))))

    def test_negative_exponent(self):
        e = parse_expr("x1^-2", CHART)
        assert e == Pow(Var("x1"), -2)

    def test_unary_minus_folds_into_constants(self):
        assert parse_expr("-5", CHART) == Const(Fraction(-5))
        e = parse_expr("-2*x1", CHART)
        assert e == Prod((Const(Fraction(-2)), Var("x1")))

    def test_opaque_application(self):
        reg = make_registry()
        e = parse_expr("a(x1 + x2)", CHART, reg)
        assert e == Opaque("a", Sum((Var("x1"), Var("x2"))))

    def test_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x1 +", ["x1"])
        assert err.value.offset == 4

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            parse_expr("x1 + q", CHART)
        with pytest.raises(UnknownSymbolError):
            parse_expr("q(x1)", CHART, OpaqueRegistry())

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("x1 x2", CHART)
        with pytest.raises(ParseError):
            parse_expr("x1^2^3", CHART)

    def test_bad_character(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x1 + $", CHART)
        assert err.value.offset == 5


PRINT_PARSE_CORPUS = [
    "0", "1", "-1", "7/3", "-7/3", "x1", "-x1", "x1 + x2", "x1 - x2",
    "x1*x2*x3", "x1/x2", "2/3*x1 - x2^2", "x1^-1", "(x1 + x2)^3",
    "(x1 + x2)*(x1 - x2)", "-2*x1 + 3*x2 - 1/2", "x1 - -x2", "-(x1 + x2)",
    "x1*(x2 + x3)^-2", "1/2*x1^2 - 1/3*x2*x3 + x4^5", "a(x1)",
    "a(x1 + 1/2)*x2 - a1(x3)^2", "x1 - 2*(x2 - x3)", "((x1))",
    "x1^2*x2^3*x3^4", "3 - x1", "-3*x1^2 + x2 - -2",
]


class TestPrintParse:
    @pytest.mark.parametrize("text", PRINT_PARSE_CORPUS)
    def test_corpus_round_trip(self, text):
        reg = make_registry()
        tree = parse_expr(text, CHART, reg)
        printed = to_text(tree)
        again = parse_expr(printed, CHART, reg)
        assert again == tree, f"{text!r} -> {printed!r} reparsed differently"

    def test_random_trees_round_trip(self):
        rng = random.Random(20260822)
        reg = make_registry()
        for _ in range(200):
            tree = random_tree(rng, CHART, depth=4, allow_quotients=True,
                               opaques=("a", "a1"))
            printed = to_text(tree)
            reparsed = parse_expr(printed, CHART, reg)
            # printing a parser-shaped tree is exact; arbitrary trees agree
            # after normalization
            try:
                assert normalize(reparsed, CHART) == normalize(tree, CHART)
            except ZeroDenominatorError:
                pass
            # and from then on the round trip is exact
            assert parse_expr(to_text(reparsed), CHART, reg) == reparsed


# ---------------------------------------------------------------------------
# normalization

class TestNormalize:
    def test_expansion_cancels(self):
        e = parse_expr("(x1 + x2)^2 - x1^2 - 2*x1*x2 - x2^2", CHART)
        assert normalize(e, CHART) == Const(Fraction(0))

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(100):
            tree = random_tree(rng, CHART, depth=4, allow_quotients=True)
            try:
                n1 = normalize(tree, CHART)
            except ZeroDenominatorError:
                continue
            assert normalize(n1, CHART) == n1

    def test_graded_lex_order(self):
        # higher total degree first; ties broken by earlier chart variable
        e = parse_expr("x2 + x1 + x2^2 + x1*x2", CHART)
        assert to_text(normalize(e, CHART)) == "x1*x2 + x2^2 + x1 + x2"

    def test_quotient_normal_form(self):
        e = parse_expr("x1/(x2 + 1) + x2/(x2 + 1)", CHART)
        assert to_text(normalize(e, CHART)) == "(x1 + x2)*(x2 + 1)^-1"

    def test_content_is_coprime(self):
        e = parse_expr("(2*x1 + 2*x2)/(4*x3)", CHART)
        assert to_text(normalize(e, CHART)) == "(x1 + x2)*(2*x3)^-1"

    def test_zero_denominator_detected(self):
        e = parse_expr("1/(x1 - x1)", CHART)
        with pytest.raises(ZeroDenominatorError):
            normalize(e, CHART)

    def test_strict_mode_rejects_undeclared(self):
        with pytest.raises(UndeclaredVariableError):
            normalize(Var("nope"), CHART, strict=True)


class TestPolyPow:
    # x1 + 2*x2 - 1/3 in the engine's sparse form
    X1, X2 = (0, 0, "x1"), (0, 1, "x2")
    POLY = {((X1, 1),): Fraction(1), ((X2, 1),): Fraction(2),
            (): Fraction(-1, 3)}

    def count_products(self, monkeypatch, k):
        calls = []
        real = scalar._poly_mul

        def counting(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(scalar, "_poly_mul", counting)
        scalar._poly_pow(self.POLY, k)
        return len(calls)

    def test_no_square_after_the_last_bit(self, monkeypatch):
        assert self.count_products(monkeypatch, 1) == 1
        assert self.count_products(monkeypatch, 5) == 4

    def test_powers_equal_repeated_multiplication(self):
        expected = dict(scalar._POLY_ONE)
        for k in range(7):
            assert scalar._poly_pow(self.POLY, k) == expected
            expected = scalar._poly_mul(expected, self.POLY)


# ---------------------------------------------------------------------------
# calculus

class TestDifferentiate:
    def test_power_rule(self):
        e = parse_expr("x1^3*x2 + x2^2", CHART)
        d = differentiate(e, "x1", CHART)
        assert d == normalize(parse_expr("3*x1^2*x2", CHART), CHART)

    def test_quotient(self):
        e = parse_expr("x1/x2", CHART)
        d = differentiate(e, "x2", CHART)
        assert normalize(d - parse_expr("-x1/x2^2", CHART), CHART) \
            == Const(Fraction(0))

    def test_opaque_chain_rule(self):
        reg = make_registry()
        e = parse_expr("a(x1^2)*x2", CHART, reg)
        d = differentiate(e, "x1", CHART, reg)
        expect = parse_expr("2*x1*x2*a1(x1^2)", CHART, reg)
        assert normalize(d - expect, CHART) == Const(Fraction(0))

    def test_unregistered_derivative(self):
        reg = OpaqueRegistry()
        reg.register("f", lambda u: u, derivative="f_missing")
        with pytest.raises(UnregisteredOpaqueError):
            differentiate(Opaque("f", Var("x1")), "x1", CHART, reg)

    def test_derivative_of_nonchart_variable_rejected(self):
        with pytest.raises(UndeclaredVariableError):
            differentiate(Var("x1"), "w", CHART)

    def test_leibniz_random(self):
        rng = random.Random(11)
        for _ in range(60):
            f = random_tree(rng, CHART[:3], depth=3, allow_quotients=True)
            g = random_tree(rng, CHART[:3], depth=3, allow_quotients=True)
            try:
                lhs = differentiate(Prod((f, g)), "x1", CHART)
                rhs = Sum((Prod((differentiate(f, "x1", CHART), g)),
                           Prod((f, differentiate(g, "x1", CHART)))))
                diff = normalize(lhs - rhs, CHART)
            except ZeroDenominatorError:
                continue
            assert diff == Const(Fraction(0))

    def test_against_finite_differences(self):
        rng = random.Random(20260401)
        reg = make_registry()
        checked = 0
        while checked < 200:
            tree = random_tree(rng, CHART[:3], depth=4)
            var = "x1"
            try:
                d = differentiate(tree, var, CHART, reg)
            except ZeroDenominatorError:
                continue
            pt = {k: float(v) for k, v in random_point(rng, CHART[:3]).items()}
            h = 1e-6
            up = dict(pt, **{var: pt[var] + h})
            dn = dict(pt, **{var: pt[var] - h})
            try:
                est = (float(evaluate(tree, up, reg))
                       - float(evaluate(tree, dn, reg))) / (2 * h)
                exact = float(evaluate(d, pt, reg))
            except ZeroDivisionError:
                continue
            assert abs(est - exact) <= 1e-6 * (1 + abs(exact)), to_text(tree)
            checked += 1


class TestSubstitute:
    def test_variable_replacement(self):
        e = parse_expr("x1^2 + x2", CHART)
        s = substitute(e, {"x1": parse_expr("x3 + 1", CHART)})
        assert normalize(s, CHART) == \
            normalize(parse_expr("x3^2 + 2*x3 + 1 + x2", CHART), CHART)

    def test_inside_opaque_argument(self):
        reg = make_registry()
        e = parse_expr("a(x1)", CHART, reg)
        s = substitute(e, {"x1": Var("x2")})
        assert s == Opaque("a", Var("x2"))


# ---------------------------------------------------------------------------
# evaluation

class TestEvaluate:
    def test_exact_rational(self):
        e = parse_expr("x1^2/4 + x2", CHART)
        v = evaluate(e, {"x1": Fraction(1, 2), "x2": 2})
        assert v == Fraction(33, 16)
        assert isinstance(v, Fraction)

    def test_float_contaminates(self):
        e = parse_expr("x1 + x2", CHART)
        v = evaluate(e, {"x1": 0.5, "x2": Fraction(1, 2)})
        assert isinstance(v, float)

    def test_missing_assignment(self):
        from dist235.scalar import MissingAssignmentError
        with pytest.raises(MissingAssignmentError):
            evaluate(parse_expr("x1 + x2", CHART), {"x1": 1})

    def test_pole(self):
        with pytest.raises(ZeroDivisionError):
            evaluate(parse_expr("1/x1", CHART), {"x1": 0})

    def test_opaque_evaluation(self):
        reg = make_registry()
        v = evaluate(parse_expr("a(x1) + 1", CHART, reg), {"x1": 2}, reg)
        assert v == pytest.approx(9.0)

    def test_compiled_matches_interpreted(self):
        rng = random.Random(99)
        reg = make_registry()
        for _ in range(50):
            tree = random_tree(rng, CHART[:3], depth=3, opaques=("a",))
            fn = compile_expr(tree, CHART[:3], reg)
            pt = random_point(rng, CHART[:3])
            args = [float(pt[v]) for v in CHART[:3]]
            want = float(evaluate(tree, {k: float(v) for k, v in pt.items()},
                                  reg))
            assert fn(*args) == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# zero testing

class TestIsZero:
    def test_provably_zero(self):
        e = parse_expr("(x1 + x2)^2 - x1^2 - 2*x1*x2 - x2^2", CHART)
        assert is_zero(e, BOX, CHART).status == "provably-zero"

    def test_nonzero_with_witness(self):
        e = parse_expr("x1*x2 - x2*x1 + x3", CHART)
        r = is_zero(e, BOX, CHART)
        assert r.status == "nonzero"
        assert evaluate(e, r.witness) == r.value
        assert r.value != 0

    def test_numerically_zero_with_opaque(self):
        reg = make_registry()
        # a evaluates to u^3, so this vanishes at every sample, but the
        # engine cannot prove it
        e = parse_expr("a(x1) - x1^3", CHART, reg)
        r = is_zero(e, BOX, CHART, reg)
        assert r.status == "numerically-zero"

    def test_opaque_nonzero(self):
        reg = make_registry()
        e = parse_expr("a(x1) - x1^2", CHART, reg)
        r = is_zero(e, BOX, CHART, reg)
        assert r.status == "nonzero"

    def test_opaque_cancellation_is_provable(self):
        reg = make_registry()
        e = parse_expr("a(x1)*x2 - x2*a(x1)", CHART, reg)
        assert is_zero(e, BOX, CHART, reg).status == "provably-zero"

    def test_zero_width_interval_vanishing(self):
        # x1 is pinned to 0 by the box: x1*x2 vanishes on it, although
        # its normal form on the chart is nonzero.
        box = Box((("x1", Fraction(0), Fraction(0)),
                   ("x2", Fraction(-1), Fraction(1))))
        e = parse_expr("x1*x2", CHART)
        assert is_zero(e, box, CHART).status == "provably-zero"

    def test_zero_width_interval_nonzero_has_witness(self):
        box = Box((("x1", Fraction(1, 2), Fraction(1, 2)),
                   ("x2", Fraction(-1), Fraction(1))))
        e = parse_expr("x1*x2 - x2/2 + x2^2", CHART)
        r = is_zero(e, box, CHART)
        assert r.status == "nonzero"
        assert box.contains(r.witness)
        assert evaluate(e, r.witness) == r.value != 0

    def test_soundness_500_random(self):
        # nonzero verdicts carry true witnesses; zero verdicts are exact
        rng = random.Random(5)
        zero_seen = 0
        nonzero_seen = 0
        trials = 0
        while trials < 500:
            tree = random_tree(rng, CHART[:4], depth=3)
            try:
                r = is_zero(tree, BOX, CHART)
            except ZeroDenominatorError:
                continue
            trials += 1
            if r.status == "provably-zero":
                zero_seen += 1
                for pt in BOX.sample_points(10, skip=1000):
                    assert evaluate(tree, pt) == 0
            else:
                assert r.status == "nonzero"
                nonzero_seen += 1
                assert evaluate(tree, r.witness) == r.value != 0
        assert zero_seen > 0 and nonzero_seen > 0


class TestMinDegree:
    def test_plain(self):
        assert min_degree(parse_expr("x1^3*x2 + x1^4", CHART), "x1", CHART) == 3
        assert min_degree(parse_expr("x2 + x1^2", CHART), "x1", CHART) == 0
        assert min_degree(Const(Fraction(0)), "x1", CHART) is None

"""Expression engine: grammar, normal form, calculus, zero testing."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
import sympy

from dist235 import scalar
from dist235.boxes import Box
from dist235.vecfield import Chart
from dist235.scalar import (
    MINUS_ONE, ONE, ZERO, Const, Opaque, OpaqueRegistry, ParseError, Pow,
    Prod, ScalarExpr, Sum,
    UndeclaredVariableError, UnknownSymbolError, UnregisteredOpaqueError, Var,
    ZeroDenominatorError, compile_expr, differentiate, evaluate, is_zero,
    min_degree, normalize, parse_expr, substitute, to_text,
)

from helpers import (
    count_calls, integer_normal_form, normal_form_outcome, normal_form_terms,
    normalized_pieces, random_nf_tree, random_point, random_tree,
    random_tree_with_pieces, reference_normal_form, stripped,
)

NAMES = ("x1", "x2", "x3", "x4", "x5")
BOX = Box.around({v: 0 for v in NAMES}, Fraction(1, 4))


def make_registry():
    reg = OpaqueRegistry()
    reg.register("a", lambda u: u ** 3, derivative="a1")
    reg.register("a1", lambda u: 3 * u ** 2, derivative="a2")
    reg.register("a2", lambda u: 6 * u, derivative=Const(Fraction(6)))
    return reg


# the chart of the tests, with the opaques of `make_registry`
CHART = Chart(NAMES, make_registry())


# ---------------------------------------------------------------------------
# box sampling

class TestHalton:
    BOX = Box([("a", 0, 1), ("b", 0, 1)])
    # the radical inverses of 1, 2, 3 in bases 2 and 3, by hand
    FIRST = [{"a": Fraction(1, 2), "b": Fraction(1, 3)},
             {"a": Fraction(1, 4), "b": Fraction(2, 3)},
             {"a": Fraction(3, 4), "b": Fraction(1, 9)}]

    def test_van_der_corput_points(self):
        assert self.BOX.sample_points(3) == self.FIRST

    def test_returned_points_are_fresh(self):
        first = self.BOX.sample_points(3)
        first[0]["a"] = Fraction(7)
        del first[1]["b"]
        assert self.BOX.sample_points(3) == self.FIRST

    def test_skip_continues_the_sequence(self):
        assert self.BOX.sample_points(2, skip=1) == \
            self.BOX.sample_points(3)[1:]
        assert self.BOX.sample_points(4, skip=3) == \
            self.BOX.sample_points(7)[3:]


# ---------------------------------------------------------------------------
# parsing and printing

class TestParse:
    def test_basic_structure(self):
        e = parse_expr("x1^2*x2 - 3/4*x3", NAMES)
        assert isinstance(e, Sum)
        assert len(e.terms) == 2
        first = e.terms[0]
        assert isinstance(first, Prod)
        assert first.factors[0] == Pow(Var("x1"), 2)

    def test_rational_literal(self):
        assert parse_expr("3/4", NAMES) == Const(Fraction(3, 4))
        assert parse_expr("-3/4", NAMES) == Const(Fraction(-3, 4))
        # division with a non-literal numerator stays a product
        e = parse_expr("x1/2", NAMES)
        assert e == Prod((Var("x1"), Const(Fraction(1, 2))))

    def test_negative_exponent(self):
        e = parse_expr("x1^-2", NAMES)
        assert e == Pow(Var("x1"), -2)

    def test_unary_minus_folds_into_constants(self):
        assert parse_expr("-5", NAMES) == Const(Fraction(-5))
        e = parse_expr("-2*x1", NAMES)
        assert e == Prod((Const(Fraction(-2)), Var("x1")))

    def test_opaque_application(self):
        reg = make_registry()
        e = parse_expr("a(x1 + x2)", NAMES, reg)
        assert e == Opaque("a", Sum((Var("x1"), Var("x2"))))

    def test_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x1 +", ["x1"])
        assert err.value.offset == 4

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            parse_expr("x1 + q", NAMES)
        with pytest.raises(UnknownSymbolError):
            parse_expr("q(x1)", NAMES, OpaqueRegistry())

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expr("x1 x2", NAMES)
        with pytest.raises(ParseError):
            parse_expr("x1^2^3", NAMES)

    def test_bad_character(self):
        with pytest.raises(ParseError) as err:
            parse_expr("x1 + $", NAMES)
        assert err.value.offset == 5

    def test_a_chart_gives_its_names_and_opaques(self):
        # normalize, differentiate and is_zero read the names and the
        # opaques of their vecfield.Chart; parsing takes the two
        # themselves, and no chart
        reg = OpaqueRegistry()
        reg.register("a", lambda u: 2 * u, derivative=Const(Fraction(2)))
        chart = Chart(NAMES, reg)
        tree = parse_expr("x1*a(x2) - 1/2", chart.variables, chart.registry)
        assert to_text(differentiate(tree, "x2", chart)) == "2*x1"
        assert to_text(differentiate(tree, "x2", CHART)) == "x1*a1(x2)"
        assert is_zero(tree - parse_expr("2*x1*x2 - 1/2"), BOX,
                       chart).status == "numerically-zero"
        assert is_zero(tree - parse_expr("x1*x2^3 - 1/2"), BOX,
                       CHART).status == "numerically-zero"
        for text in ("w + x1", "q(x1)"):
            with pytest.raises(UnknownSymbolError):
                parse_expr(text, chart.variables, chart.registry)
        # the registry given is the one read
        with pytest.raises(UnknownSymbolError):
            parse_expr("a(x1)", chart.variables, OpaqueRegistry())
        with pytest.raises(TypeError):
            parse_expr("x1", chart)

    @pytest.mark.parametrize("text,offset", [
        ("x^\u00b2", 2), ("th^\u0663", 3), ("\u0661\u0662", 0),
        ("x\u0661", 1)])
    def test_only_ascii_digits_and_letters(self, text, offset):
        # superscript two, Arabic-Indic three, one and two: digits and
        # letters to str.isdigit and str.isalnum, not to the grammar
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert err.value.offset == offset


class TestNodes:
    X = Var("x1")
    NODES = (
        (Const(Fraction(3, 4)), (Fraction(3, 4),)),
        (X, ("x1",)),
        (Sum((X, ONE)), ((X, ONE),)),
        (Prod((MINUS_ONE, X)), ((MINUS_ONE, X),)),
        (Pow(X, -2), (X, -2)),
        (Opaque("a", X), ("a", X)),
    )

    @pytest.mark.parametrize("node,fields", NODES)
    def test_hash_is_that_of_the_fields(self, node, fields):
        assert hash(node) == hash(fields)
        assert hash(node) == hash(fields)  # the kept hash

    def test_hash_ignores_the_carried_normal_form(self):
        tree = normalize(parse_expr("(x1 + x2)^2", NAMES), CHART)
        assert tree._nf is not None
        bare = Sum(tree.terms)
        assert bare._nf is None
        assert bare == tree and hash(bare) == hash(tree)
        assert hash(tree) == hash((tree.terms,))

    def test_kinds_with_equal_fields_differ(self):
        x = self.X
        assert Sum((x,)) != Prod((x,))
        assert not Sum((x,)) == Prod((x,))
        assert Const(1) == ONE and Const(Fraction(-1)) == MINUS_ONE

    def test_nodes_are_frozen(self):
        node = Pow(self.X, 2)
        for name in ("base", "exponent", "_nf", "_hash", "other"):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
        with pytest.raises(AttributeError):
            del node.base
        assert node == Pow(Var("x1"), 2)

    def test_copies_and_pickles_are_equal_nodes(self):
        tree = normalize(parse_expr("a(x1)^2 - x2/3", NAMES, make_registry()),
                         CHART)
        hash(tree)
        for again in (copy.copy(tree), copy.deepcopy(tree),
                      pickle.loads(pickle.dumps(tree))):
            assert again == tree and hash(again) == hash(tree)

    def test_repr_is_the_dataclass_format(self):
        assert repr(Const(1)) == "Const(value=Fraction(1, 1))"
        assert repr(Pow(self.X, 2)) == (
            "Pow(base=Var(name='x1'), exponent=2)")
        assert repr(Opaque("a", ZERO)) == (
            "Opaque(name='a', arg=Const(value=Fraction(0, 1)))")

    def test_a_zero_normal_form_is_the_shared_zero(self):
        assert normalize(parse_expr("x1 - x1", NAMES), CHART) is ZERO
        assert differentiate(self.X, "x1", CHART) == ONE
        assert differentiate(self.X, "x2", CHART) is ZERO

    def test_a_second_hash_computes_no_child_hash(self, monkeypatch):
        tree = normalize(parse_expr("(x1 + 2*x2)^3 - x3/(1 + x1)", NAMES),
                         CHART)
        calls = count_calls(monkeypatch, ScalarExpr, "__hash__")
        first = hash(tree)
        assert len(calls) > 1
        calls.clear()
        assert hash(tree) == first
        assert len(calls) == 1


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
        tree = parse_expr(text, NAMES, reg)
        printed = to_text(tree)
        again = parse_expr(printed, NAMES, reg)
        assert again == tree, f"{text!r} -> {printed!r} reparsed differently"

    def test_random_trees_round_trip(self):
        rng = random.Random(20260822)
        reg = make_registry()
        for _ in range(200):
            tree = random_tree(rng, NAMES, depth=4, allow_quotients=True,
                               opaques=("a", "a1"))
            printed = to_text(tree)
            reparsed = parse_expr(printed, NAMES, reg)
            # printing a parser-shaped tree is exact; arbitrary trees agree
            # after normalization
            try:
                assert normalize(reparsed, CHART) == normalize(tree, CHART)
            except ZeroDenominatorError:
                pass
            # and from then on the round trip is exact
            assert parse_expr(to_text(reparsed), NAMES, reg) == reparsed


# ---------------------------------------------------------------------------
# normalization

class TestNormalize:
    def test_expansion_cancels(self):
        e = parse_expr("(x1 + x2)^2 - x1^2 - 2*x1*x2 - x2^2", NAMES)
        assert normalize(e, CHART) == Const(Fraction(0))

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(100):
            tree = random_tree(rng, NAMES, depth=4, allow_quotients=True)
            try:
                n1 = normalize(tree, CHART)
            except ZeroDenominatorError:
                continue
            assert normalize(n1, CHART) == n1

    def test_graded_lex_order(self):
        # higher total degree first; ties broken by earlier chart variable
        e = parse_expr("x2 + x1 + x2^2 + x1*x2", NAMES)
        assert to_text(normalize(e, CHART)) == "x1*x2 + x2^2 + x1 + x2"

    def test_quotient_normal_form(self):
        e = parse_expr("x1/(x2 + 1) + x2/(x2 + 1)", NAMES)
        assert to_text(normalize(e, CHART)) == "(x1 + x2)*(x2 + 1)^-1"

    def test_content_is_coprime(self):
        e = parse_expr("(2*x1 + 2*x2)/(4*x3)", NAMES)
        assert to_text(normalize(e, CHART)) == "(x1 + x2)*(2*x3)^-1"

    def test_zero_denominator_detected(self):
        e = parse_expr("1/(x1 - x1)", NAMES)
        with pytest.raises(ZeroDenominatorError):
            normalize(e, CHART)


# ---------------------------------------------------------------------------
# calculus

class TestDifferentiate:
    def test_power_rule(self):
        e = parse_expr("x1^3*x2 + x2^2", NAMES)
        d = differentiate(e, "x1", CHART)
        assert d == normalize(parse_expr("3*x1^2*x2", NAMES), CHART)

    def test_quotient(self):
        e = parse_expr("x1/x2", NAMES)
        d = differentiate(e, "x2", CHART)
        assert normalize(d - parse_expr("-x1/x2^2", NAMES), CHART) \
            == Const(Fraction(0))

    def test_opaque_chain_rule(self):
        reg = make_registry()
        e = parse_expr("a(x1^2)*x2", NAMES, reg)
        d = differentiate(e, "x1", CHART)
        expect = parse_expr("2*x1*x2*a1(x1^2)", NAMES, reg)
        assert normalize(d - expect, CHART) == Const(Fraction(0))

    def test_unregistered_derivative(self):
        reg = OpaqueRegistry()
        reg.register("f", lambda u: u, derivative="f_missing")
        with pytest.raises(UnregisteredOpaqueError):
            differentiate(Opaque("f", Var("x1")), "x1", Chart(NAMES, reg))

    def test_derivative_of_nonchart_variable_rejected(self):
        with pytest.raises(UndeclaredVariableError):
            differentiate(Var("x1"), "w", CHART)

    def test_leibniz_random(self):
        rng = random.Random(11)
        for _ in range(60):
            f = random_tree(rng, NAMES[:3], depth=3, allow_quotients=True)
            g = random_tree(rng, NAMES[:3], depth=3, allow_quotients=True)
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
            tree = random_tree(rng, NAMES[:3], depth=4)
            var = "x1"
            try:
                d = differentiate(tree, var, CHART)
            except ZeroDenominatorError:
                continue
            pt = {k: float(v) for k, v in random_point(rng, NAMES[:3]).items()}
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
        e = parse_expr("x1^2 + x2", NAMES)
        s = substitute(e, {"x1": parse_expr("x3 + 1", NAMES)})
        assert normalize(s, CHART) == \
            normalize(parse_expr("x3^2 + 2*x3 + 1 + x2", NAMES), CHART)

    def test_inside_opaque_argument(self):
        reg = make_registry()
        e = parse_expr("a(x1)", NAMES, reg)
        s = substitute(e, {"x1": Var("x2")})
        assert s == Opaque("a", Var("x2"))


# ---------------------------------------------------------------------------
# evaluation

class TestEvaluate:
    def test_exact_rational(self):
        e = parse_expr("x1^2/4 + x2", NAMES)
        v = evaluate(e, {"x1": Fraction(1, 2), "x2": 2})
        assert v == Fraction(33, 16)
        assert isinstance(v, Fraction)

    def test_float_contaminates(self):
        e = parse_expr("x1 + x2", NAMES)
        v = evaluate(e, {"x1": 0.5, "x2": Fraction(1, 2)})
        assert isinstance(v, float)

    def test_missing_assignment(self):
        from dist235.scalar import MissingAssignmentError
        with pytest.raises(MissingAssignmentError):
            evaluate(parse_expr("x1 + x2", NAMES), {"x1": 1})

    def test_pole(self):
        with pytest.raises(ZeroDivisionError):
            evaluate(parse_expr("1/x1", NAMES), {"x1": 0})

    def test_opaque_evaluation(self):
        reg = make_registry()
        v = evaluate(parse_expr("a(x1) + 1", NAMES, reg), {"x1": 2}, reg)
        assert v == pytest.approx(9.0)

    def test_compiled_matches_interpreted(self):
        rng = random.Random(99)
        reg = make_registry()
        for _ in range(50):
            tree = random_tree(rng, NAMES[:3], depth=3, opaques=("a",))
            fn = compile_expr(tree, NAMES[:3], reg)
            pt = random_point(rng, NAMES[:3])
            args = [float(pt[v]) for v in NAMES[:3]]
            want = float(evaluate(tree, {k: float(v) for k, v in pt.items()},
                                  reg))
            assert fn(*args) == pytest.approx(want, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# zero testing

class TestIsZero:
    def test_provably_zero(self):
        e = parse_expr("(x1 + x2)^2 - x1^2 - 2*x1*x2 - x2^2", NAMES)
        assert is_zero(e, BOX, CHART).status == "provably-zero"

    def test_nonzero_with_witness(self):
        e = parse_expr("x1*x2 - x2*x1 + x3", NAMES)
        r = is_zero(e, BOX, CHART)
        assert r.status == "nonzero"
        assert evaluate(e, r.witness) == r.value
        assert r.value != 0

    def test_numerically_zero_with_opaque(self):
        reg = make_registry()
        # a evaluates to u^3, so this vanishes at every sample, but the
        # engine cannot prove it
        e = parse_expr("a(x1) - x1^3", NAMES, reg)
        r = is_zero(e, BOX, CHART)
        assert r.status == "numerically-zero"

    def test_opaque_nonzero(self):
        reg = make_registry()
        e = parse_expr("a(x1) - x1^2", NAMES, reg)
        r = is_zero(e, BOX, CHART)
        assert r.status == "nonzero"

    def test_opaque_cancellation_is_provable(self):
        reg = make_registry()
        e = parse_expr("a(x1)*x2 - x2*a(x1)", NAMES, reg)
        assert is_zero(e, BOX, CHART).status == "provably-zero"

    def test_zero_width_interval_vanishing(self):
        # x1 is pinned to 0 by the box: x1*x2 vanishes on it, although
        # its normal form on the chart is nonzero.
        box = Box((("x1", Fraction(0), Fraction(0)),
                   ("x2", Fraction(-1), Fraction(1))))
        e = parse_expr("x1*x2", NAMES)
        assert is_zero(e, box, CHART).status == "provably-zero"

    def test_zero_width_interval_nonzero_has_witness(self):
        box = Box((("x1", Fraction(1, 2), Fraction(1, 2)),
                   ("x2", Fraction(-1), Fraction(1))))
        e = parse_expr("x1*x2 - x2/2 + x2^2", NAMES)
        r = is_zero(e, box, CHART)
        assert r.status == "nonzero"
        assert box.contains(r.witness)
        assert evaluate(e, r.witness) == r.value != 0

    def test_missing_value_named_like_the_walk(self):
        # the box lacks u and w: is_zero names the one the walk of the
        # normalized tree meets first, on or off the chart
        from dist235.scalar import MissingAssignmentError
        box = Box.around({"x1": 0, "x2": 0}, Fraction(1, 4))
        first = box.sample_points(1)[0]
        for text in ("x1*w + u^2", "u*x1/(w + 1)", "w^3 + u*w + x2",
                     "(x1 + u)/(x2 + w)"):
            for chart in (CHART, Chart(()), CHART.extend("u", "w")):
                e = parse_expr(text)
                with pytest.raises(MissingAssignmentError) as walk:
                    evaluate(normalize(e, chart), first)
                with pytest.raises(MissingAssignmentError) as got:
                    is_zero(e, box, chart)
                assert got.value.name == walk.value.name, (text, chart)

    def test_soundness_500_random(self):
        # nonzero verdicts carry true witnesses; zero verdicts are exact
        rng = random.Random(5)
        zero_seen = 0
        nonzero_seen = 0
        trials = 0
        while trials < 500:
            tree = random_tree(rng, NAMES[:4], depth=3)
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
        assert min_degree(parse_expr("x1^3*x2 + x1^4", NAMES), "x1", CHART) == 3
        assert min_degree(parse_expr("x2 + x1^2", NAMES), "x1", CHART) == 0
        assert min_degree(Const(Fraction(0)), "x1", CHART) is None

    def test_order_of_a_quotient(self):
        # the lowest power in the numerator minus that in the denominator
        assert min_degree(parse_expr("x1^3/(x1 + x1^2)", NAMES), "x1",
                          CHART) == 2
        assert min_degree(parse_expr("x2/x1", NAMES), "x1", CHART) == -1
        assert min_degree(parse_expr("x1^2/(1 + x1)", NAMES), "x1",
                          CHART) == 2

    def test_opaque_atom_gives_none(self):
        reg = make_registry()
        assert min_degree(parse_expr("x1^3*a(x2)", NAMES, reg), "x1",
                          CHART) is None


# ---------------------------------------------------------------------------
# sympy oracle
#
# The opaques of make_registry become sympy functions with the same
# derivative rules (a' = a1, a1' = a2, a2' = 6).  Opaque arguments are
# brought to sympy's `cancel` form, so two applications of one opaque to
# equal rational functions are one sympy generator.

def _sympy_function(name, derivative):
    return type(name, (sympy.Function,),
                {"fdiff": lambda self, argindex=1: derivative(self.args[0])})


_SYMPY_A2 = _sympy_function("a2", lambda u: sympy.Integer(6))
_SYMPY_A1 = _sympy_function("a1", _SYMPY_A2)
_SYMPY_A = _sympy_function("a", _SYMPY_A1)
SYMPY_OPAQUES = {"a": _SYMPY_A, "a1": _SYMPY_A1, "a2": _SYMPY_A2}


def to_sympy(expr):
    if isinstance(expr, Const):
        return sympy.Rational(expr.value.numerator, expr.value.denominator)
    if isinstance(expr, Var):
        return sympy.Symbol(expr.name)
    if isinstance(expr, Sum):
        return sympy.Add(*(to_sympy(t) for t in expr.terms))
    if isinstance(expr, Prod):
        return sympy.Mul(*(to_sympy(f) for f in expr.factors))
    if isinstance(expr, Pow):
        return sympy.Pow(to_sympy(expr.base), expr.exponent)
    return SYMPY_OPAQUES[expr.name](sympy.cancel(to_sympy(expr.arg)))


def oracle_trees(seed, count, opaques=()):
    """`count` seeded trees over three chart variables whose normal form
    exists (no identically zero denominator)."""
    rng = random.Random(seed)
    trees = []
    while len(trees) < count:
        tree = random_nf_tree(rng, NAMES[:3], opaques, depth=3)
        try:
            normalize(tree, CHART)
        except ZeroDenominatorError:
            continue
        trees.append(tree)
    return trees


class TestSympyOracle:
    """normalize, differentiate and is_zero against sympy 1.14 as rational
    functions on seeded random trees."""

    def test_normalize_is_the_same_rational_function(self):
        for tree in oracle_trees(601, 150, opaques=("a", "a1")):
            canon = normalize(tree, CHART)
            assert sympy.cancel(to_sympy(tree) - to_sympy(canon)) == 0, \
                to_text(tree)

    def test_differentiate_matches_sympy_diff(self):
        reg = make_registry()
        x1 = sympy.Symbol("x1")
        for tree in oracle_trees(602, 120, opaques=("a", "a1", "a2")):
            try:
                d = differentiate(tree, "x1", CHART)
            except ZeroDenominatorError:
                continue
            expected = sympy.diff(to_sympy(tree), x1)
            assert sympy.cancel(to_sympy(d) - expected) == 0, to_text(tree)

    def test_is_zero_decides_like_sympy(self):
        # half of the trees are t - normalize(t) with a term dropped or
        # kept, so both verdicts occur often
        rng = random.Random(603)
        seen = set()
        for tree in oracle_trees(604, 160):
            if rng.random() < 0.5:
                canon = normalize(tree, CHART)
                terms = canon.terms if isinstance(canon, Sum) else (canon,)
                if rng.random() < 0.5 and len(terms) > 1:
                    terms = terms[1:]
                tree = Sum((tree, -Sum(terms)))
            status = is_zero(tree, BOX, CHART).status
            expected = sympy.cancel(to_sympy(tree)) == 0
            assert (status == "provably-zero") == expected, to_text(tree)
            assert status in ("provably-zero", "nonzero")
            seen.add(status)
        assert seen == {"provably-zero", "nonzero"}


# ---------------------------------------------------------------------------
# the integer builder against the kept Fraction builder

CHART_SETTINGS = {
    "no chart": Chart(()),
    "non-strict": CHART,
    "permuted": Chart(("x3", "x1", "x5", "x2", "x4"), CHART.registry),
}


class TestNormalFormMatchesReference:
    """`_normal_form` returns the numerator, denominator and term atoms
    the Fraction builder returns, or raises the same error with the same
    message."""

    @pytest.mark.parametrize("setting", sorted(CHART_SETTINGS))
    def test_random_trees(self, setting):
        chart = CHART_SETTINGS[setting]
        rng = random.Random(20261018)
        # "w" is outside every chart
        variables = NAMES[:3] + ("w",)
        kinds = set()
        for _ in range(3000):
            tree = random_nf_tree(rng, variables, ("a", "a1"), depth=4)
            got = normal_form_outcome(integer_normal_form, tree, chart)
            want = normal_form_outcome(reference_normal_form, tree, chart)
            assert got == want, to_text(tree)
            kinds.add(want[0] if isinstance(want[0], type) else "form")
        assert kinds == {"form", ZeroDenominatorError}

    def test_every_normal_form_of_the_bundled_reports(self, monkeypatch,
                                                      tmp_path):
        from dist235 import conedual, distduality, vecfield
        from dist235.cli import main
        from dist235.models import BUNDLED
        from helpers import (
            full_width_decompose, on_fresh_charts, tree_bracket,
        )
        cached = scalar._normal_form
        calls = {}

        def recording(expr, chart):
            calls[expr, chart] = None
            return cached(expr, chart)

        # brackets and decompositions fold on records, with no normal
        # form to record: each is recorded and compared below with its
        # tree fold, whose normal forms are recorded too
        folds = {}
        bracket, decompose = vecfield._bracket, vecfield.symbolic_decompose

        def recording_bracket(chart, v, w):
            folds["bracket", chart, v, w] = result = bracket(chart, v, w)
            return result

        def recording_decompose(targets, basis, base_point):
            result = decompose(targets, basis, base_point)
            folds[tuple(targets), tuple(basis),
                  tuple(sorted(base_point.items()))] = result
            return result

        from test_cli import TestReportPins as pins
        monkeypatch.setattr(scalar, "_normal_form", recording)
        monkeypatch.setattr(vecfield, "_bracket", recording_bracket)
        for module in (vecfield, conedual, distduality):
            monkeypatch.setattr(module, "symbolic_decompose",
                                recording_decompose)
        for name in BUNDLED:
            main(["analyze", name, "--suite", "all", "--seed", "7",
                  "--out", str(tmp_path / f"{name}.json")])
        # and the runs whose reports `TestReportPins` pins
        for name in pins.BUNDLED_SHA256:
            pins.bundled_report(name)
        for name in pins.GENERATED:
            pins.generated_report(name)
        brackets = decompositions = 0
        for key, result in folds.items():
            key = on_fresh_charts(key)
            if key[0] == "bracket":
                brackets += 1
                want = tree_bracket(*key[1:]).components
                got = result
            else:
                decompositions += 1
                want = full_width_decompose(key[0], key[1], dict(key[2]))
                want = [c for coeffs in want for c in coeffs]
                got = [c for coeffs in result for c in coeffs]
            assert [to_text(c) for c in got] == [to_text(c) for c in want]
        assert brackets > 20 and decompositions > 5
        assert len(calls) > 500
        for expr, chart in calls:
            assert normal_form_terms(cached.__wrapped__(expr, chart)) \
                == reference_normal_form(expr, chart), to_text(expr)

    def test_fold_builds_no_fraction(self, monkeypatch):
        # Fractions appear only at the boundaries: the result of
        # _normal_form and the arguments of opaque atoms; a reused pair
        # is one of them only in its normal form
        rng = random.Random(20261019)
        trees = [random_nf_tree(rng, NAMES[:3], depth=4) for _ in range(300)]
        pieces = normalized_pieces(rng, 60, (CHART,), NAMES[:3])
        trees += [random_tree_with_pieces(rng, NAMES[:3], pieces)
                  for _ in range(300)]
        reused = count_calls(monkeypatch, scalar._NFBuilder, "reuse")
        made = []
        real_new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        folded = 0
        for tree in trees:
            try:
                scalar._NFBuilder(CHART).visit(tree)
            except ZeroDenominatorError:
                continue
            folded += 1
        monkeypatch.undo()
        assert folded > 400 and made == [] and len(reused) > 100

    def test_exponent_overflow_raises(self):
        # an exponent of 2^64 would carry into the next atom's field:
        # every way of reaching it raises, and a degree of 2^64 - 1 is
        # still exact
        build = scalar._normal_form.__wrapped__
        x1, x2 = Var("x1"), Var("x2")
        top = Pow(x1, 2 ** 64 - 1)
        assert integer_normal_form(top, CHART) == \
            reference_normal_form(top, CHART)
        half = 2 ** 63
        for tree in (Pow(x1, 2 ** 64), Prod((Pow(x1, half), Pow(x1, half))),
                     Prod((top, x1)),
                     Pow(Prod((Pow(x1, 2 ** 32), x2)), -2 ** 32),
                     Sum((Pow(x1, -half), Pow(Prod((x1, x2)), -half))),
                     Opaque("a", Pow(x1, 2 ** 70))):
            with pytest.raises(scalar.ExprError, match="exponent overflow"):
                build(tree, CHART)


# ---------------------------------------------------------------------------
# trees that carry the normal form they were printed from

PIECE_CHARTS = (CHART, CHART_SETTINGS["permuted"],
                CHART_SETTINGS["no chart"])


class TestCarriedPairs:
    """A normalized tree carries its integer pair; folding, differentiating
    and evaluating it must give what the tree itself gives."""

    @pytest.mark.parametrize("setting", sorted(CHART_SETTINGS))
    def test_reuse_gives_the_same_fold(self, setting, monkeypatch):
        chart = CHART_SETTINGS[setting]
        rng = random.Random(20261020)
        variables = NAMES[:3] + ("w",)
        pieces = normalized_pieces(rng, 200, PIECE_CHARTS, variables,
                                   ("a", "a1"))
        reused = count_calls(monkeypatch, scalar._NFBuilder, "reuse")
        kinds = set()
        for _ in range(1500):
            tree = random_tree_with_pieces(rng, variables, pieces,
                                           ("a", "a1"))
            got = normal_form_outcome(integer_normal_form, tree, chart)
            want = normal_form_outcome(reference_normal_form, tree, chart)
            assert got == want, to_text(tree)
            kinds.add(want[0] if isinstance(want[0], type) else "form")
        assert reused and "form" in kinds and ZeroDenominatorError in kinds

    def test_reused_pair_and_bound_equal_the_fresh_fold(self):
        rng = random.Random(20261021)
        pieces = normalized_pieces(rng, 400, PIECE_CHARTS, NAMES[:3])
        checked = 0
        for chart in CHART_SETTINGS.values():
            for piece in pieces:
                nf = piece._nf
                if nf is None or nf.names != chart.variables:
                    continue
                reused = scalar._NFBuilder(chart)
                fresh = scalar._NFBuilder(chart)
                # (numerator, denominator, degree bound)
                assert reused.visit(piece) == fresh.visit(stripped(piece))
                assert reused.atoms == fresh.atoms
                checked += 1
        assert checked > 150

    def test_only_opaque_free_chart_forms_carry(self):
        reg = make_registry()
        for text, chart, carries in (
                ("x1^2 + x2/3", CHART, True),
                ("(x1 + 1)/(x2 - 1)", CHART, True),
                ("a(x1) + x2", CHART, False),
                ("a(x1) - a(x1) + x1*x2", CHART, True),
                ("w*x1 + 1", CHART, False),
                ("x1*x2 + 1", CHART_SETTINGS["no chart"], False),
                ("3/4", CHART, True)):
            tree = normalize(parse_expr(text, registry=reg), chart)
            assert (tree._nf is not None) == carries, text

    def test_derivative_on_the_pair_equals_the_product_rule_fold(
            self, monkeypatch):
        # the memo is bypassed: an equal tree would return the cached form
        rng = random.Random(20261022)
        pieces = normalized_pieces(rng, 300, (CHART, PIECE_CHARTS[1]),
                                   NAMES[:3])
        direct = count_calls(monkeypatch, scalar, "_polynomial_derivative")
        derive = scalar._derivative.__wrapped__
        for piece in pieces:
            chart = PIECE_CHARTS[1] if piece._nf and \
                piece._nf.names == PIECE_CHARTS[1].variables else CHART
            for var in ("x1", "x3", "x5"):
                got = scalar._printed(derive(piece, var, chart))
                want = scalar._printed(derive(stripped(piece), var, chart))
                assert got == want, to_text(piece)
                if got._nf is not None:
                    assert integer_normal_form(got, chart) \
                        == reference_normal_form(got, chart)
        assert len(direct) > 300

    def test_osculating_check_folds_half_as_much(self, monkeypatch):
        # a count, not a time: the bundled noncubic-bc osculating check,
        # each family in a fresh memo, with pairs carried and with none
        # reusable
        from dist235 import conedual
        from dist235.models import BUNDLED

        def visits(reusable):
            with monkeypatch.context() as patch:
                patch.setattr(scalar._NormalForm, "reusable", reusable)
                calls = count_calls(patch, scalar._NFBuilder, "visit")
                family = conedual.builtin_model(
                    "noncubic-bc", dict(BUNDLED["noncubic-bc"]
                                        ["expressions"]))
                assert conedual.check_osculating_condition(family).passed
            return len(calls)

        carried = visits(scalar._NormalForm.reusable)
        bare = visits(property(lambda self: False))
        assert 2 * carried <= bare

    def test_denominator_one_is_one_shared_dict(self):
        forms = [scalar._normal_form(parse_expr(text, NAMES), CHART)
                 for text in ("x1^2 + x2", "x3*x1 - 1", "x2 - x2")]
        assert forms[0].den == {0: 1}
        assert forms[0].den is forms[1].den is forms[2].den


class TestExactEvaluation:
    """`evaluate` on a carried tree at a rational point computes in
    integers; every answer must be the tree walk's."""

    @staticmethod
    def carried_trees(seed, count, opaques=()):
        rng = random.Random(seed)
        trees = []
        while len(trees) < count:
            tree = random_nf_tree(rng, NAMES[:3], opaques, depth=3)
            try:
                canon = normalize(tree, CHART)
            except ZeroDenominatorError:
                continue
            if canon._nf is not None or opaques:
                trees.append(canon)
        return trees

    @staticmethod
    def outcome(tree, point, registry=None):
        try:
            value = evaluate(tree, point, registry)
        except ZeroDivisionError as exc:
            return "pole", str(exc)
        return type(value), repr(value)

    POINTS = (BOX.sample_points(12)
              + [{v: 0 for v in NAMES},
                 {"x1": Fraction(1, 3), "x2": 0, "x3": 2, "x4": 0, "x5": 0},
                 {"x1": -1, "x2": Fraction(-5, 7), "x3": Fraction(9, 4)}])

    def test_rational_points_match_the_tree_walk(self, monkeypatch):
        exact = count_calls(monkeypatch, scalar, "_integer_value")
        seen = set()
        for tree in self.carried_trees(701, 150):
            walk = stripped(tree)
            for pt in self.POINTS:
                got = self.outcome(tree, pt)
                assert got == self.outcome(walk, pt), (to_text(tree), pt)
                seen.add(got[0])
        assert seen == {Fraction, "pole"} and len(exact) > 2000

    def test_float_points_keep_the_walk_bits(self):
        points = [{k: float(v) for k, v in pt.items()} for pt in self.POINTS]
        points += [dict(pt, x1=float(pt["x1"]) + 0.1) for pt in self.POINTS]
        seen = set()
        for tree in self.carried_trees(702, 100):
            walk = stripped(tree)
            for pt in points:
                got = self.outcome(tree, pt)
                assert got == self.outcome(walk, pt), (to_text(tree), pt)
                seen.add(got[0])
        assert {float, "pole"} <= seen

    def test_opaque_atoms_keep_the_walk_bits(self):
        reg = make_registry()
        checked = 0
        for tree in self.carried_trees(703, 100, opaques=("a", "a1")):
            if tree._nf is not None:
                continue
            walk = stripped(tree)
            for pt in self.POINTS:
                assert self.outcome(tree, pt, reg) == \
                    self.outcome(walk, pt, reg)
            checked += 1
        assert checked > 20

    def test_an_opaque_atom_is_never_read_as_its_argument(self):
        # the key of a(x1) names the text x1: the walk decides
        reg = make_registry()
        nf = scalar._normal_form(parse_expr("a(x1) + x1", NAMES, reg), CHART)
        point = {"x1": Fraction(2)}
        assert scalar._evaluate_exact(nf, point) is None
        assert scalar._value(nf, point, reg) == pytest.approx(10.0)

    def test_constants_are_their_value(self):
        for q in (Fraction(0), Fraction(-3, 4)):
            assert evaluate(Const(q), {}) is q

    def test_missing_assignment_is_unchanged(self):
        from dist235.scalar import MissingAssignmentError
        tree = normalize(parse_expr("x1^2*x3 + x2/(x3 + 1)", NAMES), CHART)
        assert tree._nf is not None
        for pt in ({"x1": 1}, {"x2": 1, "x3": Fraction(1, 2)},
                   {"x1": 0.5, "x3": 2}):
            names = []
            for t in (tree, stripped(tree)):
                with pytest.raises(MissingAssignmentError) as info:
                    evaluate(t, pt)
                names.append(info.value.name)
            assert names[0] == names[1]


class TestPolyPow:
    # x1 + 2*x2 - 1/3 as an integer pair: 3*x1 + 6*x2 - 1 over 3, with
    # x1 in the first exponent field and x2 in the second
    X1, X2 = 1, 1 << scalar._EXP_BITS
    POLY = ({X1: 3, X2: 6, 0: -1}, 3)

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
        expected = scalar._POLY_ONE
        for k in range(7):
            assert scalar._poly_pow(self.POLY, k) == expected
            expected = scalar._poly_mul(expected, self.POLY)

"""Exact symbolic scalar fields on coordinate charts.

Expressions are immutable trees over six node kinds: rational constants,
variables, sums, products, integer powers, and opaque function
applications.  A node computes its hash on first use and keeps it; 0, 1
and -1 are one shared node each (`ZERO`, `ONE`, `MINUS_ONE`).  Every
expression normalizes to a quotient of two expanded multivariate
polynomials (integer coefficients, coprime content) in the chart
variables and opaque atoms, ordered graded-lexicographically by chart
declaration order.  No polynomial gcd is cancelled: soundness of the
zero test needs only that the numerator vanish identically.

Trees are for parsing and printing.  A normal form is one record, built
in integer arithmetic with every monomial packed into one int of 64-bit
exponent fields (a degree that could reach 2^64 raises `ExprError`).
Vector fields and forms (`vecfield`), control systems (`paths`) and the
components of a parameter-driven cone family (`conedual`) hold records:
a tree is folded once when it enters, brackets, eliminations, exterior
derivatives, pairings, derivatives, the zero decision and exact
evaluation read records, and a tree is printed from one only for a
caller that reads or compiles it.  So `normalize` and `differentiate`,
which fold a tree, serve the tests and library callers only, and the
one zero decision, `is_zero`, folds a tree it is given once.  These
work on a `vecfield.Chart`, which gives the names, the opaque registry
and the memo that its normal forms and derivatives fill (`memo`);
parsing, evaluating and compiling take names and a registry.

Opaque atoms model smooth functions known only through a registry entry
(numeric evaluator plus derivative rule); everything else is exact.
"""

from __future__ import annotations

import functools
import math
import string
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .boxes import Box, as_fraction
from .memo import memoized

__all__ = [
    "ScalarExpr", "Const", "Var", "Sum", "Prod", "Pow", "Opaque",
    "ZERO", "ONE", "MINUS_ONE",
    "OpaqueRegistry", "default_registry", "ZeroCheck",
    "ExprError", "ParseError", "UnknownSymbolError", "UndeclaredVariableError",
    "UnregisteredOpaqueError", "ZeroDenominatorError", "MissingAssignmentError",
    "parse_expr", "to_text", "normalize", "differentiate", "substitute",
    "evaluate", "compile_expr", "compile_exprs", "is_zero", "min_degree",
]


# ---------------------------------------------------------------------------
# errors

class ExprError(Exception):
    """Base class for expression-level failures."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownSymbolError(ParseError):
    def __init__(self, name: str, offset: int):
        ParseError.__init__(self, f"unknown symbol {name!r}", offset)
        self.name = name


class UndeclaredVariableError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"variable {name!r} is not declared in the chart")
        self.name = name


class UnregisteredOpaqueError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"opaque function {name!r} is not registered")
        self.name = name


class ZeroDenominatorError(ExprError):
    """An expression contains division by an identically-zero denominator."""


class MissingAssignmentError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"no value assigned for {name!r}")
        self.name = name


# ---------------------------------------------------------------------------
# expression nodes

_setattr = object.__setattr__


class ScalarExpr:
    """Base class of the six node kinds below.

    A node is frozen: its constructor sets its fields (named by its
    `__slots__`), and assigning any attribute raises `AttributeError`.
    Equality and hashing read the fields, as a frozen dataclass's do.  A
    node computes its hash on first use and keeps it, so hashing a tree
    again (a memo lookup keyed by it) costs one call, not a walk.
    """

    # `_hash` is None until first use; equality and printing ignore it
    __slots__ = ("_hash",)

    def _fields(self) -> tuple:
        raise NotImplementedError

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._fields())
            _setattr(self, "_hash", h)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copies and pickles go through the constructor, as assigning
        # the slots one by one would raise
        return type(self), self._fields()

    def __sub__(self, other):
        return Sum((self, _negate(_coerce(other))))

    def __neg__(self):
        return _negate(self)


class Const(ScalarExpr):
    __slots__ = ("value",)

    def __init__(self, value):
        _setattr(self, "value", value if isinstance(value, Fraction)
                 else as_fraction(value))
        _setattr(self, "_hash", None)

    def _fields(self) -> tuple:
        return (self.value,)


class Var(ScalarExpr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _setattr(self, "name", name)
        _setattr(self, "_hash", None)

    def _fields(self) -> tuple:
        return (self.name,)


class Sum(ScalarExpr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        _setattr(self, "terms", terms)
        _setattr(self, "_hash", None)

    def _fields(self) -> tuple:
        return (self.terms,)


class Prod(ScalarExpr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        _setattr(self, "factors", factors)
        _setattr(self, "_hash", None)

    def _fields(self) -> tuple:
        return (self.factors,)


class Pow(ScalarExpr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: ScalarExpr, exponent: int):
        _setattr(self, "base", base)
        _setattr(self, "exponent", exponent)
        _setattr(self, "_hash", None)

    def _fields(self) -> tuple:
        return (self.base, self.exponent)


class Opaque(ScalarExpr):
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: ScalarExpr):
        _setattr(self, "name", name)
        _setattr(self, "arg", arg)
        _setattr(self, "_hash", None)

    def _fields(self) -> tuple:
        return (self.name, self.arg)


# the shared nodes of the constants 0, 1 and -1
ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
MINUS_ONE = Const(Fraction(-1))


def _coerce(x) -> ScalarExpr:
    if isinstance(x, ScalarExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(as_fraction(x))
    raise TypeError(f"cannot use {x!r} in a scalar expression")


def _negate(x: ScalarExpr) -> ScalarExpr:
    # Mirror image of the parser's unary-minus folding: constants flip
    # sign, products with a constant head flip the head, other products
    # gain a -1 head in place (flat, so sum-sign printing reparses to the
    # identical tree), everything else gains a -1 head.
    if isinstance(x, Const):
        return Const(-x.value)
    if isinstance(x, Prod) and x.factors and isinstance(x.factors[0], Const):
        return Prod((Const(-x.factors[0].value),) + x.factors[1:])
    if isinstance(x, Prod):
        return Prod((MINUS_ONE,) + x.factors)
    return Prod((MINUS_ONE, x))


def _reciprocal(x: ScalarExpr) -> ScalarExpr:
    if isinstance(x, Const):
        if x.value == 0:
            raise ZeroDivisionError("division by constant zero")
        return Const(1 / x.value)
    if isinstance(x, Pow):
        return Pow(x.base, -x.exponent)
    return Pow(x, -1)


def _is_negative_term(x: ScalarExpr) -> bool:
    if isinstance(x, Const):
        return x.value < 0
    if isinstance(x, Prod) and x.factors and isinstance(x.factors[0], Const):
        return x.factors[0].value < 0
    return False


def _abs_term(x: ScalarExpr) -> ScalarExpr:
    # Unique y with _negate(y) == x, for x recognized by _is_negative_term.
    if isinstance(x, Const):
        return Const(-x.value)
    return Prod((Const(-x.factors[0].value),) + x.factors[1:])


# ---------------------------------------------------------------------------
# opaque registry

@dataclass(frozen=True)
class OpaqueRule:
    evaluator: Callable[[float], float]
    derivative: Union[str, ScalarExpr]  # opaque name, or template in u


class OpaqueRegistry:
    """Write-once table of opaque function names.

    Each entry supplies a numeric evaluator and a derivative rule: either
    the name of another opaque, or an expression template in the
    placeholder variable `u` that gets the application argument
    substituted in.
    """

    def __init__(self):
        self._rules: dict[str, OpaqueRule] = {}

    def register(self, name: str, evaluator: Callable[[float], float],
                 derivative: Union[str, ScalarExpr]):
        if name in self._rules:
            raise ExprError(f"opaque {name!r} already registered")
        if not isinstance(derivative, (str, ScalarExpr)):
            raise TypeError("derivative must be an opaque name or a template")
        self._rules[name] = OpaqueRule(evaluator, derivative)

    def __contains__(self, name: str) -> bool:
        return name in self._rules

    def evaluator(self, name: str) -> Callable[[float], float]:
        try:
            return self._rules[name].evaluator
        except KeyError:
            raise UnregisteredOpaqueError(name) from None

    def derivative_of(self, name: str, arg: ScalarExpr) -> ScalarExpr:
        try:
            rule = self._rules[name].derivative
        except KeyError:
            raise UnregisteredOpaqueError(name) from None
        if isinstance(rule, str):
            if rule not in self._rules:
                raise UnregisteredOpaqueError(rule)
            return Opaque(rule, arg)
        return substitute(rule, {"u": arg})


_DEFAULT_REGISTRY = OpaqueRegistry()


def default_registry() -> OpaqueRegistry:
    return _DEFAULT_REGISTRY


# ---------------------------------------------------------------------------
# lexer / parser
#
# expr   := term (('+' | '-') term)*
# term   := factor (('*' | '/') factor)*
# factor := base ('^' signed-integer)?
# base   := rational | identifier | identifier '(' expr ')'
#         | '(' expr ')' | '-' base
# A rational literal is an integer, or integer '/' integer by immediate
# lookahead; identifiers are [A-Za-z][A-Za-z0-9_]*.

_TOK_INT = "int"
_TOK_IDENT = "ident"
_TOK_OP = "op"
_TOK_END = "end"

_DIGITS = frozenset(string.digits)
_LETTERS = frozenset(string.ascii_letters)
_IDENT_CHARS = _LETTERS | _DIGITS | {"_"}


def _tokenize(text: str) -> list[tuple]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        start = i
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append((_TOK_INT, int(text[i:j]), start))
            i = j
        elif ch in _LETTERS:
            j = i
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            tokens.append((_TOK_IDENT, text[i:j], start))
            i = j
        elif ch in "+-*/^()":
            tokens.append((_TOK_OP, ch, start))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", start)
    tokens.append((_TOK_END, None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, names, registry):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.registry = registry

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind == _TOK_OP and value == op:
            self.next()
            return
        raise ParseError(f"expected {op!r}", offset)

    def parse(self) -> ScalarExpr:
        expr = self.expr()
        kind, _, offset = self.peek()
        if kind != _TOK_END:
            raise ParseError("trailing input", offset)
        return expr

    def expr(self) -> ScalarExpr:
        terms = [self.term()]
        while True:
            kind, value, _ = self.peek()
            if kind == _TOK_OP and value in "+-":
                self.next()
                t = self.term()
                terms.append(_negate(t) if value == "-" else t)
            else:
                break
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

    def term(self) -> ScalarExpr:
        factors = [self.factor()]
        while True:
            kind, value, _ = self.peek()
            if kind == _TOK_OP and value in "*/":
                self.next()
                f = self.factor()
                factors.append(_reciprocal(f) if value == "/" else f)
            else:
                break
        return factors[0] if len(factors) == 1 else Prod(tuple(factors))

    def factor(self) -> ScalarExpr:
        base = self.base()
        kind, value, _ = self.peek()
        if kind == _TOK_OP and value == "^":
            self.next()
            exponent = self.signed_integer()
            return Pow(base, exponent)
        return base

    def signed_integer(self) -> int:
        kind, value, offset = self.next()
        sign = 1
        if kind == _TOK_OP and value == "-":
            sign = -1
            kind, value, offset = self.next()
        if kind != _TOK_INT:
            raise ParseError("expected integer exponent", offset)
        return sign * value

    def base(self) -> ScalarExpr:
        kind, value, offset = self.next()
        if kind == _TOK_OP and value == "-":
            return _negate(self.base())
        if kind == _TOK_INT:
            # lookahead for a rational literal int '/' int
            k1, v1, _ = self.peek()
            if k1 == _TOK_OP and v1 == "/":
                k2, v2, _ = self.tokens[self.pos + 1]
                if k2 == _TOK_INT:
                    self.next()
                    self.next()
                    return Const(Fraction(value, v2))
            return Const(Fraction(value))
        if kind == _TOK_IDENT:
            k1, v1, _ = self.peek()
            if k1 == _TOK_OP and v1 == "(":
                if self.registry is not None and value not in self.registry:
                    raise UnknownSymbolError(value, offset)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Opaque(value, arg)
            if self.names is not None and value not in self.names:
                raise UnknownSymbolError(value, offset)
            return Var(value)
        if kind == _TOK_OP and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a term", offset)


def parse_expr(text: str, names: Optional[Sequence[str]] = None,
               registry: Optional[OpaqueRegistry] = None) -> ScalarExpr:
    """Parse source text to an expression tree.

    When names are supplied, bare identifiers must be among them;
    applied identifiers must be registered opaques (of the default
    registry when none is given).  Errors carry the byte offset of the
    offending token.
    """
    return _Parser(_tokenize(text), names,
                   registry or _DEFAULT_REGISTRY).parse()


# ---------------------------------------------------------------------------
# printer

def _print_const(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _print_base(x: ScalarExpr) -> str:
    # something usable as the base of '^': must reparse as a single base
    if isinstance(x, Var):
        return x.name
    if isinstance(x, Opaque):
        return f"{x.name}({to_text(x.arg)})"
    if isinstance(x, Const):
        if x.value >= 0 and x.value.denominator == 1:
            return _print_const(x.value)
        return f"({_print_const(x.value)})"
    return f"({to_text(x)})"


def _print_factor(x: ScalarExpr, first: bool) -> str:
    if isinstance(x, Const):
        s = _print_const(x.value)
        # a '/' inside a non-leading rational would glue onto the previous
        # factor; negative tails would parse as subtraction
        if not first and (x.value < 0 or x.value.denominator != 1):
            return f"({s})"
        return s
    if isinstance(x, Var):
        return x.name
    if isinstance(x, Opaque):
        return f"{x.name}({to_text(x.arg)})"
    if isinstance(x, Pow):
        return f"{_print_base(x.base)}^{x.exponent}"
    return f"({to_text(x)})"


def to_text(expr: ScalarExpr) -> str:
    """Render an expression so that parsing the text rebuilds the same tree."""
    if isinstance(expr, Const):
        return _print_const(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Opaque):
        return f"{expr.name}({to_text(expr.arg)})"
    if isinstance(expr, Pow):
        return f"{_print_base(expr.base)}^{expr.exponent}"
    if isinstance(expr, Prod):
        if not expr.factors:
            return "1"
        parts = []
        for i, f in enumerate(expr.factors):
            parts.append(_print_factor(f, first=(i == 0)))
        return "*".join(parts)
    if isinstance(expr, Sum):
        if not expr.terms:
            return "0"
        pieces = []
        for i, t in enumerate(expr.terms):
            body = t
            if i == 0:
                pieces.append(f"({to_text(t)})" if isinstance(t, Sum) else to_text(t))
                continue
            negative = _is_negative_term(t)
            if negative:
                sign = " - "
                body = _abs_term(t)
            else:
                sign = " + "
            if isinstance(body, Sum):
                rendered = f"({to_text(body)})"
            elif (negative and isinstance(body, Prod) and body.factors
                  and body.factors[0] == ONE and len(body.factors) > 1
                  and not isinstance(body.factors[1], Const)
                  and not (isinstance(body.factors[1], Prod) and body.factors[1].factors
                           and isinstance(body.factors[1].factors[0], Const))):
                # drop a bare unit head: " - 1*x" reads better as " - x";
                # on reparse the subtraction goes through _negate, which
                # reconstructs exactly the same tree
                tail = body.factors[1:]
                rendered = "*".join(
                    _print_factor(f, first=(j == 0)) for j, f in enumerate(tail))
            else:
                rendered = to_text(body)
            pieces.append(sign + rendered)
        return "".join(pieces)
    raise TypeError(f"not a scalar expression: {expr!r}")


# ---------------------------------------------------------------------------
# normal form
#
# A `_NFBuilder` does all arithmetic on records, in integers.  A
# polynomial P is a pair (N, D): N = D*P is a dict {monomial: int}, and D
# is the least positive integer that makes it so, so two pairs are equal
# exactly when the polynomials are.  A quotient is a triple (numerator
# pair, denominator pair, bound on their total degrees): `sum`, `product`
# and `power` combine triples, and `visit` folds a tree by calling them,
# so a fold on records and the fold of the tree it stands for are one
# code path.  `sum` takes its common-denominator shortcut exactly when
# the denominators are equal polynomials; the forms are not
# gcd-cancelled, so that choice, and so the order of the terms, shows in
# them.  A monomial is one int in which every atom owns a bit field of
# width _EXP_BITS, so multiplying monomials is adding ints.  The memo's
# atom table (`memo.Memo.offsets`) fixes the field of every atom (a
# variable, by name, or an opaque atom, by key) the first time a builder
# on one of the memo's charts meets it, so the builders of a chart
# lineage pack every atom alike.  An `ExprError` is raised before the
# degree bound, and so any exponent, could reach 2^_EXP_BITS, so a field
# never carries into the next.  A builder lists the variables it met
# (`variables`).
#
# `finish` ends a fold in a `_NormalForm`: the numerator and denominator
# as integer polynomials of joint content 1 with a positive leading
# denominator coefficient, and the atoms of their terms (keys order chart
# variables by position, then opaque atoms by name and printed argument).
# `reuse` re-enters one as the triple the fold of its printed tree gives,
# read from the record on its chart and the charts that extend it.  So
# vector fields and forms hold records, a Lie bracket or an elimination
# folds on them in one builder, and a record is printed (its `tree`,
# terms graded-lex descending, made once) only when a caller reads it;
# the builder also prints the canonical argument of an opaque atom.  The
# value at a rational point is read from the integer terms of a record
# (`_evaluate_exact`), and a derivative over a constant denominator is
# taken on the integer numerator (`_polynomial_derivative`).

_NO_CHART_INDEX = 10**6

_EXP_BITS = 64
_EXP_MASK = (1 << _EXP_BITS) - 1

_POLY_ZERO = ({}, 1)
_POLY_ONE = ({0: 1}, 1)


def _poly_reduced(n: dict, d: int):
    # divide out gcd(content N, D), leaving the least denominator
    if d != 1:
        g = math.gcd(d, *n.values())
        if g != 1:
            n = {m: c // g for m, c in n.items()}
            d //= g
    return n, d


def _poly_add(a, b):
    (n1, d1), (n2, d2) = a, b
    if d1 == d2:
        out, d, s2 = dict(n1), d1, 1
    else:
        d = math.lcm(d1, d2)
        s1, s2 = d // d1, d // d2
        out = {m: c * s1 for m, c in n1.items()}
    get = out.get
    for m, c in n2.items():
        s = get(m, 0) + c * s2
        if s:
            out[m] = s
        else:
            del out[m]
    return _poly_reduced(out, d)


def _poly_mul(a, b):
    # both pairs are reduced, so a factor 1 leaves the other as it is
    if a == _POLY_ONE:
        return b
    if b == _POLY_ONE:
        return a
    (n1, d1), (n2, d2) = a, b
    if len(n1) == 1 or len(n2) == 1:
        # a one-term factor (a constant, an atom, a monomial
        # denominator) is the common case: no two products collide
        if len(n2) != 1:
            n1, n2 = n2, n1
        ((m2, c2),) = n2.items()
        return _poly_reduced({m + m2: c * c2 for m, c in n1.items()},
                             d1 * d2)
    out = {}
    get = out.get
    for m1, c1 in n1.items():
        for m2, c2 in n2.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    out = {m: c for m, c in out.items() if c}
    return _poly_reduced(out, d1 * d2)


def _poly_pow(a, k: int):
    result = _POLY_ONE
    base = a
    while True:
        if k & 1:
            result = _poly_mul(result, base)
        k >>= 1
        if not k:
            return result
        base = _poly_mul(base, base)


def _degree_checked(bound: int) -> int:
    if bound >> _EXP_BITS:
        raise ExprError(
            f"exponent overflow: a degree of up to {bound} does not fit "
            f"the {_EXP_BITS}-bit exponent field")
    return bound


def _exponents(m: int, atoms) -> list:
    """The exponent of each of `atoms` ((atom key, offset, expr), ...) in
    the monomial m."""
    return [(m >> offset) & _EXP_MASK for _, offset, _ in atoms]


def _print_order(poly: dict, atoms) -> list:
    """The monomials of `poly` graded-lex descending: by total degree,
    then by the exponent of each of `atoms`, sorted by key, in turn."""
    def key(m: int):
        exps = _exponents(m, atoms)
        return sum(exps), exps
    return sorted(poly, key=key, reverse=True)


@dataclass(frozen=True, eq=False)
class _NormalForm:
    """The quotient a fold ends with (see "normal form" above)."""

    names: tuple    # of the chart it was built on
    num: dict       # {monomial: int}
    den: dict
    atoms: tuple    # ((atom key, offset, ScalarExpr), ...) of the terms,
                    # sorted by key
    table: Optional[dict] = field(default=None, repr=False)
                    # the atom table that fixed the offsets

    @functools.cached_property
    def _hash(self) -> int:
        # of what no atom table fixes: equal records hash alike
        return hash((tuple(key for key, _, _ in self.atoms),
                     frozenset(self.num.values()),
                     frozenset(self.den.values())))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        """The same function: the same terms and atoms on one atom
        table, else (two chart lineages) the same printed tree."""
        if not isinstance(other, _NormalForm):
            return False
        if self.atoms and self.table is not other.table:
            return self.tree == other.tree
        return (self.num == other.num and self.den == other.den
                and self.atoms == other.atoms)

    @functools.cached_property
    def order(self) -> tuple:
        """The `_print_order` of the numerator and of the denominator."""
        return (_print_order(self.num, self.atoms),
                _print_order(self.den, self.atoms))

    @functools.cached_property
    def deg(self) -> int:
        """The bound a fold of the printed tree gives: the total degree
        of the numerator plus that of the denominator."""
        return sum(sum(_exponents(order[0], self.atoms))
                   for order in self.order if order)

    @functools.cached_property
    def tree(self) -> ScalarExpr:
        """The printed tree, terms graded-lex descending, made once."""
        return _quotient_tree((self.num, 1), (self.den, 1), self.order,
                              self.atoms)

    @functools.cached_property
    def opaque_free(self) -> bool:
        """Whether every atom is a variable."""
        return all(key[0] == 0 for key, _, _ in self.atoms)


class _NFBuilder:
    """Folds trees and records into quotients of integer polynomial
    pairs (see "normal form" above) on a `vecfield.Chart`, whose memo
    holds the atom table and fills with the derivatives it takes."""

    def __init__(self, chart):
        self.chart = chart
        self.names = chart.variables
        self.offsets = chart.memo.offsets
        self.atoms = {}  # atom key -> (offset of its exponent field, expr)

    def atom(self, key, name, expr: ScalarExpr) -> int:
        """The monomial of the atom `key`, `name` in the atom table."""
        entry = self.atoms.get(key)
        if entry is None:
            offsets = self.offsets
            offset = offsets.get(name)
            if offset is None:
                offset = offsets[name] = _EXP_BITS * len(offsets)
            entry = self.atoms[key] = (offset, expr)
        return 1 << entry[0]

    def var_atom(self, var: Var) -> int:
        name = var.name
        if name in self.names:
            idx = self.names.index(name)
        else:
            idx = _NO_CHART_INDEX
        return self.atom((0, idx, name), name, var)

    def opaque_atom(self, name: str, arg: ScalarExpr) -> int:
        num, den, _ = self.visit(arg)
        atoms = self.term_atoms(num[0], den[0])
        canon_arg = _quotient_tree(
            num, den, (_print_order(num[0], atoms),
                       _print_order(den[0], atoms)), atoms)
        key = (1, name, to_text(canon_arg))
        return self.atom(key, key, Opaque(name, canon_arg))

    def variables(self) -> set:
        """The names of the variables this builder met, inside opaque
        arguments too."""
        return {key[2] for key in self.atoms if key[0] == 0}

    def term_atoms(self, *polys) -> tuple:
        """((atom key, offset, expr), ...) sorted by key, of the atoms
        whose exponent is positive in some monomial of `polys`."""
        bits = 0
        for poly in polys:
            for m in poly:
                bits |= m
        return tuple((key, offset, expr)
                     for key, (offset, expr) in sorted(self.atoms.items())
                     if (bits >> offset) & _EXP_MASK)

    def reuse(self, nf: _NormalForm):
        """The triple of the printed tree of `nf`, read from the record
        when it was built on this chart's lineage and on a prefix of its
        names, so that its atoms sit in their fields here; else the
        printed tree is folded."""
        if nf.atoms:
            if nf.table is not self.offsets or (
                    nf.names is not self.names
                    and nf.names != self.names[:len(nf.names)]):
                return self.visit(nf.tree)
            atoms = self.atoms
            for key, offset, expr in nf.atoms:
                if key not in atoms:
                    atoms[key] = (offset, expr)
        return (nf.num, 1), (nf.den, 1), nf.deg

    def derivative(self, nf: _NormalForm, var: str):
        """The triple of d/d(var) of the record `nf` (see `_derivative`)."""
        return self.reuse(_derivative(nf, var, self.chart))

    def visit(self, expr: ScalarExpr):
        """(numerator, denominator, bound on their total degrees)."""
        if isinstance(expr, Const):
            q = expr.value
            return ({0: q.numerator} if q else {}, q.denominator), _POLY_ONE, 0
        if isinstance(expr, Var):
            return ({self.var_atom(expr): 1}, 1), _POLY_ONE, 1
        if isinstance(expr, Opaque):
            mono = self.opaque_atom(expr.name, expr.arg)
            return ({mono: 1}, 1), _POLY_ONE, 1
        if isinstance(expr, Sum):
            return self.sum(map(self.visit, expr.terms))
        if isinstance(expr, Prod):
            return self.product(map(self.visit, expr.factors))
        if isinstance(expr, Pow):
            return self.power(self.visit(expr.base), expr.exponent)
        raise TypeError(f"not a scalar expression: {expr!r}")

    def sum(self, triples):
        """The triple of the sum of `triples`, folded in order."""
        num, den, deg = _POLY_ZERO, _POLY_ONE, 0
        for tn, td, tdeg in triples:
            if td == den:
                num = _poly_add(num, tn)
                deg = max(deg, tdeg)
            else:
                deg = _degree_checked(deg + tdeg)
                num = _poly_add(_poly_mul(num, td), _poly_mul(tn, den))
                den = _poly_mul(den, td)
        return num, den, deg

    def product(self, triples):
        """The triple of the product of `triples`."""
        num, den, deg = _POLY_ONE, _POLY_ONE, 0
        for fn, fd, fdeg in triples:
            deg = _degree_checked(deg + fdeg)
            num = _poly_mul(num, fn)
            den = _poly_mul(den, fd)
        return num, den, deg

    def power(self, triple, k: int):
        """The triple of `triple` to the integer power k."""
        bn, bd, bdeg = triple
        if k >= 0:
            deg = _degree_checked(bdeg * k)
            return _poly_pow(bn, k), _poly_pow(bd, k), deg
        if not bn[0]:
            raise ZeroDenominatorError(
                "negative power of an identically zero base")
        deg = _degree_checked(bdeg * -k)
        return _poly_pow(bd, -k), _poly_pow(bn, -k), deg

    def finish(self, triple) -> _NormalForm:
        """The normal form of a triple of this builder."""
        (nn, nd), (dn, dd), _ = triple
        if not dn:
            raise ZeroDenominatorError("denominator normalizes to zero")
        if not nn:
            return _NormalForm(self.names, {}, _POLY_ONE[0], (),
                               self.offsets)
        # (nn/nd) / (dn/dd) = (nn*dd) / (dn*nd), over their joint content
        # g, signed to make the leading denominator coefficient positive
        atoms = self.term_atoms(nn, dn)
        g = math.gcd(dd * math.gcd(*nn.values()),
                     nd * math.gcd(*dn.values()))
        if dn[_print_order(dn, atoms)[0]] < 0:
            g = -g
        den = {m: c * nd // g for m, c in dn.items()}  # 1 shares one dict
        return _NormalForm(self.names,
                           {m: c * dd // g for m, c in nn.items()},
                           _POLY_ONE[0] if den == _POLY_ONE[0] else den,
                           atoms, self.offsets)


# the records of the constants 0 and 1, which hold on every chart, and
# the triple of -1
_NF_ZERO = _NormalForm((), {}, _POLY_ONE[0], ())
_NF_ONE = _NormalForm((), {0: 1}, _POLY_ONE[0], ())
_MINUS_ONE = ({0: -1}, 1), _POLY_ONE, 0


def _term_tree(c: int, d: int, m: int, atoms) -> ScalarExpr:
    """The tree of the term c/d times the monomial m."""
    factors = []
    if c != d or not m:
        factors.append(Const(Fraction(c, d)))
    for _, offset, base in atoms:
        exp = (m >> offset) & _EXP_MASK
        if exp:
            factors.append(base if exp == 1 else Pow(base, exp))
    if len(factors) == 1:
        return factors[0]
    return Prod(tuple(factors))


def _poly_tree(poly, order, atoms) -> ScalarExpr:
    n, d = poly
    if not order:
        return ZERO
    terms = [_term_tree(n[m], d, m, atoms) for m in order]
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def _quotient_tree(num, den, orders, atoms) -> ScalarExpr:
    """The tree of the quotient of the pairs `num` and `den`, whose terms
    print in `orders`."""
    num_tree = _poly_tree(num, orders[0], atoms)
    if den == _POLY_ONE:
        return num_tree
    recip = Pow(_poly_tree(den, orders[1], atoms), -1)
    if num_tree == ONE:
        return recip
    if isinstance(num_tree, Prod):
        return Prod(num_tree.factors + (recip,))
    return Prod((num_tree, recip))


@memoized
def _normal_form(expr: ScalarExpr, chart) -> _NormalForm:
    """The normal form of `expr` on the chart (see `_NFBuilder.finish`)."""
    builder = _NFBuilder(chart)
    return builder.finish(builder.visit(expr))


def normalize(expr: ScalarExpr, chart) -> ScalarExpr:
    """Canonical form: expanded numerator over expanded denominator, terms
    in graded-lex order.  Idempotent; equal outputs mean equal functions,
    and equality of two expressions is decided by is_zero of their
    difference (no polynomial gcd is cancelled here)."""
    return _normal_form(expr, chart).tree


# ---------------------------------------------------------------------------
# calculus and evaluation

def differentiate(expr: ScalarExpr, var: str, chart) -> ScalarExpr:
    """Partial derivative with respect to a chart variable, normalized.

    The derivative of the normal form of `expr` (see `_derivative`).
    Opaque applications use the derivative rule of the chart's registry
    and the chain rule; the rule's target must itself be registered.
    """
    if var not in chart.variables:
        raise UndeclaredVariableError(var)
    return _derivative(_normal_form(expr, chart), var, chart).tree


@memoized
def _derivative(nf: _NormalForm, var: str, chart) -> _NormalForm:
    """The normal form of the product-rule fold of d/d(var) of the
    printed tree of `nf`, taken on the integer numerator when the
    denominator is a constant and every atom a variable.  The chart's
    memo is shared only by charts with its registry, which is
    write-once, so the rules a derivative used cannot change under it."""
    if nf.den.keys() == {0} and nf.opaque_free:
        return _polynomial_derivative(nf, var, chart)
    return _normal_form(
        _tree_derivative(nf.tree, var, chart.registry), chart)


def _tree_derivative(node: ScalarExpr, var: str,
                     registry: OpaqueRegistry) -> ScalarExpr:
    """The unnormalized tree of d(node)/d(var): the sum, product, power
    and chain rules, with the registry's rule for an opaque."""
    if isinstance(node, Const):
        return ZERO
    if isinstance(node, Var):
        return ONE if node.name == var else ZERO
    if isinstance(node, Sum):
        return Sum(tuple(_tree_derivative(t, var, registry)
                         for t in node.terms))
    if isinstance(node, Prod):
        pieces = []
        for i in range(len(node.factors)):
            fs = list(node.factors)
            fs[i] = _tree_derivative(fs[i], var, registry)
            pieces.append(Prod(tuple(fs)))
        return Sum(tuple(pieces))
    if isinstance(node, Pow):
        if node.exponent == 0:
            return ZERO
        return Prod((Const(Fraction(node.exponent)),
                     Pow(node.base, node.exponent - 1),
                     _tree_derivative(node.base, var, registry)))
    if isinstance(node, Opaque):
        outer = registry.derivative_of(node.name, node.arg)
        return Prod((outer, _tree_derivative(node.arg, var, registry)))
    raise TypeError(f"not a scalar expression: {node!r}")


def _polynomial_derivative(nf: _NormalForm, var: str,
                           chart) -> _NormalForm:
    """The normal form of d/d(var) of N/c printed from `nf`, N an integer
    polynomial and c a constant.

    Every denominator in the fold of the product-rule tree is then a
    constant, so the fold is a multiple of (dN/d(var), c), and a normal
    form with a constant denominator is the one pair of coprime content
    for its polynomial: this is that pair, taken term by term."""
    builder = _NFBuilder(chart)
    (num, _), (den, _), _ = builder.reuse(nf)
    entry = builder.atoms.get((0, chart.variables.index(var), var))
    derivative = {}
    if entry is not None:
        offset = entry[0]
        one = 1 << offset
        for m, c in num.items():
            e = (m >> offset) & _EXP_MASK
            if e:
                derivative[m - one] = c * e
    return builder.finish(((derivative, 1), (den, 1), 0))


def substitute(expr: ScalarExpr, mapping: dict) -> ScalarExpr:
    """Replace variables by expressions (or numbers) throughout the tree."""
    coerced = {name: _coerce(value) for name, value in mapping.items()}

    def walk(node: ScalarExpr) -> ScalarExpr:
        if isinstance(node, Var):
            return coerced.get(node.name, node)
        if isinstance(node, Const):
            return node
        if isinstance(node, Sum):
            return Sum(tuple(walk(t) for t in node.terms))
        if isinstance(node, Prod):
            return Prod(tuple(walk(f) for f in node.factors))
        if isinstance(node, Pow):
            return Pow(walk(node.base), node.exponent)
        if isinstance(node, Opaque):
            return Opaque(node.name, walk(node.arg))
        raise TypeError(f"not a scalar expression: {node!r}")

    return walk(expr)


def _evaluate_exact(nf: _NormalForm, point: dict) -> Optional[Fraction]:
    """The value of an opaque-free normal form at a point whose values of
    its variables are ints or Fractions, computed in integers: with L
    the lcm of their denominators and x = X/L, the numerator N of total
    degree n has N(x) = N~(X)/L^n for an integer N~, and likewise the
    denominator.  None when an atom is opaque or a value is missing or
    not rational (the tree walk then decides); ZeroDivisionError at a
    pole, as the walk raises at the reciprocal of the denominator."""
    if not nf.atoms:
        return Fraction(nf.num.get(0, 0), nf.den[0])
    values = []
    scale = 1
    for key, offset, _ in nf.atoms:
        v = point.get(key[2])
        if key[0] or not isinstance(v, (int, Fraction)):
            return None
        values.append((offset, v))
        scale = math.lcm(scale, v.denominator)
    values = [(offset, v.numerator * (scale // v.denominator))
              for offset, v in values]
    num_order, den_order = nf.order
    num, num_deg = _integer_value(nf.num, num_order, values, scale)
    den, den_deg = _integer_value(nf.den, den_order, values, scale)
    if not den:
        raise ZeroDivisionError("pole: zero base with negative exponent")
    if scale != 1:
        num *= scale ** den_deg
        den *= scale ** num_deg
    return Fraction(num, den)


def _value(nf: _NormalForm, point: dict, registry: OpaqueRegistry):
    """`_evaluate_exact`, else the walk of the printed tree of `nf`."""
    value = _evaluate_exact(nf, point)
    return evaluate(nf.tree, point, registry) if value is None else value


def _integer_value(poly: dict, order: list, values: list, scale: int):
    """(L^n * P(X/L), n) for an integer polynomial P of total degree n
    whose monomials are `order`, X the integer values ((offset, X_i),
    ...) of its atoms."""
    # the leading monomial's degree is the largest
    degree = sum((order[0] >> offset) & _EXP_MASK
                 for offset, _ in values) if order else 0
    total = 0
    for m in order:
        term = poly[m]
        d = 0
        for offset, x in values:
            e = (m >> offset) & _EXP_MASK
            if e:
                term *= x ** e
                d += e
        if d != degree:
            term *= scale ** (degree - d)
        total += term
    return total, degree


def evaluate(expr: ScalarExpr, point: dict,
             registry: Optional[OpaqueRegistry] = None):
    """Evaluate at a point (dict of variable values).

    Returns an exact Fraction when the expression is opaque-free and all
    used values are rational; otherwise a float.  A constant is its
    value; every other case walks the tree (`_value` evaluates a record).
    """
    if expr.__class__ is Const:
        return expr.value
    reg = registry or _DEFAULT_REGISTRY

    def ev(node: ScalarExpr):
        if isinstance(node, Const):
            return node.value
        if isinstance(node, Var):
            try:
                v = point[node.name]
            except KeyError:
                raise MissingAssignmentError(node.name) from None
            if isinstance(v, float):
                return v
            return as_fraction(v)
        if isinstance(node, Sum):
            total = Fraction(0)
            for t in node.terms:
                total = total + ev(t)
            return total
        if isinstance(node, Prod):
            total = Fraction(1)
            for f in node.factors:
                total = total * ev(f)
            return total
        if isinstance(node, Pow):
            b = ev(node.base)
            if node.exponent < 0 and b == 0:
                raise ZeroDivisionError("pole: zero base with negative exponent")
            return b ** node.exponent
        if isinstance(node, Opaque):
            fn = reg.evaluator(node.name)
            return float(fn(float(ev(node.arg))))
        raise TypeError(f"not a scalar expression: {node!r}")

    return ev(expr)


def compile_expr(expr: ScalarExpr, var_order: Sequence[str],
                 registry: Optional[OpaqueRegistry] = None) -> Callable:
    """Compile to a float function of positional arguments, one per name
    in var_order."""
    batch = compile_exprs((expr,), var_order, registry)
    return lambda *values: batch(values)[0]


def compile_exprs(exprs: Sequence[ScalarExpr], var_order: Sequence[str],
                  registry: Optional[OpaqueRegistry] = None) -> Callable:
    """Compile a batch of expressions into one function taking a value
    sequence ordered like var_order and returning the list of their
    float values.  Used in integrator hot loops."""
    reg = registry or _DEFAULT_REGISTRY
    order = list(var_order)
    opaque_fns = {}

    def emit(node: ScalarExpr) -> str:
        if isinstance(node, Const):
            if node.value.denominator == 1:
                return f"({node.value.numerator}.0)"
            return f"({node.value.numerator}/{node.value.denominator})"
        if isinstance(node, Var):
            try:
                return f"v{order.index(node.name)}"
            except ValueError:
                raise MissingAssignmentError(node.name) from None
        if isinstance(node, Sum):
            if not node.terms:
                return "(0.0)"
            return "(" + "+".join(emit(t) for t in node.terms) + ")"
        if isinstance(node, Prod):
            if not node.factors:
                return "(1.0)"
            return "(" + "*".join(emit(f) for f in node.factors) + ")"
        if isinstance(node, Pow):
            return f"({emit(node.base)}**({node.exponent}))"
        if isinstance(node, Opaque):
            fname = f"_op_{node.name}"
            opaque_fns[fname] = reg.evaluator(node.name)
            return f"{fname}({emit(node.arg)})"
        raise TypeError(f"not a scalar expression: {node!r}")

    bodies = [emit(e) for e in exprs]
    args = "".join(f"v{i}," for i in range(len(order)))
    unpack = f"    {args} = values\n" if args else ""
    src = (f"def _compiled(values):\n{unpack}"
           f"    return [{', '.join(bodies)}]\n")
    namespace = dict(opaque_fns)
    exec(src, namespace)  # noqa: S102 - source is generated locally
    return namespace["_compiled"]


# ---------------------------------------------------------------------------
# zero testing

@dataclass(frozen=True)
class ZeroCheck:
    """Outcome of is_zero: status is 'provably-zero', 'numerically-zero',
    or 'nonzero' (with a witness point and value)."""

    status: str
    witness: Optional[dict] = None
    value: object = None

    def __bool__(self):
        return self.status in ("provably-zero", "numerically-zero")


_ZERO_SAMPLES = 32
_NUMERIC_TOL = 1e-9


def is_zero(x, box: Box, chart) -> ZeroCheck:
    """Decide whether `x`, a tree or a normal-form record, vanishes
    identically on a box, not on the whole chart: a tree has the
    coordinates the box fixes (zero-width intervals) substituted and is
    folded once, and a record that may use one (a variable, or an opaque
    atom through its argument) is printed once and decided as that tree.
    An opaque-free normal form is decided exactly; otherwise its printed
    tree is evaluated at 32 quasi-random rational points and compared
    against 1e-9 * (1 + max |coefficient|).  The opaques are those of
    the chart's registry.
    """
    fixed = {name: lo for name, lo, hi in box.intervals if lo == hi}
    if isinstance(x, _NormalForm) and not (fixed and any(
            key[0] or key[2] in fixed for key, _, _ in x.atoms)):
        nf = x
    else:
        tree = x.tree if isinstance(x, _NormalForm) else x
        nf = _normal_form(substitute(tree, fixed) if fixed else tree, chart)
    registry = chart.registry
    if not nf.num:
        # opaque atoms may appear in the tree, but if none survive in the
        # numerator the function is the zero rational function
        return ZeroCheck("provably-zero")
    if nf.opaque_free:
        # exact witness search over Halton points; skip denominator zeros
        tried = 0
        skip = 0
        while tried < 8 * _ZERO_SAMPLES:
            for pt in box.sample_points(_ZERO_SAMPLES, skip=skip):
                tried += 1
                try:
                    v = _value(nf, pt, registry)
                except ZeroDivisionError:
                    continue
                if v != 0:
                    return ZeroCheck("nonzero", witness=pt, value=v)
            skip += _ZERO_SAMPLES
        raise ExprError("nonzero normal form but no witness found in box")
    max_coeff = 0.0
    for c in nf.num.values():
        max_coeff = max(max_coeff, abs(float(c)))
    threshold = _NUMERIC_TOL * (1.0 + max_coeff)
    worst_pt, worst_val = None, 0.0
    for pt in box.sample_points(_ZERO_SAMPLES):
        fpt = {k: float(v) for k, v in pt.items()}
        try:
            v = float(evaluate(nf.tree, fpt, registry))
        except ZeroDivisionError:
            continue
        if abs(v) > abs(worst_val):
            worst_pt, worst_val = pt, v
        if abs(v) > threshold:
            return ZeroCheck("nonzero", witness=pt, value=v)
    return ZeroCheck("numerically-zero", witness=worst_pt, value=worst_val)


def min_degree(nf: _NormalForm, var: str) -> Optional[int]:
    """The order of vanishing in `var` of the record `nf`: the lowest
    power of `var` among the numerator terms minus the lowest among the
    denominator terms.  None for zero and when an opaque atom is
    present."""
    if not nf.num or not nf.opaque_free:
        return None
    offset = next((offset for key, offset, _ in nf.atoms if key[2] == var),
                  None)
    if offset is None:
        return 0
    return (min((m >> offset) & _EXP_MASK for m in nf.num)
            - min((m >> offset) & _EXP_MASK for m in nf.den))

"""Exact symbolic scalar fields on coordinate charts.

Expressions are immutable trees over six node kinds: rational constants,
variables, sums, products, integer powers, and opaque function
applications.  Every expression normalizes to a quotient of two expanded
multivariate polynomials (integer coefficients, coprime content) in the
chart variables and opaque atoms, ordered graded-lexicographically by
chart declaration order.  No polynomial gcd is cancelled: soundness of
the zero test needs only that the numerator vanish identically.

Opaque atoms model smooth functions known only through a registry entry
(numeric evaluator plus derivative rule); everything else is exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .boxes import Box, as_fraction

__all__ = [
    "ScalarExpr", "Const", "Var", "Sum", "Prod", "Pow", "Opaque",
    "OpaqueRegistry", "default_registry", "ZeroCheck",
    "ExprError", "ParseError", "UnknownSymbolError", "UndeclaredVariableError",
    "UnregisteredOpaqueError", "ZeroDenominatorError", "MissingAssignmentError",
    "parse_expr", "to_text", "normalize", "differentiate", "substitute",
    "evaluate", "compile_expr", "compile_exprs", "is_zero", "min_degree",
    "const", "free_variables",
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

class ScalarExpr:
    """Base class; concrete nodes are the six dataclasses below."""

    __slots__ = ()

    def __add__(self, other):
        return Sum((self, _coerce(other)))

    def __radd__(self, other):
        return Sum((_coerce(other), self))

    def __sub__(self, other):
        return Sum((self, _negate(_coerce(other))))

    def __rsub__(self, other):
        return Sum((_coerce(other), _negate(self)))

    def __mul__(self, other):
        return Prod((self, _coerce(other)))

    def __rmul__(self, other):
        return Prod((_coerce(other), self))

    def __truediv__(self, other):
        return Prod((self, _reciprocal(_coerce(other))))

    def __rtruediv__(self, other):
        return Prod((_coerce(other), _reciprocal(self)))

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("exponents must be Python ints")
        return Pow(self, exponent)

    def __neg__(self):
        return _negate(self)

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True)
class Const(ScalarExpr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", as_fraction(self.value))


@dataclass(frozen=True)
class Var(ScalarExpr):
    name: str


@dataclass(frozen=True)
class Sum(ScalarExpr):
    terms: tuple


@dataclass(frozen=True)
class Prod(ScalarExpr):
    factors: tuple


@dataclass(frozen=True)
class Pow(ScalarExpr):
    base: ScalarExpr
    exponent: int


@dataclass(frozen=True)
class Opaque(ScalarExpr):
    name: str
    arg: ScalarExpr


def const(value) -> Const:
    return Const(as_fraction(value))


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
        return Prod((Const(Fraction(-1)),) + x.factors)
    return Prod((Const(Fraction(-1)), x))


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
    derivative: Union[str, tuple]  # opaque name, or (template, placeholder)


class OpaqueRegistry:
    """Write-once table of opaque function names.

    Each entry supplies a numeric evaluator and a derivative rule: either
    the name of another opaque, or an expression template in a placeholder
    variable that gets the application argument substituted in.
    """

    def __init__(self):
        self._rules: dict[str, OpaqueRule] = {}

    def register(self, name: str, evaluator: Callable[[float], float],
                 derivative: Union[str, ScalarExpr], placeholder: str = "u"):
        if name in self._rules:
            raise ExprError(f"opaque {name!r} already registered")
        if isinstance(derivative, ScalarExpr):
            rule = OpaqueRule(evaluator, (derivative, placeholder))
        elif isinstance(derivative, str):
            rule = OpaqueRule(evaluator, derivative)
        else:
            raise TypeError("derivative must be an opaque name or a template")
        self._rules[name] = rule

    def __contains__(self, name: str) -> bool:
        return name in self._rules

    def names(self):
        return sorted(self._rules)

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
        template, placeholder = rule
        return substitute(template, {placeholder: arg})


_DEFAULT_REGISTRY = OpaqueRegistry()


def default_registry() -> OpaqueRegistry:
    return _DEFAULT_REGISTRY


def _registry(registry: Optional[OpaqueRegistry]) -> OpaqueRegistry:
    return registry if registry is not None else _DEFAULT_REGISTRY


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


def _tokenize(text: str) -> list[tuple]:
    tokens = []
    i = 0
    n = len(text)
    byte_of = [0]
    total = 0
    for ch in text:
        total += len(ch.encode("utf-8"))
        byte_of.append(total)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        start = byte_of[i]
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append((_TOK_INT, int(text[i:j]), start))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((_TOK_IDENT, text[i:j], start))
            i = j
        elif ch in "+-*/^()":
            tokens.append((_TOK_OP, ch, start))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", start)
    tokens.append((_TOK_END, None, byte_of[n]))
    return tokens


class _Parser:
    def __init__(self, tokens, chart, registry):
        self.tokens = tokens
        self.pos = 0
        self.chart = list(chart) if chart is not None else None
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
            if self.chart is not None and value not in self.chart:
                raise UnknownSymbolError(value, offset)
            return Var(value)
        if kind == _TOK_OP and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a term", offset)


def parse_expr(text: str, chart: Optional[Sequence[str]] = None,
               registry: Optional[OpaqueRegistry] = None) -> ScalarExpr:
    """Parse source text to an expression tree.

    When a chart is supplied, bare identifiers must be chart variables;
    applied identifiers must be registered opaques.  Errors carry the
    byte offset of the offending token.
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens, chart, _registry(registry))
    return parser.parse()


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
                  and body.factors[0] == Const(Fraction(1)) and len(body.factors) > 1
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
# A polynomial is a dict {monomial: Fraction}; a monomial is a sorted
# tuple of (atom key, positive exponent) pairs.  Atom keys order chart
# variables first (by declaration position), then opaque atoms by name
# and printed argument.

_NO_CHART_INDEX = 10**6

_POLY_ONE = {(): Fraction(1)}


def _poly_zero():
    return {}


def _poly_const(q: Fraction):
    return {(): q} if q != 0 else {}


def _poly_add(a, b):
    out = dict(a)
    for mono, coeff in b.items():
        s = out.get(mono, Fraction(0)) + coeff
        if s == 0:
            out.pop(mono, None)
        else:
            out[mono] = s
    return out


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for atom, exp in m2:
        merged[atom] = merged.get(atom, 0) + exp
    return tuple(sorted(merged.items()))


def _poly_mul(a, b):
    if not a or not b:
        return {}
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mono = _mono_mul(m1, m2)
            s = out.get(mono, Fraction(0)) + c1 * c2
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
    return out


def _poly_pow(a, k: int):
    result = dict(_POLY_ONE)
    base = a
    while True:
        if k & 1:
            result = _poly_mul(result, base)
        k >>= 1
        if not k:
            return result
        base = _poly_mul(base, base)


def _mono_degree(mono) -> int:
    return sum(exp for _, exp in mono)


def _mono_cmp(a, b) -> int:
    # graded lex: higher total degree first, then higher power of the
    # earliest atom (in chart declaration order)
    da, db = _mono_degree(a), _mono_degree(b)
    if da != db:
        return 1 if da > db else -1
    ia = ib = 0
    while ia < len(a) or ib < len(b):
        atom_a = a[ia][0] if ia < len(a) else None
        atom_b = b[ib][0] if ib < len(b) else None
        if atom_a == atom_b:
            ea, eb = a[ia][1], b[ib][1]
            if ea != eb:
                return 1 if ea > eb else -1
            ia += 1
            ib += 1
        elif atom_b is None or (atom_a is not None and atom_a < atom_b):
            return 1  # a involves an earlier atom with positive power
        else:
            return -1
    return 0


_mono_sort_key = functools.cmp_to_key(_mono_cmp)


def _leading_mono(poly):
    return max(poly, key=_mono_sort_key)


@dataclass(frozen=True)
class _NormalForm:
    num: tuple          # sorted ((mono, coeff), ...) graded-lex descending
    den: tuple
    atom_exprs: tuple   # ((atom_key, ScalarExpr), ...) for rebuilding


class _NFBuilder:
    """Folds an expression tree into a normal-form quotient."""

    def __init__(self, chart, strict_chart: bool):
        self.chart = list(chart) if chart is not None else None
        self.strict = strict_chart and chart is not None
        self.atom_exprs = {}

    def var_atom(self, name: str):
        if self.chart is not None and name in self.chart:
            idx = self.chart.index(name)
        elif self.strict:
            raise UndeclaredVariableError(name)
        else:
            idx = _NO_CHART_INDEX
        key = (0, idx, name)
        self.atom_exprs.setdefault(key, Var(name))
        return key

    def opaque_atom(self, name: str, arg: ScalarExpr):
        canon_arg = self.rebuild_subexpr(arg)
        key = (1, name, to_text(canon_arg))
        self.atom_exprs.setdefault(key, Opaque(name, canon_arg))
        return key

    def rebuild_subexpr(self, arg: ScalarExpr) -> ScalarExpr:
        num, den = self.visit(arg)
        return _quotient_tree(_sorted_poly(num), _sorted_poly(den), self.atom_exprs)

    def visit(self, expr: ScalarExpr):
        if isinstance(expr, Const):
            return _poly_const(expr.value), dict(_POLY_ONE)
        if isinstance(expr, Var):
            atom = self.var_atom(expr.name)
            return {((atom, 1),): Fraction(1)}, dict(_POLY_ONE)
        if isinstance(expr, Opaque):
            atom = self.opaque_atom(expr.name, expr.arg)
            return {((atom, 1),): Fraction(1)}, dict(_POLY_ONE)
        if isinstance(expr, Sum):
            num, den = _poly_zero(), dict(_POLY_ONE)
            for t in expr.terms:
                tn, td = self.visit(t)
                if td == den:
                    num = _poly_add(num, tn)
                else:
                    num = _poly_add(_poly_mul(num, td), _poly_mul(tn, den))
                    den = _poly_mul(den, td)
            return num, den
        if isinstance(expr, Prod):
            num, den = dict(_POLY_ONE), dict(_POLY_ONE)
            for f in expr.factors:
                fn, fd = self.visit(f)
                num = _poly_mul(num, fn)
                den = _poly_mul(den, fd)
            return num, den
        if isinstance(expr, Pow):
            bn, bd = self.visit(expr.base)
            k = expr.exponent
            if k >= 0:
                return _poly_pow(bn, k), _poly_pow(bd, k)
            if not bn:
                raise ZeroDenominatorError(
                    "negative power of an identically zero base")
            return _poly_pow(bd, -k), _poly_pow(bn, -k)
        raise TypeError(f"not a scalar expression: {expr!r}")


def _content_normalize(num, den):
    """Scale to integer coefficients with coprime joint content and a
    positive leading denominator coefficient."""
    if not den:
        raise ZeroDenominatorError("denominator normalizes to zero")
    if not num:
        return {}, dict(_POLY_ONE)
    import math
    lcm = 1
    for c in list(num.values()) + list(den.values()):
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    gcd = 0
    for c in list(num.values()) + list(den.values()):
        gcd = math.gcd(gcd, abs(int(c * lcm)))
    scale = Fraction(lcm, gcd)
    num = {m: c * scale for m, c in num.items()}
    den = {m: c * scale for m, c in den.items()}
    if den[_leading_mono(den)] < 0:
        num = {m: -c for m, c in num.items()}
        den = {m: -c for m, c in den.items()}
    return num, den


def _sorted_poly(poly):
    return tuple(sorted(poly.items(), key=lambda item: _mono_sort_key(item[0]),
                        reverse=True))


def _atom_expr(atom_key, atom_exprs) -> ScalarExpr:
    return atom_exprs[atom_key]


def _term_tree(mono, coeff: Fraction, atom_exprs) -> ScalarExpr:
    factors = []
    if coeff != 1 or not mono:
        factors.append(Const(coeff))
    for atom, exp in mono:
        base = _atom_expr(atom, atom_exprs)
        factors.append(base if exp == 1 else Pow(base, exp))
    if len(factors) == 1:
        return factors[0]
    return Prod(tuple(factors))


def _poly_tree(sorted_poly, atom_exprs) -> ScalarExpr:
    if not sorted_poly:
        return Const(Fraction(0))
    terms = [_term_tree(mono, coeff, atom_exprs) for mono, coeff in sorted_poly]
    if len(terms) == 1:
        return terms[0]
    return Sum(tuple(terms))


def _quotient_tree(sorted_num, sorted_den, atom_exprs) -> ScalarExpr:
    num_tree = _poly_tree(sorted_num, atom_exprs)
    if sorted_den == (((), Fraction(1)),):
        return num_tree
    den_tree = _poly_tree(sorted_den, atom_exprs)
    recip = Pow(den_tree, -1)
    if num_tree == Const(Fraction(1)):
        return recip
    if isinstance(num_tree, Prod):
        return Prod(num_tree.factors + (recip,))
    return Prod((num_tree, recip))


@functools.lru_cache(maxsize=65536)
def _normal_form(expr: ScalarExpr, chart_key: Optional[tuple],
                 strict: bool) -> _NormalForm:
    builder = _NFBuilder(chart_key, strict)
    num, den = builder.visit(expr)
    num, den = _content_normalize(num, den)
    return _NormalForm(_sorted_poly(num), _sorted_poly(den),
                       tuple(sorted(builder.atom_exprs.items())))


def _chart_key(chart) -> Optional[tuple]:
    if chart is None:
        return None
    vars_ = getattr(chart, "variables", chart)
    return tuple(vars_)


def normalize(expr: ScalarExpr, chart: Optional[Sequence[str]] = None,
              strict: bool = False) -> ScalarExpr:
    """Canonical form: expanded numerator over expanded denominator, terms
    in graded-lex order.  Idempotent; equal outputs mean equal functions,
    and equality of two expressions is decided by is_zero of their
    difference (no polynomial gcd is cancelled here)."""
    nf = _normal_form(expr, _chart_key(chart), strict)
    atom_exprs = dict(nf.atom_exprs)
    return _quotient_tree(nf.num, nf.den, atom_exprs)


def free_variables(expr: ScalarExpr) -> set:
    """All variable names appearing in the tree (inside opaque args too)."""
    out = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        elif isinstance(node, Sum):
            stack.extend(node.terms)
        elif isinstance(node, Prod):
            stack.extend(node.factors)
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, Opaque):
            stack.append(node.arg)
    return out


# ---------------------------------------------------------------------------
# calculus and evaluation

def differentiate(expr: ScalarExpr, var: str,
                  chart: Optional[Sequence[str]] = None,
                  registry: Optional[OpaqueRegistry] = None) -> ScalarExpr:
    """Partial derivative with respect to a chart variable, normalized.

    Opaque applications use the registry's derivative rule and the chain
    rule; the rule's target must itself be registered.
    """
    key = _chart_key(chart)
    if key is not None and var not in key:
        raise UndeclaredVariableError(var)
    reg = _registry(registry)

    def d(node: ScalarExpr) -> ScalarExpr:
        if isinstance(node, Const):
            return Const(Fraction(0))
        if isinstance(node, Var):
            return Const(Fraction(1 if node.name == var else 0))
        if isinstance(node, Sum):
            return Sum(tuple(d(t) for t in node.terms))
        if isinstance(node, Prod):
            pieces = []
            for i in range(len(node.factors)):
                fs = list(node.factors)
                fs[i] = d(fs[i])
                pieces.append(Prod(tuple(fs)))
            return Sum(tuple(pieces))
        if isinstance(node, Pow):
            if node.exponent == 0:
                return Const(Fraction(0))
            return Prod((Const(Fraction(node.exponent)),
                         Pow(node.base, node.exponent - 1), d(node.base)))
        if isinstance(node, Opaque):
            outer = reg.derivative_of(node.name, node.arg)
            return Prod((outer, d(node.arg)))
        raise TypeError(f"not a scalar expression: {node!r}")

    return normalize(d(expr), chart)


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


def evaluate(expr: ScalarExpr, point: dict,
             registry: Optional[OpaqueRegistry] = None):
    """Evaluate at a point (dict of variable values).

    Returns an exact Fraction when the expression is opaque-free and all
    used values are rational; otherwise a float.
    """
    reg = _registry(registry)

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
    return _compile((expr,), var_order, registry, batch=False)


def compile_exprs(exprs: Sequence[ScalarExpr], var_order: Sequence[str],
                  registry: Optional[OpaqueRegistry] = None) -> Callable:
    """Compile a batch of expressions into one function taking a value
    sequence ordered like var_order and returning the list of their
    float values.  Used in integrator hot loops."""
    return _compile(exprs, var_order, registry, batch=True)


def _compile(exprs, var_order, registry, batch: bool) -> Callable:
    reg = _registry(registry)
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
    if batch:
        unpack = f"    {args} = values\n" if args else ""
        src = (f"def _compiled(values):\n{unpack}"
               f"    return [{', '.join(bodies)}]\n")
    else:
        src = f"def _compiled({args}):\n    return {bodies[0]}\n"
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


_MIN_SAMPLES = 32
_NUMERIC_TOL = 1e-9


def is_zero(expr: ScalarExpr, box: Box,
            chart: Optional[Sequence[str]] = None,
            registry: Optional[OpaqueRegistry] = None,
            samples: int = _MIN_SAMPLES) -> ZeroCheck:
    """Decide whether an expression vanishes identically on a box.

    Opaque-free input is decided exactly from the normal form; otherwise
    at least 32 quasi-random rational points are evaluated and compared
    against 1e-9 * (1 + max |coefficient|).  Coordinates the box fixes
    (zero-width intervals) are substituted first, so the decision is
    about the expression on the box, not on the whole chart.
    """
    samples = max(samples, _MIN_SAMPLES)
    fixed = {name: lo for name, lo, hi in box.intervals if lo == hi}
    if fixed:
        expr = substitute(expr, fixed)
    nf = _normal_form(expr, _chart_key(chart), False)
    if not nf.num:
        # opaque atoms may appear in the tree, but if none survive in the
        # numerator the function is the zero rational function
        return ZeroCheck("provably-zero")
    nf_opaque_free = all(
        atom[0] == 0
        for part in (nf.num, nf.den) for mono, _ in part for atom, _ in mono)
    if nf_opaque_free:
        # exact witness search over Halton points; skip denominator zeros
        canon = normalize(expr, chart)
        tried = 0
        skip = 0
        while tried < 8 * samples:
            for pt in box.sample_points(samples, skip=skip):
                tried += 1
                try:
                    v = evaluate(canon, pt, registry)
                except ZeroDivisionError:
                    continue
                except MissingAssignmentError as exc:
                    raise MissingAssignmentError(exc.name)
                if v != 0:
                    return ZeroCheck("nonzero", witness=pt, value=v)
            skip += samples
        raise ExprError("nonzero normal form but no witness found in box")
    max_coeff = 0.0
    for _, c in nf.num:
        max_coeff = max(max_coeff, abs(float(c)))
    threshold = _NUMERIC_TOL * (1.0 + max_coeff)
    worst_pt, worst_val = None, 0.0
    for pt in box.sample_points(samples):
        fpt = {k: float(v) for k, v in pt.items()}
        try:
            v = float(evaluate(expr, fpt, registry))
        except ZeroDivisionError:
            continue
        if abs(v) > abs(worst_val):
            worst_pt, worst_val = pt, v
        if abs(v) > threshold:
            return ZeroCheck("nonzero", witness=pt, value=v)
    return ZeroCheck("numerically-zero", witness=worst_pt, value=worst_val)


def min_degree(expr: ScalarExpr, var: str,
               chart: Optional[Sequence[str]] = None) -> Optional[int]:
    """Lowest power of `var` among numerator terms (None for the zero
    expression).  Pre: the normalized expression is polynomial in `var`
    (the denominator must not involve it)."""
    nf = _normal_form(expr, _chart_key(chart), False)
    if not nf.num:
        return None

    def var_exp(mono):
        for atom, exp in mono:
            if atom[0] == 0 and atom[2] == var:
                return exp
        return 0

    for mono, _ in nf.den:
        if var_exp(mono) != 0:
            raise ExprError(f"denominator involves {var!r}")
    return min(var_exp(mono) for mono, _ in nf.num)

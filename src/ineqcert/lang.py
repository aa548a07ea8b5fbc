"""Expression language for the inequality corpus.

Grammar (precedence low to high): `+ -` < `* /` < unary `-` < `^` with an
integer-literal exponent.  Identifiers are `x`, `pi`, and the six functions
sin, cos, tan, sinh, cosh, tanh.  Number literals are ASCII decimals with
an optional exponent (`2.5e-1`); each converts exactly to a rational (0.15 is
3/20, never a float), and one past the digit limit is a ParseError (see
`_number_value`).  The CLI reads every number in its flags and tags with
this grammar too.  A quotient of two integer
literals folds to a single rational literal, so printed expressions
round-trip to equal syntax trees.  Parsing caps |exponent|, and the product
of the |exponents| along nested `^`, at MAX_EXPONENT, and the syntax-tree
depth at MAX_DEPTH.

Corpus files hold one stanza per inequality:

    inequality THM31_LO {
      domain   = (0, pi/2)
      lhs      = 3 + (1/60)*x^3*sin(x)
      relation = <
      rhs      = 2*x/sin(x) + x/tan(x)
      tags     = expected:proved
    }

`(`/`)` mark open endpoints, `[`/`]` closed ones; `inf` is allowed as the
upper endpoint.  `#` starts a comment.  Each tag is `key:value` with a key
from TAG_KEYS; any other key, a value outside the key's pattern or a key
given twice is a ParseError.
"""

from __future__ import annotations

import operator
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Union

from . import _core
from ._core import FUNCTIONS
from ._record import Record
from .errors import DomainError, EvalError, ParseError, PoleError
from .interval import Interval, get_ctx

__all__ = [
    "Token", "tokenize", "Expr", "Lit", "PiConst", "VarX", "Neg", "Add",
    "Sub", "Mul", "Div", "PowInt", "Call", "parse_expression", "format_expr",
    "InequalitySpec", "parse_corpus", "default_corpus_path", "eval_expr",
    "eval_endpoint", "FUNCTIONS", "TAG_KEYS",
]

MAX_EXPONENT = 64      # largest |n| in x^n, nested powers' |n| multiplied;
                       # the corpus needs at most 8
MAX_DEPTH = 200        # syntax-tree levels; the parser takes at most 3 frames a
                       # level, so it and the tree walks fit Python's default stack


# --- tokens -----------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<WS>\s+|\#[^\n]*)
  | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
  | (?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<PLUS>\+) | (?P<MINUS>-) | (?P<STAR>\*) | (?P<SLASH>/)
  | (?P<CARET>\^) | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,)
""", re.VERBOSE)


class Token(Record):
    kind: str
    text: str
    position: int


def tokenize(text: str):
    """Maximal-munch token stream; whitespace and # comments skipped."""
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"illegal character {text[i]!r}", i)
        kind = m.lastgroup
        if kind != "WS":
            out.append(Token(kind, m.group(), i))
        i = m.end()
    return out


# --- AST --------------------------------------------------------------------

class Expr(Record):
    """Base class for expression nodes (immutable, structurally comparable).
    Each class names its operator in `kind`, which `_core` dispatches on;
    `pos`, the node's offset in its source text, follows each node's own
    fields and is not compared."""

    _uncompared = ("pos",)
    pos: int = -1


class Lit(Expr):
    kind = "lit"
    value: Fraction


class PiConst(Expr):
    kind = "pi"


class VarX(Expr):
    kind = "x"


class Neg(Expr):
    kind = "neg"
    a: Expr


class Add(Expr):
    kind = "add"
    a: Expr
    b: Expr


class Sub(Expr):
    kind = "sub"
    a: Expr
    b: Expr


class Mul(Expr):
    kind = "mul"
    a: Expr
    b: Expr


class Div(Expr):
    kind = "div"
    a: Expr
    b: Expr


class PowInt(Expr):
    kind = "pow"
    base: Expr
    exponent: int


class Call(Expr):
    kind = "call"
    fn: str
    arg: Expr


def _digit_limit() -> int:
    """Most digits of a numerator or denominator: the interpreter's limit on
    integer text, or when that is 0 (off) its default, to bound the work."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _number_value(text: str) -> Fraction:
    """The exact value of a NUMBER token, or a ValueError, before any integer
    is built, when its numerator or denominator would pass `_digit_limit()`:
    the mantissa's digits, shifted by the exponent.  An exponent whose own
    text is past the limit is not read."""
    mantissa, _, exp = text.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    limit = _digit_limit()
    shift = int(exp or 0) - len(frac) if len(exp) <= limit else limit + 1
    up, down = max(shift, 0), max(-shift, 0)
    if max(len(whole + frac) + up, 1 + down) > limit:
        raise ValueError(f"more than {limit} digits")
    return Fraction(int(whole + frac) * 10 ** up, 10 ** down)


# --- parser -----------------------------------------------------------------

class _Parser:
    # operator token: (precedence, node class)
    _BINARY = {"PLUS": (1, Add), "MINUS": (1, Sub), "STAR": (2, Mul), "SLASH": (2, Div)}

    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> Optional[Token]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> Optional[Token]:
        t = self.peek()
        if t is not None:
            self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t is None or t.kind != kind:
            got = "end of input" if t is None else f"{t.text!r}"
            pos = len(self.text) if t is None else t.position
            raise ParseError(f"expected {kind}, got {got}", pos)
        return self.next()

    def parse(self) -> Expr:
        e = self.expression()
        t = self.peek()
        if t is not None:
            raise ParseError(f"unexpected token {t.text!r}", t.position)
        _power_product(e)
        return e

    def expression(self, min_prec: int = 1) -> Expr:
        """Left-associative binary operators of precedence >= min_prec."""
        top = self.depth
        e = self.unary()
        while ((t := self.peek()) is not None
               and (op := self._BINARY.get(t.kind)) and op[0] >= min_prec):
            prec, node = op
            self.depth += 1                 # checked by the operand's unary
            self.next()
            rhs = self.expression(prec + 1)
            if (t.kind == "SLASH" and isinstance(e, Lit) and isinstance(rhs, Lit)
                    and rhs.value != 0):
                e = Lit(e.value / rhs.value, e.pos)
            else:
                e = node(e, rhs, t.position)
        self.depth = top
        return e

    def unary(self) -> Expr:
        """`-` unary, or an atom with an optional integer-literal exponent.
        Each binary operator, unary minus and atom is one tree level."""
        t = self.peek()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels",
                             len(self.text) if t is None else t.position)
        if t is not None and t.kind == "MINUS":
            self.next()
            e = Neg(self.unary(), t.position)
        else:
            e = self.atom()
            t = self.peek()
            if t is not None and t.kind == "CARET":
                self.next()
                exp = self.unary()
                lit, sign = (exp.a, -1) if isinstance(exp, Neg) else (exp, 1)
                if not (isinstance(lit, Lit) and lit.value.denominator == 1):
                    raise ParseError("exponent must be an integer literal", t.position)
                e = PowInt(e, sign * int(lit.value), t.position)
        self.depth -= 1
        return e

    def atom(self) -> Expr:
        t = self.next()
        if t is None:
            raise ParseError("unexpected end of input", len(self.text))
        if t.kind == "NUMBER":
            try:
                return Lit(_number_value(t.text), t.position)
            except ValueError:      # past the digit limit
                raise ParseError("number has too many digits", t.position) from None
        if t.kind == "LPAREN":
            e = self.expression()
            self.expect("RPAREN")
            return e
        if t.kind == "IDENT":
            name = t.text
            nxt = self.peek()
            if nxt is not None and nxt.kind == "LPAREN":
                if name not in FUNCTIONS:
                    raise ParseError(f"unknown function {name}", t.position)
                self.next()
                arg = self.expression()
                self.expect("RPAREN")
                return Call(name, arg, t.position)
            if name == "x":
                return VarX(t.position)
            if name == "pi":
                return PiConst(t.position)
            raise ParseError(f"unknown identifier {name}", t.position)
        raise ParseError(f"unexpected token {t.text!r}", t.position)


def _power_product(e: Expr) -> int:
    """Largest product of max(|exponent|, 1) along a chain of nested `^` in e,
    which bounds the polynomial degree that evaluation builds; a ParseError
    at the innermost `^` that takes it past MAX_EXPONENT."""
    kind = e.kind
    if kind == "pow":
        n = max(abs(e.exponent), 1) * _power_product(e.base)
        if n > MAX_EXPONENT:
            raise ParseError(f"|exponent| exceeds {MAX_EXPONENT} (the exponents "
                             f"of nested powers multiply)", e.pos)
        return n
    if kind == "call":
        return _power_product(e.arg)
    if kind == "neg":
        return _power_product(e.a)
    if kind in ("add", "sub", "mul", "div"):
        return max(_power_product(e.a), _power_product(e.b))
    return 1


def parse_expression(text: str) -> Expr:
    return _Parser(text).parse()


# --- printer ----------------------------------------------------------------

def _paren(operand, least: int) -> str:
    """The text of an operand's (text, precedence), in parentheses when its
    precedence is below `least`."""
    text, prec = operand
    return text if prec >= least else "(" + text + ")"


# (text, precedence) for _core's plan runner: + and - are 1, * and / 2 (as
# is a p/q literal), unary - 3, ^ 4 and an atom or call 5.  Each operand
# needs the least precedence that parses back in its place, so a right
# operand of + - * / needs one more than its operator.
_FORMAT_OPS = {
    "lit": lambda ctx, v, x: (str(v), 5 if v.denominator == 1 else 2),
    "pi": lambda ctx, x: ("pi", 5),
    "neg": lambda a: ("-" + _paren(a, 3), 3),
    "add": lambda a, b: (_paren(a, 1) + " + " + _paren(b, 2), 1),
    "sub": lambda a, b: (_paren(a, 1) + " - " + _paren(b, 2), 1),
    "mul": lambda ctx, a, b: (_paren(a, 2) + "*" + _paren(b, 3), 2),
    "div": lambda ctx, a, b: (_paren(a, 2) + "/" + _paren(b, 3), 2),
    "pow": lambda ctx, a, n: (_paren(a, 5) + (f"^{n}" if n >= 0 else f"^({n})"), 4),
    "call": lambda ctx, name, a: (f"{name}({a[0]})", 5),
}


def format_expr(e: Expr) -> str:
    """Source form; parses back to an equal tree."""
    if not isinstance(e, Expr):
        raise TypeError(f"not an expression node: {e!r}")
    return _core._run(None, e, ("x", 5), _FORMAT_OPS)[0]


# --- evaluation -------------------------------------------------------------

def eval_expr(e: Expr, x: Interval, precision: int = 192) -> Interval:
    """Certified enclosure of {e(t) : t in x} at the given dyadic precision."""
    ctx = get_ctx(precision)
    a = ctx.lo_of(x.lo)
    b = ctx.hi_of(x.hi)
    try:
        lo, hi = _core.eval_plain(ctx, e, (a, b))
    except (DomainError, PoleError) as exc:
        raise EvalError(str(exc), getattr(exc, "position", None)) from exc
    return Interval(Fraction(lo, ctx.one), Fraction(hi, ctx.one))


_ENDPOINT_NODES = (Lit, PiConst, Neg, Add, Sub, Mul, Div, PowInt)


def _check_endpoint_expr(e: Expr):
    if not isinstance(e, _ENDPOINT_NODES):
        raise ParseError(
            "domain endpoints allow only rationals, pi and arithmetic",
            getattr(e, "pos", None))
    for name in ("a", "b", "base"):
        child = getattr(e, name, None)
        if child is not None:
            _check_endpoint_expr(child)


# pi to a fixed 152 bits (width under 1e-36), so an endpoint's value never
# depends on how far earlier `pi_enclose` calls have tightened its bracket
_PI = Interval(*(Fraction(v, 1 << 152) for v in _core._pi_bracket(152)))


def _bounded(op):
    """op, refusing a result whose numerator or denominator passes `_digit_limit()`."""
    def run(*args):
        iv, limit = op(*args), _digit_limit()
        top = max(max(abs(v.numerator), v.denominator) for v in (iv.lo, iv.hi))
        if top.bit_length() > 3 * limit and top >= 10 ** limit:  # cheap test first
            raise ParseError(f"endpoint value of more than {limit} digits")
        return iv
    return run


# exact Fraction intervals for _core's plan runner; endpoints hold no x or calls
_ENDPOINT_OPS = {kind: _bounded(op) for kind, op in {
    "lit": lambda ctx, v, x: Interval.point(v),
    "pi": lambda ctx, x: _PI,
    "neg": operator.neg, "add": operator.add, "sub": operator.sub,
    "mul": lambda ctx, a, b: a * b,
    "div": lambda ctx, a, b: a / b,
    "pow": lambda ctx, a, e: a ** e,
}.items()}


def eval_endpoint(e: Expr) -> Interval:
    """Tight enclosure of a constant endpoint expression (exact when pi-free)."""
    _check_endpoint_expr(e)
    return _core._run(None, e, None, _ENDPOINT_OPS)


# --- corpus -----------------------------------------------------------------

def default_corpus_path() -> str:
    """The shipped corpus, `data/paper.ineq` inside the package."""
    return os.path.join(os.path.dirname(__file__), "data", "paper.ineq")


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_.]*$")

INF = "inf"

# stanza tag keys -> the pattern a value must match (None: any value; the
# engine options' values are converted and range-checked by the CLI).  The
# key "expect_seq." is a prefix: expect_seq.<sequence id>.<mode>.
TAG_KEYS = {
    "expected": r"proved|refuted",
    "theorem": None,
    "expect_seq.": r"pass|violation@[0-9]+",
    "eps_lo": None, "eps_hi": None, "x_max": None, "max_depth": None,
    "min_width": None,
}


class InequalitySpec(Record):
    """One corpus stanza: `lhs relation rhs` claimed on the stated domain."""

    name: str
    lo_expr: Expr
    hi_expr: Union[Expr, str]        # Expr or the marker "inf"
    lo_closed: bool
    hi_closed: bool
    lhs: Expr
    rhs: Expr
    relation: str                    # "<" or ">"
    tags: tuple = ()

    @property
    def unbounded(self) -> bool:
        return self.hi_expr == INF

    def difference(self) -> Expr:
        """The expression claimed positive on the domain."""
        if self.relation == ">":
            return Sub(self.lhs, self.rhs)
        return Sub(self.rhs, self.lhs)

    def tag_value(self, key: str):
        prefix = key + ":"
        for t in self.tags:
            if t.startswith(prefix):
                return t[len(prefix):]
        return None


def _parse_tags(text: str, stanza: str) -> tuple:
    tags = tuple(t.strip() for t in text.split(",") if t.strip())
    keys = set()
    for tag in tags:
        key, colon, value = tag.partition(":")
        entry = "expect_seq." if key.startswith("expect_seq.") else key
        if not colon or entry not in TAG_KEYS:
            raise ParseError(f"stanza {stanza}: unknown tag {tag!r}")
        pattern = TAG_KEYS[entry]
        if pattern is not None and not re.fullmatch(pattern, value):
            raise ParseError(f"stanza {stanza}: bad value in tag {tag!r}")
        if key in keys:
            raise ParseError(f"stanza {stanza}: tag key {key!r} given twice")
        keys.add(key)
    return tags


def _parse_domain(text: str, stanza: str):
    s = text.strip()
    if not s or s[0] not in "([" or s[-1] not in ")]":
        raise ParseError(f"stanza {stanza}: malformed domain {text!r}")
    lo_closed = s[0] == "["
    hi_closed = s[-1] == "]"
    # the grammar has no commas, so the first one splits the endpoints
    lo_text, comma, hi_text = map(str.strip, s[1:-1].partition(","))
    if not comma:
        raise ParseError(f"stanza {stanza}: domain needs two endpoints")
    lo_expr = parse_expression(lo_text)
    lo_iv = eval_endpoint(lo_expr)
    if hi_text == INF:
        if hi_closed:
            raise ParseError(f"stanza {stanza}: [.., inf] cannot be closed")
        return lo_expr, INF, lo_closed, hi_closed
    hi_expr = parse_expression(hi_text)
    if not lo_iv.hi < eval_endpoint(hi_expr).lo:
        raise ParseError(f"stanza {stanza}: domain endpoints out of order")
    return lo_expr, hi_expr, lo_closed, hi_closed


def parse_corpus(text: str):
    """Parse a corpus file into a list of InequalitySpec (order preserved)."""
    specs = []
    seen = set()
    lines = text.splitlines()
    i = 0
    n = len(lines)
    while i < n:
        line = lines[i].partition("#")[0].strip()
        i += 1
        if not line:
            continue
        m = re.match(r"inequality\s+(\S+)\s*\{$", line)
        if not m:
            raise ParseError(f"expected 'inequality NAME {{', got {line!r}")
        name = m.group(1)
        if not _NAME_RE.match(name):
            raise ParseError(f"bad inequality name {name!r}")
        if name in seen:
            raise ParseError(f"duplicate inequality name {name!r}")
        seen.add(name)
        fields = {}
        closed = False
        while i < n:
            line = lines[i].partition("#")[0].strip()
            i += 1
            if not line:
                continue
            if line == "}":
                closed = True
                break
            if "=" not in line:
                raise ParseError(f"stanza {name}: malformed line {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in fields:
                raise ParseError(f"stanza {name}: duplicate key {key!r}")
            fields[key] = value
        if not closed:
            raise ParseError(f"stanza {name}: missing closing '}}'")
        for req in ("domain", "lhs", "relation", "rhs"):
            if req not in fields:
                raise ParseError(f"stanza {name}: missing {req!r}")
        if fields["relation"] not in ("<", ">"):
            raise ParseError(
                f"stanza {name}: relation must be < or >, got {fields['relation']!r}")
        lo_expr, hi_expr, lo_c, hi_c = _parse_domain(fields["domain"], name)
        tags = _parse_tags(fields.get("tags", ""), name)
        specs.append(InequalitySpec(
            name=name,
            lo_expr=lo_expr, hi_expr=hi_expr, lo_closed=lo_c, hi_closed=hi_c,
            lhs=parse_expression(fields["lhs"]),
            rhs=parse_expression(fields["rhs"]),
            relation=fields["relation"],
            tags=tags,
        ))
    return specs

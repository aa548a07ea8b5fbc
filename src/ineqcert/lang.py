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
depth at MAX_DEPTH.  Whitespace is ASCII only (`_WS`), here and in a corpus.

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
from typing import Union

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

# The only whitespace, between tokens and around corpus lines and fields.
_WS = " \t\n\r\f\v"

# maximal munch: one alternative per first character, where a character that
# starts no longer token is an operator (kind from _KINDS) or illegal
_TOKEN_RE = re.compile("[" + _WS + r"]+|#[^\n]*|[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
                       r"|[A-Za-z_][A-Za-z_0-9]*|.", re.DOTALL)
_KINDS = {**dict.fromkeys(_WS + "#"), **dict.fromkeys("0123456789", "NUMBER"),
          **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "IDENT"),
          **dict(zip("+-*/^(),", ("PLUS", "MINUS", "STAR", "SLASH", "CARET", "LPAREN",
                                  "RPAREN", "COMMA")))}


class Token(Record):
    kind: str
    text: str
    position: int


def _scan(text: str) -> list:
    """(kind, text, position) of each token, whitespace and # comments
    skipped, then ("END", "", len(text))."""
    toks, pos = [], 0
    for tok in _TOKEN_RE.findall(text):
        kind = _KINDS.get(tok[0], "BAD")
        if kind:
            if kind == "BAD":
                raise ParseError(f"illegal character {tok!r}", pos)
            toks.append((kind, tok, pos))
        pos += len(tok)
    toks.append(("END", "", pos))
    return toks


def tokenize(text: str):
    """Maximal-munch token stream; whitespace and # comments skipped."""
    return [Token(*t) for t in _scan(text)[:-1]]


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
    limit = _digit_limit()
    if text.isdigit() and len(text) <= limit:      # the common case: an integer
        return Fraction(int(text))
    mantissa, _, exp = text.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    shift = int(exp or 0) - len(frac) if len(exp) <= limit else limit + 1
    up, down = max(shift, 0), max(-shift, 0)
    if max(len(whole + frac) + up, 1 + down) > limit:
        raise ValueError(f"more than {limit} digits")
    return Fraction(int(whole + frac) * 10 ** up, 10 ** down)


# --- parser -----------------------------------------------------------------

# operator token: (precedence, node class)
_BINARY = {"PLUS": (1, Add), "MINUS": (1, Sub), "STAR": (2, Mul), "SLASH": (2, Div)}


class _Parser:
    """Recursive descent over `_scan`'s tuples, read by index: `toks[i]` is the
    next token, and the END sentinel is never passed."""

    def __init__(self, text: str):
        self.toks = _scan(text)
        self.i = 0
        self.depth = 0
        self.powers = []                # each `^`'s power product, in post-order
        self.too_big = None             # where the first one passes MAX_EXPONENT

    def expect(self, kind: str):
        k, tok, pos = self.toks[self.i]
        if k != kind:
            got = "end of input" if k == "END" else repr(tok)
            raise ParseError(f"expected {kind}, got {got}", pos)
        self.i += 1

    def parse(self) -> Expr:
        e = self.expression()
        kind, tok, pos = self.toks[self.i]
        if kind != "END":
            raise ParseError(f"unexpected token {tok!r}", pos)
        if self.too_big is not None:
            raise ParseError(f"|exponent| exceeds {MAX_EXPONENT} (the exponents "
                             f"of nested powers multiply)", self.too_big)
        return e

    def expression(self, min_prec: int = 1) -> Expr:
        """Left-associative binary operators of precedence >= min_prec."""
        top = self.depth
        e = self.unary()
        toks = self.toks
        while (op := _BINARY.get(toks[self.i][0])) and op[0] >= min_prec:
            prec, node = op
            pos = toks[self.i][2]
            self.depth += 1                 # checked by the operand's unary
            self.i += 1
            # no operator binds tighter than * and /: their operand is a unary
            rhs = self.expression(2) if prec == 1 else self.unary()
            if (node is Div and isinstance(e, Lit) and isinstance(rhs, Lit)
                    and rhs.value != 0):
                e = Lit(e.value / rhs.value, e.pos)
            else:
                e = node(e, rhs, pos)
        self.depth = top
        return e

    def unary(self) -> Expr:
        """`-` unary, or an atom with an optional integer-literal exponent.
        Each binary operator, unary minus and atom is one tree level."""
        toks = self.toks
        kind, _, pos = toks[self.i]
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", pos)
        if kind == "MINUS":
            self.i += 1
            e = Neg(self.unary(), pos)
        else:
            inner = len(self.powers)        # the powers parsed next lie in the atom
            e = self.atom()
            kind, _, pos = toks[self.i]
            if kind == "CARET":
                self.i += 1
                exp = self.unary()
                lit, sign = (exp.a, -1) if isinstance(exp, Neg) else (exp, 1)
                if not (isinstance(lit, Lit) and lit.value.denominator == 1):
                    raise ParseError("exponent must be an integer literal", pos)
                e = PowInt(e, sign * int(lit.value), pos)
                # the largest product of max(|exponent|, 1) along nested `^`,
                # which bounds the polynomial degree that evaluation builds
                n = max(abs(e.exponent), 1) * max(self.powers[inner:], default=1)
                self.powers.append(n)
                if n > MAX_EXPONENT and self.too_big is None:
                    self.too_big = pos
        self.depth -= 1
        return e

    def atom(self) -> Expr:
        kind, tok, pos = self.toks[self.i]
        if kind == "END":
            raise ParseError("unexpected end of input", pos)
        self.i += 1
        if kind == "NUMBER":
            try:
                return Lit(_number_value(tok), pos)
            except ValueError:      # past the digit limit
                raise ParseError("number has too many digits", pos) from None
        if kind == "LPAREN":
            e = self.expression()
            self.expect("RPAREN")
            return e
        if kind == "IDENT":
            if self.toks[self.i][0] == "LPAREN":
                if tok not in FUNCTIONS:
                    raise ParseError(f"unknown function {tok}", pos)
                self.i += 1
                arg = self.expression()
                self.expect("RPAREN")
                return Call(tok, arg, pos)
            if tok == "x":
                return VarX(pos)
            if tok == "pi":
                return PiConst(pos)
            raise ParseError(f"unknown identifier {tok}", pos)
        raise ParseError(f"unexpected token {tok!r}", pos)


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

def _subtrees(e: Expr):
    yield e
    for child in (getattr(e, f, None) for f in ("a", "b", "base", "arg")):
        if isinstance(child, Expr):
            yield from _subtrees(child)


def _numerator_tans(t: Expr):
    """The tan calls among term t's numerator factors: t itself, and those
    of the factors of a `*`, the dividend of a `/` and the operand of a
    unary `-`."""
    if t.kind == "call":
        return [t] if t.fn == "tan" else []
    if t.kind == "mul":
        return _numerator_tans(t.a) + _numerator_tans(t.b)
    return _numerator_tans(t.a) if t.kind in ("div", "neg") else []


def tan_multipliers(e: Expr) -> tuple:
    """The multipliers cos(u) that clear tan's poles from e, in order of
    first use: one per tan argument u that some additive term of e has as
    its one numerator factor tan(u), with no other tan(u) in that term,
    while every other term holds tan(u) only as the divisor of v/tan(u).
    Kept on e, as its plan is."""
    try:
        return e._multipliers
    except AttributeError:
        pass
    ok, first, numerators, terms = {}, {}, set(), []   # first: u's first tan(u)
    _signed_terms(e, 1, terms)
    for _, t in terms:
        numer = [n.arg for n in _numerator_tans(t)]
        nodes = list(_subtrees(t))
        tans = [n for n in nodes if n.kind == "call" and n.fn == "tan"]
        divisors = [n.b.arg for n in nodes if _by_tan(n)]
        held = [n.arg for n in tans]
        for n in tans:
            first.setdefault(n.arg, n.pos)
        for u in held:
            c, k = numer.count(u), held.count(u)
            ok[u] = ok.get(u, True) and (c == k == 1 or c == 0 and k == divisors.count(u))
            if c:
                numerators.add(u)
    # each cos(u) takes the offset of the first tan(u), which names its errors
    found = tuple(Call("cos", u, first[u]) for u, good in ok.items()
                  if good and u in numerators)
    object.__setattr__(e, "_multipliers", found)        # the nodes are frozen
    return found


def _swap_numerator(t: Expr, old: Expr, new: Expr) -> Expr:
    """Term t with its numerator factor old (see `_numerator_tans`) as new."""
    if t == old:
        return new
    if t.kind == "mul":
        return Mul(_swap_numerator(t.a, old, new), _swap_numerator(t.b, old, new), t.pos)
    if t.kind == "div":
        return Div(_swap_numerator(t.a, old, new), t.b, t.pos)
    return Neg(_swap_numerator(t.a, old, new), t.pos) if t.kind == "neg" else t


def _signed_terms(e: Expr, sign: int, out: list):
    """Append (sign, term) for each additive term of e, its sign under the
    +, - and unary - above it."""
    if e.kind in ("add", "sub"):
        _signed_terms(e.a, sign, out)
        _signed_terms(e.b, sign if e.kind == "add" else -sign, out)
    elif e.kind == "neg":
        _signed_terms(e.a, -sign, out)
    else:
        out.append((sign, e))


def _by_tan(n: Expr) -> bool:
    return n.kind == "div" and n.b.kind == "call" and n.b.fn == "tan"


def tan_divisors(e: Expr) -> tuple:
    """The distinct u of e's quotients v/tan(u), which `clear_tan` rewrites."""
    return tuple(dict.fromkeys(n.b.arg for n in _subtrees(e) if _by_tan(n)))


def _cot(e: Expr) -> Expr:
    """e with each v/tan(u) written v*cos(u)/sin(u) at tan's offset; e if none."""
    new = {f: _cot(c) for f in e._fields if isinstance(c := getattr(e, f), Expr)}
    if _by_tan(e):
        u, at = new["b"].arg, e.b.pos
        return Div(Mul(new["a"], Call("cos", u, at), e.pos), Call("sin", u, at), e.pos)
    return e if all(c is getattr(e, f) for f, c in new.items()) else e.replace(**new)


def clear_tan(e: Expr, multipliers: tuple) -> Expr:
    """N = m*e for the product m of the given multipliers cos(u) of
    `tan_multipliers(e)`, as an exact rewrite: in each additive term whose
    numerator factor is tan(u), that factor becomes sin(u), and every other
    term is multiplied by cos(u), once for the sum of the terms that lack
    the same multipliers; then each v/tan(u) becomes v*cos(u)/sin(u), whose
    Taylor coefficients stay bounded at tan's pole, where N is finite: keep
    the u of `tan_divisors(e)` off cos's zeros.  One node per e and
    multipliers, kept on e (so stanzas of one statement share it and its
    plan); e itself when it has nothing to rewrite."""
    kept = getattr(e, "_cleared", None)
    if kept is None:
        kept = {}
        object.__setattr__(e, "_cleared", kept)         # the nodes are frozen
    n = kept.get(multipliers)
    if n is None:
        terms, groups = [], {}      # the multipliers a term lacks -> its terms
        if multipliers:             # with none, only _cot rewrites e
            _signed_terms(e, 1, terms)
        for sign, t in terms:
            lacks = []
            for m in multipliers:
                tan = Call("tan", m.arg)
                if tan in _numerator_tans(t):
                    t = _swap_numerator(t, tan, Call("sin", m.arg, m.pos))
                else:
                    lacks.append(m)
            groups.setdefault(tuple(lacks), []).append((sign, t))
        for lacks, group in groups.items():
            g = None
            for sign, t in group:
                g = (t if sign > 0 else Neg(t, t.pos)) if g is None else (
                    Add if sign > 0 else Sub)(g, t, t.pos)
            for m in lacks:
                g = Mul(g, m, m.pos)
            n = g if n is None else Add(n, g, g.pos)
        n = kept[multipliers] = _cot(e if n is None else n)
    return n


def eval_expr(e: Expr, x: Interval, precision: int = 192) -> Interval:
    """Certified enclosure of {e(t) : t in x} at the given dyadic precision."""
    ctx = get_ctx(precision)
    a = ctx.lo_of(x.lo)
    b = ctx.hi_of(x.hi)
    try:
        return Interval.scaled(*_core.eval_plain(ctx, e, (a, b)), ctx.one)
    except (DomainError, PoleError) as exc:
        raise EvalError(str(exc), getattr(exc, "position", None)) from exc


# pi to a fixed 152 bits (width under 1e-36), so an endpoint's value never
# depends on how far earlier `pi_enclose` calls have tightened its bracket
_PI = Interval.scaled(*_core._pi_bracket(152), 1 << 152)


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
    """Tight enclosure of a constant endpoint expression (exact when pi-free).
    An `x` or a call in e's plan is a ParseError at the least offset of one,
    that of the leftmost such node; a non-Expr is one with no offset.  The
    value is kept on e, as its plan is, with the `_digit_limit()` it was
    checked under; a valuation that fails keeps nothing."""
    limit = _digit_limit()
    kept = getattr(e, "_endpoint", None)
    if kept is not None and kept[0] == limit:
        return kept[1]
    bad = [None]
    if isinstance(e, Expr):
        steps, positions, _ = _core._plan(e)
        bad = [p for s, p in zip(steps, positions) if s[0] in ("x", "call")]
    if bad:
        raise ParseError("domain endpoints allow only rationals, pi and arithmetic",
                         min(bad))
    iv = _core._run(None, e, None, _ENDPOINT_OPS)
    object.__setattr__(e, "_endpoint", (limit, iv))     # the nodes are frozen
    return iv


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
        """The expression claimed positive on the domain: one node per spec,
        kept from the first call (and shared by `_parse_corpus` among the
        stanzas of one statement), so its `_core` plan is built once."""
        try:
            return self._difference
        except AttributeError:
            pass
        d = Sub(self.lhs, self.rhs) if self.relation == ">" else Sub(self.rhs, self.lhs)
        object.__setattr__(self, "_difference", d)      # the specs are frozen
        return d

    def tag_value(self, key: str):
        prefix = key + ":"
        for t in self.tags:
            if t.startswith(prefix):
                return t[len(prefix):]
        return None


def _parse_tags(text: str, stanza: str) -> tuple:
    tags = tuple(t.strip(_WS) for t in text.split(",") if t.strip(_WS))
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
    s = text.strip(_WS)
    if not s or s[0] not in "([" or s[-1] not in ")]":
        raise ParseError(f"stanza {stanza}: malformed domain {text!r}")
    lo_closed = s[0] == "["
    hi_closed = s[-1] == "]"
    # the grammar has no commas, so the first one splits the endpoints
    lo_text, comma, hi_text = (t.strip(_WS) for t in s[1:-1].partition(","))
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


_PARSED: dict = {}   # (text, _digit_limit()) -> its specs, for the two latest texts


def parse_corpus(text: str):
    """Parse a corpus file into a list of InequalitySpec (order preserved).
    A text is parsed once per process and digit limit: each call returns a
    new list of the same (immutable) specs.  An error is not kept."""
    key = (text, _digit_limit())
    specs = _PARSED.get(key)
    if specs is None:
        specs = _parse_corpus(text)
        for old in list(_PARSED)[:-1]:      # no check-then-act: threads call this
            _PARSED.pop(old, None)
        _PARSED[key] = specs
    return list(specs)


def _parse_corpus(text: str) -> tuple:
    specs = []
    seen = set()
    known = {}      # (reader, field text) -> value: a corpus repeats sides,
                    # domains and statements, and each distinct one is read once

    def read(reader, value, *args):
        if (reader, value) not in known:
            known[reader, value] = reader(value, *args)
        return known[reader, value]

    # lines end at \n, \r\n or \r; _WS alone is whitespace
    lines = text.replace("\r", "\n").split("\n")
    i = 0
    n = len(lines)
    while i < n:
        line = lines[i].partition("#")[0].strip(_WS)
        i += 1
        if not line:
            continue
        m = re.match(r"inequality\s+(\S+)\s*\{$", line, re.ASCII)
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
            line = lines[i].partition("#")[0].strip(_WS)
            i += 1
            if not line:
                continue
            if line == "}":
                closed = True
                break
            if "=" not in line:
                raise ParseError(f"stanza {name}: malformed line {line!r}")
            key, _, value = line.partition("=")
            key = key.strip(_WS)
            value = value.strip(_WS)
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
        lo_expr, hi_expr, lo_c, hi_c = read(_parse_domain, fields["domain"], name)
        tags = _parse_tags(fields.get("tags", ""), name)
        spec = InequalitySpec(
            name, lo_expr, hi_expr, lo_c, hi_c, read(parse_expression, fields["lhs"]),
            read(parse_expression, fields["rhs"]), fields["relation"], tags)
        # the stanzas of one statement share its difference node, and so its plan
        statement = (fields["relation"], fields["lhs"], fields["rhs"])
        object.__setattr__(spec, "_difference", read(_difference, statement, spec))
        specs.append(spec)
    return tuple(specs)


def _difference(statement: tuple, spec: InequalitySpec) -> Expr:
    # `read`'s reader of a statement, (relation, lhs text, rhs text)
    return spec.difference()

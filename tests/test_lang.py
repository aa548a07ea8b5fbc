import hashlib
import random
import re
import sys
from fractions import Fraction

import pytest

from ineqcert import _core
from ineqcert.errors import EvalError, ParseError
from ineqcert.interval import Interval, get_ctx
from ineqcert.lang import (FUNCTIONS, MAX_DEPTH, MAX_EXPONENT, Add, Call, Div,
                           InequalitySpec, Lit, Mul, Neg, PiConst, PowInt, Sub,
                           VarX, default_corpus_path, eval_endpoint, eval_expr,
                           format_expr, parse_corpus, parse_expression, tokenize)

F = Fraction


def test_tokenize_examples():
    kinds = [t.kind for t in tokenize("2*sin(x)")]
    assert kinds == ["NUMBER", "STAR", "IDENT", "LPAREN", "IDENT", "RPAREN"]
    kinds = [t.kind for t in tokenize("pi/2")]
    assert kinds == ["IDENT", "SLASH", "NUMBER"]
    with pytest.raises(ParseError) as exc:
        tokenize("3 @ x")
    assert exc.value.position == 2
    assert [t.kind for t in tokenize("# only a comment")] == []


def test_only_ascii_whitespace_separates_tokens():
    toks = tokenize("1\t+\f2\v*\r\nx # note\u00a0")
    assert [t.text for t in toks] == ["1", "+", "2", "*", "x"]
    for space in ("\u00a0", "\u2003", "\u3000", "\x1c", "\x85", "\u2028"):
        with pytest.raises(ParseError, match="illegal character") as exc:
            parse_expression(f"x +{space}1")
        assert exc.value.position == 3


@pytest.mark.parametrize("old,new", [
    ("inequality T {", "inequality\u00a0T {"), ("lhs = x", "lhs = x\u2003"),
    ("tags = expected:proved", "tags = expected:proved,\u00a0theorem:3.1"),
    ("domain = (0, 1)", "domain = (0,\u3000 1)"), ("}", "}\x85"),
])
def test_the_corpus_takes_only_ascii_whitespace(old, new):
    text = ("inequality T {\n domain = (0, 1)\n lhs = x\n relation = <\n"
            " rhs = 2*x\n tags = expected:proved\n}")
    assert len(parse_corpus(text.replace("\n", "\r\n").replace(" ", "\t"))) == 1
    with pytest.raises(ParseError):
        parse_corpus(text.replace(old, new))


def test_token_positions_increase():
    toks = tokenize("2*sin(x) + tan(x/2)^3")
    positions = [t.position for t in toks]
    assert positions == sorted(positions)
    assert len(set(positions)) == len(positions)


def test_parse_structure():
    e = parse_expression("x^3*sin(x)")
    assert e == Mul(PowInt(VarX(), 3), Call("sin", VarX()))
    e = parse_expression("-x^2")
    assert e == Neg(PowInt(VarX(), 2))
    e = parse_expression("2*sin(x)+tan(x)-3*x")
    assert e == Sub(Add(Mul(Lit(F(2)), Call("sin", VarX())),
                        Call("tan", VarX())),
                    Mul(Lit(F(3)), VarX()))


def test_decimal_literals_exact():
    assert parse_expression("0.15") == Lit(F(3, 20))
    assert parse_expression("0.1") == Lit(F(1, 10))
    assert parse_expression("2.50") == Lit(F(5, 2))


def test_integer_quotients_fold():
    assert parse_expression("3/20") == Lit(F(3, 20))
    assert parse_expression("1/60") == Lit(F(1, 60))
    # division by a non-literal stays a Div node
    assert isinstance(parse_expression("3/x"), Div)


def test_parse_errors():
    with pytest.raises(ParseError, match="unknown function foo"):
        parse_expression("foo(x)")
    with pytest.raises(ParseError, match="integer literal"):
        parse_expression("x^(1/2)")
    with pytest.raises(ParseError, match="integer literal"):
        parse_expression("x^2.5")
    with pytest.raises(ParseError):
        parse_expression("2*(x")
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expression("y + 1")


def test_parse_caps():
    # exponent and tree depth are bounded when parsing, before any evaluation
    assert (MAX_EXPONENT, MAX_DEPTH) == (64, 200)
    assert parse_expression("x^64") == PowInt(VarX(), 64)
    assert parse_expression("x^-64") == PowInt(VarX(), -64)
    # nested powers multiply their exponents (the big cases are never evaluated)
    assert parse_expression("(x^8)^8") == PowInt(PowInt(VarX(), 8), 8)
    for src in ("x^65", "x^(-65)", "x^1000000", "(x^8)^9", "(x^2*sin(x))^64",
                "((x^64)^64)^64", "(x^0)^65", "sin(x^0)^1000000",
                "(x^0)^-100000000000"):
        with pytest.raises(ParseError, match=r"\|exponent\| exceeds 64"):
            parse_expression(src)
    # a tree 200 levels deep parses, prints, re-parses and evaluates
    for src, value in [("-" * 199 + "x", -1), ("+".join(["x"] * 200), 200),
                       ("(" * 199 + "x" + ")" * 199, 1)]:
        e = parse_expression(src)
        assert parse_expression(format_expr(e)) == e
        assert eval_expr(e, Interval.point(1)) == Interval(value, value)
    for src in ("-" * 200 + "x", "+".join(["x"] * 201), "2*" * 200 + "x",
                "(" * 200 + "x" + ")" * 200, "sin(" * 3000 + "x" + ")" * 3000):
        with pytest.raises(ParseError, match="nested deeper than 200 levels"):
            parse_expression(src)


def test_precedence_value_fixture():
    v = eval_expr(parse_expression("1+2*3^2"), Interval.point(0))
    assert v == Interval(19, 19)


def test_negative_exponent():
    e = parse_expression("x^-2")
    assert e == PowInt(VarX(), -2)
    v = eval_expr(e, Interval.point(2))
    assert v.contains(F(1, 4))


_ROUND_TRIP = [
    "2*sin(x)+tan(x)-3*x",
    "x^3*sin(x)",
    "3 + (1/60)*x^3*sin(x)",
    "(sin(x)/x)^2 + tan(x)/x",
    "2 + (2/pi)^4*x^3*tan(x)",
    "x/sin(x) + ((x/2)/tan(x/2))^2",
    "2*sinh(x)/x + tanh(x)/x",
    "3 + (3/20)*x^4 - (3/56)*x^6",
    "-x^2",
    "-(x + 1)*cos(x)",
    "1/(2*x)",
    "((8*pi-24)/pi^3)*x^3*sin(x)",
]


def test_round_trip_print_parse():
    for src in _ROUND_TRIP:
        a = parse_expression(src)
        b = parse_expression(format_expr(a))
        assert a == b, (src, format_expr(a))


def _random_tree(rng, depth, powers=MAX_EXPONENT):
    """A tree the parser could return: literals are >= 0, a quotient of two
    literals is folded (so a literal over a nonzero literal is not drawn),
    and the |exponents| of nested powers multiply to at most `powers`."""
    r = rng.random()
    if depth == 0 or r < 0.2:
        return rng.choice([VarX(), PiConst(), Lit(F(rng.randint(0, 9))),
                           Lit(F(rng.randint(0, 9), rng.randint(2, 7)))])
    if r < 0.35:
        return Neg(_random_tree(rng, depth - 1, powers))
    if r < 0.5:
        return Call(rng.choice(FUNCTIONS), _random_tree(rng, depth - 1, powers))
    if r < 0.6:
        n = rng.randint(-min(3, powers), min(3, powers))
        return PowInt(_random_tree(rng, depth - 1, powers // max(abs(n), 1)), n)
    node = rng.choice([Add, Sub, Mul, Div])
    a, b = (_random_tree(rng, depth - 1, powers) for _ in range(2))
    if node is Div and isinstance(a, Lit) and isinstance(b, Lit) and b.value:
        b = VarX()
    return node(a, b)


def test_random_trees_round_trip_print_parse():
    rng = random.Random(23)
    texts = []
    for _ in range(3000):
        e = _random_tree(rng, 6)
        texts.append(format_expr(e))
        assert parse_expression(texts[-1]) == e, texts[-1]
    # the draws hold every function, negative and zero exponents and nested
    # unary minus
    for part in (*(f"{fn}(" for fn in FUNCTIONS), "^(-", "^0", "--"):
        assert any(part in t for t in texts), part


def test_format_expr_rejects_a_non_expression():
    with pytest.raises(TypeError, match="not an expression node"):
        format_expr(3)


def test_round_trip_all_corpus_expressions(corpus_specs):
    for spec in corpus_specs:
        for e in (spec.lhs, spec.rhs, spec.difference()):
            assert parse_expression(format_expr(e)) == e, spec.name


def test_eval_expr_examples():
    v = eval_expr(parse_expression("x/sin(x)"), Interval.point(1))
    assert v.lo <= F("1.1883951057781213") and F("1.1883951057781212") <= v.hi
    x = Interval(F(1, 4), F(3, 4))   # dyadic endpoints pass through exactly
    assert eval_expr(parse_expression("x"), x) == x
    with pytest.raises(EvalError):
        eval_expr(parse_expression("1/(x - x)"), Interval(F(1, 4), F(1, 2)))


def test_eval_expr_error_carries_position():
    with pytest.raises(EvalError) as exc:
        eval_expr(parse_expression("sin(x)/(x - x)"), Interval(F(1, 4), F(1, 2)))
    assert exc.value.position is not None


def test_eval_error_position_is_the_failing_node():
    # an equal subtree evaluated earlier in another expression must not lend
    # its offset, a subtree that appears twice fails at its first copy, and
    # offset 0 is an offset, not a missing one
    iv = Interval(F(1, 2), F(3, 2))
    cases = [("1 + 1/(x-1)", iv, 5), ("1/(x-1)", iv, 1),
             ("1/(x-1) + 1/(x-1)", iv, 1), ("2*x - 1/(x-1) + 1/(x-1)", iv, 7),
             ("tan(x) + 1", Interval(F(3, 2), F(8, 5)), 0)]
    for text, x, pos in cases:
        with pytest.raises(EvalError) as exc:
            eval_expr(parse_expression(text), x)
        assert exc.value.position == pos, text


@pytest.mark.parametrize("text,offset", [("sin(x)", 0), ("x + sin(1)", 0),
                                         ("2*sin(x)", 2)])
def test_a_bad_endpoint_is_refused_at_its_leftmost_x_or_call(text, offset):
    with pytest.raises(ParseError, match="endpoints allow only") as exc:
        eval_endpoint(parse_expression(text))
    assert exc.value.position == offset


def test_an_endpoint_that_is_no_expression_is_refused_with_no_offset():
    with pytest.raises(ParseError, match="endpoints allow only") as exc:
        eval_endpoint("inf")
    assert exc.value.position is None


def test_an_infinite_upper_endpoint_cannot_be_closed():
    with pytest.raises(ParseError, match=r"stanza D: \[\.\., inf\] cannot be closed"):
        parse_corpus("inequality D {\n domain = (0, inf]\n lhs = x\n"
                     " relation = <\n rhs = 2*x\n}")


_CORPUS = """
# a comment line
inequality THM31_LO {
  domain   = (0, pi/2)
  lhs      = 3 + (1/60)*x^3*sin(x)
  relation = <
  rhs      = 2*x/sin(x) + x/tan(x)
  tags     = expected:proved, theorem:3.1
}

inequality HYP {
  domain   = (0, inf)
  lhs      = 2*sinh(x) + tanh(x)
  relation = >
  rhs      = 3*x
}

inequality CLOSED {
  domain   = [1/10, 20]
  lhs      = sinh(x)
  relation = >
  rhs      = x
}
"""


def test_parse_corpus_basics():
    specs = parse_corpus(_CORPUS)
    assert [s.name for s in specs] == ["THM31_LO", "HYP", "CLOSED"]
    s = specs[0]
    assert s.relation == "<"
    assert s.lhs == parse_expression("3 + (1/60)*x^3*sin(x)")
    assert s.rhs == parse_expression("2*x/sin(x) + x/tan(x)")
    assert not s.lo_closed and not s.hi_closed
    assert s.tags == ("expected:proved", "theorem:3.1")
    assert s.tag_value("expected") == "proved"
    assert specs[1].unbounded
    assert specs[2].lo_closed and specs[2].hi_closed
    # difference orientation follows the relation
    assert format_expr(specs[0].difference()).startswith("2*x/sin(x)")


def test_parse_corpus_nested_endpoints_and_a_blank_line():
    # parenthesised endpoints split at the domain's one comma, and a blank
    # line inside a stanza is skipped like one between stanzas
    spec, = parse_corpus("inequality P {\n domain = ((1/2), (1))\n\n lhs = x\n"
                         " relation = >\n rhs = 0\n}")
    assert (spec.lo_expr, spec.hi_expr) == (Lit(F(1, 2)), Lit(F(1)))
    assert not spec.lo_closed and not spec.hi_closed


_TWINS = """
inequality NEAR {
  domain   = (0, 1)
  lhs      = sin(x)
  relation = <
  rhs      = x
}

inequality FAR {
  domain   = [1, 3/2]
  lhs      = sin(x)
  relation = <
  rhs      = x
}
"""


def test_one_statement_shares_one_difference_and_one_plan():
    near, far = parse_corpus(_TWINS)
    node = near.difference()
    assert far.difference() is node and near.difference() is node
    assert "_plan" not in vars(node)
    ctx = get_ctx(192)
    _core.eval_plain(ctx, node, (ctx.one // 2, ctx.one))
    plan = vars(node)["_plan"]
    assert _core._plan(far.difference()) is plan
    # a spec built by hand keeps the node of its first call
    twin = InequalitySpec(*(getattr(near, f) for f in InequalitySpec._fields))
    assert twin.difference() is twin.difference() is not node
    # a changed statement gets a node of its own
    other = near.replace(relation=">")
    assert other.difference() is not node
    assert other.difference() == Sub(near.lhs, near.rhs)


def test_a_literal_past_the_digit_limit_is_a_parse_error():
    # int() refuses more than sys.get_int_max_str_digits() digits (4300 by
    # default): the literal is named at its offset
    with pytest.raises(ParseError, match="number has too many digits") as exc:
        parse_expression("x + " + "1" * 5001)
    assert exc.value.position == 4


@pytest.mark.parametrize("text,value", [
    ("2.5e-1", F(1, 4)), ("2.5E1", F(25)), ("1e+3", F(1000)), ("0.15e0", F(3, 20)),
    ("7e-3", F(7, 1000)),
])
def test_a_literal_takes_an_exponent_exactly(text, value):
    assert parse_expression(text) == Lit(value)
    assert format_expr(Lit(value)) == str(value)


def test_the_digit_limit_holds_when_the_interpreter_has_none(monkeypatch):
    # a limit of 0 switches the interpreter's check off; the default 4,300
    # still bounds the work, as it always did for the CLI's flags
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    for text in ("1" * 4301, "1e4300", "1e-4300", "1e" + "9" * 4301):
        with pytest.raises(ParseError, match="number has too many digits"):
            parse_expression(text)
    assert parse_expression("1e4299") == Lit(F(10 ** 4299))


@pytest.mark.parametrize("text", ["1e4000*1e4000", "1e-4000/1e4000",
                                  "(1e2000 + 1/3)^64", "1/(1e3000)^2"])
def test_endpoint_arithmetic_stops_at_the_digit_limit(text):
    # each literal is within the limit; the value built from them is not
    with pytest.raises(ParseError, match="endpoint value of more than 4300 digits"):
        eval_endpoint(parse_expression(text))


def test_endpoint_arithmetic_reaches_the_digit_limit_exactly():
    top = 10 ** 4300 - 1                        # the largest with 4,300 digits
    assert eval_endpoint(parse_expression(f"{top}*1")) == Interval.point(top)
    assert eval_endpoint(parse_expression(f"1/{top}")) == Interval.point(F(1, top))
    with pytest.raises(ParseError, match="more than 4300 digits"):
        eval_endpoint(parse_expression(f"{top}+1"))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no integer printing limit in this Python")
def test_a_kept_endpoint_value_is_checked_again_under_a_new_digit_limit():
    # the node keeps its value with the limit it was checked under: under a
    # lower limit it is valued again, and refused
    node = parse_expression(f"{10 ** 700}*3")
    value = eval_endpoint(node)
    assert eval_endpoint(node) is value
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        with pytest.raises(ParseError, match="endpoint value of more than 640 digits"):
            eval_endpoint(node)
    finally:
        sys.set_int_max_str_digits(saved)
    assert eval_endpoint(node) == value
    # a valuation that fails keeps nothing on its node
    big = parse_expression("1e4000*1e4000")
    with pytest.raises(ParseError, match="endpoint value of more than"):
        eval_endpoint(big)
    assert "_endpoint" not in vars(big)


def test_parse_corpus_empty():
    assert parse_corpus("") == []
    assert parse_corpus("# nothing but comments\n\n") == []


def test_parse_corpus_errors():
    with pytest.raises(ParseError, match="missing 'relation'"):
        parse_corpus("inequality A {\n domain = (0, 1)\n lhs = x\n rhs = x\n}")
    with pytest.raises(ParseError, match="duplicate"):
        parse_corpus("""
inequality A {
 domain = (0, 1)
 lhs = x
 relation = <
 rhs = 2*x
}
inequality A {
 domain = (0, 1)
 lhs = x
 relation = <
 rhs = 2*x
}
""")
    with pytest.raises(ParseError, match="out of order"):
        parse_corpus("inequality B {\n domain = (1, 1)\n lhs = x\n"
                     " relation = <\n rhs = 2*x\n}")
    with pytest.raises(ParseError, match="endpoints allow only"):
        parse_corpus("inequality C {\n domain = (0, sin(1))\n lhs = x\n"
                     " relation = <\n rhs = 2*x\n}")


@pytest.mark.parametrize("tags,match", [
    ("expected:proveed", "bad value"), ("expected", "unknown tag"),
    ("max_dpeth:5", "unknown tag"), ("precision:32", "unknown tag"),
    ("expect_seq.S_T31.positive:passes", "bad value"),
    ("expected:proved, expected:refuted", "tag key .expected. given twice"),
])
def test_parse_corpus_rejects_bad_tags(tags, match):
    text = ("inequality T {\n domain = (0, 1)\n lhs = x\n relation = <\n"
            f" rhs = 2*x\n tags = {tags}\n}}")
    with pytest.raises(ParseError, match=f"stanza T: {match}"):
        parse_corpus(text)


def test_parse_corpus_accepts_every_tag_key():
    text = ("inequality T {\n domain = (0, 1)\n lhs = x\n relation = <\n"
            " rhs = 2*x\n tags = expected:refuted, theorem:3.1, "
            "expect_seq.S_T33_C.increasing:violation@2, eps_lo:1/100, "
            "eps_hi:0.01, x_max:10, max_depth:20, min_width:1/1000\n}")
    assert len(parse_corpus(text)[0].tags) == 8


def test_eval_soundness_on_corpus_expressions(corpus_specs):
    rng = random.Random(2024)
    for spec in corpus_specs:
        expr = spec.difference()
        for _ in range(6):
            p = F(1, 16) + F(rng.randint(0, 2 ** 16), 2 ** 16) * F(45, 32)
            wide = eval_expr(expr, Interval(p - F(1, 128), p + F(1, 128)),
                             precision=128)
            tight = eval_expr(expr, Interval.point(p), precision=256)
            assert wide.lo <= tight.lo and tight.hi <= wide.hi, (spec.name, p)


# Golden record of the expression parser: each input's tree `repr` (every
# node's `pos` included) or its ParseError message and offset.  The inputs
# are the shipped lhs, rhs and domain ends, printed random trees, and
# one-character deletions, insertions and swaps of the corpus expressions,
# powers of them, and inputs at the depth and digit limits.  The digest was
# taken from the parser before its rewrite over `_scan`'s tuples.
_GOLDEN_PARSE_SHA256 = (
    "d8c847bf8b4a4877b3e19075dc2e7fb95aae3538a3407e859000f63e5c5688ec")


def _golden_parse_inputs():
    with open(default_corpus_path(), encoding="utf-8") as fh:
        fields = re.findall(r"^ *(lhs|rhs|domain) *= *(.*?) *$", fh.read(), re.M)
    exprs = []
    for key, value in fields:
        exprs += ([end.strip() for end in value[1:-1].split(",")]
                  if key == "domain" else [value])
    rng = random.Random(26)
    inputs = exprs + [format_expr(_random_tree(rng, 6)) for _ in range(800)]
    alphabet = "0123456789.eE+-*/^(),xpisnhcota_# \t@"
    while len(inputs) < 2300:
        s = rng.choice(exprs)
        k = rng.randrange(len(s))
        edit = rng.randrange(3)
        if edit == 0:
            s = s[:k] + s[k + 1:]
        elif edit == 1:
            s = s[:k] + rng.choice(alphabet) + s[k:]
        elif k + 1 < len(s):
            s = s[:k] + s[k + 1] + s[k] + s[k + 2:]
        inputs.append(s)
    powers = ("x", "1.5", "(-2)", "-3", "9", "70", "2^40", "1/2", "0", "pi")
    inputs += [f"({rng.choice(exprs)})^{rng.choice(powers)}" for _ in range(100)]
    inputs += ["(" * n + "x" + ")" * n for n in (66, 67, 199, 200)]
    inputs += ["-" * n + "x" for n in (199, 200)]
    inputs += ["1" * 4300, "1" * 4301, "1e4299", "1e-4300", "2.5e+1"]
    return exprs, inputs


def test_the_parser_matches_its_golden_record():
    exprs, inputs = _golden_parse_inputs()
    assert len(exprs) == 28 * 4 and len(inputs) == 2411
    records = []
    for text in inputs:
        try:
            records.append(repr(parse_expression(text)))
        except ParseError as exc:
            records.append(f"ParseError({exc}, {exc.position})")
    errors = sum(r.startswith("ParseError(") for r in records)
    assert 400 < errors < 1600
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == _GOLDEN_PARSE_SHA256

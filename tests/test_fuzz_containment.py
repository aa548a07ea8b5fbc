"""Containment fuzz: random expressions over the whole grammar, checked
against mpmath.

Each expression (depth 1-4: the six functions, `x/k` arguments, `pi`,
negative literals, + - * /, small powers) is centred by a rational near its value at
its box's midpoint, so that the plain range straddles 0 and `enclose` builds
its Taylor form.  Boxes start near 0, sit left of 0, are points or are
ordinary boxes; some are split in two with the parent's remainder
coefficient handed to each half, as bisection does.  Every `eval_plain` and
`enclose` result must hold mpmath's value at 100 digits, to within 2^-400,
at the box's ends and 3 inner points.  A DomainError or PoleError is a valid
answer; any other exception fails.  The test knows no stanza of the corpus,
so it guards the arithmetic on inputs that no corpus was tuned on.
"""

import random
from fractions import Fraction

import mpmath

from ineqcert import _core
from ineqcert.errors import DomainError, PoleError
from ineqcert.lang import parse_expression

SEED = 19
CHECKS = 3000
PREC = 192
TOL = mpmath.mpf(2) ** -400

_UNARY = ("sin", "cos", "tan", "sinh", "cosh", "tanh")


def _literal(rng):
    q = Fraction(rng.randint(-12, 12), rng.randint(1, 9))
    return f"({q})", lambda x: mpmath.mpf(q.numerator) / q.denominator


def _draw(rng, depth):
    """(text, mpmath function of x) of a random expression whose deepest
    path has `depth` operations."""
    if depth == 0:
        u = rng.random()
        if u < 0.5:
            return "x", lambda x: x
        if u < 0.6:
            k = rng.randint(1, 8)
            return f"(pi/{k})", lambda x: mpmath.pi / k
        return _literal(rng)
    kind = rng.choice(("call", "call", "add", "sub", "mul", "div", "pow"))
    if kind == "call":
        fn = rng.choice(_UNARY)
        f = getattr(mpmath, fn)
        if rng.random() < 0.4:  # an x/k argument
            k = rng.randint(2, 9)
            return f"{fn}(x/{k})", lambda x: f(x / k)
        text, g = _draw(rng, depth - 1)
        return f"{fn}({text})", lambda x: f(g(x))
    if kind == "pow":
        e = rng.randint(2, 3) if depth <= 2 else 2  # nested, at most 36
        text, g = _draw(rng, depth - 1)
        return f"({text})^{e}", lambda x: g(x) ** e
    lt, lf = _draw(rng, depth - 1)
    rt, rf = _draw(rng, rng.randint(0, depth - 1))
    if rng.random() < 0.5:
        lt, lf, rt, rf = rt, rf, lt, lf
    op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
    fn = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
          "mul": lambda a, b: a * b, "div": lambda a, b: a / b}[kind]
    return f"({lt}) {op} ({rt})", lambda x: fn(lf(x), rf(x))


def _box(rng):
    """(a, b): near 0 (30%), a point (20%), left of 0 (20%) or ordinary."""
    u = rng.random()
    width = Fraction(1, 2 ** rng.randint(2, 10))
    if u < 0.3:
        a = 0 if rng.random() < 0.5 else Fraction(1, 2 ** rng.randint(4, 12))
        return a, a + width
    if u < 0.5:
        p = Fraction(rng.randint(-4000, 4000), rng.randint(1, 1000))
        return p, p
    if u < 0.7:
        b = -Fraction(rng.randint(0, 2000), 1000)
        return b - width, b
    a = Fraction(rng.randint(0, 3000), 1000)
    return a, a + width


def _mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


def _value(f, x):
    """f at the Fraction x in mpmath, or None where it is not finite."""
    try:
        v = f(_mp(x))
    except (ZeroDivisionError, ValueError, OverflowError):
        return None
    return v if mpmath.isfinite(v) else None


def _miss(f, x, enc, one):
    """Whether f's value at x lies outside enc/one by more than TOL; None
    where it is not finite."""
    v = _value(f, x)
    if v is None:
        return None
    return not _mp(Fraction(enc[0], one)) - TOL <= v <= _mp(Fraction(enc[1], one)) + TOL


def _points(rng, a, b):
    if a == b:
        return [a]
    inner = sorted(a + (b - a) * Fraction(rng.randint(1, 999), 1000)
                   for _ in range(3))
    return [a, *inner, b]


def test_every_enclosure_holds_the_mpmath_value():
    rng = random.Random(SEED)
    ctx = _core.Ctx(PREC)
    checks, misses, raised = 0, [], []

    def check(label, text, f, enc, points):
        nonlocal checks
        for x in points:
            miss = _miss(f, x, enc, ctx.one)
            if miss is None:
                continue
            checks += 1
            if miss:
                # mpmath rounds too: where terms cancel, its error at 100
                # digits can pass 2^-400 (x + (-5/2 - x) reads 3e-101), so
                # a miss must stand at 200 digits
                with mpmath.workdps(200):
                    if _miss(f, x, enc, ctx.one):
                        misses.append((label, text, x, enc))

    def run(label, text, f, node, a, b, rem=None):
        """enclose's (and, without rem, eval_plain's) range over the box
        [a, b] of integers at 2**-PREC; enclose's rem, or None."""
        points = _points(rng, Fraction(a, ctx.one), Fraction(b, ctx.one))
        try:
            if rem is None:
                check("eval_plain", text, f, _core.eval_plain(ctx, node, (a, b)), points)
            enc, rem = _core.enclose(ctx, node, a, b, rem)
        except (DomainError, PoleError):
            return None
        except Exception as exc:  # any other exception is a fault
            raised.append((label, text, a, b, repr(exc)))
            return None
        check(label, text, f, enc, points)
        return rem

    with mpmath.workdps(100):
        while checks < CHECKS:
            text, f = _draw(rng, rng.randint(1, 4))
            a, b = _box(rng)
            centre = _value(f, (a + b) / 2)
            if centre is None or abs(centre) > 2 ** 40:
                continue
            q = Fraction(round(centre * 2 ** 20), 2 ** 20)
            text = f"({text}) - ({q})"
            node = parse_expression(text)
            fq = lambda x, f=f, q=q: f(x) - _mp(q)
            lo, hi = ctx.lo_of(a), ctx.hi_of(b)
            rem = run("enclose", text, fq, node, lo, hi)
            if rem is not None and lo < hi and rng.random() < 0.5:
                # the halves inherit the parent's remainder coefficient
                mid = (lo + hi) // 2
                run("enclose-left-half", text, fq, node, lo, mid, rem)
                run("enclose-right-half", text, fq, node, mid, hi, rem)
    assert not raised, raised[:3]
    assert not misses, misses[:3]

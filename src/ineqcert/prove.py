"""The verification engine.

* `prove_positive`: adaptive-bisection interval proof that an expression is
  positive on a compact interval.  Leaf enclosures combine plain interval
  evaluation and order-12 midpoint Taylor forms, so differences that
  vanish to high order at an endpoint still certify with modest leaf
  counts.  Each box hands its remainder coefficient down to its halves.
  The boxes bound `lang.clear_tan`'s form: v/tan(u) as v*cos(u)/sin(u),
  each box kept off cos(u)'s zeros, and where tan(u)'s pole lies near the
  core, the difference times cos(u), certified > 0 there.
* `verify_inequality`: runs a corpus stanza on its compact core.  A stanza
  is registered as its theorem only when its domain and difference equal
  those of the same-named stanza in the shipped corpus.  Then one series
  rule, `near_zero_certificate`, settles its sign on (0, x] for any x > 0
  inside the series' radius: the signed difference series over its
  leading power, bounded below by its exact leading coefficient plus its
  later terms of the wrong sign at x minus a certified tail, must be > 0
  (an upper claim adds its constant's lower end).  Run once at the core's
  right end, it proves the core of the seven whose series is not a
  derivative's in one leaf, and their (0, eps] gap with it; at x = eps it
  closes THM33's.  Only the raw difference refutes a core.  A point does
  so by one rule, `_grid_refute`'s: its enclosure lies below 0.  It is
  tried at the core's midpoint before any box is formed, and at the ends
  and midpoints of the boxes bisection leaves inconclusive.  A box does so
  when its enclosure lies below 0; its value is its midpoint's if that
  point refutes, else its own enclosure.
  Uncovered margins are always reported, never silently assumed.
* `ProveOptions`: the engine options, each with its one default and its
  valid range, checked when the options are built.
* `sequence_check`, `identity_check`: the paper's per-n proof steps,
  checked exactly at each n up to n_max.  A sequence's a_n, or
  a_(n+1) - a_n, must be > 0; an identity is one row of `_IDENTITIES`,
  its sides at n compared as integers cross-multiplied, with the parts
  whose sign the proof needs.  Found violations are reported.
* `limit_report`, `scan_extremum`: the sharp constants at 0 and pi/2, and
  a sampled search for the ratio's minimum.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import count, repeat
from math import comb, inf, isfinite
from typing import Optional

from . import _core
from ._record import Record
from .errors import DomainError, InconsistencyError, PoleError
from .exact import bernoulli  # noqa: F401 (patched by perfbench)
from .interval import Interval, get_ctx
from .lang import (Expr, InequalitySpec, _digit_limit, clear_tan, default_corpus_path,
                   eval_endpoint, eval_expr, format_expr, parse_corpus,
                   parse_expression, tan_multipliers)
from .series import (coeff_row, exact_sum, get_series, sign_function,
                     tail_bound, theorem_coeff, theorem_pair, TailBound,
                     THEOREMS, TRIG_X_MAX)
from .series import eval_series  # noqa: F401 (patched by perfbench)

__all__ = [
    "ProveOptions", "Leaf", "ProofResult", "SequenceReport", "IdentityReport",
    "LimitReport", "ScanReport", "prove_positive", "verify_inequality",
    "near_zero_certificate", "sequence_check", "identity_check",
    "limit_report", "scan_extremum", "THEOREM_CLAIMS", "SEQUENCE_IDS",
    "IDENTITY_IDS",
]


# Deepest bisection: a box left undecided costs up to this many enclosures
# down its path, so with MAX_INCONCLUSIVE it bounds an Unknown stanza's work.
MAX_BISECT_DEPTH = 256
# Reports print dyadic endpoints m / 2**precision; at 4,096 bits their denominators
# have about 1,234 digits, under the default printing limit (a lower one lowers it).
MAX_PRECISION = 4096


class ProveOptions(Record):
    """Engine options.  Each default lives here, and a value outside its
    range raises DomainError naming the field."""
    eps_lo: Fraction = Fraction(1, 1000)
    eps_hi: Fraction = Fraction(1, 1000)
    x_max: Fraction = Fraction(20)
    max_depth: int = 48
    min_width: Fraction = Fraction(1, 10 ** 12)
    precision: int = 192

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative margin leaves the stated domain; x_max <= 0 leaves no core
        if self.eps_lo < 0 or self.eps_hi < 0:
            raise DomainError(f"margins must be non-negative: eps_lo={self.eps_lo}, "
                              f"eps_hi={self.eps_hi}")
        if self.x_max <= 0:
            raise DomainError(f"x_max must be positive, got {self.x_max}")
        if not 1 <= self.max_depth <= MAX_BISECT_DEPTH:
            raise DomainError(f"max_depth must be in [1, {MAX_BISECT_DEPTH}], "
                              f"got {self.max_depth}")
        if self.min_width <= 0:
            raise DomainError(f"min_width must be positive, got {self.min_width}")
        if not 64 <= self.precision <= MAX_PRECISION:
            raise DomainError(f"precision must be in [64, {MAX_PRECISION}], "
                              f"got {self.precision}")
        # the report's dyadic integers, of about precision + 128 bits, must print
        limit = _digit_limit()
        digits = (self.precision + 128) * 30103 // 100000 + 1  # log10(2) < 0.30103
        if digits > limit:
            raise DomainError(
                f"precision {self.precision} needs integers of about {digits} "
                f"digits, past the interpreter's limit of {limit} digits on "
                f"printing an integer")


class Leaf(Record):
    lo: Fraction
    hi: Fraction
    bound: Fraction      # certified lower bound of the proved-positive form


class ProofResult(Record):
    # the one mutable record, so unhashable: the prover fills it in as it goes
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None
    status: str                                  # Proved | Refuted | Unknown
    witness: Optional[Interval] = None
    witness_value: Optional[Interval] = None
    certificate: list = []                       # list[Leaf]
    leaves: int = 0
    max_depth: int = 0
    ms: float = 0.0
    reason: Optional[str] = None
    findings: list = []
    uncovered: list = []
    series_certificate: Optional[dict] = None
    theorem: Optional[TheoremClaim] = None  # the registered claim the stanza is
    bisected: Optional[Expr] = None         # the expression the leaves bound
    multipliers: tuple = ()                 # its cos(u), each > 0 on the core


class SequenceReport(Record):
    seq_id: str
    mode: str
    n_min: int
    n_max: int
    all_pass: bool
    first_violation: Optional[tuple] = None      # (n, exact value)


class IdentityReport(Record):
    identity_id: str
    n_min: int
    n_max: int
    holds: bool
    first_failure: Optional[tuple] = None        # (n, lhs, rhs)
    positivity: dict = {}


class LimitReport(Record):
    thm_id: str
    endpoint: str
    value_exact: Optional[Fraction]
    value_enclosure: Optional[Interval]
    matches_paper: bool
    paper_value: str


class ScanReport(Record):
    thm_id: str
    lo: Fraction
    hi: Fraction
    location: Fraction
    value: float
    value_enclosure: Interval
    sampled_monotone: bool
    at_boundary: Optional[str]


# ---------------------------------------------------------------------------
# generic adaptive bisection
# ---------------------------------------------------------------------------

def _enclose(ctx, expr: Expr, a: Fraction, b: Fraction, rem=None, poles=()):
    """(Interval, rem for sub-boxes) of expr over [a, b] from `_core.enclose`,
    refused first, as tan(u) is, where cos holds 0 over a u in poles."""
    x = (ctx.lo_of(a), ctx.hi_of(b))
    for u in poles:
        _core._cos_off_pole(ctx, *_core.eval_plain(ctx, u, x))
    # looked up at call time, so a rebinding of _core.enclose sees it
    enc, rem = _core.enclose(ctx, expr, *x, rem)
    return Interval.scaled(*enc, ctx.one), rem


# boxes left inconclusive before bisection gives up; bounds the work on an
# identically zero difference, where every box straddles 0
MAX_INCONCLUSIVE = 16
# proved leaves before a stanza ends Unknown
MAX_LEAVES = 200_000


def _past_limit(ev, a: Fraction, b: Fraction) -> Optional[str]:
    """The reason naming the first of a, b at which ev raises DomainError
    as a point (an argument limit: |x| <= 4 for sin and cos, 32 for sinh,
    cosh and tanh), or None."""
    for p in (a, b):
        try:
            ev(Interval.point(p))
        except DomainError as exc:
            return f"x={p} is past an argument limit: {exc}"
        except PoleError:
            pass
    return None


def _grid_refute(ev, points) -> Optional[tuple]:
    """(x's point interval, ev on it) for the first x of points, in order,
    whose point enclosure lies below 0 (the one rule by which a point refutes a
    claim), skipping a point where ev raises DomainError or PoleError;
    None if none does.  The name is older than this rule: it once named a
    fixed grid, and the benchmark's traced spans look it up."""
    for x in points:
        try:
            v = ev(p := Interval.point(x))
        except (DomainError, PoleError):
            continue
        if v.hi < 0:
            return p, v
    return None


def _positive(ctx, e: Expr, x) -> bool:
    """Whether `_core.eval_plain` certifies e > 0 over the integer range x."""
    try:
        return _core.eval_plain(ctx, e, x)[0] > 0
    except (DomainError, PoleError):
        return False


def _bisect_positive(expr: Expr, lo: Fraction, hi: Fraction,
                     opts: ProveOptions) -> ProofResult:
    """The one place where a core's bisection ends.

    A point refutes the claim by `_grid_refute`'s one rule.  The core's
    midpoint is tried first: if it refutes, it is the witness, and no box
    or Taylor form is built (0 leaves, depth 0).  Then the boxes bound
    N = `lang.clear_tan(expr, multipliers)`, cos(u)*expr for each
    multiplier cos(u) of `lang.tan_multipliers(expr)` that `eval_plain`
    certifies > 0 on the core and not on the core widened by half its
    width at each end: a pole of tan(u) lies that near, and N has none
    there.  N writes each v/tan(u) as v*cos(u)/sin(u), refusing a box where
    cos holds 0 over u as tan(u) does.  N has expr's sign on the core.
    Bisection: Proved when every box certifies N positive; Refuted at the
    first box certified negative, even past inconclusive ones, with that
    box as the witness, valued by expr at its midpoint if that point
    refutes, else by N's enclosure, or with a multiplier by expr's (a box
    where expr has none is taken as inconclusive).  A box at the depth or
    width limit that does neither is recorded, and the run stops after
    MAX_INCONCLUSIVE of them.  Then the ends and midpoint of each recorded
    box are tried on expr, in order: Refuted at the first that refutes, so
    a dip narrower than min_width is found wherever bisection pins it;
    else Unknown, naming the first recorded box.  Three exits end the run
    Unknown before that scan: a box that raises DomainError at an end that
    raises it as a point (the reason names that point); a box whose
    enclosures contradict each other; and more than MAX_LEAVES proved
    leaves.

    Every box is enclosed by `_core.enclose` at opts.precision, and hands
    the remainder coefficient it returns down to its two halves; a box at
    the depth or width limit gets none, so the enclosure a reason prints is
    the box's own full form.  The result records N (`bisected`) and its
    multipliers; the caller times the run (`ProofResult.ms`)."""
    ctx = get_ctx(opts.precision)
    core = (ctx.lo_of(lo), ctx.hi_of(hi))

    def ev(x: Interval) -> Interval:  # a point's enclosure, or a box's
        return _enclose(ctx, expr, x.lo, x.hi)[0]

    stack, leaves, boxes = [(lo, hi, 0, None)], [], []
    maxd, first_reason = 0, None
    form, multipliers, poles = expr, (), ()

    def result(status, witness=None, value=None, reason=None):
        cert = [] if status == "Unknown" else sorted(leaves, key=lambda l: l.lo)
        # every field positional, in ProofResult's order, so nothing is bound
        return ProofResult(status, witness, value, cert, len(leaves), maxd, 0.0,
                           reason, findings, [], None, None, form, multipliers)

    # a false claim is most clearly negative inside its core, where one
    # point refutes it before any box is formed
    findings = []
    hit = _grid_refute(ev, [(lo + hi) / 2])
    if hit:
        return result("Refuted", *hit)
    r = (core[1] - core[0]) // 2
    # the probe built expr's plan: with no tan step, expr is its own form
    if ("call", "tan") in (step[:2] for step in _core._plan(expr)[0]):
        multipliers = tuple(m for m in tan_multipliers(expr) if _positive(ctx, m, core)
                            and not _positive(ctx, m, (core[0] - r, core[1] + r)))
        form, poles = clear_tan(expr, multipliers)
    if multipliers:
        names = [format_expr(m) for m in multipliers]
        findings.append(f"bisected {'*'.join(names)}*difference: {', '.join(names)} "
                        f"> 0 on the core, with tan's pole near it")

    while stack and len(boxes) < MAX_INCONCLUSIVE:
        a, b, d, rem = stack.pop()
        maxd = max(maxd, d)
        at_limit = d >= opts.max_depth or (b - a) <= opts.min_width
        enc = err = None
        try:
            enc, rem = _enclose(ctx, form, a, b, None if at_limit else rem, poles)
        except (DomainError, PoleError) as exc:
            err = str(exc)
            # every box holding an end that raises as a point raises too
            past = isinstance(exc, DomainError) and _past_limit(ev, a, b)
            if past:
                return result("Unknown", reason=past)
        except InconsistencyError as exc:
            # a soundness fault: no verdict on this stanza can be trusted
            return result("Unknown",
                          reason=f"internal inconsistency: {exc} on [{a}, {b}]")
        if enc is not None:
            if enc.lo > 0:
                leaves.append(Leaf(a, b, enc.lo))
                if len(leaves) > MAX_LEAVES:
                    return result("Unknown", reason=f"leaf budget {MAX_LEAVES} exceeded")
                continue
            if enc.hi < 0:
                hit = _grid_refute(ev, [(a + b) / 2])
                try:
                    value = hit[1] if hit else ev(Interval(a, b)) if multipliers else enc
                except (DomainError, PoleError) as exc:
                    err = str(exc)
                else:
                    return result("Refuted", Interval(a, b), value)
        if at_limit:
            why = err or f"enclosure [{enc.lo}, {enc.hi}] straddles 0"
            bits = opts.precision
            if err is None and max(-enc.lo, enc.hi) * 2 ** (bits - 64) <= 1:
                # a form sums thousands of roundings of 2^-bits each
                why += (f"; it lies within 2^{64 - bits} of 0, where {bits}-bit "
                        f"rounding may hide the sign: try a higher --precision "
                        f"(an identically zero difference ends so at any)")
            if first_reason is None:
                first_reason = f"inconclusive on [{a}, {b}] at depth {d}: {why}"
            boxes.append((a, b))
            continue
        if err is not None:
            rem = None
        m = (a + b) / 2
        stack.append((m, b, d + 1, rem))
        stack.append((a, m, d + 1, rem))
    if boxes:
        hit = _grid_refute(ev, [x for a, b in boxes for x in (a, (a + b) / 2, b)])
        return result("Refuted", *hit) if hit else result("Unknown", reason=first_reason)
    return result("Proved")


def prove_positive(expr: Expr, domain: Interval, opts: ProveOptions = None) -> ProofResult:
    """Adaptive bisection proof that expr > 0 on the compact domain."""
    opts = opts or ProveOptions()
    t0 = time.perf_counter()
    res = _bisect_positive(expr, domain.lo, domain.hi, opts)
    res.ms = 1000 * (time.perf_counter() - t0)
    return res


def reverify_certificate(expr: Expr, result: ProofResult, precision: int) -> bool:
    """Re-evaluate every leaf of a Proved result at another precision: the
    expression the leaves bound, expr's cleared form for the result's
    multipliers, must stay positive on each, off tan's poles as bisection
    keeps it, and so must each multiplier."""
    ctx = get_ctx(precision)
    form, poles = clear_tan(expr, result.multipliers)
    try:
        return result.status == "Proved" and result.bisected in (None, form) and all(
            _enclose(ctx, form, leaf.lo, leaf.hi, None, poles)[0].lo > 0
            and all(_positive(ctx, m, (ctx.lo_of(leaf.lo), ctx.hi_of(leaf.hi)))
                    for m in result.multipliers)
            for leaf in result.certificate)
    except (DomainError, PoleError):
        return False


# ---------------------------------------------------------------------------
# registered theorem claims (difference rewrites from the proofs)
# ---------------------------------------------------------------------------

class TheoremClaim(Record):
    stanza: str
    thm: str
    series_id: str
    mode: str                  # lower | upper | positive
    prefactor: str             # positive factor linking series form to the stanza


THEOREM_CLAIMS = {
    stanza: TheoremClaim(stanza, t.id, t.series, mode, t.prefactor or t.den)
    for t in THEOREMS.values()
    for stanza, mode in zip(t.stanzas, ("lower", "upper")
                            if len(t.stanzas) == 2 else ("positive",))
}


def _pick_N(series_id: str, x: Fraction) -> TailBound:
    """The tail bound at x of the first N, from the start index + 22 in
    steps of 12, whose bound is below 10^-30, or of the first N >= 140."""
    n = get_series(series_id).start_index + 22
    while True:
        tail = tail_bound(series_id, n, x)
        if tail.bound < Fraction(1, 10 ** 30) or n >= 140:
            return tail
        n += 12


def _shipped_stanzas() -> dict:
    """The shipped corpus's stanzas by name (`parse_corpus` parses a text once)."""
    with open(default_corpus_path(), "r", encoding="utf-8") as fh:
        return {s.name: s for s in parse_corpus(fh.read())}


def _statement(spec: InequalitySpec) -> tuple:
    # what a stanza claims: its domain and its difference (offsets aside)
    return (spec.lo_expr, spec.lo_closed, spec.hi_expr, spec.hi_closed,
            spec.difference())


def _registration_ok(spec: InequalitySpec) -> bool:
    """Whether the stanza states exactly what the shipped stanza of its name
    does.  The registered series were derived for those statements, so only
    then may it take its theorem's routes."""
    shipped = _shipped_stanzas().get(spec.name)
    return shipped is not None and _statement(spec) == _statement(shipped)


# ---------------------------------------------------------------------------
# near-zero series certificates
# ---------------------------------------------------------------------------

def _left_lower_bound(tail: TailBound, n0: int, negate: bool = False) -> Fraction:
    """Certified lower bound of R(x)/x^e(n0) on (0, tail.x_upper], R the
    series tail.kind from index n0 on (negated when `negate`): the leading
    term, plus its later terms to tail.N of the wrong sign there, minus the tail."""
    seq, eps = get_series(tail.kind), tail.x_upper
    pos, neg = coeff_row(tail.kind, n0 + 1, tail.N)
    lead = -seq.coeff(n0) if negate else seq.coeff(n0)
    wrong = -exact_sum((pos, eps)) if negate else exact_sum((neg, eps))
    return lead + (wrong - tail.bound) / eps ** seq.exponent_of(n0)


def _negative_value(diff: Expr, x0: Fraction) -> Optional[Interval]:
    """diff's enclosure at x0 once `_grid_refute` finds it below 0, at 192
    bits, then at doubled precisions up to MAX_PRECISION (near 0 it widens
    like 1/x0, and below 2^-precision x0 rounds to the pole at 0); None if
    none does."""
    bits = 192
    while bits <= MAX_PRECISION:
        hit = _grid_refute(lambda x: _enclose(get_ctx(bits), diff, x.lo, x.hi)[0], [x0])
        if hit:
            return hit[1]
        bits *= 2
    return None


def _g6(q: Fraction) -> str:
    """q as `:.6g` prints its float; past float's range, as a power of 2."""
    try:
        return f"{float(q):.6g}"
    except OverflowError:
        bits = q.numerator.bit_length() - q.denominator.bit_length()
        return f"about {'-' * (q < 0)}2^{bits}"


def near_zero_certificate(thm_id: str, epsilon, side: str = "lower") -> ProofResult:
    """The one series rule: the verdict of a theorem's lower (or only) or
    upper claim on (0, epsilon], for any epsilon > 0 inside its series'
    radius.  A lower or positive claim's difference is the series from
    index start + 1 on (its start term cancels exactly); an upper claim's
    is its constant minus the whole series, which starts at x^0.  Negated
    for an upper claim or a negative exact leading coefficient, the series
    over its leading power x^e0 is bounded below by `_left_lower_bound`,
    with the tail `_pick_N` stopped at; an upper claim adds its constant's
    lower end.  A bound > 0 settles the sign on (0, epsilon]: Refuted for a
    negated claim that is not upper (witness at epsilon/2, valued by
    `_negative_value`), else Proved.  A bound <= 0, or a DomainError from
    the rule (an epsilon past the radius), leaves it Unknown with the
    reason.  The `series_certificate` holds N, the bound and e0."""
    if side not in ("lower", "upper"):
        raise DomainError(f"side must be 'lower' or 'upper', got {side!r}")
    x = Fraction(epsilon)
    t = THEOREMS.get(thm_id)
    if t is None:
        raise DomainError(f"no registered series for theorem {thm_id!r}")
    i = 0 if side == "lower" else 1
    if i >= len(t.stanzas):
        raise DomainError(f"{thm_id} has no {side}-side claim")
    if x <= 0:
        raise DomainError(f"epsilon must be positive, got {x}")
    claim = THEOREM_CLAIMS[t.stanzas[i]]
    t0 = time.perf_counter()
    stanza, seq = claim.stanza, get_series(claim.series_id)
    upper = claim.mode == "upper"
    n0 = t.start if upper else t.start + 1
    leading, e0 = seq.coeff(n0), seq.exponent_of(n0)
    negate = upper or leading < 0
    try:
        tail = _pick_N(claim.series_id, x)
    except DomainError as exc:
        return ProofResult("Unknown", reason=str(exc))
    lb = bound = _left_lower_bound(tail, n0, negate)
    cert = {"series": claim.series_id, "claim": claim.mode, "eps": x,
            "N": tail.N, "leading_index": n0, "leading": leading,
            "negated": negate, "normalized_lower_bound": lb, "e0": e0}
    res = ProofResult("Unknown", series_certificate=cert)
    if upper:
        cval = eval_endpoint(parse_expression(t.right_value)).lo
        bound += cval
        cert.update(sup_bound=-lb, constant_lower=cval)
        res.findings.append(
            f"{stanza}: series sup on (0, {x}] is <= {float(-lb):.10g}; "
            f"upper constant > {float(cval):.10g}")
    cert["bound"] = bound
    if bound <= 0:
        res.reason = (f"series bound {_g6(bound)} does not settle the sign "
                      f"on (0, {_g6(x)}]")
    elif negate and not upper:
        res.status = "Refuted"
        res.witness = Interval.point(x / 2)
        res.witness_value = _negative_value(
            _shipped_stanzas()[stanza].difference(), x / 2)
        res.findings.append(
            f"{stanza}: leading coefficient {leading} at x^{e0} is negative; "
            f"difference certified negative on (0, {x}]")
        if t.derivative_series:
            a3 = theorem_coeff(claim.thm, "a", n0)
            b3 = theorem_coeff(claim.thm, "b", n0)
            res.findings.append(
                f"{stanza}: derivative-series leading term a_{n0} - c*b_{n0}"
                f" = {a3} - ({t.zero_value})*{b3} = {leading}; integrated x^"
                f"{e0 + 1} coefficient {leading / (e0 + 1)}")
    else:
        res.status = "Proved"
        if not upper:
            # the rule bounds the form over x^e0, not the difference
            res.findings.append(
                f"{stanza}: series form {claim.series_id} from x^{e0} on >= "
                f"{float(lb):.6g} * x^{e0} on (0, {x}]; leading coefficient "
                f"{leading}")
    res.ms = 1000 * (time.perf_counter() - t0)
    return res


# ---------------------------------------------------------------------------
# verify_inequality
# ---------------------------------------------------------------------------

def _dyadic(q, bits: int, up: bool = False) -> Fraction:
    """q rounded down (or up) to a multiple of 2**-bits: one floor (or ceil)."""
    n = q.numerator << bits
    return Fraction(-(-n // q.denominator) if up else n // q.denominator, 1 << bits)


def verify_inequality(spec: InequalitySpec, opts: ProveOptions = None) -> ProofResult:
    """Check a corpus stanza on its compact core.

    The core is [lo + eps_lo, hi - eps_hi] (an unbounded domain is cut at
    x_max; a core end past a function's argument limit, where the
    difference cannot be evaluated, ends the core Unknown at the first box
    that holds it).  A stanza that `_registration_ok` finds to be its
    theorem's shipped stanza, its series not a derivative's, takes
    `near_zero_certificate` once, at the core's end: Proved, with its
    prefactor bisected Proved positive, it proves the core in one leaf and
    covers (0, eps_lo] too.  Every other core is bisected as the raw
    difference, which alone may refute it or end it Unknown, by
    `_bisect_positive`'s one rule.  A registered stanza's left margin is
    settled by the rule, at the core's left end if not at its right, or
    listed with the rule's reason, whatever the core's verdict.  Margins
    left unverified, an empty core's too, are reported in `uncovered`.
    """
    opts = opts or ProveOptions()
    t0 = time.perf_counter()
    bits = opts.precision
    claim = THEOREM_CLAIMS.get(spec.name)
    if claim is not None and not _registration_ok(spec):
        claim = None
    side = "upper" if claim and claim.mode == "upper" else "lower"

    lo_iv = eval_endpoint(spec.lo_expr)
    lo_core = lo_iv.hi if spec.lo_closed else lo_iv.hi + opts.eps_lo
    lo_core = _dyadic(lo_core, bits, up=True)
    # a closed end that is no dyadic at `bits` lies just beyond the core
    uncovered = ([f"[lo, {lo_core}) uncovered (closed end lo lies beyond "
                  f"the core)"] if spec.lo_closed and lo_core > lo_iv.lo else [])
    if spec.unbounded:
        hi_core = _dyadic(Fraction(opts.x_max), bits)
        uncovered.append(f"({hi_core}, inf) unverified (x_max cutoff)")
    else:
        hi_iv = eval_endpoint(spec.hi_expr)
        hi_core = hi_iv.lo if spec.hi_closed else hi_iv.lo - opts.eps_hi
        hi_core = _dyadic(hi_core, bits)
        if hi_core < hi_iv.hi:
            uncovered.append(
                f"({hi_core}, hi] uncovered (closed end hi lies beyond the core)"
                if spec.hi_closed else
                f"[{hi_core}, hi) uncovered (margin eps_hi={opts.eps_hi})")
    empty = lo_core >= hi_core  # no rule runs: every margin is listed
    nz = res = None  # the series rule's verdict on (0, x], and the core's
    if empty:
        res = ProofResult("Unknown", reason="empty core after margins")
    elif claim is not None and not THEOREMS[claim.thm].derivative_series:
        # the rule at the core's right end, rounded up to 64 bits to keep
        # the exact powers small, holds on the whole core
        x_hi = _dyadic(hi_core, 64, up=True)
        nz = near_zero_certificate(claim.thm, x_hi, side)
        cert = nz.series_certificate
        form = f"series form {claim.series_id}" + (f" (N={cert['N']})" if cert else "")
        why = (nz.reason if cert is None else
               f"bound {_g6(cert['bound'])} does not prove the core")
        if nz.status == "Proved":
            pre = _bisect_positive(parse_expression(claim.prefactor),
                                   lo_core, hi_core, opts)
            why = (f"prefactor {claim.prefactor} {pre.status.lower()} "
                   f"positive ({pre.leaves} leaves)")
            if pre.status == "Proved":
                # form >= bound * x^e0 on (0, x_hi]: >= bound * lo_core^e0 here
                lb = _dyadic(cert["bound"] * lo_core ** cert["e0"], bits)
                res = ProofResult("Proved", leaves=1, certificate=[Leaf(lo_core, hi_core, lb)])
                res.findings.append(
                    f"{form} proved {claim.mode}-claim on core; {why}")
    if res is None:
        # only the raw difference may refute or end the core Unknown
        res = _bisect_positive(spec.difference(), lo_core, hi_core, opts)
        if nz is not None:
            res.findings.append(f"{form} on (0, {_g6(x_hi)}]: {why}; "
                                f"the raw difference was bisected instead")
    res.theorem = claim
    if res.status == "Refuted":
        w, v = res.witness, res.witness_value
        res.findings.append(
            f"difference on [{_g6(w.lo)}, {_g6(w.hi)}] certified < 0; at "
            f"x={_g6(w.mid)} within [{_g6(v.lo)}, {_g6(v.hi)}]")

    if not spec.lo_closed and lo_core > lo_iv.lo:  # a non-empty left margin
        if claim is None or empty:
            why = "no registered series" if claim is None else "empty core"
            uncovered.insert(0, f"(lo, {lo_core}] uncovered (margin "
                                f"eps_lo={opts.eps_lo}; {why})")
        else:  # a shipped theorem stanza: its domain is (0, ...)
            if nz is None or nz.status != "Proved":
                nz = near_zero_certificate(claim.thm, lo_core, side)
            res.findings.extend(nz.findings)
            res.series_certificate = nz.series_certificate
            if nz.status == "Refuted" and res.status != "Refuted":
                res.status = "Refuted"
                res.witness, res.witness_value = nz.witness, nz.witness_value
                res.reason = None  # the core's Unknown no longer stands
            elif nz.status == "Unknown":
                uncovered.insert(0, f"(lo, {lo_core}] uncovered (near-zero "
                                    f"certificate inconclusive: {nz.reason})")
    res.uncovered = uncovered
    res.ms = 1000 * (time.perf_counter() - t0)
    return res


# ---------------------------------------------------------------------------
# exact sequence / identity checks
# ---------------------------------------------------------------------------

SEQUENCE_IDS = {seq_id: (t.id, role) for t in THEOREMS.values()
                for seq_id, role in t.sequences.items()}


def _steps(seq_id: str, n: int):
    """a_(k+1) - a_k of a theorem sequence for k = n, n + 1, ..., as
    unnormalised pairs; each a_k is formed once, when first drawn on."""
    thm, role = SEQUENCE_IDS[seq_id]
    n0, d0 = theorem_pair(thm, role, n)
    for k in count(n + 1):
        n1, d1 = theorem_pair(thm, role, k)
        yield n1 * d0 - n0 * d1, d0 * d1
        n0, d0 = n1, d1


def sequence_check(seq_id: str, mode: str, n_max: int,
                   n_min: Optional[int] = None) -> SequenceReport:
    """Exact check that a theorem sequence's value is > 0 at each n from
    its start (or n_min) on: a_n for n <= n_max in `positive` mode, and
    a_(n+1) - a_n for n < n_max in `increasing` mode, as pairs (num, den)
    with den > 0.  The first value that is not is reported as (n, value).

    A positive value reads its sign from `sign_function`, resolved once per
    check, so a series with a kernel forms no tangent number; the pair is
    formed only to report.
    """
    if seq_id not in SEQUENCE_IDS:
        raise DomainError(f"unknown sequence id {seq_id!r}")
    if mode not in ("positive", "increasing"):
        raise DomainError(f"unknown mode {mode!r}")
    thm, role = SEQUENCE_IDS[seq_id]
    start = THEOREMS[thm].start if n_min is None else n_min
    if start < THEOREMS[thm].start:
        raise DomainError(f"{seq_id} starts at n={THEOREMS[thm].start}")
    if n_max < start + 1:
        raise DomainError(f"n_max must be at least {start + 1}, got {n_max}")
    violation = None
    if mode == "positive":
        sign = sign_function(thm, role, start)
        for n in range(start, n_max + 1):
            if not sign(n) > 0:
                violation = (n, Fraction(*theorem_pair(thm, role, n)))
                break
    else:
        # range drives zip, so no a_n past n_max is formed
        for n, (num, den) in zip(range(start, n_max), _steps(seq_id, start)):
            if not num > 0:
                violation = (n, Fraction(num, den))
                break
    return SequenceReport(seq_id, mode, start, n_max,
                          all_pass=violation is None, first_violation=violation)


def _f1_plain(n):
    return 144 * n ** 3 - 24 * n ** 2 - 648 * n + 240


def _f1_shift(n):
    return 144 * n * (n - 6) ** 2 + 1704 * n * (n - 6) + 4392 * (n - 6) + 26592


def _f2_plain(n):
    return 1024 * n ** 3 - 3072 * n ** 2 - 640 * n + 3456


def _f2_shift(n):
    return 1024 * n * (n - 6) ** 2 + 9216 * n * (n - 6) + 128 * (139 * n + 27)


def _f4_plain(n):
    return 18432 * n ** 3 + 7680 * n ** 2 - 3456 * n - 15744


def _f4_shift(n):
    return 18432 * n * (n - 6) ** 2 + 228864 * n * (n - 6) + 384 * (1839 * n - 41)


def _f3_inner_plain(n):
    return 10 * n ** 3 - 57 * n ** 2 - 13 * n + 54


def _f3_inner_shift(n):
    return 10 * n * (n - 6) ** 2 + 63 * n * (n - 6) + 5 * (n - 6) + 84


def _f3_quartic_tail(n):
    return -2016 * n ** 4 + 8622 * n ** 3 + 5541 * n ** 2 - 33327 * n + 17490


def _quartic_poly(n):
    return 12320 * n ** 4 - 70226 * n ** 3 + 144421 * n ** 2 - 107023 * n + 17574


def _quartic_shift(n):
    m = n - 6
    return (12320 * m ** 4 + 225454 * m ** 3 + 1541473 * m ** 2
            + 4686101 * m + 5372496)


def _t32_bdiff(n, step):
    num = ((6 * n - 1) << 2 * n) - 4 * n + 1
    return ((*step, num, 1),), (num,)


def _t33_cdiff(n, step):
    num = ((6 * n * n - 17 * n + 1) << 2 * n) + 18 * n * n + 23 * n - 1
    den = 2 * n * (2 * n + 3) * (4 * n * n - 1) * (n * n - 1)
    return ((*step, num, den),), (num,)


def _t34_fdecomp(n, step):
    four_n, nine_n = 1 << 2 * n, 9 ** n
    f = (_f1_plain(n) << 4 * n, nine_n * _f2_plain(n),
         (nine_n * _f3_inner_plain(n) + _f3_quartic_tail(n)) << 2 * n,
         _f4_plain(n))
    den = (3 * n * (16 + four_n) * (64 + four_n) * (n - 2) * (2 * n - 3)
           * (4 * n * n - 1) * (n * n - 1))
    return ((*step, sum(f), den),), f


def _t34_polys(n, _):
    binomial = (84 * (1 + 8 * comb(n, 1) + 64 * comb(n, 2) + 512 * comb(n, 3)
                      + 4096 * comb(n, 4)) + _f3_quartic_tail(n))
    quartic = _quartic_poly(n)
    left = (_f1_plain(n), _f2_plain(n), _f4_plain(n), _f3_inner_plain(n),
            binomial, quartic)
    right = (_f1_shift(n), _f2_shift(n), _f4_shift(n), _f3_inner_shift(n),
             quartic, _quartic_shift(n))
    ones = (1,) * 6  # each side over 1
    return zip(left, ones, right, ones), left


# id -> (start, the parts whose sign the proof needs, the sequence whose
# `_steps` feed at(n, step)); at gives the identity's sides at n, integer
# tuples (p, q, num, den) each meaning p/q = num/den, and the parts' values
_IDENTITIES = {
    "ID_T32_BDIFF": (2, ("difference",), "S_T32_B", _t32_bdiff),
    "ID_T33_CDIFF": (2, ("numerator",), "S_T33_C", _t33_cdiff),
    "ID_T34_FDECOMP": (6, ("f1", "f2", "f3", "f4"), "S_T34_C", _t34_fdecomp),
    "ID_T34_POLYS": (6, ("f1_rewrite", "f2_rewrite", "f4_rewrite",
                         "f3_inner_rewrite", "binomial_truncation",
                         "quartic_rewrite"), None, _t34_polys),
}
IDENTITY_IDS = tuple(_IDENTITIES)


def identity_check(identity_id: str, n_max: int) -> IdentityReport:
    """Exact check of a proof-step identity at each n from its start to
    n_max, its sides compared as integers cross-multiplied.  The first
    failure is (n, lhs, rhs), where the run stops.  For each part whose
    sign the proof needs, the first n where it is not > 0 is recorded as
    (n, value)."""
    if identity_id not in _IDENTITIES:
        raise DomainError(f"unknown identity id {identity_id!r}")
    start, names, seq_id, at = _IDENTITIES[identity_id]
    if n_max < start:
        raise DomainError(f"{identity_id} starts at n={start}")
    failure, signs = None, dict.fromkeys(sorted(names))
    steps = repeat(None) if seq_id is None else _steps(seq_id, start)
    for n, step in zip(range(start, n_max + 1), steps):
        sides, parts = at(n, step)
        if min(parts) <= 0:  # the rare n with a sign to record
            for name, v in zip(names, parts):
                if v <= 0 and signs[name] is None:
                    signs[name] = (n, Fraction(v))
        for p, q, num, den in sides:
            if p * den != num * q:
                failure = (n, Fraction(p, q), Fraction(num, den))
                break
        if failure is not None:
            break
    return IdentityReport(identity_id, start, n_max, holds=failure is None,
                          first_failure=failure, positivity=signs)


# ---------------------------------------------------------------------------
# sharp-constant limits
# ---------------------------------------------------------------------------

def limit_report(thm_id: str, endpoint: str) -> LimitReport:
    """Sharp-constant report: exact leading coefficient at 0, or a certified
    enclosure of the closed-form value at the right endpoint (pi/2)."""
    t = THEOREMS.get(thm_id)
    if t is None:
        raise DomainError(f"unknown theorem id {thm_id!r}")
    if endpoint == "zero":
        value = theorem_coeff(thm_id, t.zero_role, t.start)
        return LimitReport(thm_id, "zero", value, None,
                           matches_paper=(value == t.zero_value),
                           paper_value=str(t.zero_value))
    if endpoint != "right":
        raise DomainError("endpoint must be 'zero' or 'right'")
    if t.right_value is None:
        raise DomainError(
            f"{thm_id} is a hyperbolic theorem; no right-endpoint constant")
    enc = eval_endpoint(parse_expression(t.right_value))
    lo, hi = t.right_bracket
    matches = lo <= enc.lo and enc.hi <= hi
    return LimitReport(thm_id, "right", None, enc, matches_paper=matches,
                       paper_value=t.right_value)


# ---------------------------------------------------------------------------
# extremum scanning (non-rigorous search, rigorous value at the candidate)
# ---------------------------------------------------------------------------

def _ratio_float_fn(t):
    """The theorem's ratio F as a float quotient of truncated series (the
    registered series over 1 where that series is F itself); a sample that
    is not finite raises DomainError naming x."""
    if "a" not in t.roles:
        seq = get_series(t.series)
        ca = [(float(seq.coeff(n)), seq.exponent_of(n))
              for n in range(seq.start_index, 30)]
        cb = [(1.0, 0)]
    else:
        sa, sb = get_series(t.roles["a"]), get_series(t.roles["b"])
        ca = [(float(sa.coeff(n)), 2 * n) for n in range(sa.start_index, 60)]
        cb = [(float(sb.coeff(n)), 2 * n) for n in range(sb.start_index, 60)]
    if t.derivative_series:
        # ratio of the integrated series f/g equals the theorem's F
        ca = [(c / (e + 1), e) for c, e in ca]
        cb = [(c / (e + 1), e) for c, e in cb]

    def f(x: float) -> float:
        try:
            y = (sum(c * x ** e for c, e in ca)
                 / sum(c * x ** e for c, e in cb))
        except (OverflowError, ZeroDivisionError):
            y = inf
        if not isfinite(y):
            raise DomainError(f"{t.id}: the float series is not finite at x={x!r}")
        return y

    return f


def scan_extremum(thm_id: str, domain: Interval, tol) -> ScanReport:
    """Grid + golden-section estimate of the ratio function's minimum,
    confirmed by a rigorous interval evaluation at the candidate point.
    `sampled_monotone` reports whether a 1024-point grid is nondecreasing
    (corroboration, not proof).  The domain must start above 0, where the
    ratio functions are defined, the tolerance must be at least 1e-12, and
    a trigonometric theorem's domain must end within `series.TRIG_X_MAX`."""
    t = THEOREMS.get(thm_id)
    if t is None:
        raise DomainError(f"unknown theorem id {thm_id!r}")
    if domain.lo <= 0:
        raise DomainError(f"{thm_id}: lo={domain.lo} must be above 0")
    if Fraction(tol) < Fraction("1e-12"):
        raise DomainError(f"tolerance must be at least 1e-12, got {tol}")
    if get_series(t.series).radius == "pi" and domain.hi > TRIG_X_MAX:
        raise DomainError(f"{thm_id}: hi={domain.hi} is past the series limit "
                          f"{float(TRIG_X_MAX):.8g}, 63/64 of pi")
    tol_f = float(Fraction(tol))
    f = _ratio_float_fn(t)
    lo_f, hi_f = float(domain.lo), float(domain.hi)
    n = 1024
    xs = [lo_f + (hi_f - lo_f) * i / n for i in range(n + 1)]
    ys = [f(x) for x in xs]
    monotone = all(ys[i + 1] >= ys[i] - 1e-13 * max(1.0, abs(ys[i]))
                   for i in range(n))
    k = min(range(n + 1), key=lambda i: ys[i])
    at_boundary = "lo" if k == 0 else ("hi" if k == n else None)
    if at_boundary is None:
        a, b = xs[k - 1], xs[k + 1]
        invphi = (5 ** 0.5 - 1) / 2
        c = b - (b - a) * invphi
        d = a + (b - a) * invphi
        while b - a > tol_f:
            if f(c) < f(d):
                b, d = d, c
                c = b - (b - a) * invphi
            else:
                a, c = c, d
                d = a + (b - a) * invphi
        xstar = (a + b) / 2
    else:
        xstar = xs[k]
    loc = Fraction(xstar).limit_denominator(10 ** 12)
    loc = min(max(loc, domain.lo), domain.hi)
    expr = parse_expression(f"({t.num})/({t.den})")
    enc = eval_expr(expr, Interval.point(loc))
    return ScanReport(thm_id, domain.lo, domain.hi, loc, f(float(loc)), enc,
                      sampled_monotone=monotone, at_boundary=at_boundary)

"""The verification engine.

* `prove_positive`: adaptive-bisection interval proof that an expression is
  positive on a compact interval.  Leaf enclosures combine plain interval
  evaluation and order-12 midpoint Taylor forms, so differences that
  vanish to high order at an endpoint still certify with modest leaf
  counts.  Each box hands its remainder coefficient down to its halves.
* `verify_inequality`: runs a corpus stanza on its compact core.  A stanza
  is registered as its theorem only when its domain and difference equal
  those of the same-named stanza in the shipped corpus.  Then a series
  certificate closes the (0, eps] gap, 0 < eps < 1, for all eight theorem
  stanzas by one rule: the signed difference series over its leading
  power, bounded below by its exact leading coefficient plus its later
  terms of the wrong sign at eps minus a certified tail, must be > 0 (an
  upper claim adds its constant's lower end).  For seven of them a
  registered exact difference series also provides the core's enclosures.
  On the core only bisection of the raw difference refutes, backed by a
  point grid when it ends Unknown.  Uncovered margins are always reported,
  never silently assumed.
* `ProveOptions`: the engine options, each with its one default and its
  valid range, checked when the options are built.
* `near_zero_certificate`, `sequence_check`, `identity_check`,
  `limit_report`, `scan_extremum`: the finite exact checks mirroring each
  proof step, reported as found (violations included).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Optional

from . import _core
from .errors import DomainError, EvalError, InconsistencyError, PoleError
from .exact import bernoulli  # noqa: F401 (patched by perfbench)
from .interval import Interval, get_ctx
from .lang import (Expr, InequalitySpec, default_corpus_path, eval_endpoint,
                   eval_expr, parse_corpus, parse_expression)
from .series import (coeff_row, eval_series, exact_sum, get_series,
                     tail_bound, theorem_coeff, THEOREMS, THEOREM_START)

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


@dataclass(frozen=True)
class ProveOptions:
    """Engine options.  Each default lives here, and a value outside its
    range raises DomainError naming the field."""
    eps_lo: Fraction = Fraction(1, 1000)
    eps_hi: Fraction = Fraction(1, 1000)
    x_max: Fraction = Fraction(20)
    max_depth: int = 48
    min_width: Fraction = Fraction(1, 10 ** 12)
    precision: int = 192

    def __post_init__(self):
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
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none
        digits = (self.precision + 128) * 30103 // 100000 + 1  # log10(2) < 0.30103
        if limit and digits > limit:
            raise DomainError(
                f"precision {self.precision} needs integers of about {digits} "
                f"digits, past the interpreter's limit of {limit} digits on "
                f"printing an integer")


@dataclass(frozen=True)
class Leaf:
    lo: Fraction
    hi: Fraction
    bound: Fraction      # certified lower bound of the proved-positive form


@dataclass
class ProofResult:
    status: str                                  # Proved | Refuted | Unknown
    witness: Optional[Interval] = None
    witness_value: Optional[Interval] = None
    certificate: list = field(default_factory=list)   # list[Leaf]
    leaves: int = 0
    max_depth: int = 0
    ms: float = 0.0
    reason: Optional[str] = None
    findings: list = field(default_factory=list)
    uncovered: list = field(default_factory=list)
    series_certificate: Optional[dict] = None
    theorem: Optional[TheoremClaim] = None  # the registered claim the stanza is


@dataclass(frozen=True)
class SequenceReport:
    seq_id: str
    mode: str
    n_min: int
    n_max: int
    all_pass: bool
    first_violation: Optional[tuple] = None      # (n, exact value)


@dataclass(frozen=True)
class IdentityReport:
    identity_id: str
    n_min: int
    n_max: int
    holds: bool
    first_failure: Optional[tuple] = None        # (n, lhs, rhs)
    positivity: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LimitReport:
    thm_id: str
    endpoint: str
    value_exact: Optional[Fraction]
    value_enclosure: Optional[Interval]
    matches_paper: bool
    paper_value: str


@dataclass(frozen=True)
class ScanReport:
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

def _make_expr_eval(expr: Expr, opts: ProveOptions):
    """Returns eval_fn(x) -> Interval, whose attribute `carry(x, rem)`
    returns (Interval, rem for sub-boxes) from `_core.enclose`, for
    `_bisect_positive` to hand down; `scope(lo, hi)` is `Ctx.scope`."""
    ctx = get_ctx(opts.precision)

    def carry(x: Interval, rem=None):
        # looked up at call time, so a rebinding of _core.enclose sees it
        (lo, hi), rem = _core.enclose(ctx, expr, ctx.lo_of(x.lo), ctx.hi_of(x.hi), rem)
        return Interval(Fraction(lo, ctx.one), Fraction(hi, ctx.one)), rem

    def ev(x: Interval):
        return carry(x)[0]

    ev.carry = carry
    ev.scope = lambda lo, hi: ctx.scope((ctx.lo_of(lo), ctx.hi_of(hi)))
    return ev


# boxes left inconclusive before bisection gives up; bounds the work on an
# identically zero difference, where every box straddles 0
MAX_INCONCLUSIVE = 16
# proved leaves before a stanza ends Unknown
MAX_LEAVES = 200_000
# intervals of the fallback scan run when bisection ends Unknown (GRID + 1
# points, each one point evaluation of the difference)
GRID = 256


# the phrase of an Unknown reason that names a point past an argument limit
_PAST_LIMIT = "is past an argument limit"


def _past_limit(ev, a: Fraction, b: Fraction) -> Optional[str]:
    """The reason naming the first of a, b at which ev raises DomainError
    as a point (an argument limit: |x| <= 4 for sin and cos, 32 for sinh,
    cosh and tanh), or None."""
    for p in (a, b):
        try:
            ev(Interval.point(p))
        except DomainError as exc:
            return f"x={p} {_PAST_LIMIT}: {exc}"
        except (PoleError, EvalError):
            pass
    return None


def _bisect_positive(ev, lo: Fraction, hi: Fraction, opts: ProveOptions) -> ProofResult:
    """Proved when every box certifies positive; Refuted at the first box
    certified negative, even past inconclusive ones; otherwise Unknown,
    naming the first box that stayed inconclusive at the depth limit, or
    the box whose enclosures contradict each other.  A box that raises
    DomainError at an end that raises it as a point, where no bisection can
    help, ends the run Unknown at once, naming that point.

    When ev has `carry(x, rem) -> (Interval, rem)`, each box hands the
    remainder coefficient it returns down to its two halves; a box at the
    depth or width limit gets none, so the enclosure a reason prints is
    the box's own full form.  ev's `scope(lo, hi)`, if any, comes first."""
    t0 = time.perf_counter()
    carry = getattr(ev, "carry", None) or (lambda x, rem: (ev(x), None))
    if hasattr(ev, "scope"):
        ev.scope(lo, hi)
    stack = [(lo, hi, 0, None)]
    leaves = []
    maxd = 0
    first_reason, inconclusive = None, 0
    while stack and inconclusive < MAX_INCONCLUSIVE:
        a, b, d, rem = stack.pop()
        maxd = max(maxd, d)
        at_limit = d >= opts.max_depth or (b - a) <= opts.min_width
        enc = None
        err = None
        try:
            enc, rem = carry(Interval(a, b), None if at_limit else rem)
        except (DomainError, PoleError, EvalError) as exc:
            err = str(exc)
            # every box holding an end that raises as a point raises too
            past = isinstance(exc, DomainError) and _past_limit(ev, a, b)
            if past:
                return ProofResult("Unknown", reason=past, leaves=len(leaves),
                                   max_depth=maxd,
                                   ms=1000 * (time.perf_counter() - t0))
        except InconsistencyError as exc:
            # a soundness fault: no verdict on this stanza can be trusted
            return ProofResult(
                "Unknown", reason=f"internal inconsistency: {exc} on [{a}, {b}]",
                leaves=len(leaves), max_depth=maxd,
                ms=1000 * (time.perf_counter() - t0))
        if enc is not None:
            if enc.lo > 0:
                leaves.append(Leaf(a, b, enc.lo))
                if len(leaves) > MAX_LEAVES:
                    return ProofResult(
                        "Unknown", reason=f"leaf budget {MAX_LEAVES} exceeded",
                        leaves=len(leaves), max_depth=maxd,
                        ms=1000 * (time.perf_counter() - t0))
                continue
            if enc.hi < 0:
                leaves.sort(key=lambda l: l.lo)
                mid = (a + b) / 2
                try:
                    wv = ev(Interval.point(mid))
                except (DomainError, PoleError, EvalError):
                    wv = enc
                return ProofResult(
                    "Refuted", witness=Interval(a, b), witness_value=wv,
                    certificate=leaves, leaves=len(leaves), max_depth=maxd,
                    ms=1000 * (time.perf_counter() - t0))
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
            inconclusive += 1
            continue
        if err is not None:
            rem = None
        m = (a + b) / 2
        stack.append((m, b, d + 1, rem))
        stack.append((a, m, d + 1, rem))
    if inconclusive:
        return ProofResult("Unknown", reason=first_reason,
                           leaves=len(leaves), max_depth=maxd,
                           ms=1000 * (time.perf_counter() - t0))
    leaves.sort(key=lambda l: l.lo)
    return ProofResult("Proved", certificate=leaves, leaves=len(leaves),
                       max_depth=maxd, ms=1000 * (time.perf_counter() - t0))


def prove_positive(expr: Expr, domain: Interval, opts: ProveOptions = None) -> ProofResult:
    """Adaptive bisection proof that expr > 0 on the compact domain."""
    opts = opts or ProveOptions()
    return _bisect_positive(_make_expr_eval(expr, opts), domain.lo, domain.hi, opts)


def reverify_certificate(expr: Expr, result: ProofResult, precision: int) -> bool:
    """Re-evaluate every Proved leaf at another precision; all must stay positive."""
    opts = ProveOptions(precision=precision)
    ev = _make_expr_eval(expr, opts)
    return all(ev(Interval(leaf.lo, leaf.hi)).lo > 0
               for leaf in result.certificate)


# ---------------------------------------------------------------------------
# registered theorem claims (difference rewrites from the proofs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremClaim:
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


def _const_interval(claim: TheoremClaim) -> Interval:
    t = THEOREMS[claim.thm]
    if claim.mode == "lower":
        return Interval.point(t.zero_value)
    return eval_endpoint(parse_expression(t.right_value))


def _pick_N(series_id: str, x_hi: Fraction) -> int:
    seq = get_series(series_id)
    x = Interval.point(x_hi).round_out(64).hi
    n = seq.start_index + 22
    while n < 140:
        if tail_bound(series_id, n, x).bound < Fraction(1, 10 ** 30):
            return n
        n += 12
    return n


def _series_claim_eval(claim: TheoremClaim, N: int):
    cval = None if claim.mode == "positive" else _const_interval(claim)

    def ev(x: Interval):
        # 64-bit outward endpoints keep the exact powers x^(2n) small
        s = eval_series(claim.series_id, x.round_out(64), N)
        if claim.mode == "lower":
            return s - cval
        if claim.mode == "upper":
            return cval - s
        return s

    return ev


@lru_cache(maxsize=None)
def _shipped_stanzas() -> dict:
    """The shipped corpus's stanzas by name, parsed once per process."""
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

def _left_lower_bound(series_id: str, n0: int, eps: Fraction, N: int,
                      negate: bool = False) -> Fraction:
    """Certified lower bound of R(x)/x^e(n0) on (0, eps], where R is the
    series from index n0 on (negated when `negate`): the leading term plus
    every later term of the wrong sign at eps, minus the tail."""
    seq = get_series(series_id)
    e0 = seq.exponent_of(n0)
    pos, neg = coeff_row(series_id, n0 + 1, N)
    lead = -seq.coeff(n0) if negate else seq.coeff(n0)
    wrong = -exact_sum((pos, eps)) if negate else exact_sum((neg, eps))
    return lead + (wrong - tail_bound(series_id, N, eps).bound) / eps ** e0


def _negative_value(diff: Expr, x0: Fraction) -> Optional[Interval]:
    """diff's enclosure at x0 once one lies below 0, at 192 bits, then at
    doubled precisions up to MAX_PRECISION (near 0 it widens like 1/x0, and
    below 2^-precision x0 rounds to the pole at 0); None if none does."""
    bits = 192
    while bits <= MAX_PRECISION:
        try:
            wv = eval_expr(diff, Interval.point(x0), bits)
            if wv.hi < 0:
                return wv
        except EvalError:
            pass
        bits *= 2
    return None


def near_zero_certificate(thm_id: str, epsilon, side: str = "lower") -> ProofResult:
    """Settle a theorem claim on (0, epsilon], 0 < epsilon < 1, from its
    exact difference series, by one rule for every claim.

    A lower or positive claim's difference is the series from index
    start + 1 on, since its start term cancels exactly; an upper claim's is
    its constant minus the whole series, which starts at x^0.  The series
    is negated for an upper claim or a negative exact leading coefficient,
    and `_left_lower_bound` bounds it over its leading power on
    (0, epsilon]; an upper claim adds the constant's lower end.  A bound
    > 0 settles the claim: Refuted, with a witness at epsilon/2 and its
    value from `_negative_value`, when the leading coefficient is negative,
    Proved otherwise.  Else, as for a leading coefficient of exactly 0, it
    is Unknown.
    """
    if side not in ("lower", "upper"):
        raise DomainError(f"side must be 'lower' or 'upper', got {side!r}")
    eps = Fraction(epsilon)
    t = THEOREMS.get(thm_id)
    if t is None:
        raise DomainError(f"no registered series for theorem {thm_id!r}")
    i = 0 if side == "lower" else 1
    if i >= len(t.stanzas):
        raise DomainError(f"{thm_id} has no {side}-side claim")
    if eps <= 0 or eps >= 1:
        raise DomainError("epsilon must lie in (0, 1)")
    t0 = time.perf_counter()
    stanza = t.stanzas[i]
    claim = THEOREM_CLAIMS[stanza]
    seq = get_series(claim.series_id)
    upper = claim.mode == "upper"
    n0 = t.start if upper else t.start + 1
    leading, e0, N = seq.coeff(n0), seq.exponent_of(n0), n0 + 22
    negate = upper or leading < 0
    refutes = negate and not upper
    lb = bound = _left_lower_bound(claim.series_id, n0, eps, N, negate)
    res = ProofResult("Unknown", series_certificate={
        "series": claim.series_id, "claim": claim.mode, "eps": eps, "N": N,
        "leading_index": n0, "leading": leading, "negated": negate,
        "normalized_lower_bound": lb})
    if upper:
        cval = _const_interval(claim).lo
        bound += cval
        res.series_certificate.update(sup_bound=-lb, constant_lower=cval)
        res.findings.append(
            f"{stanza}: series sup on (0, {eps}] is <= {float(-lb):.10g}; "
            f"upper constant > {float(cval):.10g}")
    if bound <= 0:
        res.reason = f"series bound {bound} does not settle the sign on (0, {eps}]"
    elif refutes:
        x0 = eps / 2
        res.status = "Refuted"
        res.witness = Interval.point(x0)
        res.witness_value = _negative_value(
            _shipped_stanzas()[stanza].difference(), x0)
        res.findings.append(
            f"{stanza}: leading coefficient {leading} at x^{e0} is negative; "
            f"difference certified negative on (0, {eps}]")
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
            res.findings.append(
                f"{stanza}: difference >= {float(lb):.6g} * x^{e0} on "
                f"(0, {eps}]; leading coefficient {leading}")
    res.ms = 1000 * (time.perf_counter() - t0)
    return res


# ---------------------------------------------------------------------------
# verify_inequality
# ---------------------------------------------------------------------------

def _grid_refute(ev, lo: Fraction, hi: Fraction, grid: int):
    best = None
    for i in range(grid + 1):
        x = Interval.point(lo + (hi - lo) * Fraction(i, grid)).round_out(64).lo
        if x < lo:
            x = lo
        try:
            v = ev(Interval.point(x))
        except (DomainError, PoleError, EvalError):
            continue
        if v.hi < 0 and (best is None or v.hi < best[1].hi):
            best = (x, v)
    return best


def verify_inequality(spec: InequalitySpec, opts: ProveOptions = None) -> ProofResult:
    """Check a corpus stanza on its compact core.

    The core is [lo + eps_lo, hi - eps_hi] (an unbounded domain is cut at
    x_max; a core end past a function's argument limit, where the
    difference cannot be evaluated, ends the core Unknown at the first box
    that holds it, and no grid is scanned).  A stanza
    that `_registration_ok` finds to be its theorem's shipped stanza gets
    the near-zero certificate on (0, eps] and, where one is registered, the
    series rewrite on the core; every other stanza is bisected as it
    stands.  Only bisection of the raw difference refutes
    on the core; a grid of GRID + 1 points is scanned only when the core
    ends Unknown.  Margins left unverified are reported in `uncovered`.
    """
    opts = opts or ProveOptions()
    t0 = time.perf_counter()
    bits = opts.precision
    claim = THEOREM_CLAIMS.get(spec.name)
    if claim is not None and not _registration_ok(spec):
        claim = None

    lo_iv = eval_endpoint(spec.lo_expr)
    lo_core = lo_iv.hi if spec.lo_closed else lo_iv.hi + opts.eps_lo
    lo_core = Interval.point(lo_core).round_out(bits).hi
    uncovered = []
    if spec.unbounded:
        hi_core = Interval.point(Fraction(opts.x_max)).round_out(bits).lo
        uncovered.append(f"({hi_core}, inf) unverified (x_max cutoff)")
    else:
        hi_iv = eval_endpoint(spec.hi_expr)
        hi_core = hi_iv.lo if spec.hi_closed else hi_iv.lo - opts.eps_hi
        hi_core = Interval.point(hi_core).round_out(bits).lo
        if not spec.hi_closed:
            uncovered.append(f"[{hi_core}, hi) uncovered (margin eps_hi={opts.eps_hi})")
    if lo_core >= hi_core:
        return ProofResult("Unknown", reason="empty core after margins",
                           theorem=claim)

    diff = spec.difference()
    ev = _make_expr_eval(diff, opts)

    nz_result = None
    left_gap_note = None
    if claim is not None:  # a shipped theorem stanza: its domain is (0, ...)
        side = "upper" if claim.mode == "upper" else "lower"
        try:
            nz_result = near_zero_certificate(claim.thm, lo_core, side=side)
        except DomainError as exc:
            nz_result = ProofResult("Unknown", reason=str(exc))
    elif not spec.lo_closed:
        left_gap_note = (f"(lo, {lo_core}] uncovered "
                         f"(margin eps_lo={opts.eps_lo}; no registered series)")

    if claim is not None and not THEOREMS[claim.thm].derivative_series:
        N = _pick_N(claim.series_id, hi_core)
        res = _bisect_positive(_series_claim_eval(claim, N),
                               lo_core, hi_core, opts)
        if res.status == "Refuted":
            # only the raw difference may refute
            res = _bisect_positive(ev, lo_core, hi_core, opts)
            res.findings.append(
                f"series form {claim.series_id} (N={N}) certified negative "
                f"on a box; the raw difference was bisected instead")
        else:
            pre_res = _bisect_positive(
                _make_expr_eval(parse_expression(claim.prefactor), opts),
                lo_core, hi_core, opts)
            res.findings.append(
                f"series form {claim.series_id} (N={N}) proved "
                f"{claim.mode}-claim on core; prefactor {claim.prefactor} "
                f"{pre_res.status.lower()} positive ({pre_res.leaves} leaves)")
            if pre_res.status != "Proved":
                res.status = "Unknown"
                res.reason = f"prefactor positivity not established: {pre_res.reason}"
    else:
        res = _bisect_positive(ev, lo_core, hi_core, opts)
    res.theorem = claim

    # a dip narrower than the bisection can resolve may still show at a point
    if (res.status == "Unknown" and _PAST_LIMIT not in res.reason
            and not res.reason.startswith("internal inconsistency")):
        ref = _grid_refute(ev, lo_core, hi_core, GRID)
        if ref is not None:
            x0, v = ref
            res.status, res.reason = "Refuted", None
            res.witness, res.witness_value = Interval.point(x0), v
    if res.status == "Refuted":
        w, v = res.witness, res.witness_value
        res.findings.append(
            f"difference on [{float(w.lo):.6g}, {float(w.hi):.6g}] certified "
            f"< 0; at x={float(w.mid):.6g} within [{float(v.lo):.6g}, "
            f"{float(v.hi):.6g}]")

    if nz_result is not None:
        res.findings.extend(nz_result.findings)
        res.series_certificate = nz_result.series_certificate
        if nz_result.status == "Refuted" and res.status != "Refuted":
            res.status = "Refuted"
            res.witness = nz_result.witness
            res.witness_value = nz_result.witness_value
        elif nz_result.status == "Unknown" and res.status == "Proved":
            uncovered.insert(0, f"(lo, {lo_core}] uncovered (near-zero "
                                f"certificate inconclusive: {nz_result.reason})")
    elif left_gap_note is not None:
        uncovered.insert(0, left_gap_note)
    res.uncovered = uncovered
    res.ms = 1000 * (time.perf_counter() - t0)
    return res


# ---------------------------------------------------------------------------
# exact sequence / identity checks
# ---------------------------------------------------------------------------

SEQUENCE_IDS = {seq_id: (t.id, role) for t in THEOREMS.values()
                for seq_id, role in t.sequences.items()}


def sequence_check(seq_id: str, mode: str, n_max: int,
                   n_min: Optional[int] = None) -> SequenceReport:
    """Exact positivity / monotonicity check of a theorem sequence.

    For `increasing`, a violation is reported as (n, a_{n+1} - a_n).
    """
    if seq_id not in SEQUENCE_IDS:
        raise DomainError(f"unknown sequence id {seq_id!r}")
    if mode not in ("positive", "increasing"):
        raise DomainError(f"unknown mode {mode!r}")
    thm, role = SEQUENCE_IDS[seq_id]
    start = THEOREM_START[thm] if n_min is None else n_min
    if start < THEOREM_START[thm]:
        raise DomainError(f"{seq_id} starts at n={THEOREM_START[thm]}")
    if n_max < start + 1:
        raise DomainError("n_max must be at least the start index + 1")
    f = lambda n: theorem_coeff(thm, role, n)
    violation = None
    if mode == "positive":
        for n in range(start, n_max + 1):
            v = f(n)
            if not v > 0:
                violation = (n, v)
                break
    else:
        prev = f(start)
        for n in range(start, n_max):
            cur = f(n + 1)
            d = cur - prev
            if not d > 0:
                violation = (n, d)
                break
            prev = cur
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


def _quartic_from_binomial(n):
    trunc = 1 + 8 * comb(n, 1) + 64 * comb(n, 2) + 512 * comb(n, 3) + 4096 * comb(n, 4)
    return 84 * trunc + _f3_quartic_tail(n)


def _quartic_poly(n):
    return 12320 * n ** 4 - 70226 * n ** 3 + 144421 * n ** 2 - 107023 * n + 17574


def _quartic_shift(n):
    m = n - 6
    return (12320 * m ** 4 + 225454 * m ** 3 + 1541473 * m ** 2
            + 4686101 * m + 5372496)


def _fdecomp_f1(n):
    return 16 ** n * _f1_plain(n)


def _fdecomp_f2(n):
    return 9 ** n * _f2_plain(n)


def _fdecomp_f3(n):
    return 4 ** n * (9 ** n * _f3_inner_plain(n) + _f3_quartic_tail(n))


def _fdecomp_f4(n):
    return _f4_plain(n)


def _fdecomp_denom(n):
    return (3 * n * (16 + 4 ** n) * (64 + 4 ** n) * (n - 2) * (2 * n - 3)
            * (4 * n * n - 1) * (n * n - 1))


IDENTITY_IDS = ("ID_T32_BDIFF", "ID_T33_CDIFF", "ID_T34_FDECOMP", "ID_T34_POLYS")

_IDENTITY_START = {"ID_T32_BDIFF": 2, "ID_T33_CDIFF": 2,
                   "ID_T34_FDECOMP": 6, "ID_T34_POLYS": 6}


def _sign_record(records: dict, name: str, n, value):
    if name not in records and not value > 0:
        records[name] = (n, value)


def identity_check(identity_id: str, n_max: int) -> IdentityReport:
    """Exact per-n verification of a proof-step identity; where the proof
    also claims a sign, the first sign violation (if any) is recorded."""
    if identity_id not in IDENTITY_IDS:
        raise DomainError(f"unknown identity id {identity_id!r}")
    start = _IDENTITY_START[identity_id]
    if n_max < start:
        raise DomainError(f"{identity_id} starts at n={start}")
    failure = None
    signs = {}
    sign_names = set()
    for n in range(start, n_max + 1):
        if identity_id == "ID_T32_BDIFF":
            lhs = (theorem_coeff(*SEQUENCE_IDS["S_T32_B"], n + 1)
                   - theorem_coeff(*SEQUENCE_IDS["S_T32_B"], n))
            rhs = Fraction(4 ** n * (6 * n - 1) - 4 * n + 1)
            sign_names.add("difference")
            _sign_record(signs, "difference", n, rhs)
        elif identity_id == "ID_T33_CDIFF":
            lhs = (theorem_coeff(*SEQUENCE_IDS["S_T33_C"], n + 1)
                   - theorem_coeff(*SEQUENCE_IDS["S_T33_C"], n))
            num = Fraction((6 * n * n - 17 * n + 1) * 4 ** n
                           + 18 * n * n + 23 * n - 1)
            den = 2 * n * (2 * n + 3) * (4 * n * n - 1) * (n * n - 1)
            rhs = num / den
            sign_names.add("numerator")
            _sign_record(signs, "numerator", n, num)
        elif identity_id == "ID_T34_FDECOMP":
            lhs = (theorem_coeff(*SEQUENCE_IDS["S_T34_C"], n + 1)
                   - theorem_coeff(*SEQUENCE_IDS["S_T34_C"], n))
            num = (_fdecomp_f1(n) + _fdecomp_f2(n)
                   + _fdecomp_f3(n) + _fdecomp_f4(n))
            rhs = Fraction(num, _fdecomp_denom(n))
            for name, fn in (("f1", _fdecomp_f1), ("f2", _fdecomp_f2),
                             ("f3", _fdecomp_f3), ("f4", _fdecomp_f4)):
                sign_names.add(name)
                _sign_record(signs, name, n, Fraction(fn(n)))
        else:  # ID_T34_POLYS
            pairs = (
                ("f1_rewrite", _f1_plain(n), _f1_shift(n)),
                ("f2_rewrite", _f2_plain(n), _f2_shift(n)),
                ("f4_rewrite", _f4_plain(n), _f4_shift(n)),
                ("f3_inner_rewrite", _f3_inner_plain(n), _f3_inner_shift(n)),
                ("binomial_truncation", _quartic_from_binomial(n), _quartic_poly(n)),
                ("quartic_rewrite", _quartic_poly(n), _quartic_shift(n)),
            )
            lhs = rhs = Fraction(0)
            for name, left, right in pairs:
                if left != right and failure is None:
                    failure = (n, Fraction(left), Fraction(right))
                sign_names.add(name)
                _sign_record(signs, name, n, Fraction(left))
            if failure is not None:
                break
            continue
        if lhs != rhs:
            failure = (n, lhs, rhs)
            break
    positivity = {name: signs.get(name) for name in sorted(sign_names)}
    return IdentityReport(identity_id, start, n_max, holds=failure is None,
                          first_failure=failure, positivity=positivity)


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
    if "a" not in t.roles:
        # the registered series is the ratio F itself
        seq = get_series(t.series)
        coeffs = [(float(seq.coeff(n)), seq.exponent_of(n))
                  for n in range(seq.start_index, 30)]

        def f(x: float) -> float:
            return sum(c * x ** e for c, e in coeffs)

        return f
    sa, sb = get_series(t.roles["a"]), get_series(t.roles["b"])
    ca = [(float(sa.coeff(n)), 2 * n) for n in range(sa.start_index, 60)]
    cb = [(float(sb.coeff(n)), 2 * n) for n in range(sb.start_index, 60)]
    if t.derivative_series:
        # ratio of the integrated series f/g equals the theorem's F
        ca = [(c / (e + 1), e) for c, e in ca]
        cb = [(c / (e + 1), e) for c, e in cb]

    def f(x: float) -> float:
        return (sum(c * x ** e for c, e in ca)
                / sum(c * x ** e for c, e in cb))

    return f


def scan_extremum(thm_id: str, domain: Interval, tol) -> ScanReport:
    """Grid + golden-section estimate of the ratio function's minimum,
    confirmed by a rigorous interval evaluation at the candidate point.
    `sampled_monotone` reports whether a 1024-point grid is nondecreasing
    (corroboration, not proof).  The tolerance must be at least 1e-12."""
    t = THEOREMS.get(thm_id)
    if t is None:
        raise DomainError(f"unknown theorem id {thm_id!r}")
    if Fraction(tol) < Fraction("1e-12"):
        raise DomainError(f"tolerance must be at least 1e-12, got {tol}")
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

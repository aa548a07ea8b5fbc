"""Command-line front end.

Subcommands: prove, series, bernoulli, sequences, identities, limits, scan.
Exit codes: 0 all claims matched their expected tags (all proved when
untagged), 1 at least one claim refuted/violated against expectation,
2 at least one Unknown, 3 usage/parse error, 4 internal error (an
unexpected exception, reported on one line).

JSON is the canonical machine format; reports are byte-identical across
runs (wall times are reported as 0 unless --timing is given).  CSV serves
the tabular outputs (series, bernoulli).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache

from . import __version__
from .errors import DomainError, EvalError, ParseError, PoleError
from .interval import Interval
from .lang import (default_corpus_path, eval_endpoint, parse_corpus,
                   parse_expression)
from .prove import (IDENTITY_IDS, SEQUENCE_IDS, ProveOptions, identity_check,
                    limit_report, scan_extremum, sequence_check,
                    verify_inequality)
from .prove import near_zero_certificate  # noqa: F401 (patched by perfbench)
from .series import THEOREMS, get_series, series_ids, theorem_coeff
from .exact import bernoulli

__all__ = ["main", "run_command"]


# The exact subcommands' cost grows about cubically with their count (B_2000
# takes about 1.5 s from cold on a 2-vCPU machine), so the counts stop here.
# `--nmax` N reaches B_2N (the benchmark uses N = 500); from N = 778 on, the
# `series` coefficients pass the interpreter's default 4,300-digit limit on
# printing an integer, while B_2000 has about 4,140 digits.  Both caps keep
# the output printable only under that default limit: a lower
# `PYTHONINTMAXSTRDIGITS` or `-X int_max_str_digits` still fails below them.
MAX_UPTO = 2000
MAX_NMAX = 750


class _UsageError(argparse.ArgumentTypeError):
    """Exit 3.  Raised by an argparse type, argparse names the flag."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _constant(text: str) -> Interval:
    """Tight enclosure of a constant, pi allowed, as a domain end reads it:
    `1e-3`, `3/20`, `1/2000+1/2000` or `pi/4`, read and size-checked by `lang`."""
    try:
        return eval_endpoint(parse_expression(text))
    except (ParseError, PoleError) as exc:
        raise _UsageError(f"not an exact rational: {text!r}: {exc}") from None


def _rational(text: str) -> Fraction:
    """An exact rational: a pi-free constant."""
    value = _constant(text)
    if value.lo != value.hi:
        raise _UsageError(f"not an exact rational: {text!r} depends on pi")
    return value.lo


def _integer(text: str) -> int:
    """A constant of integer value: `40`, `4e1` or `2*20`."""
    try:
        value = _rational(text)
        if value.denominator == 1:
            return int(value)
    except _UsageError:
        pass
    raise _UsageError(f"expected an integer, got {text!r}")


def _int_in(minimum: int, maximum: int | None = None):
    """argparse type for counts: a bad value is a usage error (exit 3)."""
    def parse(text: str) -> int:
        try:
            value = _integer(text)
        except _UsageError:
            value = minimum - 1
        if value < minimum or (maximum is not None and value > maximum):
            bound = (f">= {minimum}" if maximum is None
                     else f"in [{minimum}, {maximum}]")
            raise _UsageError(f"expected an integer {bound}, got {text!r}")
        return value
    return parse


def _checked(read):
    """argparse type that keeps a flag's text, which the report quotes, once
    `read` accepts it, so a bad value's error names the flag."""
    def check(text: str) -> str:
        read(text)
        return text
    return check


def _iv_json(iv: Interval | None):
    if iv is None:
        return None
    return {"lo": str(iv.lo), "hi": str(iv.hi)}


def _load_corpus(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_corpus(fh.read())
    except OSError as exc:
        raise _UsageError(f"cannot read corpus {path!r}: {exc}") from exc


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(args, config: dict, claims: list, lines: list) -> None:
    """The JSON envelope with --format json, else the text lines."""
    if args.format == "json":
        report = {"version": __version__, "config": config, "claims": claims}
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = "\n".join(lines)
    _emit(text + "\n", args.out)


# engine options: the `prove` flag's dest, which argparse reads with the same
# function as a tag's value, and whether a tag `name:value` sets it
_ENGINE_OPTIONS = (("eps_lo", _rational, True), ("eps_hi", _rational, True),
                   ("x_max", _rational, True), ("max_depth", _integer, True),
                   ("min_width", _rational, True), ("precision", _integer, False))


def _stanza_opts(spec, args) -> ProveOptions:
    """Options for one stanza, or for the flags alone when spec is None.
    A flag beats the stanza's tag, which beats --eps (margins only); an option
    set nowhere keeps its ProveOptions default, and ProveOptions checks ranges.
    The flags' ranges are checked alone first, so a stanza's error names its
    tags."""
    chosen = {}
    try:
        for name, parse, tagged in _ENGINE_OPTIONS:
            value = getattr(args, name)  # argparse has read the flags
            if value is None and tagged and spec is not None:
                text = spec.tag_value(name)
                value = None if text is None else parse(text)
            if value is None and name.startswith("eps_"):
                value = args.eps
            if value is not None:
                chosen[name] = value
        return ProveOptions(**chosen)
    except (_UsageError, DomainError) as exc:
        where = "" if spec is None else f"stanza {spec.name}: "
        raise _UsageError(where + str(exc)) from None


def _claim_entry(spec, result) -> dict:
    witness = None
    if result.witness is not None:
        witness = _iv_json(result.witness)
        witness["midpoint_value"] = _iv_json(result.witness_value)
    sharp = None
    claim = result.theorem  # set only on a stanza registered as its theorem
    if claim is not None:
        endpoint = "right" if claim.mode == "upper" else "zero"
        lr = limit_report(claim.thm, endpoint)
        enc = _iv_json(lr.value_enclosure if lr.value_enclosure is not None
                       else Interval.point(lr.value_exact))
        sharp = {"paper_value": lr.paper_value, "computed_enclosure": enc,
                 "match": lr.matches_paper}
    findings = list(result.findings)
    if result.reason:
        findings.append(f"reason: {result.reason}")
    return {
        "name": spec.name,
        "status": result.status,
        "witness": witness,
        "leaves": result.leaves,
        "max_depth": result.max_depth,
        "sharp": sharp,
        "findings": findings,
        "uncovered": list(result.uncovered),
        "ms": result.ms,
    }


def _cmd_prove(args) -> int:
    opts = _stanza_opts(None, args)  # the flags, checked before any stanza runs
    corpus = _load_corpus(args.corpus)
    if args.name:
        corpus = [s for s in corpus if s.name == args.name]
        if not corpus:
            raise _UsageError(f"no stanza named {args.name!r}")
    stanza_opts = [_stanza_opts(s, args) for s in corpus]  # and every tag

    # stanzas run in this thread (--jobs is ignored) grouped by core, in order
    # of first appearance, to share the Taylor vectors of its boxes (Ctx.memo)
    groups = {}
    for s, s_opts in zip(corpus, stanza_opts):
        key = (s.lo_expr, s.lo_closed, s.hi_expr, s.hi_closed, s_opts)
        groups.setdefault(key, []).append((s, s_opts))
    results = []
    for s, s_opts in (pair for group in groups.values() for pair in group):
        try:
            results.append((s, verify_inequality(s, s_opts)))
        except Exception as exc:
            exc.stanza = s.name  # named in run_command's internal-error line
            raise

    claims = sorted((_claim_entry(spec, res) for spec, res in results),
                    key=lambda c: c["name"])
    for c in claims:
        c["ms"] = round(c["ms"], 3) if args.timing else 0
    # deliberately excludes volatile details (jobs, corpus and output paths)
    # so reports are byte-identical regardless of scheduling and checkout
    config = {
        "subcommand": "prove", "name_filter": args.name or "",
        "eps_lo": str(opts.eps_lo), "eps_hi": str(opts.eps_hi),
        "x_max": str(opts.x_max), "precision": opts.precision,
    }
    lines = []
    for c in claims:
        lines.append(f"{c['name']:<14} {c['status']}")
        for u in c["uncovered"]:
            lines.append(f"    uncovered: {u}")
        if c["witness"]:
            lines.append(f"    witness: [{c['witness']['lo']}, {c['witness']['hi']}]")
    _emit_report(args, config, claims, lines)

    mismatch = unknown = False
    for spec, res in results:
        if res.status == "Unknown":
            unknown = True
        elif res.status.lower() != (spec.tag_value("expected") or "proved"):
            mismatch = True
    if mismatch:
        return 1
    if unknown:
        return 2
    return 0


def _cmd_series(args) -> int:
    if args.kind and (args.thm or args.role):
        raise _UsageError("series takes --kind, or --thm with --role, not both")
    if not (args.kind or (args.thm and args.role)):
        raise _UsageError("series requires --kind, or --thm with --role")
    # a role backed by a registered series prints that series' rows
    source = args.kind or THEOREMS[args.thm].roles.get(args.role)
    if source is None:      # checked before any row, whatever --nmax is
        raise _UsageError(f"no sequence for theorem {args.thm!r} "
                          f"role {args.role!r}")
    rows = ["n,exponent,coefficient"]
    if isinstance(source, str):
        seq = get_series(source)
        for n in range(seq.start_index, args.nmax + 1):
            rows.append(f"{n},{seq.exponent_of(n)},{seq.coeff(n)}")
    else:
        for n in range(THEOREMS[args.thm].start, args.nmax + 1):
            v = theorem_coeff(args.thm, args.role, n)
            rows.append(f"{n},{2 * n},{v}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _cmd_bernoulli(args) -> int:
    rows = ["n,value"]
    for n in range(args.upto + 1):
        rows.append(f"{n},{bernoulli(n)}")
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _find_tag(corpus, key: str):
    for spec in corpus:
        v = spec.tag_value(key)
        if v is not None:
            return v
    return None


def _cmd_sequences(args) -> int:
    # the corpus is read first: an unreadable one leaves no report behind
    expect = _find_tag(_load_corpus(args.corpus),
                       f"expect_seq.{args.id}.{args.mode}")
    rep = sequence_check(args.id, args.mode, args.nmax, n_min=args.nmin)
    entry = {
        "name": f"{args.id}.{args.mode}",
        "status": "pass" if rep.all_pass else "violation",
        "n_min": rep.n_min, "n_max": rep.n_max,
        "first_violation": None if rep.first_violation is None else {
            "n": rep.first_violation[0],
            "value": str(rep.first_violation[1]),
        },
    }
    config = {"subcommand": "sequences", "id": args.id, "mode": args.mode,
              "n_max": args.nmax, "n_min": args.nmin}
    if rep.all_pass:
        line = f"{args.id} {args.mode}: all pass on [{rep.n_min}, {rep.n_max}]"
    else:
        n, v = rep.first_violation
        line = f"{args.id} {args.mode}: first violation at n={n}, value {v}"
    _emit_report(args, config, [entry], [line])
    if expect is None or expect == "pass":
        return 0 if rep.all_pass else 1
    # parse_corpus admits only pass and violation@<n>
    n = int(expect.removeprefix("violation@"))
    return 0 if not rep.all_pass and rep.first_violation[0] == n else 1


def _cmd_identities(args) -> int:
    rep = identity_check(args.id, args.nmax)
    entry = {
        "name": args.id,
        "status": "holds" if rep.holds else "fails",
        "n_min": rep.n_min, "n_max": rep.n_max,
        "first_failure": None if rep.first_failure is None else {
            "n": rep.first_failure[0],
            "lhs": str(rep.first_failure[1]),
            "rhs": str(rep.first_failure[2]),
        },
        "sign_violations": {
            k: (None if v is None else {"n": v[0], "value": str(v[1])})
            for k, v in rep.positivity.items()
        },
    }
    config = {"subcommand": "identities", "id": args.id, "n_max": args.nmax}
    lines = [f"{args.id}: {'holds' if rep.holds else 'FAILS'} "
             f"on [{rep.n_min}, {rep.n_max}]"]
    for k, v in rep.positivity.items():
        if v is None:
            lines.append(f"    sign {k}: positive throughout")
        else:
            lines.append(f"    sign {k}: first violation at n={v[0]} value {v[1]}")
    _emit_report(args, config, [entry], lines)
    return 0 if rep.holds else 1


def _cmd_limits(args) -> int:
    rep = limit_report(args.thm, args.endpoint)
    entry = {
        "name": f"{args.thm}.{args.endpoint}",
        "paper_value": rep.paper_value,
        "value_exact": None if rep.value_exact is None else str(rep.value_exact),
        "value_enclosure": _iv_json(rep.value_enclosure),
        "match": rep.matches_paper,
    }
    config = {"subcommand": "limits", "thm": args.thm, "endpoint": args.endpoint}
    if rep.value_exact is not None:
        line = (f"{args.thm} at {args.endpoint}: {rep.value_exact} "
                f"(paper {rep.paper_value}; match={rep.matches_paper})")
    else:
        enc = rep.value_enclosure
        line = (f"{args.thm} at {args.endpoint}: [{float(enc.lo):.12g}, "
                f"{float(enc.hi):.12g}] (paper {rep.paper_value}; "
                f"match={rep.matches_paper})")
    _emit_report(args, config, [entry], [line])
    return 0 if rep.matches_paper else 1


def _cmd_scan(args) -> int:
    # each end rounds inward, so the scanned range lies inside the one asked
    lo, hi = _constant(args.lo).hi, _constant(args.hi).lo
    if lo <= 0:
        raise _UsageError(f"scan needs --lo above 0, got --lo {args.lo}")
    if lo >= hi:
        raise _UsageError(f"scan needs lo < hi, got --lo {args.lo} --hi {args.hi}")
    rep = scan_extremum(args.thm, Interval(lo, hi), _rational(args.tol))
    entry = {
        "name": f"scan.{args.thm}",
        "location": str(rep.location),
        "location_float": float(rep.location),
        "value_enclosure": _iv_json(rep.value_enclosure),
        "sampled_monotone": rep.sampled_monotone,
        "at_boundary": rep.at_boundary,
    }
    config = {"subcommand": "scan", "thm": args.thm,
              "lo": args.lo, "hi": args.hi, "tol": args.tol}
    line = (f"{args.thm}: min near x={float(rep.location):.8g}, value in "
            f"[{float(rep.value_enclosure.lo):.8g}, "
            f"{float(rep.value_enclosure.hi):.8g}], "
            f"sampled_monotone={rep.sampled_monotone}")
    _emit_report(args, config, [entry], [line])
    return 0


@cache  # one tree per process: parsing leaves it as it was, defaults are fixed
def _build_parser() -> _ArgumentParser:
    p = _ArgumentParser(prog="ineqcert",
                        description="certified checks for a corpus of sharp "
                                    "trigonometric/hyperbolic inequalities")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="write the report here")
        sp.add_argument("--format", default="json", choices=("json", "text"))

    sp = sub.add_parser("prove", help="verify corpus inequalities")
    sp.add_argument("--corpus", default=default_corpus_path())
    sp.add_argument("--name", default=None, help="verify a single stanza")
    sp.add_argument("--eps", type=_rational, default=None,
                    help="margin at both ends: a pi-free constant (1e-3, 1/2000+1/2000)")
    sp.add_argument("--eps-lo", dest="eps_lo", type=_rational, default=None)
    sp.add_argument("--eps-hi", dest="eps_hi", type=_rational, default=None)
    sp.add_argument("--xmax", dest="x_max", type=_rational, default=None,
                    help="cutoff for unbounded domains")
    sp.add_argument("--max-depth", dest="max_depth", type=_integer, default=None)
    sp.add_argument("--min-width", dest="min_width", type=_rational, default=None)
    sp.add_argument("--precision", type=_integer, default=None, help="dyadic bits")
    sp.add_argument("--jobs", type=_int_in(1), default=1,
                    help="accepted for compatibility; stanzas run serially")
    sp.add_argument("--timing", action="store_true",
                    help="report real wall times (non-canonical output)")
    common(sp)
    sp.set_defaults(fn=_cmd_prove)

    sp = sub.add_parser("series", help="emit exact series coefficients as CSV")
    sp.add_argument("--kind", default=None, choices=(None, *series_ids()))
    sp.add_argument("--thm", default=None, choices=(None, *sorted(THEOREMS)))
    sp.add_argument("--role", default=None)
    sp.add_argument("--nmax", type=_int_in(0, MAX_NMAX), default=20)
    sp.add_argument("--out", default=None, help="write the CSV here")
    sp.set_defaults(fn=_cmd_series)

    sp = sub.add_parser("bernoulli", help="emit Bernoulli numbers as CSV")
    sp.add_argument("--upto", type=_int_in(0, MAX_UPTO), required=True)
    sp.add_argument("--out", default=None, help="write the CSV here")
    sp.set_defaults(fn=_cmd_bernoulli)

    sp = sub.add_parser("sequences", help="exact sequence checks")
    sp.add_argument("--id", required=True, choices=sorted(SEQUENCE_IDS))
    sp.add_argument("--mode", required=True, choices=("positive", "increasing"))
    sp.add_argument("--nmax", type=_int_in(0, MAX_NMAX), required=True)
    sp.add_argument("--nmin", type=_integer, default=None)
    sp.add_argument("--corpus", default=default_corpus_path())
    common(sp)
    sp.set_defaults(fn=_cmd_sequences)

    sp = sub.add_parser("identities", help="exact proof-step identities")
    sp.add_argument("--id", required=True, choices=IDENTITY_IDS)
    sp.add_argument("--nmax", type=_int_in(0, MAX_NMAX), required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_identities)

    sp = sub.add_parser("limits", help="sharp-constant endpoint reports")
    sp.add_argument("--thm", required=True, choices=sorted(THEOREMS))
    sp.add_argument("--endpoint", required=True, choices=("zero", "right"))
    common(sp)
    sp.set_defaults(fn=_cmd_limits)

    sp = sub.add_parser("scan", help="extremum scan of a theorem ratio")
    sp.add_argument("--thm", required=True, choices=sorted(THEOREMS))
    sp.add_argument("--lo", type=_checked(_constant), required=True,
                    help="constant, as a domain end: 1e-3, pi/4")
    sp.add_argument("--hi", type=_checked(_constant), required=True,
                    help="constant, as a domain end: 3/2, pi/2")
    sp.add_argument("--tol", type=_checked(_rational), default="1e-6")
    common(sp)
    sp.set_defaults(fn=_cmd_scan)

    return p


# argparse reads `-1` and `-0.5` as values but `-1/1000` and `-1e-3` as
# options, which leaves the flag before them without its value
_FLAG, _NEGATIVE = re.compile(r"--[^=]+"), re.compile(r"-[0-9.]")


def _joined(argv) -> list:
    """argv with each `--flag` and the negative number after it joined as
    `--flag=number`, so the number's own check names what is wrong."""
    out = []
    for word in argv:
        if out and _FLAG.fullmatch(out[-1]) and _NEGATIVE.match(word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_joined(argv))
        return args.fn(args)
    except (_UsageError, ParseError, DomainError, EvalError, PoleError,
            OSError) as exc:
        print(f"ineqcert: error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # exit 1 means "refuted against expectation"; a crash must not read so
        msg = " ".join(str(exc).splitlines())
        where = f" in stanza {exc.stanza}" if hasattr(exc, "stanza") else ""
        print(f"ineqcert: internal error{where}: {type(exc).__name__}: {msg}",
              file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

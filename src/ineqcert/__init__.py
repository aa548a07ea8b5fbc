"""ineqcert: certified verification of sharp trigonometric and hyperbolic
inequalities via exact Bernoulli-driven series, rational interval
arithmetic, and adaptive bisection certificates."""

__version__ = "0.1.0"

from .errors import DomainError, EvalError, ParseError, PoleError
from .exact import bernoulli, zeta_even_ratio
from .interval import Interval, elem_enclose, pi_enclose
from .series import (CoeffSeq, TailBound, eval_series, get_series,
                     lemma_coeff, tail_bound, theorem_coeff)
from .lang import (Expr, InequalitySpec, Token, eval_expr, format_expr,
                   parse_corpus, parse_expression, tokenize)
from .prove import (IdentityReport, Leaf, LimitReport, ProofResult,
                    ProveOptions, ScanReport, SequenceReport, identity_check,
                    limit_report, near_zero_certificate, prove_positive,
                    scan_extremum, sequence_check, verify_inequality)

__all__ = [
    "__version__",
    "DomainError", "EvalError", "ParseError", "PoleError",
    "bernoulli", "zeta_even_ratio",
    "Interval", "elem_enclose", "pi_enclose",
    "CoeffSeq", "TailBound", "eval_series", "get_series", "lemma_coeff",
    "tail_bound", "theorem_coeff",
    "Expr", "InequalitySpec", "Token", "eval_expr", "format_expr",
    "parse_corpus", "parse_expression", "tokenize",
    "IdentityReport", "Leaf", "LimitReport", "ProofResult", "ProveOptions",
    "ScanReport", "SequenceReport", "identity_check", "limit_report",
    "near_zero_certificate", "prove_positive", "scan_extremum",
    "sequence_check", "verify_inequality",
]

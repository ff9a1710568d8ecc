"""inlr-kit: a proof-term workbench for the inlr calculi.

Three natural-deduction proof-term calculi built around the three-way
disjunction introduction ``inlr``: the propositional one with a sum rule,
its linear quantum variant with complex scalars and measurement, and the
commuting-cut variant whose ``inlr`` binds.  The package provides parsing
and printing, type checking, rule-driven normalization with reproducible
randomness, a vector/matrix encoding checked against a numeric oracle,
and property-test suites.
"""

from . import cc, iplus, quantum  # noqa: F401  (registers the rule tables)
from .syntax import parse_prop, parse_term, print_prop, print_term
from .typecheck import TypingError, infer

__all__ = [
    "parse_prop", "parse_term", "print_prop", "print_term",
    "TypingError", "infer",
]

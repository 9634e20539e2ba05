"""Logged string rewriting for monoid presentations.

Words rewrite under oriented relations while every application is
recorded as a composable two-cell, so equalities come with replayable
certificates, completion yields logged rule systems, and the loops
among rewrites get explicit generating sets.
"""

from .core import (
    Alphabet, OrderSpec, ParseError, Presentation, Rule, Word,
    orient, parse_presentation, word_from_str, word_to_str,
)
from .twocell import Step, TwoCell, ChainError
from .engine import LoggedSystem, Verdict, system_from_presentation
from .completion import CompletionLimits, CompletionResult, logged_knuth_bendix

__all__ = [
    "Alphabet", "OrderSpec", "ParseError", "Presentation", "Rule", "Word",
    "orient", "parse_presentation", "word_from_str", "word_to_str",
    "Step", "TwoCell", "ChainError",
    "LoggedSystem", "Verdict", "system_from_presentation",
    "CompletionLimits", "CompletionResult", "logged_knuth_bendix",
    "Decomposition", "Generator", "GeneratorSet", "express", "generate",
]

# endorewrites loads on first use (PEP 562): only endos and express need it
_LAZY = ("Decomposition", "Generator", "GeneratorSet", "express", "generate")


def __getattr__(name):
    if name in _LAZY:
        from . import endorewrites
        return getattr(endorewrites, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY})

"""Elimination of propositional quantifiers through uniform interpolation.

A universally quantified formula ``forall p.B`` translates to the result of
forgetting ``p`` in the translation of ``B``; every other node is rebuilt
from its translated children by ``syntax.map_children``, so quantifier-free
formulas come back as the same object.  Elimination is innermost first, which
keeps every forgetting step on quantifier-free input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .calculus import Logic
from .interpolation import forget_formula
from .syntax import _FORALL, Formula, forall, map_children


@dataclass(frozen=True)
class TranslationTrace:
    """One entry per eliminated quantifier, innermost first.

    Each step records the variable, the quantified subformula at the moment it
    was eliminated (its body already quantifier-free) and its replacement.
    Replaying the steps in order over the input reproduces the output.
    """

    steps: Tuple[Tuple[str, Formula, Formula], ...]


def eliminate_quantifiers(logic: Logic, f: Formula) -> Tuple[Formula, TranslationTrace]:
    """Translate an L2 formula into an equi-derivable quantifier-free one."""
    steps = []

    def go(g: Formula) -> Formula:
        if g.tag != _FORALL:
            return map_children(g, go)
        body = go(g.sub)
        result = forget_formula(logic, g.var, body)
        steps.append((g.var, forall(g.var, body), result))
        return result

    out = go(f)
    return out, TranslationTrace(tuple(steps))


def replay_trace(f: Formula, trace: TranslationTrace) -> Formula:
    """Reapply the recorded eliminations to ``f``; reproduces the translation."""
    out = f
    for _, before, after in trace.steps:
        out = _rewrite(out, before, after)
    return out


def _rewrite(f: Formula, before: Formula, after: Formula) -> Formula:
    g = map_children(f, lambda h: _rewrite(h, before, after))
    return after if g == before else g

"""Syntactic uniform interpolation: forgetting a propositional variable.

One store-aware table serves all three logics.  ``forget_kkd`` runs it on a
plain sequent for K and KD (the store stays empty and calls are measured by
weight); ``forget_t`` runs it on a T-sequent for KT, which adds one line
unfolding an antecedent box into the store, as the reflexivity rule of the
loop-free KT calculus does.  The table decomposes the sequent through the
propositional rule table of :mod:`calculus`, conjoining the entries of a
two-premise rule, until the sequent is critical, then emits one big
disjunction: succedent atoms, negated antecedent atoms, one diamond per box
of the box source (the antecedent for K/KD, the store for KT) and one box
per succedent box occurrence.  Occurrences of the forgotten variable itself
are dropped at the critical stage; when nothing at all remains the result is
bottom.

The disjunct order is fixed (succedent atoms, antecedent atoms, diamonds,
boxes, each group in canonical formula order) and duplicates are kept, so
outputs are reproducible syntactically, not merely up to equivalence.

The tables reach the same sub-sequent along many branches, so each top-level
call memoizes its table entries and drops the memo when it returns.  The
result is a shared DAG: interning makes it the same object the unmemoized
tree would be.  The well-order audit runs on every table edge, memo hits
included, and the vocabulary check on every entry computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .calculus import Logic, invertible_step, prove
from .syntax import (
    Formula, Multiset, Sequent, TSequent,
    and_, big_or, bot, box, diamond, flats, imp, neg, or_, require_first_order,
    t_measure, top, var,
)

AUDIT = {"table_calls_checked": 0}

_BOT = bot()
_EMPTY = Multiset()


def _audit_call(parent, child) -> None:
    AUDIT["table_calls_checked"] += 1
    if not child < parent:
        raise AssertionError(
            f"interpolation table call does not decrease the well-order: "
            f"{child!r} under {parent!r}"
        )


def _vocabulary_check(result: Formula, p: str, parts: Sequence[Multiset]) -> Formula:
    used = result.free_vars
    if not used:  # a variable-free entry needs no check
        return result
    allowed = frozenset().union(*(f.free_vars for ms in parts for f in ms.counts)) - {p}
    if not used <= allowed:
        raise AssertionError(
            f"interpolant {result!r} uses variables outside {sorted(allowed)}"
        )
    return result


def forget_kkd(p: str, gamma: Multiset, delta: Multiset) -> Formula:
    """The uniform interpolant of the sequent ``gamma => delta`` w.r.t. ``p``.

    Works for both K and KD: the table is the same, only the verification
    calculus differs.  The result mentions no variable outside the sequent
    and never mentions ``p``.
    """
    require_first_order(Sequent(gamma, delta).formulas())
    return _Table(p, False).entry(_EMPTY, gamma, delta)


def forget_t(p: str, store: Multiset, gamma: Multiset, delta: Multiset) -> Formula:
    """The uniform interpolant of the T-sequent ``store | gamma => delta``.

    Antecedent boxes migrate into the store (unfolding their body once, as the
    reflexivity rule does); at the critical stage the store supplies one
    diamond disjunct per member and the flats for the succedent boxes, and the
    recursive calls restart with an empty store.  A store member that is not
    outermost-boxed raises :class:`StoreError`.
    """
    require_first_order(TSequent(store, gamma, delta).formulas())
    return _Table(p, True).entry(store, gamma, delta)


class _Table:
    """One top-level forgetting call: the table, with the KT unfolding line
    when ``kt`` holds, and its memo, which is dropped with the call.

    K/KD keep the store empty and measure calls by weight; the memo is keyed
    by (Γ, Δ) for K/KD and by (store, Γ, Δ) for KT.
    """

    def __init__(self, p: str, kt: bool):
        self.p, self.pv, self.kt = p, var(p), kt
        self.memo: Dict[tuple, Formula] = {}

    def entry(self, store: Multiset, gamma: Multiset, delta: Multiset,
              parent=None) -> Formula:
        kt = self.kt
        m = t_measure(store, gamma, delta) if kt else gamma.weight() + delta.weight()
        if parent is not None:
            _audit_call(parent, m)
        key = (store, gamma, delta) if kt else (gamma, delta)
        result = self.memo.get(key)
        if result is None:
            result = self._compute(store, gamma, delta, m)
            result = _vocabulary_check(result, self.p, key)
            self.memo[key] = result
        return result

    def _compute(self, store: Multiset, gamma: Multiset, delta: Multiset, m) -> Formula:
        pv, kt = self.pv, self.kt
        if pv in gamma and pv in delta:
            return top()
        if _BOT in gamma:
            return top()
        step = invertible_step(gamma, delta)
        if step is not None:
            # A two-premise rule conjoins the interpolants of its premises.
            (g, d), *second = step[3]
            result = self.entry(store, g, d, m)
            for g, d in second:
                result = and_(result, self.entry(store, g, d, m))
            return result
        if kt:
            for f in gamma:
                if f.is_box:  # unfold into the store, as the reflexivity rule does
                    return self.entry(store.add(f), gamma.remove(f).add(f.sub), delta, m)

        # Critical sequent: occurrences of the forgotten variable are dropped.
        g = gamma.remove_all(pv)
        d = delta.remove_all(pv)
        boxes = store if kt else g  # the store for KT, the antecedent for K/KD
        disjuncts: List[Formula] = [q for q in d.members() if q.is_atom]
        disjuncts += [neg(r) for r in g.members() if r.is_atom]
        for bf in boxes.members():
            if bf.is_box:
                body = flats(boxes, bf.agent)
                disjuncts.append(diamond(bf.agent, self.entry(_EMPTY, body, _EMPTY, m)))
        for bf in d.members():
            if bf.is_box:
                body = flats(boxes, bf.agent)
                disjuncts.append(
                    box(bf.agent, self.entry(_EMPTY, body, Multiset((bf.sub,)), m)))
        return big_or(disjuncts)


def forget_formula(logic: Logic, p: str, b: Formula) -> Formula:
    """Forget ``p`` in a single succedent formula: the strongest helper form."""
    if logic is Logic.KT:
        return forget_t(p, Multiset(), Multiset(), Multiset((b,)))
    return forget_kkd(p, Multiset(), Multiset((b,)))


def exists_forget(logic: Logic, p: str, b: Formula) -> Formula:
    """The dual interpolant: negate, forget, negate."""
    return neg(forget_formula(logic, p, neg(b)))


def post_interpolant(logic: Logic, a: Formula, forget: Sequence[str]) -> Formula:
    """Strongest consequence of ``a`` not mentioning the forgotten variables."""
    _check_distinct(forget)
    out = a
    for p in reversed(list(forget)):
        out = exists_forget(logic, p, out)
    return out


def pre_interpolant(logic: Logic, b: Formula, forget: Sequence[str]) -> Formula:
    """Weakest antecedent of ``b`` not mentioning the forgotten variables."""
    _check_distinct(forget)
    out = b
    for p in reversed(list(forget)):
        out = forget_formula(logic, p, out)
    return out


def _check_distinct(forget: Sequence[str]) -> None:
    if len(set(forget)) != len(forget):
        raise ValueError("forgotten variables must be pairwise distinct")


@dataclass(frozen=True)
class InterpolationProblem:
    logic: Logic
    forget: Tuple[str, ...]
    subject: Formula
    side: str  # "pre" or "post"

    def __post_init__(self):
        if self.side not in ("pre", "post"):
            raise ValueError("side must be 'pre' or 'post'")
        _check_distinct(self.forget)


@dataclass(frozen=True)
class InterpolantReport:
    interpolant: Formula
    vocab_ok: bool
    implication_ok: bool
    extremality_checked_up_to: int
    extremality_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.vocab_ok and self.implication_ok and self.extremality_ok


def _candidates_up_to(weight_bound: int, names: Sequence[str],
                      agents: Sequence[int]):
    """All candidate partner formulas over the vocabulary, grouped by weight."""
    by_weight: List[List[Formula]] = [[] for _ in range(weight_bound + 1)]
    if weight_bound >= 1:
        by_weight[1] = [bot()] + [var(n) for n in names]
    for w in range(2, weight_bound + 1):
        batch: List[Formula] = []
        for f in by_weight[w - 1]:
            batch.append(neg(f))
            for agent in agents:
                batch.append(box(agent, f))
        for wl in range(1, w - 1):
            wr = w - 1 - wl
            for l in by_weight[wl]:
                for r in by_weight[wr]:
                    batch.append(and_(l, r))
                    batch.append(or_(l, r))
                    batch.append(imp(l, r))
        by_weight[w] = batch
    return by_weight


def _derivable(logic: Logic, a: Formula, b: Formula) -> bool:
    return prove(logic, Sequent(Multiset((a,)), Multiset((b,)))).derivable


def verify_uniform(problem: InterpolationProblem, weight_bound: int,
                   max_candidates: Optional[int] = None) -> InterpolantReport:
    """Compute the interpolant and brute-force check the interpolation clauses.

    The extremality clause quantifies over all partner formulas; it is checked
    against every formula over the kept vocabulary of the subject (plus its
    agents) up to the weight bound.  If ``max_candidates`` cuts enumeration
    short, ``extremality_checked_up_to`` records the last fully checked weight.
    """
    if weight_bound < 1:
        raise ValueError("weight_bound must be at least 1")
    logic, subject, side = problem.logic, problem.subject, problem.side
    if side == "post":
        interp = post_interpolant(logic, subject, problem.forget)
        implication_ok = _derivable(logic, subject, interp)
    else:
        interp = pre_interpolant(logic, subject, problem.forget)
        implication_ok = _derivable(logic, interp, subject)
    vocab_ok = not (interp.free_vars & set(problem.forget))

    names = sorted(subject.free_vars - set(problem.forget))
    agents = sorted({f.agent for f in subject.boxed_subformulas})
    by_weight = _candidates_up_to(weight_bound, names, agents)
    extremality_ok = True
    checked_up_to = 0
    seen = 0
    for w in range(1, weight_bound + 1):
        if max_candidates is not None and seen + len(by_weight[w]) > max_candidates:
            break
        for c in by_weight[w]:
            seen += 1
            if side == "post":
                if _derivable(logic, subject, c) and not _derivable(logic, interp, c):
                    extremality_ok = False
            else:
                if _derivable(logic, c, subject) and not _derivable(logic, c, interp):
                    extremality_ok = False
        checked_up_to = w
    return InterpolantReport(
        interpolant=interp,
        vocab_ok=vocab_ok,
        implication_ok=implication_ok,
        extremality_checked_up_to=checked_up_to,
        extremality_ok=extremality_ok,
    )

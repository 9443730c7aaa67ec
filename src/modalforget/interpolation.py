"""Syntactic uniform interpolation: forgetting a set of propositional variables.

One store-aware table serves all three logics, and one run of it forgets a
whole set: ``pre_interpolant`` is the table on ``=> b`` and
``post_interpolant`` the negated table on ``=> ~a``.  ``forget_kkd`` runs it
on a plain sequent for K and KD (the store stays empty and calls are measured
by weight); ``forget_t`` runs it on a T-sequent for KT, which adds one line
unfolding an antecedent box into the store, as the reflexivity rule of the
loop-free KT calculus does.  The table decomposes the sequent through the
propositional rule table of :mod:`calculus`, conjoining the entries of a
two-premise rule, until the sequent is critical, then emits one big
disjunction: succedent atoms, negated antecedent atoms, one diamond per box
of the box source (the antecedent for K/KD, the store for KT) and one box
per succedent box occurrence.  Occurrences of the forgotten variables
themselves are dropped at the critical stage; when nothing at all remains the
result is bottom.

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
from typing import Dict, List, Sequence, Tuple

from .calculus import Logic, critical_leaves, derivable, invertible_step, prove
from .semantics import KripkeModel, countermodel, eval_formula
from .syntax import (
    _AND, _OR, Formula, Multiset, Sequent, TSequent,
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


def _vocabulary_check(result: Formula, forget: frozenset,
                      parts: Sequence[Multiset]) -> Formula:
    used = result.free_vars
    if not used:  # a variable-free entry needs no check
        return result
    allowed = frozenset().union(*(f.free_vars for ms in parts for f in ms.counts)) - forget
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
    return _Table(frozenset((p,)), False).entry(_EMPTY, gamma, delta)


def forget_t(p: str, store: Multiset, gamma: Multiset, delta: Multiset) -> Formula:
    """The uniform interpolant of the T-sequent ``store | gamma => delta``.

    Antecedent boxes migrate into the store (unfolding their body once, as the
    reflexivity rule does); at the critical stage the store supplies one
    diamond disjunct per member and the flats for the succedent boxes, and the
    recursive calls restart with an empty store.  A store member that is not
    outermost-boxed raises :class:`StoreError`.
    """
    require_first_order(TSequent(store, gamma, delta).formulas())
    return _Table(frozenset((p,)), True).entry(store, gamma, delta)


class _Table:
    """One top-level forgetting call: the table for the variable set
    ``forget``, with the KT unfolding line when ``kt`` holds, and its memo,
    which is dropped with the call.

    K/KD keep the store empty and measure calls by weight; the memo is keyed
    by (Γ, Δ) for K/KD and by (store, Γ, Δ) for KT.

    One pass forgets a whole set P.  An entry E of Γ ⇒ Δ makes (i) Γ, E ⇒ Δ
    derivable, and (ii) Π ⇒ Σ, E derivable whenever Γ, Π ⇒ Δ, Σ is and the
    partner Π ⇒ Σ mentions no member of P.  The proof of (ii) (Pitts 1992;
    Bílková 2007; the source paper) follows a derivation of Γ, Π ⇒ Δ, Σ and
    needs one fact about a forgotten variable: the partner does not mention
    it.  So an axiom on it has both occurrences in Γ ⇒ Δ (the ``top()``
    line), and at the critical stage it is idle in every rule the partner
    can use.  That holds for each member of P at once, so the critical stage
    drops them all; dropping disjuncts only strengthens E, which keeps (i).
    """

    def __init__(self, forget: frozenset, kt: bool):
        self.forget, self.kt = forget, kt
        self.atoms = tuple(var(p) for p in sorted(forget))
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
            result = _vocabulary_check(result, self.forget, key)
            self.memo[key] = result
        return result

    def _compute(self, store: Multiset, gamma: Multiset, delta: Multiset, m) -> Formula:
        atoms, kt = self.atoms, self.kt
        for pv in atoms:
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

        # Critical sequent: occurrences of the forgotten variables are dropped.
        g, d = gamma, delta
        for pv in atoms:
            g, d = g.remove_all(pv), d.remove_all(pv)
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
    return pre_interpolant(logic, b, (p,))


def exists_forget(logic: Logic, p: str, b: Formula) -> Formula:
    """The dual interpolant: negate, forget, negate."""
    return post_interpolant(logic, b, (p,))


def post_interpolant(logic: Logic, a: Formula, forget: Sequence[str]) -> Formula:
    """Strongest consequence of ``a`` not mentioning the forgotten variables."""
    return neg(pre_interpolant(logic, neg(a), forget)) if forget else a


def pre_interpolant(logic: Logic, b: Formula, forget: Sequence[str]) -> Formula:
    """Weakest antecedent of ``b`` not mentioning the forgotten variables."""
    _check_distinct(forget)
    if not forget:
        return b
    require_first_order((b,))
    return _Table(frozenset(forget), logic is Logic.KT).entry(_EMPTY, _EMPTY, Multiset((b,)))


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
    """All candidate partner formulas over the vocabulary, by weight 1..weight_bound."""
    by_weight: List[List[Formula]] = [[] for _ in range(weight_bound + 1)]
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


def verify_uniform(problem: InterpolationProblem, weight_bound: int) -> InterpolantReport:
    """Compute the interpolant and check the interpolation clauses.

    The extremality clause quantifies over all partner formulas; it is checked
    against every formula over the kept vocabulary of the subject (plus its
    agents) up to the weight bound, by increasing weight, so both halves of a
    binary candidate come first.  Three exact shortcuts save searches (post
    side; the pre side reverses every entailment and swaps ``&`` and ``|``):
    ``l & r`` is skipped, as its clause follows from those of ``l`` and ``r``;
    ``l | r`` is entailed once ``l`` or ``r`` is known to be; and the
    countermodel of a failed subject entailment refutes later ones, being
    reflexive (KT) or serial (KD) for every agent a candidate can use.

    The subject and the interpolant are each split once, by
    ``critical_leaves``, into the leaves of ``x =>`` (post side) or ``=> x``
    (pre side).  Then ``x`` entails a candidate ``c`` exactly when every leaf
    with ``c`` added (to the succedent, post side; to the antecedent, pre
    side) is derivable:

    - the eager rules are invertible and share their context, so ``c`` rides
      along as an idle formula into every premise, and the sequent with ``c``
      is derivable exactly when each premise with ``c`` is;
    - an axiom leaf stays an axiom when ``c`` is added.

    The search relies on the same two facts when it applies these rules
    without backtracking.  One search memo serves both entailments of a
    candidate and is dropped with it.
    """
    if weight_bound < 1:
        raise ValueError("weight_bound must be at least 1")
    logic, subject, post = problem.logic, problem.subject, problem.side == "post"
    side = post_interpolant if post else pre_interpolant
    interp = side(logic, subject, problem.forget)

    def sequent(a: Formula, b: Formula) -> Sequent:
        """The entailment ``a => b``; the pre side reverses every entailment."""
        if not post:
            a, b = b, a
        return Sequent(Multiset((a,)), Multiset((b,)))

    implication_ok = prove(logic, sequent(subject, interp)).derivable
    vocab_ok = not (interp.free_vars & set(problem.forget))

    def split(x: Formula) -> tuple:
        one = Multiset((x,))
        root = Sequent(one, _EMPTY) if post else Sequent(_EMPTY, one)
        return critical_leaves(logic, root)

    def with_partner(leaf, c: Formula):
        """``leaf`` with ``c`` added where the entailment puts it."""
        if post:
            return leaf.with_sides(leaf.ant, leaf.suc.add(c))
        return leaf.with_sides(leaf.ant.add(c), leaf.suc)

    leaves = {subject: split(subject), interp: split(interp)}
    names = sorted(subject.free_vars - set(problem.forget))
    agents = sorted({f.agent for f in subject.boxed_subformulas})
    meet, join = (_AND, _OR) if post else (_OR, _AND)
    models: List[KripkeModel] = []  # the subject holds at each root (fails, pre side)
    by_subject, by_interp = set(), set()

    def entails(x: Formula, known: set, c: Formula, memo: dict) -> bool:
        """Whether ``x`` entails ``c``; ``known`` collects the candidates it does."""
        if not (c.tag == join and (c.left in known or c.right in known)):
            if x is subject and any(eval_formula(m, m.root, c) != post for m in models):
                return False
            if not all(derivable(logic, with_partner(t, c), memo) for t in leaves[x]):
                model = countermodel(logic, sequent(x, c)) if x is subject else None
                if model is not None and eval_formula(model, model.root, subject) == post:
                    models.append(model)
                return False
        known.add(c)
        return True

    extremality_ok = True
    for batch in _candidates_up_to(weight_bound, names, agents)[1:]:
        for c in batch:
            if c.tag == meet:
                continue
            memo: dict = {}  # shared by the candidate's two entailments
            if (entails(subject, by_subject, c, memo)
                    and not entails(interp, by_interp, c, memo)):
                extremality_ok = False
    return InterpolantReport(
        interpolant=interp,
        vocab_ok=vocab_ok,
        implication_ok=implication_ok,
        extremality_checked_up_to=weight_bound,
        extremality_ok=extremality_ok,
    )

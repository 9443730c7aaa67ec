"""Backward proof search for the three multi-agent calculi.

The eight invertible propositional rules are written once, as data
(``PROPOSITIONAL_RULES``): a label, a principal side, a main connective and
the premise shapes.  The proof search, the naive KT oracle,
``check_derivation`` and the forgetting table all decompose through it.

One search serves all three logics.  ``prove`` decides K and KD sequents
directly and routes KT through the loop-free T-sequent calculus
(``prove_tplus``); the two are equipollent, so the verdict is exact.
``critical_leaves`` applies only the search's eager rules, and ``derivable``
decides a sequent with a memo the caller keeps across calls.  The KT
calculus is the K calculus plus one eager rule, BoxTPlus, which unfolds an
antecedent box into the store; the succedent-box rule then takes its boxes
from the store for KT and from the antecedent for K/KD, and BoxD runs for KD
only.  ``naive_kt_prove`` runs the plain KT calculus with the looping
reflexivity rule under a height bound and is only a one-sided oracle.

Every explored search edge is audited against the sequent's ``measure()``
(weight for K/KD, boxed-count/weight lexicographic for T-sequents); a
violation raises immediately, and the number of audited edges is kept in
``AUDIT`` so test suites can confirm the audit was exercised.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .syntax import (
    _AND, _IMP, _NEG, _OR, _VAR,
    Formula, Multiset, Sequent, TSequent,
    bot, box_agents, flats, require_first_order,
)

# Proof search on machine-generated interpolants can decompose rather deep
# formulas; plain recursion is fine but needs headroom.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))

_BOT = bot()

RULE_LABELS = (
    "Init", "InitBot", "RAnd", "LAnd", "ROr", "LOr", "RImp", "LImp",
    "RNeg", "LNeg", "BoxK", "BoxD", "BoxT", "BoxKPlus", "BoxTPlus",
)

AUDIT = {"edges_checked": 0}


class Logic(enum.Enum):
    K = "K"
    KD = "KD"
    KT = "KT"


Principal = Tuple[Tuple[str, Formula], ...]


@dataclass(frozen=True)
class Derivation:
    """A rule-labelled proof tree; one sequent per node, leaves are initial."""

    conclusion: Union[Sequent, TSequent]
    rule: str
    principal: Principal
    premises: Tuple["Derivation", ...] = ()

    def height(self) -> int:
        return 0 if not self.premises else 1 + max(p.height() for p in self.premises)

    def __repr__(self):
        from .output import render
        return render(self, "text")


@dataclass(frozen=True)
class SearchStats:
    nodes_expanded: int
    max_depth: int


@dataclass(frozen=True)
class ProofResult:
    derivation: Optional[Derivation]
    stats: SearchStats

    @property
    def derivable(self) -> bool:
        return self.derivation is not None

    def __bool__(self) -> bool:
        return self.derivable


def _audit_edge(parent_measure, child_measure) -> None:
    AUDIT["edges_checked"] += 1
    if not child_measure < parent_measure:
        raise AssertionError(
            f"search edge does not decrease the well-order: "
            f"{child_measure!r} under {parent_measure!r}"
        )


def _init_derivation(s) -> Optional[Derivation]:
    if _BOT in s.ant:
        return Derivation(s, "InitBot", (("ant", _BOT),))
    for f in s.ant:
        if f.tag == _VAR and f in s.suc:
            return Derivation(s, "Init", (("ant", f), ("suc", f)))
    return None


# The eight invertible propositional rules, keyed by principal side and main
# connective: the label, and the premises as (antecedent, succedent) pairs
# built from the conclusion's sides with the principal formula removed.
PROPOSITIONAL_RULES = {
    ("ant", _NEG): ("LNeg", lambda f, a, s: ((a, s.add(f.sub)),)),
    ("ant", _AND): ("LAnd", lambda f, a, s: ((a.add(f.left).add(f.right), s),)),
    ("ant", _OR): ("LOr", lambda f, a, s: ((a.add(f.left), s), (a.add(f.right), s))),
    ("ant", _IMP): ("LImp", lambda f, a, s: ((a, s.add(f.left)), (a.add(f.right), s))),
    ("suc", _NEG): ("RNeg", lambda f, a, s: ((a.add(f.sub), s),)),
    ("suc", _AND): ("RAnd", lambda f, a, s: ((a, s.add(f.left)), (a, s.add(f.right)))),
    ("suc", _OR): ("ROr", lambda f, a, s: ((a, s.add(f.left).add(f.right)),)),
    ("suc", _IMP): ("RImp", lambda f, a, s: ((a.add(f.left), s.add(f.right)),)),
}
_RULE_SHAPE = {label: shape for shape, (label, _) in PROPOSITIONAL_RULES.items()}
_COMPOUND = frozenset(tag for _, tag in PROPOSITIONAL_RULES)


def premise_sides(side: str, f: Formula, ant: Multiset, suc: Multiset):
    """The premises of the invertible rule with principal ``f`` on ``side`` of
    ``ant => suc``, as (antecedent, succedent) pairs."""
    premises = PROPOSITIONAL_RULES[side, f.tag][1]
    if side == "ant":
        return premises(f, ant.remove(f), suc)
    return premises(f, ant, suc.remove(f))


def invertible_step(ant: Multiset, suc: Multiset):
    """The propositional rule that backward search applies eagerly to ``ant => suc``.

    Its principal is the first compound formula of the antecedent, else of
    the succedent, in canonical order.  Returns ``(label, side, principal,
    premises)`` with the premises as (antecedent, succedent) pairs, or
    ``None`` when no compound formula is left.
    """
    for side, ms in (("ant", ant), ("suc", suc)):
        for f, _ in ms.items():
            if f.tag in _COMPOUND:
                label = PROPOSITIONAL_RULES[side, f.tag][0]
                return label, side, f, premise_sides(side, f, ant, suc)
    return None


def unfold_box(t: TSequent, f: Formula) -> TSequent:
    """The BoxTPlus premise: the antecedent box ``f`` moves into the store."""
    return TSequent(t.store.add(f), t.ant.remove(f).add(f.sub), t.suc)


class _Search:
    """Exhaustive backward search in G(K_n), G(KD_n) or, on T-sequents, the
    loop-free KT calculus."""

    def __init__(self, logic: Logic):
        self.logic = logic
        self.memo: Dict[Union[Sequent, TSequent], Optional[Derivation]] = {}
        self.nodes = 0
        self.max_depth = 0

    def run(self, s, depth: int = 0) -> Optional[Derivation]:
        if depth > self.max_depth:
            self.max_depth = depth
        if s in self.memo:
            return self.memo[s]
        self.nodes += 1
        d = self._derive(s, depth)
        self.memo[s] = d
        return d

    def _child(self, parent_measure, s, depth: int) -> Optional[Derivation]:
        _audit_edge(parent_measure, s.measure())
        return self.run(s, depth + 1)

    def _derive(self, s, depth: int) -> Optional[Derivation]:
        d = _init_derivation(s)
        if d is not None:
            return d
        m = s.measure()
        step = invertible_step(s.ant, s.suc)
        if step is not None:
            rule, side, f, premises = step
            subs = []
            for ant, suc in premises:
                sub = self._child(m, s.with_sides(ant, suc), depth)
                if sub is None:
                    return None
                subs.append(sub)
            return Derivation(s, rule, ((side, f),), tuple(subs))
        kt = self.logic is Logic.KT
        if kt:
            # Move boxed antecedent formulas into the store; invertible, so eager.
            for f in s.ant:
                if f.is_box:
                    sub = self._child(m, unfold_box(s, f), depth)
                    if sub is None:
                        return None
                    return Derivation(s, "BoxTPlus", (("ant", f),), (sub,))
        # Critical sequent: branch disjunctively over modal rule instances.
        # BoxKPlus takes its boxes from the store, BoxK from the antecedent.
        boxes = s.store if kt else s.ant
        for f in s.suc:
            if f.is_box:
                ant, suc = flats(boxes, f.agent), Multiset((f.sub,))
                premise = TSequent(Multiset(), ant, suc) if kt else Sequent(ant, suc)
                sub = self._child(m, premise, depth)
                if sub is not None:
                    return Derivation(s, "BoxKPlus" if kt else "BoxK",
                                      (("suc", f),), (sub,))
        if self.logic is Logic.KD:
            for agent in box_agents(s.ant):
                body = flats(s.ant, agent)
                if body:
                    premise = Sequent(body, Multiset())
                    sub = self._child(m, premise, depth)
                    if sub is not None:
                        principal = tuple(
                            ("ant", g) for g in s.ant if g.is_box and g.agent == agent
                        )
                        return Derivation(s, "BoxD", principal, (sub,))
        return None


def prove(logic: Logic, s: Sequent) -> ProofResult:
    """Decide derivability of ``s``; Derivable results carry a derivation.

    For KT the verdict is computed in the loop-free T-sequent calculus over
    ``| Γ => Δ`` with an empty store, which derives exactly the KT-derivable
    sequents; the returned derivation is then a T-sequent derivation.
    """
    if logic is Logic.KT:
        return prove_tplus(TSequent(Multiset(), s.ant, s.suc))
    return _search(logic, s)


def prove_tplus(t: TSequent) -> ProofResult:
    """Decide derivability of a T-sequent in the loop-free calculus."""
    return _search(Logic.KT, t)


def critical_leaves(logic: Logic, s: Sequent) -> Tuple:
    """The leaves the eager rules reduce ``s`` to, axioms dropped.

    The eager rules are those the search applies without backtracking, in
    its order: the propositional rule of ``invertible_step``, then, for KT
    only, the unfolding of the first antecedent box.  For KT the split
    starts, as ``prove`` does, from ``| s`` with an empty store, so the
    leaves are T-sequents.  They come in the order a depth-first walk first
    reaches them, each once; a sequent reached again is not split again.
    Every edge is audited against the well-order.
    """
    require_first_order(s.formulas())
    kt = logic is Logic.KT
    stack = [TSequent(Multiset(), s.ant, s.suc) if kt else s]
    seen, leaves = set(), []
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        if _init_derivation(t) is not None:
            continue
        step = invertible_step(t.ant, t.suc)
        if step is not None:
            premises = [t.with_sides(ant, suc) for ant, suc in step[3]]
        else:
            f = next((f for f in t.ant if f.is_box), None) if kt else None
            if f is None:
                leaves.append(t)
                continue
            premises = [unfold_box(t, f)]
        m = t.measure()
        for p in reversed(premises):
            _audit_edge(m, p.measure())
            stack.append(p)
    return tuple(leaves)


def derivable(logic: Logic, s: Union[Sequent, TSequent], memo: Dict) -> bool:
    """Whether ``s`` (a T-sequent for KT) is derivable, searched with the
    caller's ``memo``: calls that share a memo share the sequents decided."""
    search = _Search(logic)
    search.memo = memo
    return search.run(s) is not None


def _search(logic: Logic, s) -> ProofResult:
    require_first_order(s.formulas())
    search = _Search(logic)
    d = search.run(s)
    return ProofResult(d, SearchStats(search.nodes, search.max_depth))


@dataclass(frozen=True)
class NaiveResult:
    """Outcome of the height-bounded search in the looping KT calculus."""

    derivable_within: bool
    derivation: Optional[Derivation]
    stats: SearchStats

    def __bool__(self) -> bool:
        return self.derivable_within


class _NaiveKTSearch:
    """Height-bounded search in plain G(KT_n) with the looping reflexivity rule.

    Propositional rules are applied eagerly (they are invertible); modal
    instances are branched over.  Sequents repeated along a branch are pruned:
    a minimal-height derivation never repeats a sequent on a branch.  A
    failure influenced by such pruning is valid only in its branch context, so
    it is not memoized; clean failures and all successes are.
    """

    def __init__(self):
        self.success: Dict[Sequent, Tuple[int, Derivation]] = {}
        self.failed_at: Dict[Sequent, int] = {}
        self.on_branch: set = set()
        self.nodes = 0
        self.max_depth = 0

    def run(self, s: Sequent, bound: int,
            depth: int = 0) -> Tuple[Optional[Derivation], bool]:
        """Search below ``s``; returns (derivation, failure-was-pruned)."""
        if depth > self.max_depth:
            self.max_depth = depth
        d = _init_derivation(s)
        if d is not None:
            return d, False
        if bound <= 0:
            return None, False
        hit = self.success.get(s)
        if hit is not None and hit[0] <= bound:
            return hit[1], False
        if self.failed_at.get(s, -1) >= bound:
            return None, False
        if s in self.on_branch:
            return None, True
        self.nodes += 1
        self.on_branch.add(s)
        try:
            d, pruned = self._derive(s, bound, depth)
        finally:
            self.on_branch.discard(s)
        if d is not None:
            h = d.height()
            best = self.success.get(s)
            if best is None or h < best[0]:
                self.success[s] = (h, d)
        elif not pruned:
            self.failed_at[s] = max(self.failed_at.get(s, -1), bound)
        return d, pruned

    def _derive(self, s: Sequent, bound: int,
                depth: int) -> Tuple[Optional[Derivation], bool]:
        step = invertible_step(s.ant, s.suc)
        if step is not None:
            rule, side, f, premises = step
            subs = []
            for ant, suc in premises:
                sub, pruned = self.run(Sequent(ant, suc), bound - 1, depth + 1)
                if sub is None:
                    return None, pruned
                subs.append(sub)
            return Derivation(s, rule, ((side, f),), tuple(subs)), False
        any_pruned = False
        for f in s.ant:
            if f.is_box:
                premise = Sequent(s.ant.add(f.sub), s.suc)
                sub, pruned = self.run(premise, bound - 1, depth + 1)
                if sub is not None:
                    return Derivation(s, "BoxT", (("ant", f),), (sub,)), False
                any_pruned = any_pruned or pruned
        for f in s.suc:
            if f.is_box:
                premise = Sequent(flats(s.ant, f.agent), Multiset((f.sub,)))
                sub, pruned = self.run(premise, bound - 1, depth + 1)
                if sub is not None:
                    return Derivation(s, "BoxK", (("suc", f),), (sub,)), False
                any_pruned = any_pruned or pruned
        return None, any_pruned


def naive_kt_prove(s: Sequent, depth_bound: int) -> NaiveResult:
    """Search for a plain-KT derivation of height at most ``depth_bound``.

    A positive answer is certified by the returned derivation.  A negative
    answer only means the bounded search found nothing: the looping
    reflexivity rule makes unbounded search non-terminating, so the result is
    Unknown rather than a refutation.
    """
    if depth_bound < 1:
        raise ValueError("depth_bound must be at least 1")
    require_first_order(s.formulas())
    search = _NaiveKTSearch()
    d, _ = search.run(s, depth_bound)
    return NaiveResult(d is not None, d, SearchStats(search.nodes, search.max_depth))


# ---------------------------------------------------------------------------
# Derivation checking


class _Violation(Exception):
    pass


def _check_atomic_or_boxed(ms, what: str, skip: Optional[Formula] = None):
    """Every member of ``ms`` but one occurrence of ``skip`` is atomic or boxed."""
    for f in ms.members():
        if f == skip:
            skip = None
            continue
        if not (f.is_atom or f.is_box):
            raise _Violation(f"{what} contains the non-atomic, non-boxed {f!r}")


def _principal_formula_from(principal: Principal, side: str, rule: str) -> Formula:
    for ps, pf in principal:
        if ps == side:
            return pf
    raise _Violation(f"{rule}: no principal formula recorded on the {side} side")


def _boxed_principal(d: Derivation, side: str) -> Formula:
    f = _principal_formula_from(d.principal, side, d.rule)
    if not f.is_box or f not in getattr(d.conclusion, side):
        what = "antecedent" if side == "ant" else "succedent"
        raise _Violation(f"{d.rule}: principal is not a boxed {what} formula")
    return f


def _expected_premises(logic: Logic, d: Derivation) -> List:
    s = d.conclusion
    rule = d.rule
    is_t = isinstance(s, TSequent)
    if rule == "Init":
        f = _principal_formula_from(d.principal, "ant", rule)
        if f.tag != _VAR:
            raise _Violation("Init: principal is not a propositional variable")
        if f not in s.ant or f not in s.suc:
            raise _Violation("Init: principal variable is not on both sides")
        return []
    if rule == "InitBot":
        if _BOT not in s.ant:
            raise _Violation("InitBot: no bottom in the antecedent")
        return []
    if rule in _RULE_SHAPE:
        side, tag = _RULE_SHAPE[rule]
        f = _principal_formula_from(d.principal, side, rule)
        if f not in getattr(s, side):
            raise _Violation(f"{rule}: principal {f!r} missing from the {side} side")
        if f.tag != tag:
            raise _Violation(f"{rule}: principal {f!r} has the wrong main connective")
        return [s.with_sides(a, b) for a, b in premise_sides(side, f, s.ant, s.suc)]
    if rule == "BoxK":
        if is_t:
            raise _Violation("BoxK is not a T-sequent rule")
        f = _boxed_principal(d, "suc")
        _check_atomic_or_boxed(s.ant, "BoxK context Σ, □Γ")
        _check_atomic_or_boxed(s.suc, "BoxK context Ω", skip=f)
        return [Sequent(flats(s.ant, f.agent), Multiset((f.sub,)))]
    if rule == "BoxD":
        if is_t or logic is not Logic.KD:
            raise _Violation("BoxD is only available in KD sequent derivations")
        f = _boxed_principal(d, "ant")
        body = flats(s.ant, f.agent)
        if not body:
            raise _Violation("BoxD: premise antecedent is empty (Γ ≠ ∅ violated)")
        _check_atomic_or_boxed(s.ant, "BoxD context Σ, □Γ")
        _check_atomic_or_boxed(s.suc, "BoxD context Ω")
        return [Sequent(body, Multiset())]
    if rule == "BoxT":
        if is_t or logic is not Logic.KT:
            raise _Violation("BoxT is only available in plain KT derivations")
        f = _boxed_principal(d, "ant")
        return [Sequent(s.ant.add(f.sub), s.suc)]
    if rule == "BoxTPlus":
        if not is_t:
            raise _Violation("BoxTPlus requires a T-sequent")
        f = _boxed_principal(d, "ant")
        return [unfold_box(s, f)]
    if rule == "BoxKPlus":
        if not is_t:
            raise _Violation("BoxKPlus requires a T-sequent")
        f = _boxed_principal(d, "suc")
        for g in s.ant.members():
            if not g.is_atom:
                raise _Violation(f"BoxKPlus: Π contains the non-atomic {g!r}")
        _check_atomic_or_boxed(s.suc, "BoxKPlus context Ω", skip=f)
        return [TSequent(Multiset(), flats(s.store, f.agent), Multiset((f.sub,)))]
    raise _Violation(f"unknown rule label {rule!r}")


def _sub_multiset(small: Multiset, big: Multiset) -> bool:
    return all(big.count(f) >= n for f, n in small.counts.items())


def _check_node(logic: Logic, d: Derivation, violations: List[str],
                seen: set) -> None:
    if id(d) in seen:  # the engine shares identical subderivations
        return
    seen.add(id(d))
    try:
        expected = _expected_premises(logic, d)
    except _Violation as v:
        violations.append(str(v))
        expected = None
    if expected is not None:
        actual = [p.conclusion for p in d.premises]
        if len(actual) != len(expected):
            violations.append(
                f"{d.rule}: expected {len(expected)} premises, found {len(actual)}"
            )
        else:
            for got, want in zip(actual, expected):
                if got != want:
                    msg = f"{d.rule}: premise {got!r} does not match schema {want!r}"
                    if (d.rule in ("BoxK", "BoxKPlus") and type(got) is type(want)
                            and _sub_multiset(got.ant, want.ant)
                            and got.ant != want.ant):
                        # An i-boxed antecedent formula stayed in the context.
                        f = _principal_formula_from(d.principal, "suc", d.rule)
                        msg = (f"{d.rule}: Σ contains □_{f.agent} "
                               f"(premise {got!r}, expected {want!r})")
                    violations.append(msg)
    for p in d.premises:
        _check_node(logic, p, violations, seen)


def check_derivation(logic: Logic, d: Derivation) -> Tuple[bool, List[str]]:
    """Validate every node of ``d`` against its labelled rule schema.

    Returns ``(ok, violations)``; all violations are collected rather than
    raised so a malformed tree can be reported in full.  Shared subderivations
    are checked once.
    """
    violations: List[str] = []
    _check_node(logic, d, violations, set())
    return (not violations, violations)

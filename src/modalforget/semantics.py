"""Bounded Kripke countermodel search, used as an independent test oracle.

The search saturates the root constraints tableau-style, then recursively
builds witnessing successor worlds for every negated box.  KD models are made
serial by routing successor-less world/agent pairs to a sink world; KT models
are closed under reflexivity at assembly time.  Models are tree-shaped plus
those closure edges, and the first model in a fixed enumeration order is
returned, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .calculus import Logic
from .syntax import (
    _AND, _BOT, _BOX, _FORALL, _IMP, _NEG, _OR, _VAR,
    Formula, NotFirstOrderError, Sequent, neg, require_first_order,
)


@dataclass(frozen=True)
class KripkeModel:
    """A finite pointed model; relations are per-agent edge sets."""

    worlds: Tuple[int, ...]
    relations: Dict[int, FrozenSet[Tuple[int, int]]]
    valuation: Dict[int, FrozenSet[str]]
    root: int


def eval_formula(m: KripkeModel, w: int, f: Formula) -> bool:
    """Standard forcing: boxes quantify over the agent's successors of ``w``."""
    if w not in m.worlds:
        raise ValueError(f"world {w} is not in the model")
    tag = f.tag
    if tag == _VAR:
        return f.name in m.valuation.get(w, frozenset())
    if tag == _BOT:
        return False
    if tag == _NEG:
        return not eval_formula(m, w, f.sub)
    if tag == _AND:
        return eval_formula(m, w, f.left) and eval_formula(m, w, f.right)
    if tag == _OR:
        return eval_formula(m, w, f.left) or eval_formula(m, w, f.right)
    if tag == _IMP:
        return (not eval_formula(m, w, f.left)) or eval_formula(m, w, f.right)
    if tag == _BOX:
        edges = m.relations.get(f.agent, frozenset())
        return all(eval_formula(m, v, f.sub) for (u, v) in edges if u == w)
    raise NotFirstOrderError("cannot evaluate a quantified formula")


def _add(truths: Set[Formula], queue: List[Formula], f: Formula) -> bool:
    """Assert ``f``; False signals an immediate clash."""
    if f.tag == _BOT:
        return False
    if f.tag == _VAR and neg(f) in truths:
        return False
    if f.tag == _NEG and f.sub.tag == _VAR and f.sub in truths:
        return False
    if f not in truths:
        truths.add(f)
        queue.append(f)
    return True


def _branches(truths: Set[Formula], queue: List[Formula],
              logic: Logic) -> Iterator[Set[Formula]]:
    """Yield saturated open branches extending the given state."""
    while queue:
        f = queue.pop(0)
        tag = f.tag
        if tag == _FORALL or (tag == _NEG and f.sub.tag == _FORALL):
            raise NotFirstOrderError("countermodel search is quantifier-free only")
        choices = None
        adds: List[Formula] = []
        if tag == _VAR:
            continue
        elif tag == _BOX:
            if logic is Logic.KT:
                adds = [f.sub]  # reflexivity: the body holds here as well
        elif tag == _AND:
            adds = [f.left, f.right]
        elif tag == _OR:
            choices = ([f.left], [f.right])
        elif tag == _IMP:
            choices = ([neg(f.left)], [f.right])
        else:  # negation, by the shape of the negated formula
            g = f.sub
            if g.tag in (_VAR, _BOT, _BOX):
                continue
            if g.tag == _NEG:
                adds = [g.sub]
            elif g.tag == _OR:
                adds = [neg(g.left), neg(g.right)]
            elif g.tag == _IMP:
                adds = [g.left, neg(g.right)]
            else:  # negated conjunction
                choices = ([neg(g.left)], [neg(g.right)])
        if choices is not None:
            for alternative in choices:
                branch_truths = set(truths)
                branch_queue = list(queue)
                if all(_add(branch_truths, branch_queue, a) for a in alternative):
                    yield from _branches(branch_truths, branch_queue, logic)
            return
        for a in adds:
            if not _add(truths, queue, a):
                return
    yield truths


@dataclass
class _Tree:
    valuation: FrozenSet[str]
    children: List[Tuple[int, "_Tree"]] = field(default_factory=list)
    sink_agents: Tuple[int, ...] = ()


def _boxes_by_agent(truths: Set[Formula]) -> Dict[int, List[Formula]]:
    out: Dict[int, List[Formula]] = {}
    for f in sorted(truths, key=lambda g: g.key):
        if f.tag == _BOX:
            out.setdefault(f.agent, []).append(f.sub)
    return out


def _find_tree(goal: List[Formula], depth: int, logic: Logic,
               universe: Tuple[int, ...]) -> Optional[_Tree]:
    truths: Set[Formula] = set()
    queue: List[Formula] = []
    if not all(_add(truths, queue, f) for f in goal):
        return None
    for branch in _branches(truths, queue, logic):
        tree = _realize(branch, depth, logic, universe)
        if tree is not None:
            return tree
    return None


def _realize(branch: Set[Formula], depth: int, logic: Logic,
             universe: Tuple[int, ...]) -> Optional[_Tree]:
    valuation = frozenset(f.name for f in branch if f.tag == _VAR)
    boxes = _boxes_by_agent(branch)
    neg_boxes = [f.sub for f in sorted(branch, key=lambda g: g.key)
                 if f.tag == _NEG and f.sub.tag == _BOX]
    children: List[Tuple[int, _Tree]] = []
    witnessed: Set[int] = set()
    for nb in neg_boxes:
        if depth <= 0:
            return None
        goal = [neg(nb.sub)] + boxes.get(nb.agent, [])
        child = _find_tree(goal, depth - 1, logic, universe)
        if child is None:
            return None
        children.append((nb.agent, child))
        witnessed.add(nb.agent)
    sink_agents: List[int] = []
    if logic is Logic.KD:
        for agent in universe:
            if agent in witnessed:
                continue
            bodies = boxes.get(agent, [])
            if bodies:
                if depth <= 0:
                    return None
                child = _find_tree(list(bodies), depth - 1, logic, universe)
                if child is None:
                    return None
                children.append((agent, child))
            else:
                sink_agents.append(agent)
    return _Tree(valuation, children, tuple(sink_agents))


def countermodel(logic: Logic, s: Sequent, depth: Optional[int] = None) -> Optional[KripkeModel]:
    """Search for a model of the logic falsifying ``s`` at its root.

    All antecedent members must hold and all succedent members must fail at
    the root.  ``depth`` bounds the successor chains explored; the default is
    the modal depth of the sequent, which suffices for completeness at the
    sizes this oracle is meant for.  ``None`` means no model was found within
    the bound.
    """
    require_first_order(s.formulas())
    if depth is None:
        depth = max((f.modal_depth for f in s.formulas()), default=0)
    goal = list(s.ant.members()) + [neg(f) for f in s.suc.members()]
    universe = tuple(sorted({g.agent for f in s.formulas()
                             for g in f.boxed_subformulas}))
    tree = _find_tree(goal, depth, logic, universe)
    if tree is None:
        return None

    worlds: List[int] = []
    valuation: Dict[int, FrozenSet[str]] = {}
    edges: Dict[int, Set[Tuple[int, int]]] = {a: set() for a in universe}

    def assemble(node: _Tree) -> int:
        wid = len(worlds)
        worlds.append(wid)
        valuation[wid] = node.valuation
        for agent, child in node.children:
            cid = assemble(child)
            edges.setdefault(agent, set()).add((wid, cid))
        for agent in node.sink_agents:
            needs_sink.append((wid, agent))
        return wid

    needs_sink: List[Tuple[int, int]] = []
    root = assemble(tree)
    if logic is Logic.KD and needs_sink:
        sink = len(worlds)
        worlds.append(sink)
        valuation[sink] = frozenset()
        for agent in universe:
            edges.setdefault(agent, set()).add((sink, sink))
        for wid, agent in needs_sink:
            edges.setdefault(agent, set()).add((wid, sink))
    if logic is Logic.KT:
        for agent in universe:
            for w in worlds:
                edges.setdefault(agent, set()).add((w, w))
    return KripkeModel(
        worlds=tuple(worlds),
        relations={a: frozenset(es) for a, es in edges.items()},
        valuation=valuation,
        root=root,
    )

"""Forgetting results are shared DAGs: hashing, the table memo and JSON output
must all cost time in the number of distinct nodes, not in the tree size."""

import json
import time

from modalforget import (
    Logic, Multiset, Sequent, and_, box, countermodel, eval_formula,
    forget_kkd, imp, multiset, neg, parse_formula, parse_sequent,
    post_interpolant, prove, render, var,
)
from modalforget.interpolation import AUDIT
from modalforget.output import formula_to_obj
from modalforget.syntax import _AND, _BOT, _BOX, _IMP, _NEG, _OR, _VAR

K, KD, KT = Logic.K, Logic.KD, Logic.KT
p, q = var("p"), var("q")


def ladder(rung):
    """A0 = p & q | r, A(n+1) = [1](An & (p -> [1]q))."""
    a = parse_formula("p & q | r")
    for _ in range(rung):
        a = box(1, and_(a, imp(p, box(1, q))))
    return a


def _table_calls(logic, a):
    before = AUDIT["table_calls_checked"]
    post_interpolant(logic, a, ["p"])
    return AUDIT["table_calls_checked"] - before


def _tree_and_dag(f):
    seen = set()

    def tree(g):
        seen.add(id(g))
        return 1 + sum(tree(k) for k in (g.sub, g.left, g.right) if k is not None)

    return tree(f), len(seen)


def _plain_obj(f):
    """The JSON object of ``f`` expanded as a tree, with no memo."""
    if f.tag == _VAR:
        return {"op": "var", "name": f.name}
    if f.tag == _BOT:
        return {"op": "bot"}
    if f.tag == _NEG:
        return {"op": "neg", "sub": _plain_obj(f.sub)}
    if f.tag == _BOX:
        return {"op": "box", "agent": f.agent, "sub": _plain_obj(f.sub)}
    op = {_AND: "and", _OR: "or", _IMP: "imp"}[f.tag]
    return {"op": op, "left": _plain_obj(f.left), "right": _plain_obj(f.right)}


def _plain_derivation(d):
    s = d.conclusion
    seq = {"ant": [_plain_obj(f) for f in s.ant.members()],
           "suc": [_plain_obj(f) for f in s.suc.members()]}
    if hasattr(s, "store"):
        seq["store"] = [_plain_obj(f) for f in s.store.members()]
    return {"sequent": seq, "rule": d.rule,
            "premises": [_plain_derivation(x) for x in d.premises]}


def test_deeply_shared_formula_constructs_instantly():
    # 2**60 leaves as a tree, 61 nodes as a DAG: hashing must not walk the tree.
    start = time.perf_counter()
    a = p
    for _ in range(60):
        a = and_(a, a)
    b = neg(a)
    c = box(1, a)
    assert time.perf_counter() - start < 0.5
    assert neg(a) is b and box(1, a) is c
    assert hash(b) == hash(neg(a)) and b != c
    assert and_(q, a) < and_(a, q)  # ordering still by key: var before and


def test_countermodel_of_deeply_shared_formula_is_fast():
    # => a with a = a & a sixty times over [1]p: the agents of the sequent
    # must be read off the DAG, not collected by walking its 2**60 leaves.
    a = box(1, p)
    for _ in range(60):
        a = and_(a, a)
    start = time.perf_counter()
    model = countermodel(K, Sequent(Multiset(), multiset(a)))
    assert time.perf_counter() - start < 1.0
    assert model is not None and not eval_formula(model, model.root, a)


def test_kt_ladder_rung3_is_fast_and_p_free():
    start = time.perf_counter()
    out = post_interpolant(KT, ladder(3), ["p"])
    assert time.perf_counter() - start < 2.0
    assert "p" not in out.free_vars
    assert out.free_vars <= {"q", "r"}


def test_k_ladder_table_calls_grow_linearly():
    calls = [_table_calls(K, ladder(n)) for n in range(1, 11)]
    steps = [b - a for a, b in zip(calls, calls[1:])]
    assert len(set(steps[1:])) == 1, calls  # a constant step: linear growth
    assert calls[7] <= 200, calls  # rung 8 made 28,430 calls unmemoized


def test_table_memo_is_per_call():
    a = ladder(5)
    first = _table_calls(KD, a)
    assert _table_calls(KD, a) == first
    assert post_interpolant(KD, a, ["p"]) is post_interpolant(KD, a, ["p"])


def test_memo_keeps_the_audit_on_hits():
    # [1]p, [1]p => : the two diamonds recurse into the same sub-sequent,
    # so one of the two table edges is a memo hit; both are audited.
    sequent = parse_sequent("[1]p, [1]p =>")
    before = AUDIT["table_calls_checked"]
    out = forget_kkd("p", sequent.ant, sequent.suc)
    assert AUDIT["table_calls_checked"] - before == 2
    assert out.left is out.right


def test_json_of_shared_interpolant_equals_plain_expansion():
    for logic, rung in ((K, 6), (KT, 2)):
        f = post_interpolant(logic, ladder(rung), ["p"])
        tree, dag = _tree_and_dag(f)
        assert tree > 20 * dag  # heavily shared
        assert render(f, "json") == json.dumps(_plain_obj(f), sort_keys=True)
        obj = formula_to_obj(f)
        assert obj == _plain_obj(f)
        ids = set()
        stack = [obj]
        while stack:
            o = stack.pop()
            if id(o) in ids:
                continue
            ids.add(id(o))
            stack.extend(v for v in o.values() if isinstance(v, dict))
        assert len(ids) == dag  # one dict per distinct subformula


def test_json_of_derivation_equals_plain_expansion():
    for logic, text in ((K, "[1](p & q), [1](p & q) => [1]p & [1](q & q)"),
                        (KT, "[1](p -> q), [1]p => q & [1]q & (q | q)")):
        result = prove(logic, parse_sequent(text))
        assert result.derivable
        expected = dict(_plain_derivation(result.derivation), schema="derivation/1")
        assert render(result.derivation, "json") == json.dumps(expected, sort_keys=True)

import random

import pytest

import randgen
from modalforget import (
    InterpolationProblem, Logic, Multiset, Sequent, and_, bot, box,
    exists_forget, forget_formula, forget_kkd, forget_t, free_vars,
    imp, multiset, neg, or_, parse_formula, post_interpolant, pre_interpolant,
    prove, substitute, top, var, verify_uniform,
)

K, KD, KT = Logic.K, Logic.KD, Logic.KT
p, q, r, s = var("p"), var("q"), var("r"), var("s")


def _derivable(logic, a, b):
    return prove(logic, Sequent(multiset(a), multiset(b))).derivable


def _interderivable(logic, a, b):
    return _derivable(logic, a, b) and _derivable(logic, b, a)


from modalforget.syntax import _AND, _BOX, _IMP, _NEG, _OR


def _flatten(f, tag):
    if f.tag == tag:
        yield from _flatten(f.left, tag)
        yield from _flatten(f.right, tag)
    else:
        yield f


def _normalize(f):
    """Order-insensitive form: flatten and sort chains of the same connective."""
    if f.tag in (_AND, _OR):
        parts = sorted((_normalize(g) for g in _flatten(f, f.tag)),
                       key=lambda g: g.key)
        out = parts[0]
        make = and_ if f.tag == _AND else or_
        for g in parts[1:]:
            out = make(out, g)
        return out
    if f.tag == _NEG:
        return neg(_normalize(f.sub))
    if f.tag == _BOX:
        return box(f.agent, _normalize(f.sub))
    if f.tag == _IMP:
        return imp(_normalize(f.left), _normalize(f.right))
    return f


def test_table_line_1_and_2():
    assert forget_kkd("p", multiset(p), multiset(p)) == top()
    assert forget_kkd("p", multiset(q, bot()), multiset()) == top()


def test_table_empty_cases():
    assert forget_kkd("p", Multiset(), Multiset()) == bot()
    assert forget_kkd("p", multiset(p), Multiset()) == bot()
    assert forget_kkd("p", Multiset(), multiset(p)) == bot()


def test_line_one_is_about_the_distinguished_variable_only():
    # A shared variable other than p surfaces as atoms in the disjunction,
    # not as an early top.
    out = forget_kkd("p", multiset(q), multiset(q))
    assert out == or_(q, neg(q))


def test_worked_example_golden():
    gamma = Multiset([parse_formula("[1](q & p)"), parse_formula("[2](s | r)"),
                      parse_formula("[2]r")])
    delta = Multiset([parse_formula("[3]r"), parse_formula("[2]s")])
    out = forget_kkd("p", gamma, delta)
    expected = parse_formula(
        "~[1]~~q"
        " | ~[2]~((~r | ~s) & (~r | ~r))"
        " | ~[2]~((~r | ~s) & (~r | ~r))"
        " | [2]((s | ~r | ~s) & (s | ~r | ~r))"
        " | [3]r"
    )
    assert out == expected
    reference = parse_formula(
        "<1>~q | <2>((~s | ~r) & (~r | ~r)) | <2>((~r | ~s) & (~r | ~r))"
        " | [3]r | [2]((~s | ~r | s) & (~r | ~r | s))"
    )
    assert _normalize(out) == _normalize(reference)
    assert _interderivable(K, out, reference)


def test_duplicate_disjuncts_are_kept():
    gamma = multiset(box(1, q), box(1, q))
    out = forget_kkd("p", gamma, Multiset())
    parts = list(_flatten(out, _OR))
    assert len(parts) == 2 and parts[0] == parts[1]


def test_vocabulary_never_contains_forgotten_variable():
    rng = random.Random(30)
    for _ in range(300):
        seq = randgen.sequent(rng)
        out = forget_kkd("p", seq.ant, seq.suc)
        assert "p" not in free_vars(out)
        vocab = set()
        for f in seq.formulas():
            vocab |= free_vars(f)
        assert free_vars(out) <= vocab - {"p"}


def test_condition_ii_kkd():
    rng = random.Random(31)
    for logic in (K, KD):
        for _ in range(200):
            seq = randgen.sequent(rng, 10)
            a = forget_kkd("p", seq.ant, seq.suc)
            assert prove(logic, Sequent(seq.ant.add(a), seq.suc)).derivable


def test_condition_iii_regression_p_dropping():
    # Dropping p at the critical stage is forced: with a bottom fallback the
    # extremality clause fails on Gamma={p,q}, Pi={~q}.
    a = forget_kkd("p", multiset(p, q), Multiset())
    assert a == neg(q)
    assert prove(K, Sequent(multiset(neg(q), p, q), Multiset())).derivable
    assert prove(K, Sequent(multiset(neg(q)), multiset(a))).derivable


def test_condition_iii_random():
    rng = random.Random(32)
    positives = 0
    for logic in Logic:
        for _ in range(150):
            seq = randgen.sequent(rng, 10)
            if logic is KT:
                a = forget_t("p", Multiset(), seq.ant, seq.suc)
            else:
                a = forget_kkd("p", seq.ant, seq.suc)
            pi = Multiset([randgen.formula(rng, rng.randint(1, 4), names=("q", "r"))
                           for _ in range(rng.randint(0, 2))])
            lam = Multiset([randgen.formula(rng, rng.randint(1, 4), names=("q", "r"))
                            for _ in range(rng.randint(0, 2))])
            if prove(logic, Sequent(pi.union(seq.ant), seq.suc.union(lam))).derivable:
                positives += 1
                assert prove(logic, Sequent(pi, lam.add(a))).derivable
    assert positives >= 100


def test_initial_case_lemmas():
    rng = random.Random(33)
    for logic in Logic:
        for _ in range(100):
            seq = randgen.sequent(rng, 8)
            if logic is KT:
                def forget(g, d):
                    return forget_t("p", Multiset(), g, d)
            else:
                def forget(g, d):
                    return forget_kkd("p", g, d)
            a1 = forget(seq.ant, seq.suc.add(q))
            assert prove(logic, Sequent(multiset(q), multiset(a1))).derivable
            a2 = forget(seq.ant.add(q), seq.suc)
            assert prove(logic, Sequent(multiset(neg(q)), multiset(a2))).derivable
            a3 = forget(seq.ant.add(q), seq.suc.add(q))
            assert prove(logic, Sequent(Multiset(), multiset(a3))).derivable


# The T-sequent table


def test_forget_t_line_1():
    assert forget_t("p", Multiset(), multiset(p), multiset(p)) == top()


def test_forget_t_barcan_identity():
    rng = random.Random(34)
    for _ in range(100):
        b = randgen.formula(rng, rng.randint(1, 8))
        lhs = forget_t("p", Multiset(), Multiset(), multiset(box(1, b)))
        rhs = box(1, forget_t("p", Multiset(), Multiset(), multiset(b)))
        assert lhs == rhs


def test_forget_t_store_only_sequent_yields_diamonds():
    # A nonempty store with empty sides still produces its diamond disjuncts;
    # a bottom here would break the extremality condition.
    out = forget_t("p", multiset(box(1, neg(r))), Multiset(), Multiset())
    assert out == neg(box(1, neg(r)))
    lam = box(1, neg(r))
    assert prove(KT, Sequent(Multiset(), multiset(out, lam))).derivable


def test_forget_t_condition_ii():
    rng = random.Random(35)
    for _ in range(200):
        seq = randgen.sequent(rng, 10)
        a = forget_t("p", Multiset(), seq.ant, seq.suc)
        assert prove(KT, Sequent(seq.ant.add(a), seq.suc)).derivable


def test_forget_t_vocabulary_example():
    out = forget_t("q", Multiset(), multiset(p), multiset(box(1, p)))
    assert free_vars(out) <= {"p"}
    assert prove(KT, Sequent(multiset(p, out), multiset(box(1, p)))).derivable


def test_forget_t_initial_cases_with_store():
    rng = random.Random(47)
    for _ in range(60):
        store = Multiset([box(rng.choice((1, 2)),
                              randgen.formula(rng, rng.randint(1, 4)))
                          for _ in range(rng.randint(1, 2))])
        seq = randgen.sequent(rng, 6)
        a1 = forget_t("p", store, seq.ant, seq.suc.add(q))
        assert prove(KT, Sequent(multiset(q), multiset(a1))).derivable
        a2 = forget_t("p", store, seq.ant.add(q), seq.suc)
        assert prove(KT, Sequent(multiset(neg(q)), multiset(a2))).derivable
        a3 = forget_t("p", store, seq.ant.add(q), seq.suc.add(q))
        assert prove(KT, Sequent(Multiset(), multiset(a3))).derivable


# Duals and iterated interpolants


def test_exists_forget_examples():
    assert exists_forget(K, "p", p) == neg(bot())
    out = exists_forget(K, "p", q)
    assert "p" not in free_vars(out)
    assert _derivable(K, q, out)
    out_t = exists_forget(KT, "p", box(1, bot()))
    assert _derivable(KT, box(1, bot()), out_t)


def test_post_interpolant_examples():
    a = parse_formula("p & q")
    assert post_interpolant(K, a, []) == a
    out = post_interpolant(K, a, ["p"])
    assert _derivable(K, a, out)
    assert _derivable(K, out, q)


def test_pre_interpolant_examples():
    b = parse_formula("p | q")
    assert pre_interpolant(K, b, []) == b
    out = pre_interpolant(K, b, ["p"])
    assert _derivable(K, out, b)
    assert _derivable(K, q, out)
    boxed = parse_formula("[1]q")
    out2 = pre_interpolant(KD, boxed, ["r"])
    assert _interderivable(KD, out2, boxed)


def test_interpolant_vocabulary_property():
    rng = random.Random(36)
    for logic in Logic:
        for _ in range(100):
            a = randgen.formula(rng, rng.randint(1, 9))
            names = sorted(free_vars(a))
            if not names:
                continue
            keep = rng.sample(names, k=rng.randint(0, len(names)))
            drop = [n for n in names if n not in keep]
            out = post_interpolant(logic, a, drop)
            assert not (free_vars(out) & set(drop))
            out2 = pre_interpolant(logic, a, drop)
            assert not (free_vars(out2) & set(drop))


def test_forget_distinct_variables_required():
    with pytest.raises(ValueError):
        post_interpolant(K, p, ["p", "p"])


def _tree_size(f, memo):
    """Node count of ``f`` written as a tree, counted over its shared DAG."""
    size = memo.get(f)
    if size is None:
        size = 1 + sum(_tree_size(k, memo) for k in (f.sub, f.left, f.right)
                       if k is not None)
        memo[f] = size
    return size


_FOLD_CAP = 3000  # tree nodes; a KT step on a larger input can run out of memory


def _fold(step, logic, a, forget):
    """The reference for forgetting a set: forget one variable at a time,
    right to left, each step running the table on the previous result.
    None once a result passes ``_FOLD_CAP`` tree nodes."""
    for name in reversed(list(forget)):
        a = step(logic, name, a)
        if _tree_size(a, {}) > _FOLD_CAP:
            return None
    return a


def _fold_post(logic, a, forget):
    return _fold(exists_forget, logic, a, forget)


def _fold_pre(logic, b, forget):
    return _fold(forget_formula, logic, b, forget)


def test_forgetting_a_set_is_equivalent_to_the_fold():
    rng = random.Random(7)
    compared = 0
    for logic in Logic:
        for one_pass, step, fold in ((post_interpolant, exists_forget, _fold_post),
                                     (pre_interpolant, forget_formula, _fold_pre)):
            for _ in range(150):
                a = randgen.formula(rng, rng.randint(3, 7))
                forget = rng.sample(randgen.VARS, k=rng.choice((2, 3)))
                assert one_pass(logic, a, forget[:1]) is step(logic, forget[0], a)
                expected = fold(logic, a, forget)
                if expected is not None:  # prove walks the fold's tree
                    out = one_pass(logic, a, forget)
                    assert not (free_vars(out) & set(forget))
                    assert _interderivable(logic, out, expected), (logic, a, forget)
                    compared += 1
    assert compared >= 850, compared


# Specialization and substitution lemmas


def test_specialization_instantiates():
    rng = random.Random(37)
    for logic in Logic:
        for _ in range(100):
            c = randgen.formula(rng, rng.randint(1, 7))
            b = randgen.formula(rng, rng.randint(1, 5))
            a = forget_formula(logic, "p", c)
            assert _derivable(logic, a, substitute(c, "p", b)), (logic, c, b)


def test_specialization_generalizes():
    rng = random.Random(38)
    positives = 0
    for logic in Logic:
        for _ in range(150):
            c = randgen.formula(rng, rng.randint(1, 6))
            seq = randgen.sequent(rng, 6, names=("q", "r"))
            if prove(logic, Sequent(seq.ant, seq.suc.add(c))).derivable:
                positives += 1
                a = forget_formula(logic, "p", c)
                assert prove(logic, Sequent(seq.ant, seq.suc.add(a))).derivable
    assert positives >= 60


def test_substitution_commutation():
    rng = random.Random(39)
    for logic in Logic:
        for _ in range(80):
            c = randgen.formula(rng, rng.randint(1, 7))
            b = randgen.formula(rng, rng.randint(1, 5), names=("r",))
            lhs = forget_formula(logic, "p", substitute(c, "q", b))
            rhs = substitute(forget_formula(logic, "p", c), "q", b)
            assert _interderivable(logic, lhs, rhs), (logic, c, b)


# Brute-force verification


def test_verify_uniform_post_example():
    report = verify_uniform(InterpolationProblem(K, ("p",), parse_formula("p & q"),
                                                 "post"), 5)
    assert report.vocab_ok and report.implication_ok and report.extremality_ok
    assert report.extremality_checked_up_to == 5


def test_verify_uniform_pre_example():
    report = verify_uniform(InterpolationProblem(KD, ("p",),
                                                 parse_formula("[1](p | q)"),
                                                 "pre"), 5)
    assert report.all_ok


def test_verify_uniform_kt_loop_formula():
    report = verify_uniform(InterpolationProblem(KT, ("p",),
                                                 parse_formula("<1>(p & q)"),
                                                 "post"), 5)
    assert report.all_ok


def test_forget_rejects_quantifiers():
    from modalforget import NotFirstOrderError, forall
    with pytest.raises(NotFirstOrderError):
        forget_kkd("p", multiset(forall("q", q)), Multiset())


def test_forget_t_rejects_unboxed_store_member():
    from modalforget import StoreError
    with pytest.raises(StoreError):
        forget_t("p", multiset(q), Multiset(), multiset(p))


def test_monotone_termination_audit_counts():
    from modalforget.interpolation import AUDIT
    before = AUDIT["table_calls_checked"]
    forget_kkd("p", multiset(parse_formula("p -> [1](q & r)")), multiset(q))
    assert AUDIT["table_calls_checked"] > before


def test_forgetting_absent_variable_is_equivalence():
    rng = random.Random(46)
    for logic in Logic:
        for _ in range(50):
            b = randgen.formula(rng, rng.randint(1, 8), names=("q", "r"))
            out = pre_interpolant(logic, b, ["p"])
            assert _interderivable(logic, out, b), (logic, b)
            out2 = post_interpolant(logic, b, ["p"])
            assert _interderivable(logic, out2, b), (logic, b)

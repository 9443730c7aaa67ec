import random

import pytest

import randgen
from modalforget import (
    Derivation, Logic, Multiset, NotFirstOrderError, Sequent, TSequent, and_,
    bot, box, check_derivation, forall, imp, multiset, naive_kt_prove, neg,
    or_, parse_formula, parse_sequent, post_interpolant, pre_interpolant,
    prove, prove_tplus, substitute, var,
)
from modalforget.calculus import critical_leaves, derivable

K, KD, KT = Logic.K, Logic.KD, Logic.KT
p, q = var("p"), var("q")


def _prove(logic, text):
    return prove(logic, parse_sequent(text))


def test_k_axiom_derivable_everywhere():
    for logic in Logic:
        assert _prove(logic, "=> [1](p -> q) -> ([1]p -> [1]q)").derivable


def test_d_axiom_separates_k_and_kd():
    assert not _prove(K, "=> ~[1]false").derivable
    assert _prove(KD, "=> ~[1]false").derivable


def test_t_axiom_separates_kt():
    assert _prove(KT, "=> [1]p -> p").derivable
    assert not _prove(K, "=> [1]p -> p").derivable
    assert not _prove(KD, "=> [1]p -> p").derivable


def test_every_derivable_result_checks():
    rng = random.Random(10)
    for logic in Logic:
        for _ in range(150):
            s = randgen.sequent(rng)
            result = prove(logic, s)
            if result.derivable:
                ok, violations = check_derivation(logic, result.derivation)
                assert ok, violations


def test_prove_rejects_quantifiers():
    s = Sequent(Multiset(), multiset(forall("p", p)))
    with pytest.raises(NotFirstOrderError):
        prove(K, s)


def test_identity_all_logics():
    rng = random.Random(11)
    for _ in range(500):
        a = randgen.formula(rng, rng.randint(1, 10))
        s = Sequent(multiset(a), multiset(a))
        for logic in Logic:
            assert prove(logic, s).derivable, (logic, a)


# T-sequent calculus


def test_tplus_loop_example_not_derivable():
    s = parse_sequent("p => ~[1]~(p & q)")
    t = TSequent(Multiset(), s.ant, s.suc)
    result = prove_tplus(t)
    assert not result.derivable


def test_tplus_identity_through_store():
    t = TSequent(Multiset(), multiset(box(1, p)), multiset(box(1, p)))
    result = prove_tplus(t)
    assert result.derivable
    rules = []

    def walk(d):
        rules.append(d.rule)
        for sub in d.premises:
            walk(sub)

    walk(result.derivation)
    assert rules == ["BoxTPlus", "BoxKPlus", "Init"]


def test_tplus_empty_sequent():
    assert not prove_tplus(TSequent(Multiset(), Multiset(), Multiset())).derivable


def test_tplus_accepts_initial_store():
    t = TSequent(multiset(box(1, p)), Multiset(), multiset(box(1, p)))
    result = prove_tplus(t)
    assert result.derivable
    assert result.derivation.rule == "BoxKPlus"


def test_tplus_rejects_bad_store():
    from modalforget import StoreError
    with pytest.raises(StoreError):
        TSequent(multiset(p), Multiset(), Multiset())


# Naive bounded KT search


def test_naive_t_axiom():
    assert naive_kt_prove(parse_sequent("=> [1]p -> p"), 10).derivable_within


def test_naive_loop_unknown():
    assert not naive_kt_prove(parse_sequent("p => <1>(p & q)"), 12).derivable_within


def test_naive_agreement_with_tplus():
    rng = random.Random(12)
    checked = 0
    for _ in range(300):
        s = randgen.sequent(rng, 10)
        n = naive_kt_prove(s, 12)
        if n.derivable_within:
            checked += 1
            ok, violations = check_derivation(KT, n.derivation)
            assert ok, violations
            assert prove(KT, s).derivable, s
    assert checked >= 30


def test_naive_derivations_respect_bound():
    rng = random.Random(13)
    for _ in range(100):
        s = randgen.sequent(rng, 8)
        n = naive_kt_prove(s, 6)
        if n.derivable_within:
            assert n.derivation.height() <= 6


# check_derivation on handcrafted trees


def test_check_rejects_boxk_with_leaked_context():
    # [1]p, [1]q => [1]q via BoxK but the premise forgets the [1]p body
    concl = Sequent(multiset(box(1, p), box(1, q)), multiset(box(1, q)))
    bad = Derivation(
        concl, "BoxK", (("suc", box(1, q)),),
        (Derivation(Sequent(multiset(q), multiset(q)), "Init",
                    (("ant", q), ("suc", q))),),
    )
    ok, violations = check_derivation(K, bad)
    assert not ok
    assert any("Σ contains □_1" in v for v in violations)


def test_check_rejects_boxd_with_empty_premise():
    concl = Sequent(multiset(p), Multiset())
    bad = Derivation(concl, "BoxD", (("ant", box(1, p)),),
                     (Derivation(Sequent(Multiset(), Multiset()), "Init", ()),))
    ok, violations = check_derivation(KD, bad)
    assert not ok


def test_check_rejects_wrong_logic_rule():
    d = _prove(KD, "=> ~[1]false").derivation
    ok, violations = check_derivation(K, d)
    assert not ok
    assert any("BoxD" in v for v in violations)


def test_check_rejects_wrong_propositional_premise():
    concl = Sequent(multiset(and_(p, q)), multiset(p))
    bad = Derivation(
        concl, "LAnd", (("ant", and_(p, q)),),
        (Derivation(Sequent(multiset(p), multiset(p)), "Init",
                    (("ant", p), ("suc", p))),),  # q went missing
    )
    ok, violations = check_derivation(K, bad)
    assert not ok
    assert any("does not match schema" in v for v in violations)


@pytest.mark.parametrize("kind", ["sequent", "tsequent"])
@pytest.mark.parametrize("label", ["LNeg", "LAnd", "LOr", "LImp",
                                   "RNeg", "RAnd", "ROr", "RImp"])
def test_check_rejects_malformed_propositional_principal(label, kind):
    side, other = ("ant", "suc") if label[0] == "L" else ("suc", "ant")
    f = {"Neg": neg(p), "And": and_(p, q), "Or": or_(p, q), "Imp": imp(p, q)}[label[1:]]

    def conclusion(g):
        sides = {side: multiset(g), other: Multiset()}
        if kind == "tsequent":
            return TSequent(multiset(box(1, q)), sides["ant"], sides["suc"])
        return Sequent(sides["ant"], sides["suc"])

    logic = KT if kind == "tsequent" else K
    cases = [
        (conclusion(q), ((side, q),), "has the wrong main connective"),
        (conclusion(q), ((side, f),), f"missing from the {side} side"),
        (conclusion(f), ((other, f),),
         f"no principal formula recorded on the {side} side"),
    ]
    for s, principal, message in cases:
        ok, violations = check_derivation(logic, Derivation(s, label, principal))
        assert not ok
        assert any(f"{label}: " in v and message in v for v in violations), violations


def test_check_rejects_boxtplus_with_wrong_store():
    from modalforget import Multiset as MS
    concl = TSequent(Multiset(), multiset(box(1, p)), multiset(box(1, p)))
    bad = Derivation(
        concl, "BoxTPlus", (("ant", box(1, p)),),
        (Derivation(TSequent(Multiset(), multiset(p), multiset(box(1, p))),
                    "BoxKPlus", (("suc", box(1, p)),),
                    (Derivation(TSequent(Multiset(), Multiset(), multiset(p)),
                                "Init", ()),)),),
    )
    ok, violations = check_derivation(KT, bad)
    assert not ok  # premise dropped the box from the store


def test_check_rejects_nonvariable_init():
    s = Sequent(multiset(box(1, p)), multiset(box(1, p)))
    bad = Derivation(s, "Init", (("ant", box(1, p)), ("suc", box(1, p))))
    ok, violations = check_derivation(K, bad)
    assert not ok
    assert any("not a propositional variable" in v for v in violations)


def test_check_accepts_valid_boxk_with_mixed_context():
    concl = Sequent(multiset(q, box(2, q), box(1, p)), multiset(box(1, p), bot()))
    d = Derivation(
        concl, "BoxK", (("suc", box(1, p)),),
        (Derivation(Sequent(multiset(p), multiset(p)), "Init",
                    (("ant", p), ("suc", p))),),
    )
    ok, violations = check_derivation(K, d)
    assert ok, violations


# Admissibility properties (the suite-level counts run in test_acceptance)


def _derivable_pairs(rng, logic, count):
    return randgen.derivable_sequents(rng, logic, count)


def test_weakening_admissible():
    rng = random.Random(14)
    for logic in Logic:
        for s in _derivable_pairs(rng, logic, 40):
            c = randgen.formula(rng, rng.randint(1, 6))
            assert prove(logic, Sequent(s.ant.add(c), s.suc)).derivable
            assert prove(logic, Sequent(s.ant, s.suc.add(c))).derivable


def test_contraction_admissible():
    rng = random.Random(15)
    for logic in Logic:
        hits = 0
        for _ in range(150):
            a = randgen.formula(rng, rng.randint(1, 6))
            s = randgen.sequent(rng, 8)
            left = Sequent(s.ant.add(a, 2), s.suc)
            if prove(logic, left).derivable:
                hits += 1
                assert prove(logic, Sequent(s.ant.add(a), s.suc)).derivable
            right = Sequent(s.ant, s.suc.add(a, 2))
            if prove(logic, right).derivable:
                hits += 1
                assert prove(logic, Sequent(s.ant, s.suc.add(a))).derivable
        assert hits >= 20


def test_cut_admissible():
    rng = random.Random(16)
    for logic in Logic:
        hits = 0
        for _ in range(250):
            a = randgen.formula(rng, rng.randint(1, 5))
            s1 = randgen.sequent(rng, 6)
            s2 = randgen.sequent(rng, 6)
            left = Sequent(s1.ant, s1.suc.add(a))
            right = Sequent(s2.ant.add(a), s2.suc)
            if prove(logic, left).derivable and prove(logic, right).derivable:
                hits += 1
                merged = Sequent(s1.ant.union(s2.ant), s1.suc.union(s2.suc))
                assert prove(logic, merged).derivable, (logic, a, s1, s2)
        assert hits >= 25


def test_substitution_admissible():
    rng = random.Random(17)
    for logic in Logic:
        for s in _derivable_pairs(rng, logic, 40):
            b = randgen.formula(rng, rng.randint(1, 5))
            name = rng.choice(randgen.VARS)
            sub = Sequent(
                Multiset([substitute(f, name, b) for f in s.ant.members()]),
                Multiset([substitute(f, name, b) for f in s.suc.members()]),
            )
            assert prove(logic, sub).derivable, (logic, s, name, b)


def test_congruence_boxfree_context():
    # The literal local form holds when the substituted variable sits outside
    # every box; under a box the root equivalence says nothing about
    # successors (see the regression test below).
    rng = random.Random(18)
    for logic in Logic:
        for _ in range(60):
            a = randgen.formula(rng, rng.randint(1, 4))
            b = randgen.formula(rng, rng.randint(1, 4))
            c = randgen.formula(rng, rng.randint(1, 5), agents=())
            iff = and_(imp(a, b), imp(b, a))
            s = Sequent(multiset(iff, substitute(c, "q", b)),
                        multiset(substitute(c, "q", a)))
            assert prove(logic, s).derivable, (logic, a, b, c)


def _equivalent_variant(rng, b):
    from modalforget import or_, top
    make = rng.choice([
        lambda f: neg(neg(f)),
        lambda f: and_(f, f),
        lambda f: or_(f, f),
        lambda f: and_(f, top()),
        lambda f: or_(f, bot()),
        lambda f: imp(top(), f),
    ])
    return make(b)


def test_congruence_replacement_for_modal_contexts():
    # For modal contexts the sound reading needs the equivalence to be
    # derivable outright, not merely assumed at the root.
    rng = random.Random(19)
    from modalforget import or_
    for logic in Logic:
        for _ in range(60):
            b = randgen.formula(rng, rng.randint(1, 4))
            a = _equivalent_variant(rng, b)
            c = randgen.formula(rng, rng.randint(1, 6))
            s = Sequent(multiset(substitute(c, "q", b)),
                        multiset(substitute(c, "q", a)))
            assert prove(logic, s).derivable, (logic, a, b, c)


def test_congruence_literal_form_fails_under_boxes():
    # Documented defect of the literal congruence statement: a boxed context
    # invalidates it, certified here by both the prover and a countermodel.
    from modalforget import countermodel, eval_formula, top
    a, b = neg(p), top()
    iff = and_(imp(a, b), imp(b, a))
    c = box(2, and_(var("q"), var("r")))
    s = Sequent(multiset(iff, substitute(c, "q", b)),
                multiset(substitute(c, "q", a)))
    for logic in Logic:
        assert not prove(logic, s).derivable
        m = countermodel(logic, s)
        assert m is not None
        assert all(eval_formula(m, m.root, f) for f in s.ant.members())
        assert not any(eval_formula(m, m.root, f) for f in s.suc.members())


def test_necessitation_closure():
    rng = random.Random(20)
    from modalforget import or_
    for logic in Logic:
        hits = 0
        for _ in range(300):
            a = randgen.formula(rng, rng.randint(1, 8))
            if rng.random() < 0.5:
                a = or_(a, neg(a)) if rng.random() < 0.5 else imp(a, a)
            if prove(logic, Sequent(Multiset(), multiset(a))).derivable:
                hits += 1
                boxed = Sequent(Multiset(), multiset(box(1, a)))
                assert prove(logic, boxed).derivable
        assert hits >= 50


def test_stats_populated_on_failure():
    result = _prove(K, "=> [1]p -> p")
    assert not result.derivable
    assert result.stats.nodes_expanded >= 1


def test_agents_do_not_interact():
    from modalforget import countermodel, render
    s = parse_sequent("[1]p => [2]p")
    for logic in Logic:
        assert not prove(logic, s).derivable
        assert countermodel(logic, s) is not None


def test_prove_deterministic():
    from modalforget import render
    rng = random.Random(21)
    for _ in range(50):
        s = randgen.sequent(rng)
        for logic in Logic:
            first = prove(logic, s)
            second = prove(logic, s)
            assert first.derivable == second.derivable
            if first.derivable:
                assert render(first.derivation, "json") == render(
                    second.derivation, "json")


def test_critical_leaves_decide_every_entailment():
    """``x`` entails ``c`` exactly when every critical leaf of ``x =>`` (or of
    ``=> x`` for ``c => x``) is derivable with ``c`` added: the eager rules are
    invertible and leave ``c`` idle, and axioms stay axioms.  Every fourth
    ``x`` is a true interpolant, so long machine-built subjects split too."""
    rng = random.Random(9)
    checked = derived = 0
    for logic in Logic:
        for post in (True, False):
            interpolant = post_interpolant if post else pre_interpolant
            for i in range(2000):
                x = randgen.formula(rng, rng.randint(2, 8))
                if i % 4 == 3:
                    x = interpolant(logic, x, ("p",))
                c = randgen.formula(rng, rng.randint(1, 6))
                one, c_ms, none = Multiset((x,)), Multiset((c,)), Multiset()
                if post:  # x => c
                    s, root = Sequent(one, c_ms), Sequent(one, none)
                    add = lambda t: t.with_sides(t.ant, t.suc.add(c))
                else:  # c => x
                    s, root = Sequent(c_ms, one), Sequent(none, one)
                    add = lambda t: t.with_sides(t.ant.add(c), t.suc)
                memo = {}
                split = all(derivable(logic, add(t), memo)
                            for t in critical_leaves(logic, root))
                assert split == prove(logic, s).derivable, (logic, s)
                checked += 1
                derived += split
    assert checked == 12000
    assert 2000 < derived < 10000, derived  # both verdicts well represented

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every test asserts both the criterion itself and its runtime budget.
"""

import random
import time

import randgen
from modalforget import (
    InterpolationProblem, Logic, Multiset, Sequent, and_, bot, box,
    countermodel, forget_kkd, forget_t, free_vars, imp, multiset,
    naive_kt_prove, neg, or_, parse_formula, parse_sequent, prove, substitute,
    top, verify_uniform,
)
from modalforget.calculus import AUDIT as SEARCH_AUDIT
from modalforget.interpolation import AUDIT as TABLE_AUDIT

K, KD, KT = Logic.K, Logic.KD, Logic.KT


def _report(number: int, started: float, limit: float, detail: str) -> None:
    elapsed = time.time() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) {detail}")


def _derivable(logic, a, b):
    return prove(logic, Sequent(multiset(a), multiset(b))).derivable


def test_criterion_1_golden_interpolant():
    start = time.time()
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
    assert _derivable(K, out, reference) and _derivable(K, reference, out)
    _report(1, start, 1.0, "worked example matches modulo fixed ordering, "
                           "interderivable with the reference rendering")


def test_criterion_2_axiom_matrix():
    start = time.time()
    k_axiom = parse_sequent("=> [1](p -> q) -> ([1]p -> [1]q)")
    for logic in Logic:
        assert prove(logic, k_axiom).derivable
    d_axiom = parse_sequent("=> ~[1]false")
    assert prove(KD, d_axiom).derivable
    assert not prove(K, d_axiom).derivable
    t_axiom = parse_sequent("=> [1]p -> p")
    assert prove(KT, t_axiom).derivable
    assert not prove(K, t_axiom).derivable
    assert not prove(KD, t_axiom).derivable
    rng = random.Random(100)
    for logic in Logic:
        hits = 0
        attempts = 0
        while hits < 100:
            attempts += 1
            assert attempts < 5000
            a = randgen.formula(rng, rng.randint(1, 8))
            if rng.random() < 0.5:
                a = or_(a, neg(a)) if rng.random() < 0.5 else imp(a, a)
            if prove(logic, Sequent(Multiset(), multiset(a))).derivable:
                hits += 1
                for agent in (1, 2):
                    boxed = Sequent(Multiset(), multiset(box(agent, a)))
                    assert prove(logic, boxed).derivable
    _report(2, start, 10.0, "axiom matrix and necessitation closure on "
                            "100 derivable formulas per logic")


def test_criterion_3_loop_example():
    start = time.time()
    loop = parse_sequent("p => <1>(p & q)")
    result = prove(KT, loop)
    assert not result.derivable
    naive = naive_kt_prove(loop, 12)
    assert not naive.derivable_within
    _report(3, start, 1.0, "loop sequent refuted by the T-sequent calculus; "
                           "naive search at bound 12 stays unknown")


def test_criterion_4_main_theorem_suite():
    start = time.time()
    rng = random.Random(101)
    sequents = [randgen.sequent(rng) for _ in range(500)]
    iii_positives = 0
    for logic in Logic:
        for seq in sequents:
            if logic is KT:
                a = forget_t("p", Multiset(), seq.ant, seq.suc)
            else:
                a = forget_kkd("p", seq.ant, seq.suc)
            vocab = set()
            for f in seq.formulas():
                vocab |= free_vars(f)
            assert free_vars(a) <= vocab - {"p"}
            assert prove(logic, Sequent(seq.ant.add(a), seq.suc)).derivable
            for _ in range(3):
                pi = Multiset([randgen.formula(rng, rng.randint(1, 4),
                                               names=("q", "r"))
                               for _ in range(rng.randint(0, 2))])
                lam = Multiset([randgen.formula(rng, rng.randint(1, 4),
                                                names=("q", "r"))
                                for _ in range(rng.randint(0, 2))])
                premise = Sequent(pi.union(seq.ant), seq.suc.union(lam))
                if prove(logic, premise).derivable:
                    iii_positives += 1
                    assert prove(logic, Sequent(pi, lam.add(a))).derivable
    assert iii_positives >= 500
    _report(4, start, 300.0, f"conditions (i)-(iii) on 500 sequents x 3 logics "
                             f"({iii_positives} extremality instances)")


def test_criterion_5_admissibility_suite():
    start = time.time()
    rng = random.Random(102)
    counts = dict(weakening=0, contraction=0, cut=0, substitution=0,
                  congruence=0)
    for logic in Logic:
        for seq in randgen.derivable_sequents(rng, logic, 100):
            c = randgen.formula(rng, rng.randint(1, 6))
            assert prove(logic, Sequent(seq.ant.add(c), seq.suc)).derivable
            assert prove(logic, Sequent(seq.ant, seq.suc.add(c))).derivable
            counts["weakening"] += 1
        hits = 0
        while hits < 100:
            a = randgen.formula(rng, rng.randint(1, 6))
            seq = randgen.sequent(rng, 8)
            left = Sequent(seq.ant.add(a, 2), seq.suc)
            if prove(logic, left).derivable:
                hits += 1
                assert prove(logic, Sequent(seq.ant.add(a), seq.suc)).derivable
                counts["contraction"] += 1
                continue
            right = Sequent(seq.ant, seq.suc.add(a, 2))
            if prove(logic, right).derivable:
                hits += 1
                assert prove(logic, Sequent(seq.ant, seq.suc.add(a))).derivable
                counts["contraction"] += 1
        hits = 0
        while hits < 100:
            a = randgen.formula(rng, rng.randint(1, 5))
            s1 = randgen.sequent(rng, 6)
            s2 = randgen.sequent(rng, 6)
            if rng.random() < 0.4:
                s1 = Sequent(s1.ant.add(a), s1.suc)
                s2 = Sequent(s2.ant, s2.suc.add(a))
            left = Sequent(s1.ant, s1.suc.add(a))
            right = Sequent(s2.ant.add(a), s2.suc)
            if prove(logic, left).derivable and prove(logic, right).derivable:
                hits += 1
                merged = Sequent(s1.ant.union(s2.ant), s1.suc.union(s2.suc))
                assert prove(logic, merged).derivable
                counts["cut"] += 1
        for seq in randgen.derivable_sequents(rng, logic, 100):
            b = randgen.formula(rng, rng.randint(1, 5))
            name = rng.choice(randgen.VARS)
            subbed = Sequent(
                Multiset([substitute(f, name, b) for f in seq.ant.members()]),
                Multiset([substitute(f, name, b) for f in seq.suc.members()]),
            )
            assert prove(logic, subbed).derivable
            counts["substitution"] += 1
        for _ in range(100):
            b = randgen.formula(rng, rng.randint(1, 4))
            if rng.random() < 0.5:
                # literal local form, box-free context
                a = randgen.formula(rng, rng.randint(1, 4))
                ctx = randgen.formula(rng, rng.randint(1, 5), agents=())
                iff = and_(imp(a, b), imp(b, a))
                seq = Sequent(multiset(iff, substitute(ctx, "q", b)),
                              multiset(substitute(ctx, "q", a)))
            else:
                # replacement form for modal contexts: equivalence derivable
                a = rng.choice([
                    neg(neg(b)), and_(b, b), or_(b, b), and_(b, top()),
                    or_(b, bot()), imp(top(), b),
                ])
                ctx = randgen.formula(rng, rng.randint(1, 6))
                seq = Sequent(multiset(substitute(ctx, "q", b)),
                              multiset(substitute(ctx, "q", a)))
            assert prove(logic, seq).derivable
            counts["congruence"] += 1
    assert all(n >= 300 for n in counts.values()), counts
    _report(5, start, 300.0, f"admissibility instances: {counts}")


def test_criterion_6_oracle_agreement():
    start = time.time()
    rng = random.Random(103)
    for logic in Logic:
        for _ in range(500):
            seq = randgen.sequent(rng)
            derivable = prove(logic, seq).derivable
            model = countermodel(logic, seq)
            if derivable:
                assert model is None, (logic, seq)
            else:
                assert model is not None, (logic, seq)
    _report(6, start, 300.0, "prove and countermodel agree on 500 sequents "
                             "per logic")


def test_criterion_7_termination_audit():
    start = time.time()
    edges_before = SEARCH_AUDIT["edges_checked"]
    table_before = TABLE_AUDIT["table_calls_checked"]
    # Its own workload, so the criterion holds when run alone: forget p in
    # 1,000 random sequents per logic, then prove the interpolant does its
    # job (Gamma, I => Delta, and => I whenever Gamma => Delta is derivable).
    rng = random.Random(107)
    sequents = [randgen.sequent(rng) for _ in range(1000)]
    for logic in Logic:
        for seq in sequents:
            if logic is KT:
                a = forget_t("p", Multiset(), seq.ant, seq.suc)
            else:
                a = forget_kkd("p", seq.ant, seq.suc)
            assert prove(logic, Sequent(seq.ant.add(a), seq.suc)).derivable
            if prove(logic, seq).derivable:
                assert prove(logic, Sequent(Multiset(), multiset(a))).derivable
    edges = SEARCH_AUDIT["edges_checked"] - edges_before
    table = TABLE_AUDIT["table_calls_checked"] - table_before
    # The audits raise immediately on any violation, so the workload passing
    # means zero violations; here we confirm they actually ran.
    assert edges > 50_000, edges
    assert table > 5_000, table
    _report(7, start, 10.0, f"well-order audits exercised with zero violations "
                            f"({edges} search edges, {table} table calls)")


def test_criterion_8_barcan_identity():
    start = time.time()
    rng = random.Random(104)
    for _ in range(200):
        b = randgen.formula(rng, rng.randint(1, 8))
        agent = rng.choice((1, 2))
        for logic in Logic:
            if logic is KT:
                lhs = forget_t("p", Multiset(), Multiset(), multiset(box(agent, b)))
                rhs = box(agent, forget_t("p", Multiset(), Multiset(), multiset(b)))
            else:
                lhs = forget_kkd("p", Multiset(), multiset(box(agent, b)))
                rhs = box(agent, forget_kkd("p", Multiset(), multiset(b)))
            assert lhs == rhs
    _report(8, start, 10.0, "box commutes with forgetting syntactically, "
                            "200 formulas x 3 logics")


def test_criterion_9_uip_brute_force():
    start = time.time()
    rng = random.Random(105)
    for logic in Logic:
        for side in ("pre", "post"):
            for _ in range(50):
                subject = randgen.formula(rng, rng.randint(2, 7),
                                          names=("p", "q"), agents=(1,),
                                          max_box_depth=2)
                problem = InterpolationProblem(logic, ("p",), subject, side)
                report = verify_uniform(problem, 5)
                assert report.vocab_ok, (logic, side, subject)
                assert report.implication_ok, (logic, side, subject)
                assert report.extremality_ok, (logic, side, subject)
                assert report.extremality_checked_up_to == 5
    _report(9, start, 600.0, "verify_uniform at weight bound 5 on 50 formulas "
                             "per logic per side, all flags true")

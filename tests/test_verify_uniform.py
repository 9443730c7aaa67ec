"""``verify_uniform`` against the brute-force loop it replaces.

``_reference_report`` is the extremality check as a plain loop: one ``prove``
call per entailment, over every candidate partner formula up to the weight
bound.  ``verify_uniform`` must report exactly its flags, on true
interpolants and on mutants that break the defining clauses, and the
countermodels it reuses must be models of the logic that falsify their
sequent.
"""

import random
import tracemalloc

import pytest

import randgen
from modalforget import (
    InterpolationProblem, Logic, Multiset, Sequent, and_, bot, box, calculus,
    countermodel, eval_formula, interpolation, neg, or_, prove, top, var,
    verify_uniform,
)
from test_golden import _corpus as golden_corpus

_TRUE_POST = interpolation.post_interpolant
_TRUE_PRE = interpolation.pre_interpolant

MUTANTS = {
    "true": lambda i: i,
    "I | q": lambda i: or_(i, var("q")),
    "I & q": lambda i: and_(i, var("q")),
    "top": lambda i: top(),
    "bot": lambda i: bot(),
    "~I": lambda i: neg(i),
    "[1]I": lambda i: box(1, i),
}


def _reference_report(problem, weight_bound):
    """The flags of ``problem`` by brute force: (vocab, implication, extremality)."""
    logic, subject, post = problem.logic, problem.subject, problem.side == "post"
    side = interpolation.post_interpolant if post else interpolation.pre_interpolant
    interp = side(logic, subject, problem.forget)

    def entails(a, b):
        if not post:
            a, b = b, a
        return interpolation.prove(logic, Sequent(Multiset((a,)), Multiset((b,)))).derivable

    implication_ok = entails(subject, interp)
    vocab_ok = not (interp.free_vars & set(problem.forget))
    names = sorted(subject.free_vars - set(problem.forget))
    agents = sorted({f.agent for f in subject.boxed_subformulas})
    extremality_ok = True
    for batch in interpolation._candidates_up_to(weight_bound, names, agents)[1:]:
        for c in batch:
            if entails(subject, c) and not entails(interp, c):
                extremality_ok = False
    return vocab_ok, implication_ok, extremality_ok


def _flags(report):
    return report.vocab_ok, report.implication_ok, report.extremality_ok


def _use_mutant(monkeypatch, mutate):
    monkeypatch.setattr(interpolation, "post_interpolant",
                        lambda logic, a, forget: mutate(_TRUE_POST(logic, a, forget)))
    monkeypatch.setattr(interpolation, "pre_interpolant",
                        lambda logic, b, forget: mutate(_TRUE_PRE(logic, b, forget)))


def _differential_corpus():
    rng = random.Random(4101)
    out = []
    for logic in Logic:
        for side in ("pre", "post"):
            for _ in range(25):
                subject = randgen.formula(rng, rng.randint(2, 6), max_box_depth=2)
                out.append(InterpolationProblem(logic, ("p",), subject, side))
    return out


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_flags_match_brute_force(monkeypatch, mutant):
    _use_mutant(monkeypatch, MUTANTS[mutant])
    caught = 0
    for problem in _differential_corpus():
        report = verify_uniform(problem, 4)
        expected = _reference_report(problem, 4)
        assert _flags(report) == expected, (mutant, problem)
        assert report.extremality_checked_up_to == 4
        caught += not report.extremality_ok
    # The true interpolant passes everywhere; each mutant breaks the
    # extremality clause on some subject, so the check can fail.
    assert (caught == 0) if mutant == "true" else (caught > 0), caught


def test_countermodels_are_models_of_the_logic():
    """Every underivable golden-corpus sequent gets a model of its logic that
    falsifies it: reflexive in KT and serial in KD for each agent of the
    sequent.  Reusing a countermodel for a later entailment relies on this."""
    models = 0
    for logic in Logic:
        for s, _ in golden_corpus(logic):
            if prove(logic, s).derivable:
                continue
            m = countermodel(logic, s)
            assert m is not None, (logic, s)
            models += 1
            assert all(eval_formula(m, m.root, f) for f in s.ant.members()), (logic, s)
            assert not any(eval_formula(m, m.root, f) for f in s.suc.members()), (logic, s)
            agents = {g.agent for f in s.formulas() for g in f.boxed_subformulas}
            for agent in agents:
                edges = m.relations.get(agent, frozenset())
                for w in m.worlds:
                    if logic is Logic.KT:
                        assert (w, w) in edges, (logic, s, agent, w)
                    if logic is Logic.KD:
                        assert any(u == w for u, _ in edges), (logic, s, agent, w)
    assert models == 685  # 233 K, 233 KD, 219 KT


def test_extremality_needs_at_most_half_the_prove_calls(monkeypatch):
    """On criterion 9's first 30 problems (seed 105, bound 5) the shortcuts
    leave at most half the ``prove`` calls of the brute-force loop."""
    rng = random.Random(105)
    problems = []
    for _ in range(30):  # criterion 9 draws its K, pre-side problems first
        subject = randgen.formula(rng, rng.randint(2, 7), names=("p", "q"),
                                  agents=(1,), max_box_depth=2)
        problems.append(InterpolationProblem(Logic.K, ("p",), subject, "pre"))
    calls = [0]

    def counting_prove(*args):
        calls[0] += 1
        return prove(*args)

    monkeypatch.setattr(interpolation, "prove", counting_prove)
    flags = [_flags(verify_uniform(p, 5)) for p in problems]
    new, calls[0] = calls[0], 0
    assert flags == [_reference_report(p, 5) for p in problems]
    assert new <= calls[0] // 2, (new, calls[0])


def test_extremality_audits_few_search_edges():
    """On the same 30 problems the extremality check splits the subject and
    the interpolant once each, rather than decomposing them again for every
    candidate, so at most 7,500 search edges are audited in all."""
    rng = random.Random(105)
    problems = []
    for _ in range(30):
        subject = randgen.formula(rng, rng.randint(2, 7), names=("p", "q"),
                                  agents=(1,), max_box_depth=2)
        problems.append(InterpolationProblem(Logic.K, ("p",), subject, "pre"))
    before = calculus.AUDIT["edges_checked"]
    for problem in problems:
        assert verify_uniform(problem, 5).all_ok, problem
    edges = calculus.AUDIT["edges_checked"] - before
    assert edges <= 7500, edges


def test_extremality_memory_stays_small():
    """A KT subject whose searches reach thousands of sequents per entailment
    keeps its peak allocation under 1 MB: no search memo outlives the
    candidate it was made for.  A warm-up call first interns the candidate
    formulas, which live on in the process-wide intern table."""
    subject = box(1, or_(box(1, var("q")), var("q")))  # [1]([1]q | q)
    problem = InterpolationProblem(Logic.KT, ("p",), subject, "post")
    assert verify_uniform(problem, 5).all_ok
    tracemalloc.start()
    try:
        verify_uniform(problem, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak

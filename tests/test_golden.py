"""Golden outputs over a seeded random corpus, pinned byte for byte.

For each logic the corpus is 300 ``randgen`` sequents.  Three digests are
pinned: the rendered text of the forgetting tables (``forget_kkd`` for K/KD,
``forget_t`` with an empty and with a non-empty store for KT), the JSON of
every ``prove`` derivation (with its search statistics), and the JSON of the
height-bounded naive KT derivations.  The exact audit counts (search edges
and table calls) over the same corpus are pinned too, so a refactor of the
search or the tables must reproduce both the output and the work done.
The JSON countermodel of every underivable corpus sequent is pinned as well,
so a change to the model search must build identical models.
"""

import hashlib
import random

import randgen
from modalforget import (
    CaptureError, Logic, Multiset, TSequent, and_, box, check_derivation,
    countermodel, eliminate_quantifiers, forall, forget_kkd, forget_t, naive_kt_prove, neg,
    or_, prove, prove_tplus, render, replay_trace, substitute, var,
)
from modalforget.calculus import AUDIT as SEARCH_AUDIT
from modalforget.interpolation import AUDIT as TABLE_AUDIT

CORPUS = 300
SEEDS = {Logic.K: 3101, Logic.KD: 3102, Logic.KT: 3103}


def _corpus(logic):
    rng = random.Random(SEEDS[logic])
    out = []
    for _ in range(CORPUS):
        s = randgen.sequent(rng)
        store = Multiset(box(rng.choice(randgen.AGENTS),
                             randgen.formula(rng, 3, max_box_depth=1))
                         for _ in range(rng.randint(1, 2)))
        out.append((s, store))
    return out


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _forget_outputs(logic, corpus):
    before = TABLE_AUDIT["table_calls_checked"]
    lines = []
    for s, store in corpus:
        for p in ("p", "q"):
            if logic is Logic.KT:
                lines.append(render(forget_t(p, Multiset(), s.ant, s.suc), "text"))
                lines.append(render(forget_t(p, store, s.ant, s.suc), "text"))
            else:
                lines.append(render(forget_kkd(p, s.ant, s.suc), "text"))
    return _digest(lines), TABLE_AUDIT["table_calls_checked"] - before


def _proof_outputs(logic, corpus):
    before = SEARCH_AUDIT["edges_checked"]
    lines = []
    for s, store in corpus:
        results = [prove(logic, s)]
        if logic is Logic.KT:
            results.append(prove_tplus(TSequent(store, s.ant, s.suc)))
        for r in results:
            st = r.stats
            lines.append(f"{st.nodes_expanded} {st.max_depth}")
            if r.derivable:
                assert check_derivation(logic, r.derivation)[0]
                lines.append(render(r.derivation, "json"))
            else:
                lines.append("underivable")
    return _digest(lines), SEARCH_AUDIT["edges_checked"] - before


# logic -> (forget digest, table calls, prove digest, search edges)
GOLDEN = {
    Logic.K: ("9a5dfcd241e07e920d51f69f8db3c49ad69c9a902f0c4ff3f65bc923274008b5", 2166,
              "57a3ef6f820781cb98a06781b4fa4b446ab6cb2c206f0ff2c13e5d1dd7a2f48d", 603),
    Logic.KD: ("a3c20c831a15bd2a3aa84c8721454221de6f7f42b3458f9e605ba14c197d3411", 2255,
               "174134c0565fa28f1c060a0f8b29d80a2870904c9cca8280258f37d2dca36bea", 710),
    Logic.KT: ("b1d5173b4bd8281ace715d9605d4c2aa1f234fa5faadf82c2e627dc7e034d9af", 8589,
               "d0a86bf073b96e206ad585bf9bc23f319f2c7f9df7f9fb51ca58ee9af46b6a00", 1533),
}
NAIVE_GOLDEN = "49d9abab002d98b1e9fdf5dd80b317e6b0aff39d66c225caf090c69599856b1f"


def test_forgetting_and_proofs_are_golden():
    for logic in Logic:
        corpus = _corpus(logic)
        got = _forget_outputs(logic, corpus) + _proof_outputs(logic, corpus)
        assert got == GOLDEN[logic], (logic, got)


def test_naive_kt_derivations_are_golden():
    lines = []
    for s, _ in _corpus(Logic.KT)[:150]:
        r = naive_kt_prove(s, 6)
        st = r.stats
        lines.append(f"{st.nodes_expanded} {st.max_depth}")
        lines.append(render(r.derivation, "json") if r.derivable_within else "unknown")
    assert _digest(lines) == NAIVE_GOLDEN


def _renderings(x):
    return [render(x, "text"), render(x, "latex")]


def _render_outputs(logic, corpus):
    lines = []
    for s, store in corpus:
        for f in [*s.ant.members(), *s.suc.members(), *store.members()]:
            lines += _renderings(f)
        t = TSequent(store, s.ant, s.suc)
        lines += _renderings(s) + _renderings(t)
        results = [prove(logic, s)]
        if logic is Logic.KT:
            results.append(prove_tplus(t))
        for r in results:
            lines += _renderings(r.derivation) if r.derivable else ["underivable"]
    return _digest(lines)


# logic -> digest of the text and LaTeX renderings
RENDER_GOLDEN = {
    Logic.K: "8af466590cfeef0452c2bc123a510d1187746b1c04cb8348b58278dd97c021a3",
    Logic.KD: "5b2a3dbf0691d0bbf263270f559331b23cb118b42cd050dd046e5df79b007725",
    Logic.KT: "d2fca8ab2d891341d625aa27209a4ebd5ea536c9c5fab6103db0ec2e8e562ec0",
}
NAIVE_RENDER_GOLDEN = "5187862b436d1c9d24ba323d1e686841ed35487a4dabb239d93316db6caa7d8c"


def test_text_and_latex_renderings_are_golden():
    for logic in Logic:
        assert _render_outputs(logic, _corpus(logic)) == RENDER_GOLDEN[logic], logic


def test_naive_kt_renderings_are_golden():
    lines = []
    for s, _ in _corpus(Logic.KT)[:150]:
        r = naive_kt_prove(s, 6)
        lines += _renderings(r.derivation) if r.derivable_within else ["unknown"]
    assert _digest(lines) == NAIVE_RENDER_GOLDEN


def _l2_formulas(logic, corpus):
    """One L2 formula per corpus entry, cycling through four quantifier shapes:
    ``forall``, ``B | forall``, ``[1]forall`` and ``~forall(.. | forall ..)``."""
    rng = random.Random(SEEDS[logic] + 1000)
    out = []
    for i in range(len(corpus)):
        a = randgen.formula(rng, rng.randint(1, 6), max_box_depth=2)
        b = randgen.formula(rng, rng.randint(1, 4), max_box_depth=1)
        v, w = rng.choice(randgen.VARS), rng.choice(randgen.VARS)
        inner = forall(v, a)
        shape = i % 4
        if shape == 0:
            out.append(inner)
        elif shape == 1:
            out.append(or_(b, inner))
        elif shape == 2:
            out.append(box(1, inner))
        else:
            out.append(neg(forall(w, or_(b, inner))))
    return out


_SUBSTITUTE_BY = and_(var("r"), box(1, var("s")))


def _substitution_outputs(logic, corpus):
    lines = []
    formulas = [f for s, store in corpus
                for f in [*s.ant.members(), *s.suc.members(), *store.members()]]
    for f in formulas + _l2_formulas(logic, corpus):
        for p in ("p", "q"):
            try:
                lines.append(render(substitute(f, p, _SUBSTITUTE_BY), "text"))
            except CaptureError:
                lines.append("capture")
    return _digest(lines)


def _elimination_outputs(logic, corpus):
    lines = []
    for f in _l2_formulas(logic, corpus):
        out, trace = eliminate_quantifiers(logic, f)
        assert replay_trace(f, trace) == out
        lines.append(render(out, "text"))
        for v, before, after in trace.steps:
            lines.append(f"{v} {render(before, 'text')} {render(after, 'text')}")
    return _digest(lines)


# logic -> (substitute digest, eliminate_quantifiers digest)
SYNTAX_GOLDEN = {
    Logic.K: ("96c575879ad316fa0ddaa4dfa18e7a3f20f23c45daf23cb4b51a1e3c37d55edd",
              "b55567f9c2b41caa1972cbfd789410f2af8c7190d1d61d3bd223749945eb62e1"),
    Logic.KD: ("2009e5cb0631ea66423843ee9d0681810ececd2b4e300adc4662b8b1443eb9a2",
               "1282d669314899aa53892b78787c4d5f3de7d4a8ed11b127da919459741bd0b4"),
    Logic.KT: ("1fe18255844848c39fdb7735f3892ec21ecf69d53a1d6ef7bc90b3264a2f8c0f",
               "71af53ece3e0da4b28317ea4042e78594e4f86a4b8d0daca4aec960df9251973"),
}


def test_substitution_and_elimination_are_golden():
    for logic in Logic:
        corpus = _corpus(logic)
        got = (_substitution_outputs(logic, corpus), _elimination_outputs(logic, corpus))
        assert got == SYNTAX_GOLDEN[logic], (logic, got)


# logic -> digest of the JSON countermodel of every underivable corpus sequent
COUNTERMODEL_GOLDEN = {
    Logic.K: "a4ef1760a611a85f81b396718a1a9b1fd1f4f8d24fbadc7c6ae5fa96660fa44d",
    Logic.KD: "6e755a4bc04677e59f390f2ab062c57e4c9a139714b92d67d76f33a615737a0e",
    Logic.KT: "04f40664b8e9502c4f75e275cb9d77316b9e6b9802f80afa9df2bd25952bb42d",
}


def test_countermodels_are_golden():
    for logic in Logic:
        lines = []
        for s, _ in _corpus(logic):
            if not prove(logic, s).derivable:
                model = countermodel(logic, s)
                assert model is not None, (logic, s)
                lines.append(render(model, "json"))
        assert _digest(lines) == COUNTERMODEL_GOLDEN[logic], logic

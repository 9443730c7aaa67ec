"""Golden outputs over a seeded random corpus, pinned byte for byte.

For each logic the corpus is 300 ``randgen`` sequents.  Three digests are
pinned: the rendered text of the forgetting tables (``forget_kkd`` for K/KD,
``forget_t`` with an empty and with a non-empty store for KT), the JSON of
every ``prove`` derivation (with its search statistics), and the JSON of the
height-bounded naive KT derivations.  The exact audit counts (search edges
and table calls) over the same corpus are pinned too, so a refactor of the
search or the tables must reproduce both the output and the work done.
"""

import hashlib
import random

import randgen
from modalforget import (
    Logic, Multiset, TSequent, box, check_derivation, forget_kkd, forget_t,
    naive_kt_prove, prove, prove_tplus, render,
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

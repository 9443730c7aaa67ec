import json
import random

import pytest
from hypothesis import given, strategies as st

from modalforget import (
    Logic, ParseError, and_, bot, box, diamond, forall, imp, multiset, neg,
    or_, parse_formula, parse_sequent, prove, render, var,
)

p, q = var("p"), var("q")


def test_k_axiom_shape():
    f = parse_formula("[1](p -> q) -> ([1]p -> [1]q)")
    assert f == imp(box(1, imp(p, q)), imp(box(1, p), box(1, q)))


def test_diamond_is_sugar():
    assert parse_formula("<1>(p & q)") == neg(box(1, neg(and_(p, q))))


def test_true_is_sugar():
    assert parse_formula("true") == neg(bot())


def test_forall_rejected_at_l1():
    with pytest.raises(ParseError, match="second-order"):
        parse_formula("forall p. [1]p")


def test_forall_at_l2():
    assert parse_formula("forall p. [1]p", level="L2") == forall("p", box(1, p))
    assert parse_formula("exists p. p", level="L2") == neg(forall("p", neg(p)))


def test_precedence():
    assert parse_formula("p -> q -> p") == imp(p, imp(q, p))
    assert parse_formula("p | q & p") == or_(p, and_(q, p))
    assert parse_formula("~[1]p & q") == and_(neg(box(1, p)), q)
    assert parse_formula("p & q | p") == or_(and_(p, q), p)


def test_parse_sequent_duplicates_and_empty():
    s = parse_sequent("p, p => q")
    assert s.ant.count(p) == 2 and s.suc.count(q) == 1
    s = parse_sequent("=>")
    assert not s.ant and not s.suc


def test_parse_sequent_loop_example():
    s = parse_sequent("p => <1>(p & q)")
    assert s.ant == multiset(p)
    assert s.suc == multiset(neg(box(1, neg(and_(p, q)))))


# (parser, text, level) -> (span.start, span.end, message, expected), one row
# per raise site in parsing.py
PARSE_ERRORS = [
    (parse_formula, "p @ q", "L1", (2, 3, "unexpected character '@'", [])),
    (parse_formula, "p\t&\n#", "L1", (4, 5, "unexpected character '#'", [])),
    (parse_formula, "p & ", "L1", (4, 4, "unexpected 'end of input'", ["formula"])),
    (parse_formula, "", "L1", (0, 0, "unexpected 'end of input'", ["formula"])),
    (parse_formula, "p & )", "L1", (4, 5, "unexpected ')'", ["formula"])),
    (parse_sequent, "p =>, q", "L1", (4, 5, "unexpected ','", ["formula"])),
    (parse_formula, "[0]p", "L1", (0, 3, "agent ids start at 1", [])),
    (parse_formula, "<0>p", "L1", (0, 3, "agent ids start at 1", [])),
    (parse_formula, "forall p. [1]p", "L1",
     (0, 6, "second-order construct in an L1 context", [])),
    (parse_formula, "exists p. p", "L1",
     (0, 6, "second-order construct in an L1 context", [])),
    (parse_formula, "(p & q", "L1", (6, 6, "unexpected 'end of input'", [")"])),
    (parse_formula, "forall p [1]p", "L2", (9, 12, "unexpected '[1]'", ["."])),
    (parse_formula, "forall . p", "L2", (7, 8, "unexpected '.'", ["ident"])),
    (parse_sequent, "p, q", "L1", (4, 4, "unexpected 'end of input'", ["seq"])),
    (parse_formula, "p q", "L1", (2, 3, "trailing input 'q'", ["eof"])),
    (parse_sequent, "p => q )", "L1", (7, 8, "trailing input ')'", ["eof"])),
    (parse_sequent, "=> p => q", "L1", (5, 7, "trailing input '=>'", ["eof"])),
]


def test_parse_errors_have_spans():
    for parse, text, level, want in PARSE_ERRORS:
        with pytest.raises(ParseError) as e:
            parse(text, level)
        err = e.value
        got = (err.span.start, err.span.end, err.message, err.expected)
        assert got == want, (text, level)


def test_render_examples():
    assert render(box(1, p), "text") == "[1]p"
    one_node = prove(Logic.K, parse_sequent("p => p")).derivation
    obj = json.loads(render(one_node, "json"))
    assert obj == {
        "schema": "derivation/1",
        "sequent": {"ant": [{"op": "var", "name": "p"}],
                    "suc": [{"op": "var", "name": "p"}]},
        "rule": "Init",
        "premises": [],
    }


def test_render_parenthesization():
    assert render(imp(imp(p, q), p), "text") == "(p -> q) -> p"
    assert render(imp(p, imp(q, p)), "text") == "p -> q -> p"
    assert render(or_(p, or_(q, p)), "text") == "p | (q | p)"
    assert render(or_(or_(p, q), p), "text") == "p | q | p"
    assert render(neg(and_(p, q)), "text") == "~(p & q)"
    assert render(forall("p", or_(p, q)), "text") == "forall p.(p | q)"


def test_render_latex_formula():
    s = render(diamond(1, and_(p, q)), "latex")
    assert r"\Box_{1}" in s and r"\neg" in s and r"\wedge" in s


def test_render_latex_derivation():
    d = prove(Logic.K, parse_sequent("p & q => p")).derivation
    s = render(d, "latex")
    assert s.startswith(r"\begin{prooftree}") and s.endswith(r"\end{prooftree}")
    assert r"\Rightarrow" in s


def _names(max_depth):
    return st.sampled_from(["p", "q", "r", "s_1"])


formulas = st.recursive(
    st.one_of(st.builds(var, _names(0)), st.just(bot())),
    lambda children: st.one_of(
        st.builds(neg, children),
        st.builds(box, st.integers(min_value=1, max_value=3), children),
        st.builds(and_, children, children),
        st.builds(or_, children, children),
        st.builds(imp, children, children),
    ),
    max_leaves=25,
)


@given(formulas)
def test_roundtrip_property(f):
    assert parse_formula(render(f, "text")) == f


def test_roundtrip_500_seeded():
    import randgen
    rng = random.Random(4)
    for _ in range(500):
        f = randgen.formula(rng, rng.randint(1, 14), max_box_depth=6)
        assert parse_formula(render(f, "text")) == f


def test_roundtrip_l2():
    rng = random.Random(5)
    import randgen
    for _ in range(100):
        body = randgen.formula(rng, 8)
        f = forall("p", or_(body, forall("q", q)))
        assert parse_formula(render(f, "text"), level="L2") == f


def test_sequent_render_roundtrip():
    import randgen
    rng = random.Random(6)
    for _ in range(100):
        s = randgen.sequent(rng)
        assert parse_sequent(render(s, "text")) == s

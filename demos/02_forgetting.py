# Uniform interpolation: forgetting propositional variables.
#
# Forgetting p in a formula A produces its strongest p-free consequence
# (post-interpolant) or weakest p-free antecedent (pre-interpolant),
# independent of any partner formula.  The computation is pure syntax: a
# rewrite table that mirrors backward proof search.

from modalforget import (
    InterpolationProblem, Logic, Multiset, Sequent, multiset, parse_formula,
    post_interpolant, pre_interpolant, prove, render, forget_kkd,
    verify_uniform,
)

K, KT = Logic.K, Logic.KT

# The strongest p-free consequence of p & q is (equivalent to) q.
a = parse_formula("p & q")
post = post_interpolant(K, a, ["p"])
print("forget p in p & q (post):", render(post, "text"))
print("  p & q => it:", prove(K, Sequent(multiset(a), multiset(post))).derivable)
print("  it => q:    ", prove(K, Sequent(multiset(post), multiset(parse_formula('q')))).derivable)
print()

# The weakest p-free antecedent of p | q.
b = parse_formula("p | q")
pre = pre_interpolant(K, b, ["p"])
print("forget p in p | q (pre):", render(pre, "text"))
print()

# A set of variables is forgotten in one run of the table, not one variable
# at a time: <1>(p & q) | [2]r keeps only what it says about r.
c = parse_formula("<1>(p & q) | [2]r")
print("forget p, q in <1>(p & q) | [2]r (post):",
      render(post_interpolant(K, c, ["p", "q"]), "text"))
print()

# The raw table works on whole sequents.  This is the engine behind both
# directions; diamonds appear for antecedent boxes, boxes for succedent ones.
gamma = Multiset([parse_formula("[1](q & p)"), parse_formula("[2](s | r)"),
                  parse_formula("[2]r")])
delta = Multiset([parse_formula("[3]r"), parse_formula("[2]s")])
print("A_p for a mixed two-agent sequent:")
print(" ", render(forget_kkd("p", gamma, delta), "text"))
print()

# Interpolants of boxed formulas stay boxed: forgetting commutes with [i]
# as a syntactic identity, which is what makes quantifier elimination work.
boxed = parse_formula("[1](p -> q)")
print("forget p in [1](p -> q):", render(post_interpolant(K, boxed, ["p"]), "text"))
print()

# verify_uniform checks the defining clauses: vocabulary, the main
# implication, and extremality against every candidate partner formula over
# the kept vocabulary up to a weight bound.  A candidate that is all of its
# parts (l & r, ~(l | r), ~(l -> r), ~~f on this side) is settled by them; it
# proves only the entailments that smaller candidates and kept countermodels
# leave open, and searches them from the subject's and the interpolant's
# critical leaves, split once.
problem = InterpolationProblem(KT, ("p",), parse_formula("<1>(p & q)"), "post")
report = verify_uniform(problem, weight_bound=5)
print("KT <1>(p & q), forget p:", render(report.interpolant, "text"))
print("  vocabulary ok: ", report.vocab_ok)
print("  implication ok:", report.implication_ok)
print("  extremality ok:", report.extremality_ok,
      f"(all partners up to weight {report.extremality_checked_up_to})")

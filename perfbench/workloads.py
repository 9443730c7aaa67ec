"""Input generators, operations and correctness checks of the four workloads.

A workload is an endless stream of *passes*; a pass is a list of ops of one
fixed shape, so every completed pass has the same mix of light and heavy
ops.  Inputs come only from the seed and fixed definitions (the forget
ladder, verify's criterion 9 list).  No input is issued twice in one
process.  The random parts of ``decide`` and ``forget`` draw again when they
hit an input already issued, so every pass has the same number of ops.
``verify`` keeps criterion 9's lists as drawn and skips a repeated problem
instead; the pass records which earlier op it repeated, so counts over the
list as generated can still be derived without replaying it.

An op is a ``(kind, logic, payload, label)`` tuple.  ``execute`` runs it
through the functions in an ``api`` namespace (plain or traced) and returns
the rendered output plus what ``check`` needs; ``check`` runs after the timed
phase against the untraced library and returns a failure message or None.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from types import SimpleNamespace
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import modalforget
from modalforget import (
    InterpolationProblem, Logic, Multiset, Sequent, and_, bot, box, forall,
    imp, neg, or_, var,
)
from modalforget import cli, output

LOGICS = (Logic.K, Logic.KD, Logic.KT)
CLI_LOGIC = {Logic.K: "k", Logic.KD: "kd", Logic.KT: "kt"}

Op = Tuple[str, Logic, object, str]


# ---------------------------------------------------------------- generators

FORMULAS = SimpleNamespace(var=var, bot=bot, neg=neg, box=box,
                           and_=and_, or_=or_, imp=imp)
TEXT = SimpleNamespace(
    var=lambda n: n,
    bot=lambda: "false",
    neg=lambda a: "~" + a,
    box=lambda i, a: f"[{i}]{a}",
    and_=lambda a, b: f"({a} & {b})",
    or_=lambda a, b: f"({a} | {b})",
    imp=lambda a, b: f"({a} -> {b})",
)


def formula(rng: random.Random, budget: int, names: Sequence[str],
            agents: Sequence[int], build=FORMULAS, bot_bias: float = 0.1,
            max_box_depth: int = 3):
    """A random formula of weight at most ``budget``, built with ``build``.

    Draws exactly what ``tests/randgen.formula`` draws, so with
    ``build=FORMULAS`` and the same random state it returns the same formula;
    with ``build=TEXT`` it returns parseable text of that formula instead.
    """
    if budget <= 1 or rng.random() < 0.25:
        if rng.random() < bot_bias:
            return build.bot()
        return build.var(rng.choice(list(names)))
    ops = "naoi" if not agents or max_box_depth <= 0 else "nbaoi"
    op = rng.choice(ops)
    if op == "n":
        return build.neg(formula(rng, budget - 1, names, agents, build,
                                 bot_bias, max_box_depth))
    if op == "b":
        return build.box(rng.choice(list(agents)),
                         formula(rng, budget - 1, names, agents, build,
                                 bot_bias, max_box_depth - 1))
    split = rng.randint(1, max(1, budget - 2))
    left = formula(rng, split, names, agents, build, bot_bias, max_box_depth)
    right = formula(rng, budget - 1 - split, names, agents, build, bot_bias,
                    max_box_depth)
    return {"a": build.and_, "o": build.or_, "i": build.imp}[op](left, right)


def sequent_text(rng: random.Random, max_weight: int, names: Sequence[str],
                 agents: Sequence[int]) -> str:
    """Text of a random sequent, drawn as ``tests/randgen.sequent`` draws."""
    n_ant = rng.randint(0, 2)
    n_suc = rng.randint(0 if n_ant else 1, 2)
    remaining = max_weight
    slots = n_ant + n_suc
    sides: List[List[str]] = [[], []]
    for bucket, count in zip(sides, (n_ant, n_suc)):
        for _ in range(count):
            slots -= 1
            w = rng.randint(1, max(1, remaining - slots))
            bucket.append(formula(rng, w, names, agents, TEXT))
            remaining -= w
    return ", ".join(sides[0]) + " => " + ", ".join(sides[1])


def ladder(rung: int, q: str = "q", r: str = "r") -> modalforget.Formula:
    """The nested-box ladder: A0 = p & q | r, A(n+1) = [1](An & (p -> [1]q))."""
    a = or_(and_(var("p"), var(q)), var(r))
    for _ in range(rung):
        a = box(1, and_(a, imp(var("p"), box(1, var(q)))))
    return a


def l2_formula(rng: random.Random, names: Sequence[str]) -> modalforget.Formula:
    """A random formula with one or two propositional quantifiers."""
    def body():
        return formula(rng, rng.randint(2, 8), names, (1, 2), max_box_depth=2)

    v, w = rng.choice(list(names)), rng.choice(list(names))
    shape = rng.randrange(5)
    if shape == 0:
        return forall(v, body())
    if shape == 1:
        join = rng.choice((and_, or_, imp))
        return join(body(), forall(v, body()))
    if shape == 2:
        return box(rng.choice((1, 2)), forall(v, body()))
    if shape == 3:
        return forall(v, or_(body(), forall(w, body())))
    return neg(forall(v, body()))


class Stream:
    """Hands out the passes of one workload, skipping inputs already issued."""

    def __init__(self, make_pass: Callable[[int], Iterator[Tuple[object, Op]]]):
        self._make_pass = make_pass
        self._first_op = {}
        self.next_id = 0

    def pass_(self, index: int) -> Tuple[List[Op], List[int]]:
        """Ops of pass ``index`` and, per skipped input, the op it repeats."""
        ops: List[Op] = []
        repeats: List[int] = []
        for key, op in self._make_pass(index):
            first = self._first_op.get(key)
            if first is not None:
                repeats.append(first)
                continue
            self._first_op[key] = self.next_id + len(ops)
            ops.append(op)
        self.next_id += len(ops)
        return ops, repeats


def draw_fresh(draw: Callable[[], Tuple[object, Op]], seen: set) -> Tuple[object, Op]:
    """Call ``draw`` until it gives an input whose key is not in ``seen``."""
    while True:
        key, op = draw()
        if key not in seen:
            seen.add(key)
            return key, op


def decide_stream(seed: int, size: dict) -> Stream:
    rng = random.Random(seed)
    names, agents = ("p", "q", "r", "s"), (1, 2, 3)
    seen = set()

    def make_pass(index: int):
        for i in range(size["pass_ops"]):
            logic = LOGICS[i % 3]

            def draw():
                text = sequent_text(rng, 12, names, agents)
                kind = "cli_prove" if rng.random() < size["cli_share"] else "decide"
                return (logic, text), (kind, logic, text, "")
            yield draw_fresh(draw, seen)
    return Stream(make_pass)


def deep_stream(seed: int, size: dict) -> Stream:
    rng = random.Random(seed)
    used = set()

    def make_pass(index: int):
        ops = []
        for i in range(size["grid_points"]):
            logic = LOGICS[(i + index + seed) % 3]
            base = max(1, round(size["n_max"] * size["grid_ratio"] ** i))
            start = base - rng.randrange(1 + base // 50)
            n = next(c for c in itertools.chain(range(start, 0, -1),
                                                itertools.count(base + 1))
                     if (logic, c) not in used)
            used.add((logic, n))
            chain = "~" * n
            # Both chains at every point but the last: an odd op count puts
            # the median inside a cluster of equal ops, not between two.
            for v in ("p", "q") if i < size["grid_points"] - 1 else ("p",):
                text = f"{chain}p => {chain}{v}"
                ops.append(((logic, text), ("decide", logic, text, f"n={n}")))
        rng.shuffle(ops)
        yield from ops
    return Stream(make_pass)


def forget_stream(seed: int, size: dict) -> Stream:
    rng = random.Random(seed)
    names = ("p", "q", "r")
    seen = set()

    def draw_forget(logic: Logic, kind: str):
        a = formula(rng, rng.randint(3, 10), names, (1, 2), max_box_depth=2)
        payload = a if kind == "forget" else output.formula_to_text(a)
        return (logic, a), (kind, logic, payload, "")

    def draw_eliminate(logic: Logic, kind: str):
        f = l2_formula(rng, names)
        payload = f if kind == "eliminate" else output.formula_to_text(f)
        return (logic, f), (kind, logic, payload, "")

    def make_pass(index: int):
        q, r = ("q", "r") if index == 0 else (f"q{index}", f"r{index}")
        ops = []
        for logic in LOGICS:
            top = size["ladder_kt_max"] if logic is Logic.KT else size["ladder_kkd_max"]
            for rung in range(1, top + 1):
                label = f"ladder:{logic.value}:{rung}" if index == 0 else ""
                a = ladder(rung, q, r)
                seen.add((logic, a))
                ops.append(((logic, a), ("forget", logic, a, label)))
        for count, draw, kind, cli_kind in (
                (size["random"], draw_forget, "forget", "cli_interpolate"),
                (size["eliminate"], draw_eliminate, "eliminate", "cli_eliminate")):
            for i in range(count):
                op_kind = cli_kind if i < size["cli"] else kind
                ops.append(draw_fresh(lambda: draw(LOGICS[i % 3], op_kind), seen))
        rng.shuffle(ops)
        yield from ops
    return Stream(make_pass)


def verify_stream(seed: int, size: dict) -> Stream:
    """Criterion 9's list, drawn from ``anchor_seed`` (105: the test's own).

    Pass k > 0 draws the same list with p, q renamed to pk, qk (forgetting
    pk), so every pass has the same problems up to names, and the same cost;
    only the few subjects without variables repeat, and are skipped.  The seed only
    orders the ops within a pass: per-problem cost varies more than tenfold,
    and seeded problem sets moved ops_per_s by 27% (interquartile range over
    median, five seeds), far beyond any bound.
    """
    order = random.Random(seed)

    def make_pass(index: int):
        rng = random.Random(size["anchor_seed"])
        names = ("p", "q") if index == 0 else (f"p{index}", f"q{index}")
        ops = []
        for logic in LOGICS:
            for side in ("pre", "post"):
                for _ in range(size["per_logic_side"]):
                    subject = formula(rng, rng.randint(2, 7), names, (1,),
                                      max_box_depth=2)
                    key = (logic, side, subject)
                    problem = InterpolationProblem(logic, names[:1], subject, side)
                    ops.append((key, ("verify", logic, (problem, size["weight_bound"]), "")))
        order.shuffle(ops)
        yield from ops
    return Stream(make_pass)


STREAMS = {"decide": decide_stream, "forget": forget_stream,
           "verify": verify_stream, "deep": deep_stream}


# ---------------------------------------------------------------- operations

def plain_api() -> SimpleNamespace:
    """The public functions the ops call; the tracer swaps in wrapped ones."""
    return SimpleNamespace(
        parse_sequent=modalforget.parse_sequent,
        prove=modalforget.prove,
        check_derivation=modalforget.check_derivation,
        countermodel=modalforget.countermodel,
        eval_formula=modalforget.eval_formula,
        render=modalforget.render,
        post_interpolant=modalforget.post_interpolant,
        eliminate_quantifiers=modalforget.eliminate_quantifiers,
        verify_uniform=modalforget.verify_uniform,
        cli_run=cli.run,
    )


def _falsifies(api, model, s: Sequent) -> bool:
    return (all(api.eval_formula(model, model.root, f) for f in s.ant.members())
            and not any(api.eval_formula(model, model.root, f) for f in s.suc.members()))


def _cli(api, argv: List[str]) -> Tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli_run(argv)
    return code, out.getvalue()


def execute(api, op: Op) -> Tuple[str, tuple]:
    """Run one op; returns its rendered output and the facts ``check`` needs."""
    kind, logic, payload, _ = op
    if kind == "decide":
        s = api.parse_sequent(payload)
        result = api.prove(logic, s)
        if result.derivable:
            ok, _ = api.check_derivation(logic, result.derivation)
            return api.render(result.derivation, "json"), (s, True, ok)
        model = api.countermodel(logic, s)
        if model is None:
            return "", (s, False, False)
        return api.render(model, "json"), (s, False, _falsifies(api, model, s))
    if kind == "forget":
        interp = api.post_interpolant(logic, payload, ["p"])
        return api.render(interp, "json"), (interp,)
    if kind == "eliminate":
        result, trace = api.eliminate_quantifiers(logic, payload)
        return api.render(result, "json"), (result, trace)
    if kind == "verify":
        report = api.verify_uniform(*payload)
        return api.render(report.interpolant, "json"), (report,)
    flag = CLI_LOGIC[logic]
    if kind == "cli_prove":
        argv = ["prove", "--logic", flag, "--format", "json", payload]
    elif kind == "cli_interpolate":
        argv = ["interpolate", "--logic", flag, "--forget", "p", "--side",
                "post", "--format", "json", payload]
    else:
        argv = ["eliminate", "--logic", flag, "--format", "json", payload]
    code, out = _cli(api, argv)
    return out, (code,)


def check(op: Op, out: str, facts: tuple) -> Optional[str]:
    """Check one op's answer against the untraced library; None when right."""
    kind, logic, payload, _ = op
    lib = modalforget
    if kind == "decide":
        s, derivable, certified = facts
        if not certified:
            return "derivation fails check_derivation" if derivable else \
                "no countermodel, or it does not falsify the sequent"
        if derivable and lib.countermodel(logic, s) is not None:
            return "derivable sequent has a countermodel"
        return None
    if kind == "forget":
        (interp,) = facts
        return _check_interpolant(logic, payload, interp)
    if kind == "eliminate":
        result, trace = facts
        if not result.is_quantifier_free:
            return "elimination left a quantifier"
        if lib.replay_trace(payload, trace) != result:
            return "replay_trace does not reproduce the elimination"
        return None
    if kind == "verify":
        (report,) = facts
        if not (report.all_ok and report.extremality_checked_up_to == payload[1]):
            return "verify_uniform report is not all_ok"
        return None
    (code,) = facts
    if kind == "cli_prove":
        s = lib.parse_sequent(payload)
        result = lib.prove(logic, s)
        if code != (0 if result.derivable else 1):
            return f"cli prove exit {code} disagrees with the library"
        if result.derivable and out != lib.render(result.derivation, "json") + "\n":
            return "cli prove output differs from the library derivation"
        return None
    if code != 0:
        return f"cli {kind} exit {code}"
    if kind == "cli_interpolate":
        subject = lib.parse_formula(payload)
        expected = lib.post_interpolant(logic, subject, ["p"])
        failure = _check_interpolant(logic, subject, expected)
        if failure:
            return failure
        got = json.loads(out)["interpolant"]
    else:
        expected, _ = lib.eliminate_quantifiers(
            logic, lib.parse_formula(payload, level="L2"))
        got = json.loads(out)["result"]
    if got != output.formula_to_obj(expected):
        return f"cli {kind} output differs from the library"
    return None


def _check_interpolant(logic: Logic, a, interp) -> Optional[str]:
    if "p" in interp.free_vars or not interp.free_vars <= a.free_vars:
        return "interpolant vocabulary is wrong"
    if not modalforget.prove(logic, Sequent(Multiset((a,)), Multiset((interp,)))).derivable:
        return "A => interpolant is not derivable"
    return None

"""Spans around the public calls of each layer, recorded from outside.

The traced run wraps the functions the benchmark calls (``api``) and, so that
a call from one layer into another is charged to the callee, the module
attribute the calling layer looks up (``modalforget.interpolation.prove`` for
``verify_uniform``, ``modalforget.quantifiers.forget_formula`` for
``eliminate_quantifiers``, and every name ``modalforget.cli`` imported).  A
module's own definitions are never replaced, so recursion inside a layer,
such as ``eval_formula`` calling itself, stays one span.

Spans are recorded only while an op is open, so the correctness checks that
run after the timed phase leave no spans.  A span's self time is its
duration minus the durations of its direct children; the time spent in this
module's own bookkeeping after a call is excluded from the caller's self time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Tuple

import modalforget
from modalforget import cli, interpolation, quantifiers

# Public function -> span name "<layer>.<what>".
SPAN_NAMES = {
    "parse_sequent": "parsing.parse",
    "parse_formula": "parsing.parse",
    "prove": "calculus.prove",
    "check_derivation": "calculus.check",
    "countermodel": "semantics.countermodel",
    "eval_formula": "semantics.eval",
    "render": "output.render",
    "formula_to_obj": "output.render",
    "post_interpolant": "interpolation.forget",
    "pre_interpolant": "interpolation.forget",
    "forget_formula": "interpolation.forget",
    "forget_kkd": "interpolation.forget",
    "forget_t": "interpolation.forget",
    "verify_uniform": "interpolation.verify",
    "eliminate_quantifiers": "quantifiers.eliminate",
    "cli_run": "cli.run",
}

# (module, attribute) pairs through which one layer calls another.
CROSS_LAYER = [(interpolation, "prove"), (quantifiers, "forget_formula")] + [
    (cli, name) for name in (
        "prove", "post_interpolant", "pre_interpolant", "forget_kkd",
        "forget_t", "verify_uniform", "render", "formula_to_obj",
        "parse_sequent", "parse_formula", "eliminate_quantifiers",
        "countermodel")
]

OP_SPAN = "bench.op"


def tree_and_dag_nodes(f: modalforget.Formula) -> Tuple[int, int]:
    """Node count of ``f`` written as a tree, and of its shared (interned) DAG."""
    size: Dict[int, int] = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in size:
            stack.pop()
            continue
        kids = [k for k in (g.sub, g.left, g.right) if k is not None]
        pending = [k for k in kids if id(k) not in size]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        size[id(g)] = 1 + sum(size[id(k)] for k in kids)
    return size[id(f)], len(size)


def derivation_nodes(d) -> int:
    count, stack = 0, [d]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.premises)
    return count


class Tracer:
    def __init__(self):
        self.spans: List[Optional[tuple]] = []  # (op, name, start, end, parent)
        self._open: List[int] = []
        self._child_time: List[float] = []
        self.op: Optional[int] = None
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.prove_keys = set()
        self.prove_calls_by_op: Dict[int, int] = defaultdict(int)
        self.max_depth = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _enter(self, name: str) -> Tuple[int, float]:
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        self._child_time.append(0.0)
        return idx, time.perf_counter()

    def _exit(self, idx: int, name: str, start: float) -> float:
        end = time.perf_counter()
        self._open.pop()
        children = self._child_time.pop()
        parent = self._open[-1] if self._open else -1
        self.spans[idx] = (self.op, name, start, end, parent)
        self.self_time[name] += end - start - children
        if self._child_time:
            self._child_time[-1] += end - start
        return end

    def _exclude_since(self, t: float) -> None:
        """Charge bookkeeping done since ``t`` to no layer."""
        if self._child_time:
            self._child_time[-1] += time.perf_counter() - t

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._op_span = self._enter(OP_SPAN)

    def end_op(self) -> float:
        """Close the op span; returns its duration."""
        idx, start = self._op_span
        end = self._exit(idx, OP_SPAN, start)
        self.op = None
        return end - start

    def wrap(self, fn: Callable, name: str,
             after: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx, start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._exit(idx, name, start)
            if after is not None:
                after(args, result)
                self._exclude_since(end)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- counters read from arguments and results ----------------------
    def _after_prove(self, args, result) -> None:
        self.counts["calculus.prove.calls"] += 1
        self.counts["calculus.prove.nodes"] += result.stats.nodes_expanded
        self.max_depth = max(self.max_depth, result.stats.max_depth)
        self.prove_keys.add(args)
        self.prove_calls_by_op[self.op] += 1

    def _after_check(self, args, result) -> None:
        self.counts["calculus.derivation_nodes"] += derivation_nodes(args[1])

    def _after_parse(self, args, result) -> None:
        self.counts["parsing.chars"] += len(args[0])

    def _after_countermodel(self, args, result) -> None:
        self.counts["semantics.countermodel.calls"] += 1
        if result is not None:
            self.counts["semantics.model_worlds"] += len(result.worlds)

    def _after_render(self, args, result) -> None:
        if isinstance(result, str):
            self.counts["output.render.bytes"] += len(result.encode())

    def _after_forget(self, args, result) -> None:
        self.counts["interpolation.forget.calls"] += 1
        tree, dag = tree_and_dag_nodes(result)
        self.counts["interpolation.out_tree_nodes"] += tree
        self.counts["interpolation.out_dag_nodes"] += dag

    def _after_eliminate(self, args, result) -> None:
        self.counts["quantifiers.steps"] += len(result[1].steps)

    def _after_cli(self, args, result) -> None:
        self.counts["cli.run.calls"] += 1

    def _after(self, fname: str) -> Optional[Callable]:
        return {
            "prove": self._after_prove,
            "check_derivation": self._after_check,
            "parse_sequent": self._after_parse,
            "parse_formula": self._after_parse,
            "countermodel": self._after_countermodel,
            "render": self._after_render,
            "formula_to_obj": None,
            "post_interpolant": self._after_forget,
            "pre_interpolant": self._after_forget,
            "forget_formula": self._after_forget,
            "forget_kkd": self._after_forget,
            "forget_t": self._after_forget,
            "eliminate_quantifiers": self._after_eliminate,
            "cli_run": self._after_cli,
        }.get(fname)

    # -- installing and removing ---------------------------------------
    def traced_api(self, api: SimpleNamespace) -> SimpleNamespace:
        """Wrap ``api`` and patch the cross-layer attributes; undo with ``restore``."""
        for module, attr in CROSS_LAYER:
            fn = getattr(module, attr)
            self._patched.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, SPAN_NAMES[attr], self._after(attr)))
        return SimpleNamespace(**{
            fname: self.wrap(fn, SPAN_NAMES[fname], self._after(fname))
            for fname, fn in vars(api).items()
        })

    def restore(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    # -- report ----------------------------------------------------------
    def layer_self_times(self) -> Dict[str, float]:
        layers: Dict[str, float] = defaultdict(float)
        for name, t in self.self_time.items():
            layers[name.split(".")[0]] += t
        return dict(layers)

    def under(self, child: str, parent: str) -> float:
        """Total duration of ``child`` spans whose direct parent is ``parent``."""
        total = 0.0
        for span in self.spans:
            _, name, start, end, up = span
            if name == child and up >= 0 and self.spans[up][1] == parent:
                total += end - start
        return total

    def total(self, name: str) -> float:
        return sum(end - start for _, n, start, end, _ in self.spans if n == name)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\top\tname\tstart\tend\tparent\n")
            for i, (op, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

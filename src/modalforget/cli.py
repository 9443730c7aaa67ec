"""Command-line front-end.

Subcommands: ``prove``, ``interpolate``, ``eliminate``, ``countermodel``.
Exit codes: 0 success (derivable / model found / result computed), 1 negative
verdict (not derivable / no model / an interpolation clause failed under
``--verify-bound``), 2 parse or usage errors and input nested too deeply for
the recursive engine, 3 internal errors.  Input is given inline, as ``-`` for
stdin, or via ``--file``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from .calculus import Logic, prove
from .interpolation import (
    InterpolationProblem, forget_kkd, forget_t, post_interpolant,
    pre_interpolant, verify_uniform,
)
from .output import formula_to_obj, render
from .parsing import ParseError, parse_formula, parse_sequent
from .quantifiers import eliminate_quantifiers
from .semantics import countermodel
from .syntax import LogicError, Multiset

_LOGICS = {"k": Logic.K, "kd": Logic.KD, "kt": Logic.KT}


def _int_at_least(low: int):
    """An argparse ``type`` accepting integers no smaller than ``low``."""
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


@functools.cache  # built on first use, then shared by every run() call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modalforget",
        description="Proof search and uniform interpolation for multi-agent "
                    "modal logics K, KD and KT.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sequent_input: bool):
        p.add_argument("--logic", choices=sorted(_LOGICS), required=True)
        p.add_argument("--format", choices=["text", "json", "latex"],
                       default="text")
        p.add_argument("--file", help="read the input from this file")
        p.add_argument("input", nargs="?",
                       help="inline %s text, or - for stdin"
                            % ("sequent" if sequent_input else "formula"))

    p = sub.add_parser("prove", help="decide derivability of a sequent")
    common(p, True)

    p = sub.add_parser("interpolate", help="compute a uniform interpolant")
    common(p, False)
    p.add_argument("--forget", required=True,
                   help="comma-separated variables to forget, e.g. p,q")
    p.add_argument("--side", choices=["pre", "post"], default=None,
                   help="which interpolant to compute (default: post)")
    p.add_argument("--verify-bound", type=_int_at_least(1), default=None,
                   help="brute-force check the interpolant up to this weight")
    p.add_argument("--raw", action="store_true",
                   help="input is a sequent; apply the raw one-variable table")

    p = sub.add_parser("eliminate", help="eliminate propositional quantifiers")
    common(p, False)

    p = sub.add_parser("countermodel", help="search for a Kripke countermodel")
    common(p, True)
    p.add_argument("--depth", type=_int_at_least(0), default=None,
                   help="successor-chain bound (default: modal depth)")
    return parser


def _read_input(args) -> str:
    sources = [s for s in (args.file, args.input) if s is not None]
    if len(sources) != 1:
        raise ParseErrorlessUsage("exactly one input source is required")
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:  # missing, a directory, unreadable
            raise ParseErrorlessUsage(str(err)) from err
        except UnicodeDecodeError as err:
            raise ParseErrorlessUsage(f"{args.file} is not UTF-8: {err}") from err
    elif args.input == "-":
        text = sys.stdin.read()
    else:
        text = args.input
    args._input_text = text
    return text


class ParseErrorlessUsage(Exception):
    pass


def _annotate(text: str, err: ParseError) -> str:
    pointer = " " * err.span.start + "^" * max(1, err.span.end - err.span.start)
    return f"parse error: {err}\n  {text}\n  {pointer}"


def _cmd_prove(args) -> int:
    text = _read_input(args)
    sequent = parse_sequent(text)
    result = prove(_LOGICS[args.logic], sequent)
    if result.derivable:
        print(render(result.derivation, args.format))
        return 0
    if args.format == "json":
        print(json.dumps({"derivable": False,
                          "nodes_expanded": result.stats.nodes_expanded,
                          "max_depth": result.stats.max_depth},
                         sort_keys=True))
    else:
        print("not derivable")
    return 1


def _cmd_interpolate(args) -> int:
    logic = _LOGICS[args.logic]
    forget = [v.strip() for v in args.forget.split(",") if v.strip()]
    if not forget:
        raise ParseErrorlessUsage("--forget needs at least one variable")
    if len(set(forget)) != len(forget):
        raise ParseErrorlessUsage("--forget lists a variable more than once")
    text = _read_input(args)
    report = None
    if args.raw:
        if len(forget) != 1:
            raise ParseErrorlessUsage("--raw takes exactly one forgotten variable")
        for flag, value in (("--side", args.side), ("--verify-bound", args.verify_bound)):
            if value is not None:
                raise ParseErrorlessUsage(f"--raw does not take {flag}")
        sequent = parse_sequent(text)
        if logic is Logic.KT:
            interp = forget_t(forget[0], Multiset(), sequent.ant, sequent.suc)
        else:
            interp = forget_kkd(forget[0], sequent.ant, sequent.suc)
    else:
        subject = parse_formula(text)
        side = args.side or "post"
        if args.verify_bound is not None:
            problem = InterpolationProblem(logic, tuple(forget), subject, side)
            report = verify_uniform(problem, args.verify_bound)
            interp = report.interpolant
        else:
            interpolant = post_interpolant if side == "post" else pre_interpolant
            interp = interpolant(logic, subject, forget)
    if args.format == "json":
        obj = {"interpolant": formula_to_obj(interp)}
        if report is not None:
            obj["report"] = {
                "vocab_ok": report.vocab_ok,
                "implication_ok": report.implication_ok,
                "extremality_checked_up_to": report.extremality_checked_up_to,
                "extremality_ok": report.extremality_ok,
            }
        print(json.dumps(obj, sort_keys=True))
    else:
        print(render(interp, args.format))
        if report is not None:
            print(f"vocabulary: {'ok' if report.vocab_ok else 'FAILED'}")
            print(f"implication: {'ok' if report.implication_ok else 'FAILED'}")
            print(f"extremality: {'ok' if report.extremality_ok else 'FAILED'} "
                  f"(checked up to weight {report.extremality_checked_up_to})")
    return 0 if report is None or report.all_ok else 1


def _cmd_eliminate(args) -> int:
    text = _read_input(args)
    f = parse_formula(text, level="L2")
    result, trace = eliminate_quantifiers(_LOGICS[args.logic], f)
    if args.format == "json":
        memo: dict = {}  # the trace's formulas share subformulas
        obj = {
            "result": formula_to_obj(result, memo),
            "trace": [
                {"var": v, "before": formula_to_obj(b, memo),
                 "after": formula_to_obj(a, memo)}
                for v, b, a in trace.steps
            ],
        }
        print(json.dumps(obj, sort_keys=True))
    else:
        print(render(result, args.format))
    return 0


def _cmd_countermodel(args) -> int:
    text = _read_input(args)
    sequent = parse_sequent(text)
    model = countermodel(_LOGICS[args.logic], sequent, args.depth)
    if model is None:
        depth = args.depth
        if depth is None:
            depth = max((f.modal_depth for f in sequent.formulas()), default=0)
        print(f"no countermodel up to depth {depth}")
        return 1
    print(render(model, args.format))
    return 0


_COMMANDS = {
    "prove": _cmd_prove,
    "interpolate": _cmd_interpolate,
    "eliminate": _cmd_eliminate,
    "countermodel": _cmd_countermodel,
}


def run(argv: Optional[List[str]] = None) -> int:
    """Run the CLI and return its exit code (no SystemExit on parse errors)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return _COMMANDS[args.command](args)
    except ParseError as err:
        print(_annotate(getattr(args, "_input_text", ""), err), file=sys.stderr)
        return 2
    except ParseErrorlessUsage as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except LogicError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except RecursionError:  # flat chains too, such as p & p & ... & p
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {err}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

"""Serializers for formulas, derivations and Kripke models.

One precedence printer writes text and LaTeX formulas from two symbol tables;
the sequent printers stay apart, as text strips empty sides and LaTeX does
not.  Text formulas round-trip through the parser.  JSON derivations follow
the stable schema ``derivation/1``: a node is
``{"sequent": {"ant": [...], "suc": [...]}, "rule": <label>, "premises": [...]}``
with formulas as nested ``{"op": ...}`` objects; T-sequent nodes carry an extra
``"store"`` list.  Models use schema ``model/1``.  LaTeX output is
presentation-only (bussproofs) and carries no stability guarantee.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from .syntax import (
    _AND, _BOT, _BOX, _FORALL, _IMP, _NEG, _OR, _VAR,
    Formula, Sequent, TSequent,
)

_PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = range(4)
_BINARY_PREC = {_AND: _PREC_AND, _OR: _PREC_OR, _IMP: _PREC_IMP}
_JSON_BIN = {_AND: "and", _OR: "or", _IMP: "imp"}

# Symbol tables of the two formula formats: bottom, the unary prefixes
# (formatted with the agent or the bound variable) and the binary infixes.
_TEXT = {_BOT: "false", _NEG: "~", _BOX: "[{}]", _FORALL: "forall {}.",
         _AND: " & ", _OR: " | ", _IMP: " -> "}
_LATEX = {_BOT: r"\bot", _NEG: r"\neg ", _BOX: r"\Box_{{{}}} ",
          _FORALL: r"\forall {}\, ", _AND: r" \wedge ", _OR: r" \vee ",
          _IMP: r" \rightarrow "}


def _print(f: Formula, min_prec: int, symbols: Dict[int, str]) -> str:
    tag = f.tag
    if tag == _VAR:
        return f.name
    if tag == _BOT:
        return symbols[_BOT]
    prec = _BINARY_PREC.get(tag)
    if prec is None:
        return (symbols[tag].format(f.var if tag == _FORALL else f.agent)
                + _print(f.sub, _PREC_UNARY, symbols))
    right_assoc = tag == _IMP  # implication associates to the right
    s = (_print(f.left, prec + right_assoc, symbols) + symbols[tag]
         + _print(f.right, prec + (not right_assoc), symbols))
    return f"({s})" if prec < min_prec else s


def formula_to_text(f: Formula) -> str:
    return _print(f, _PREC_IMP, _TEXT)


def formula_to_latex(f: Formula) -> str:
    return _print(f, _PREC_IMP, _LATEX)


_ObjMemo = Dict[int, Dict[str, Any]]


def formula_to_obj(f: Formula, memo: Optional[_ObjMemo] = None) -> Dict[str, Any]:
    """The nested ``{"op": ...}`` object of ``f``, built once per distinct node.

    Shared subformulas (interning makes equal ones one object) map to the
    *same* dict, so the result is as small in memory as the formula DAG;
    ``json.dumps`` still writes the expanded tree.  ``memo`` maps node ids to
    their dicts: one per call, or one the caller passes to share nodes across
    calls while the formulas are alive.  Callers must not mutate the result
    or its parts.
    """
    if memo is None:
        memo = {}
    obj = memo.get(id(f))
    if obj is not None:
        return obj
    tag = f.tag
    if tag == _VAR:
        obj = {"op": "var", "name": f.name}
    elif tag == _BOT:
        obj = {"op": "bot"}
    elif tag == _NEG:
        obj = {"op": "neg", "sub": formula_to_obj(f.sub, memo)}
    elif tag == _BOX:
        obj = {"op": "box", "agent": f.agent, "sub": formula_to_obj(f.sub, memo)}
    elif tag == _FORALL:
        obj = {"op": "forall", "var": f.var, "sub": formula_to_obj(f.sub, memo)}
    else:
        obj = {"op": _JSON_BIN[tag], "left": formula_to_obj(f.left, memo),
               "right": formula_to_obj(f.right, memo)}
    memo[id(f)] = obj
    return obj


def sequent_to_text(s) -> str:
    ant = ", ".join(formula_to_text(f) for f in s.ant.members())
    suc = ", ".join(formula_to_text(f) for f in s.suc.members())
    body = f"{ant} => {suc}".strip()
    if isinstance(s, TSequent):
        store = ", ".join(formula_to_text(f) for f in s.store.members())
        return f"{store} | {body}".lstrip()
    return body


def sequent_to_obj(s, memo: Optional[_ObjMemo] = None) -> Dict[str, Any]:
    """The ``{"ant", "suc"[, "store"]}`` object; formulas as in ``formula_to_obj``."""
    if memo is None:
        memo = {}
    obj: Dict[str, Any] = {
        "ant": [formula_to_obj(f, memo) for f in s.ant.members()],
        "suc": [formula_to_obj(f, memo) for f in s.suc.members()],
    }
    if isinstance(s, TSequent):
        obj["store"] = [formula_to_obj(f, memo) for f in s.store.members()]
    return obj


def sequent_to_latex(s) -> str:
    ant = ", ".join(formula_to_latex(f) for f in s.ant.members())
    suc = ", ".join(formula_to_latex(f) for f in s.suc.members())
    body = rf"{ant} \Rightarrow {suc}"
    if isinstance(s, TSequent):
        store = ", ".join(formula_to_latex(f) for f in s.store.members())
        return rf"{store} \mid {body}"
    return body


def _derivation_to_text(d, indent: int) -> str:
    line = "  " * indent + f"[{d.rule}] {sequent_to_text(d.conclusion)}"
    return "\n".join([line] + [_derivation_to_text(p, indent + 1) for p in d.premises])


def _derivation_to_obj(d, memo: _ObjMemo) -> Dict[str, Any]:
    return {
        "sequent": sequent_to_obj(d.conclusion, memo),
        "rule": d.rule,
        "premises": [_derivation_to_obj(p, memo) for p in d.premises],
    }


def _derivation_to_latex(d) -> str:
    lines = []

    def emit(node):
        for p in node.premises:
            emit(p)
        n = len(node.premises)
        if n == 0:
            lines.append(r"\AxiomC{}")
        lines.append(rf"\RightLabel{{\scriptsize $({node.rule})$}}")
        infer = "BinaryInfC" if n == 2 else "UnaryInfC"
        lines.append(rf"\{infer}{{${sequent_to_latex(node.conclusion)}$}}")

    emit(d)
    return "\n".join([r"\begin{prooftree}"] + lines + [r"\end{prooftree}"])


def _model_to_text(m) -> str:
    lines = [f"root: w{m.root}"]
    for w in m.worlds:
        marker = "*" if w == m.root else " "
        val = ", ".join(sorted(m.valuation.get(w, frozenset()))) or "-"
        lines.append(f"{marker} w{w}: {val}")
    for agent in sorted(m.relations):
        edges = ", ".join(f"w{a}->w{b}" for a, b in sorted(m.relations[agent]))
        lines.append(f"R[{agent}]: {edges or '-'}")
    return "\n".join(lines)


def _model_to_obj(m) -> Dict[str, Any]:
    return {
        "schema": "model/1",
        "worlds": list(m.worlds),
        "root": m.root,
        "relations": {str(a): sorted([list(e) for e in m.relations[a]])
                      for a in sorted(m.relations)},
        "valuation": {str(w): sorted(m.valuation.get(w, frozenset())) for w in m.worlds},
    }


def _model_to_latex(m) -> str:
    rows = []
    for w in m.worlds:
        val = ", ".join(sorted(m.valuation.get(w, frozenset())))
        rows.append(rf"w_{{{w}}} & \{{{val}\}} \\")
    return "\n".join([r"\begin{array}{ll}"] + rows + [r"\end{array}"])


def render(value, format: str = "text") -> str:
    """Serialize a formula, derivation or Kripke model to the given format."""
    from .calculus import Derivation
    from .semantics import KripkeModel

    if format not in ("text", "json", "latex"):
        raise ValueError("format must be one of text, json, latex")
    if isinstance(value, Formula):
        if format == "text":
            return formula_to_text(value)
        if format == "json":
            return json.dumps(formula_to_obj(value), sort_keys=True)
        return formula_to_latex(value)
    if isinstance(value, (Sequent, TSequent)):
        if format == "text":
            return sequent_to_text(value)
        if format == "json":
            return json.dumps(sequent_to_obj(value), sort_keys=True)
        return sequent_to_latex(value)
    if isinstance(value, Derivation):
        if format == "text":
            return _derivation_to_text(value, 0)
        if format == "json":
            obj = _derivation_to_obj(value, {})
            obj["schema"] = "derivation/1"
            return json.dumps(obj, sort_keys=True)
        return _derivation_to_latex(value)
    if isinstance(value, KripkeModel):
        if format == "text":
            return _model_to_text(value)
        if format == "json":
            return json.dumps(_model_to_obj(value), sort_keys=True)
        return _model_to_latex(value)
    raise TypeError(f"cannot render {type(value).__name__}")

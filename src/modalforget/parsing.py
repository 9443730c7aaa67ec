"""Text grammar for formulas and sequents.

Precedence, loosest first: ``->`` (right associative), ``|``, ``&``, then the
prefix operators ``~``, ``[i]``, ``<i>`` and ``forall x.``.  Atoms are
identifiers, ``false``, ``true`` and parenthesized formulas.  ``true``,
``<i>A`` and ``exists x.A`` are sugar for ``~false``, ``~[i]~A`` and
``~forall x.~A``.  Sequents are written ``A1, A2 => B1, B2`` with either side
possibly empty; duplicates are kept.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Tuple

from . import syntax
from .syntax import Formula, LogicError, Multiset, Sequent


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int


@dataclass
class ParseError(LogicError):
    span: SourceSpan
    message: str
    expected: List[str] = field(default_factory=list)

    def __str__(self):
        loc = f"at {self.span.start}..{self.span.end}"
        if self.expected:
            return f"{self.message} {loc} (expected {', '.join(self.expected)})"
        return f"{self.message} {loc}"


# One token per match, after any whitespace; the group that matched gives the
# kind.  Group 5 takes any other character, which is an error.
_TOKEN_RE = re.compile(
    r"""\s*(?:
        (=>|->|[&|~(),.])             # 1: symbol
      | (\[\d+\])                     # 2: box
      | (<\d+>)                       # 3: diamond
      | ([A-Za-z_][A-Za-z0-9_]*)      # 4: identifier or keyword
      | (\S))                         # 5: unexpected character
    """,
    re.VERBOSE,
)

_SYMBOLS = {"=>": "seq", "->": "imp"}  # every other symbol is its own kind
_KEYWORDS = {"false", "true", "forall", "exists"}

Token = Tuple[str, str, int, int]  # kind, text, start, end


def _tokenize(text: str) -> List[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        word = m.group(group)
        end = m.end()
        if group == 1:
            kind = _SYMBOLS.get(word, word)
        elif group == 4:
            kind = word if word in _KEYWORDS else "ident"
        elif group == 5:
            raise ParseError(SourceSpan(end - 1, end), f"unexpected character {word!r}")
        else:
            kind = "box" if group == 2 else "dia"
        tokens.append((kind, word, end - len(word), end))
    tokens.append(("eof", "", len(text), len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, level: str):
        if level not in ("L1", "L2"):
            raise ValueError("level must be 'L1' or 'L2'")
        self.level = level
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def advance(self) -> str:
        """Consume the next token and return its text."""
        self.pos += 1
        return self.tokens[self.pos - 1][1]

    def error(self, message: str, expected: Tuple[str, ...] = ()) -> ParseError:
        """A :class:`ParseError` spanning the next token."""
        _, _, start, end = self.tokens[self.pos]
        return ParseError(SourceSpan(start, end), message, list(expected))

    def unexpected(self, expected: str) -> ParseError:
        text = self.tokens[self.pos][1]
        return self.error(f"unexpected {text or 'end of input'!r}", (expected,))

    def expect(self, kind: str) -> str:
        if self.peek() != kind:
            raise self.unexpected(kind)
        return self.advance()

    def finish(self) -> None:
        if self.peek() != "eof":
            raise self.error(f"trailing input {self.tokens[self.pos][1]!r}", ("eof",))

    def agent(self) -> int:
        """Consume a ``[i]`` or ``<i>`` token and return i."""
        agent = int(self.tokens[self.pos][1][1:-1])
        if agent < 1:
            raise self.error("agent ids start at 1")
        self.advance()
        return agent

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "imp":
            self.advance()
            return syntax.imp(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek() == "|":
            self.advance()
            f = syntax.or_(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek() == "&":
            self.advance()
            f = syntax.and_(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind = self.peek()
        if kind == "~":
            self.advance()
            return syntax.neg(self.unary())
        if kind == "box":
            return syntax.box(self.agent(), self.unary())
        if kind == "dia":
            return syntax.diamond(self.agent(), self.unary())
        if kind in ("forall", "exists"):
            if self.level == "L1":
                raise self.error("second-order construct in an L1 context")
            self.advance()
            name = self.expect("ident")
            self.expect(".")
            body = self.unary()
            if kind == "forall":
                return syntax.forall(name, body)
            return syntax.exists(name, body)
        return self.atom()

    def atom(self) -> Formula:
        kind = self.peek()
        if kind == "false":
            self.advance()
            return syntax.bot()
        if kind == "true":
            self.advance()
            return syntax.top()
        if kind == "ident":
            return syntax.var(self.advance())
        if kind == "(":
            self.advance()
            f = self.formula()
            self.expect(")")
            return f
        raise self.unexpected("formula")

    def formula_list(self, stop_kinds: Tuple[str, ...]) -> List[Formula]:
        out: List[Formula] = []
        if self.peek() in stop_kinds:
            return out
        out.append(self.formula())
        while self.peek() == ",":
            self.advance()
            out.append(self.formula())
        return out


def parse_formula(text: str, level: str = "L1") -> Formula:
    """Parse a single formula; raises :class:`ParseError` on bad input."""
    parser = _Parser(text, level)
    f = parser.formula()
    parser.finish()
    return f


def parse_sequent(text: str, level: str = "L1") -> Sequent:
    """Parse ``A1, A2 => B1, B2``; either side may be empty."""
    parser = _Parser(text, level)
    ant = parser.formula_list(("seq",))
    parser.expect("seq")
    suc = parser.formula_list(("eof",))
    parser.finish()
    return Sequent(Multiset(ant), Multiset(suc))

"""Formulas, counted multisets, sequents and the measures that drive termination.

Formulas are immutable trees.  Diamond, top and the existential quantifier are
not node types: they are rewritten away at construction time (``<i>A`` becomes
``~[i]~A``, ``true`` becomes ``~false``, ``exists p.A`` becomes
``~forall p.~A``).  Every node carries a precomputed structural key, which
gives equality and the canonical ordering used for multiset iteration, and a
hash built from its children's hashes, so shared subformulas are never
rehashed.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Iterator, Optional, Tuple


class LogicError(Exception):
    """Base class for errors raised by the engine."""


class NotFirstOrderError(LogicError):
    """A quantifier node appeared where only quantifier-free formulas are allowed."""


class CaptureError(LogicError):
    """A substitution would capture a free variable of the replacement."""


class StoreError(LogicError):
    """A T-sequent store contained a formula that is not outermost-boxed."""


# Tag codes fix the canonical ordering of constructors.
_BOT, _VAR, _NEG, _BOX, _AND, _OR, _IMP, _FORALL = range(8)

_BINARY_TAGS = (_AND, _OR, _IMP)


class Formula:
    """A single node of a formula tree.

    ``weight`` is the usual inductive size measure; it is ``None`` on trees
    containing a quantifier, for which no weight is defined.
    """

    __slots__ = (
        "tag", "name", "agent", "left", "right", "sub", "var",
        "key", "weight", "free_vars", "boxed_subformulas", "modal_depth",
        "_hash",
    )

    def __init__(self, tag, *, name=None, agent=None, left=None, right=None,
                 sub=None, var=None):
        self.tag = tag
        self.name = name
        self.agent = agent
        self.left = left
        self.right = right
        self.sub = sub
        self.var = var
        # The hash combines the children's cached hashes, so it costs O(1) per
        # node; hashing ``key`` itself would walk the whole tree.
        if tag == _BOT:
            self.key = (_BOT,)
            self._hash = hash(self.key)
        elif tag == _VAR:
            self.key = (_VAR, name)
            self._hash = hash(self.key)
        elif tag == _NEG:
            self.key = (_NEG, sub.key)
            self._hash = hash((_NEG, sub._hash))
        elif tag == _BOX:
            self.key = (_BOX, agent, sub.key)
            self._hash = hash((_BOX, agent, sub._hash))
        elif tag in _BINARY_TAGS:
            self.key = (tag, left.key, right.key)
            self._hash = hash((tag, left._hash, right._hash))
        elif tag == _FORALL:
            self.key = (_FORALL, var, sub.key)
            self._hash = hash((_FORALL, var, sub._hash))
        else:  # pragma: no cover
            raise ValueError(f"unknown tag {tag!r}")
        if tag in (_BOT, _VAR):
            self.weight: Optional[int] = 1
            self.free_vars: FrozenSet[str] = (
                frozenset() if tag == _BOT else frozenset((name,)))
            self.boxed_subformulas: FrozenSet[Formula] = frozenset()
            self.modal_depth = 0
        elif tag == _NEG:
            self.weight = None if sub.weight is None else sub.weight + 1
            self.free_vars = sub.free_vars
            self.boxed_subformulas = sub.boxed_subformulas
            self.modal_depth = sub.modal_depth
        elif tag == _BOX:
            self.weight = None if sub.weight is None else sub.weight + 1
            self.free_vars = sub.free_vars
            self.boxed_subformulas = sub.boxed_subformulas | {self}
            self.modal_depth = sub.modal_depth + 1
        elif tag in _BINARY_TAGS:
            if left.weight is None or right.weight is None:
                self.weight = None
            else:
                self.weight = left.weight + right.weight + 1
            self.free_vars = left.free_vars | right.free_vars
            self.boxed_subformulas = left.boxed_subformulas | right.boxed_subformulas
            self.modal_depth = max(left.modal_depth, right.modal_depth)
        else:
            self.weight = None
            self.free_vars = sub.free_vars - {var}
            self.boxed_subformulas = sub.boxed_subformulas
            self.modal_depth = sub.modal_depth

    # Structural identity through the precomputed key.
    def __eq__(self, other):
        return self is other or (isinstance(other, Formula) and self.key == other.key)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.key < other.key

    def __repr__(self):
        from .output import render
        return render(self, "text")

    @property
    def is_atom(self) -> bool:
        return self.tag in (_VAR, _BOT)

    @property
    def is_box(self) -> bool:
        return self.tag == _BOX

    @property
    def is_quantifier_free(self) -> bool:
        return self.weight is not None


# Interning gives equal formulas a single identity, which keeps multiset and
# memo operations on heavily shared interpolants cheap.  Children are held
# alive by the table itself, so their ids are stable keys.
_INTERN: Dict[tuple, Formula] = {}


def _make(tag, *, name=None, agent=None, left=None, right=None, sub=None,
          var=None) -> Formula:
    ident = (tag, name, agent, var, id(left), id(right), id(sub))
    f = _INTERN.get(ident)
    if f is None:
        f = Formula(tag, name=name, agent=agent, left=left, right=right,
                    sub=sub, var=var)
        _INTERN[ident] = f
    return f


def var(name: str) -> Formula:
    return _make(_VAR, name=name)


def bot() -> Formula:
    return _make(_BOT)


def top() -> Formula:
    return neg(bot())


def neg(a: Formula) -> Formula:
    return _make(_NEG, sub=a)


def box(agent: int, a: Formula) -> Formula:
    if agent < 1:
        raise ValueError("agent ids are positive integers")
    return _make(_BOX, agent=agent, sub=a)


def diamond(agent: int, a: Formula) -> Formula:
    return neg(box(agent, neg(a)))


def and_(a: Formula, b: Formula) -> Formula:
    return _make(_AND, left=a, right=b)


def or_(a: Formula, b: Formula) -> Formula:
    return _make(_OR, left=a, right=b)


def imp(a: Formula, b: Formula) -> Formula:
    return _make(_IMP, left=a, right=b)


def forall(name: str, a: Formula) -> Formula:
    return _make(_FORALL, var=name, sub=a)


def exists(name: str, a: Formula) -> Formula:
    return neg(forall(name, neg(a)))


def big_or(disjuncts: Iterable[Formula]) -> Formula:
    """Left-associated disjunction; empty gives bottom, a singleton is unwrapped."""
    acc = None
    for d in disjuncts:
        acc = d if acc is None else or_(acc, d)
    return bot() if acc is None else acc


def weight(f: Formula) -> int:
    """Inductive weight: atoms count 1, every constructor adds 1."""
    if f.weight is None:
        raise NotFirstOrderError("weight is defined for quantifier-free formulas only")
    return f.weight


def free_vars(f: Formula) -> FrozenSet[str]:
    return f.free_vars


def modal_depth(f: Formula) -> int:
    return f.modal_depth


def box_count(formulas: Iterable[Formula]) -> int:
    """Number of distinct boxed subformulas across all the given formulas.

    Computed on the union set, so duplicated occurrences never count twice.
    This is the first component of the T-sequent termination measure.
    """
    seen: FrozenSet[Formula] = frozenset()
    for f in formulas:
        if f.weight is None:
            raise NotFirstOrderError("box_count is defined for quantifier-free formulas only")
        seen = seen | f.boxed_subformulas
    return len(seen)


def t_measure(store: "Multiset", ant: "Multiset", suc: "Multiset") -> Tuple[int, int]:
    """Termination measure of the T-sequent ``store | ant => suc``: the number
    of distinct boxed subformulas, then the weight, compared lexicographically."""
    b = box_count([*store.counts, *ant.counts, *suc.counts])
    return (b, ant.weight() + suc.weight())


def require_first_order(formulas: Iterable[Formula]) -> None:
    """Raise :class:`NotFirstOrderError` if any of ``formulas`` has a quantifier."""
    for f in formulas:
        if not f.is_quantifier_free:
            raise NotFirstOrderError(f"quantified formula in sequent: {f!r}")


def map_children(f: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """``f`` rebuilt with ``fn`` applied to each child (left, right, sub).

    An atom comes back as itself; interning makes a node whose children come
    back unchanged the same object too.
    """
    if f.tag in _BINARY_TAGS:
        return _make(f.tag, left=fn(f.left), right=fn(f.right))
    if f.sub is None:  # an atom
        return f
    return _make(f.tag, agent=f.agent, var=f.var, sub=fn(f.sub))


def substitute(f: Formula, p: str, b: Formula) -> Formula:
    """Replace every free occurrence of the variable ``p`` in ``f`` by ``b``.

    Raises :class:`CaptureError` when a quantifier in ``f`` would capture a
    free variable of ``b``; the caller is expected to rename manually.
    """
    if p not in f.free_vars:
        return f
    if f.tag == _VAR:
        return b
    if f.tag == _FORALL and f.var in b.free_vars:
        raise CaptureError(f"substituting for {p!r} under forall {f.var!r} "
                           "captures a variable")
    return map_children(f, lambda g: substitute(g, p, b))


class Multiset:
    """An immutable counted multiset of formulas with a canonical iteration order."""

    __slots__ = ("counts", "_hash", "_items", "_weight")

    def __init__(self, items: Iterable[Formula] = ()):
        counts: Dict[Formula, int] = {}
        for f in items:
            counts[f] = counts.get(f, 0) + 1
        self.counts = counts
        self._items: Optional[Tuple[Tuple[Formula, int], ...]] = None
        self._hash: Optional[int] = None
        self._weight: Optional[int] = None

    @classmethod
    def _from_counts(cls, counts: Dict[Formula, int]) -> "Multiset":
        ms = cls.__new__(cls)
        ms.counts = counts
        ms._items = None
        ms._hash = None
        ms._weight = None
        return ms

    def items(self) -> Tuple[Tuple[Formula, int], ...]:
        """Distinct members with multiplicities, in canonical formula order."""
        if self._items is None:
            self._items = tuple(sorted(self.counts.items(), key=lambda kv: kv[0].key))
        return self._items

    def __iter__(self) -> Iterator[Formula]:
        for f, _ in self.items():
            yield f

    def members(self) -> Iterator[Formula]:
        """All members, each repeated according to its multiplicity."""
        for f, n in self.items():
            for _ in range(n):
                yield f

    def count(self, f: Formula) -> int:
        return self.counts.get(f, 0)

    def __contains__(self, f: Formula) -> bool:
        return f in self.counts

    def __len__(self) -> int:
        return sum(self.counts.values())

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __eq__(self, other):
        return isinstance(other, Multiset) and self.counts == other.counts

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.items())
        return self._hash

    def __repr__(self):
        return "{" + ", ".join(
            repr(f) if n == 1 else f"{f!r}:{n}" for f, n in self.items()
        ) + "}"

    def add(self, f: Formula, n: int = 1) -> "Multiset":
        counts = dict(self.counts)
        counts[f] = counts.get(f, 0) + n
        return Multiset._from_counts(counts)

    def remove(self, f: Formula, n: int = 1) -> "Multiset":
        have = self.counts.get(f, 0)
        if have < n:
            raise KeyError(f"cannot remove {n} occurrences of {f!r}")
        counts = dict(self.counts)
        if have == n:
            del counts[f]
        else:
            counts[f] = have - n
        return Multiset._from_counts(counts)

    def remove_all(self, f: Formula) -> "Multiset":
        if f not in self.counts:
            return self
        counts = dict(self.counts)
        del counts[f]
        return Multiset._from_counts(counts)

    def union(self, other: "Multiset") -> "Multiset":
        counts = dict(self.counts)
        for f, n in other.counts.items():
            counts[f] = counts.get(f, 0) + n
        return Multiset._from_counts(counts)

    def weight(self) -> int:
        if self._weight is None:
            self._weight = sum(weight(f) * n for f, n in self.counts.items())
        return self._weight


def multiset(*formulas: Formula) -> Multiset:
    return Multiset(formulas)


def flats(ms: Multiset, agent: int) -> Multiset:
    """The bodies of the ``agent``-boxed members of ``ms``, multiplicities kept."""
    counts: Dict[Formula, int] = {}
    for f, n in ms.counts.items():
        if f.tag == _BOX and f.agent == agent:
            counts[f.sub] = counts.get(f.sub, 0) + n
    return Multiset._from_counts(counts)


def box_agents(ms: Multiset) -> Tuple[int, ...]:
    """Sorted agents whose boxes occur outermost in ``ms``."""
    return tuple(sorted({f.agent for f in ms.counts if f.tag == _BOX}))


class Sequent:
    """A pair of finite formula multisets, read antecedent => succedent."""

    __slots__ = ("ant", "suc", "_hash")

    def __init__(self, ant: Multiset, suc: Multiset):
        self.ant = ant
        self.suc = suc
        self._hash = hash((ant, suc))

    def __eq__(self, other):
        return (isinstance(other, Sequent) and self.ant == other.ant
                and self.suc == other.suc)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from .output import sequent_to_text
        return sequent_to_text(self)

    def weight(self) -> int:
        return self.ant.weight() + self.suc.weight()

    measure = weight  # the termination measure of the K/KD calculi

    def with_sides(self, ant: Multiset, suc: Multiset) -> "Sequent":
        return Sequent(ant, suc)

    def formulas(self) -> Iterator[Formula]:
        yield from self.ant
        yield from self.suc


class TSequent:
    """A sequent with a store of outermost-boxed formulas already unfolded once."""

    __slots__ = ("store", "ant", "suc", "_hash", "_measure")

    def __init__(self, store: Multiset, ant: Multiset, suc: Multiset):
        for f in store:
            if not f.is_box:
                raise StoreError(f"store member {f!r} is not outermost-boxed")
        self.store = store
        self.ant = ant
        self.suc = suc
        self._hash = hash((store, ant, suc))
        self._measure: Optional[Tuple[int, int]] = None

    def __eq__(self, other):
        return (isinstance(other, TSequent) and self.store == other.store
                and self.ant == other.ant and self.suc == other.suc)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from .output import sequent_to_text
        return sequent_to_text(self)

    def measure(self) -> Tuple[int, int]:
        """The termination measure ``t_measure``, computed once."""
        if self._measure is None:
            self._measure = t_measure(self.store, self.ant, self.suc)
        return self._measure

    def with_sides(self, ant: Multiset, suc: Multiset) -> "TSequent":
        """The same store with new sides."""
        return TSequent(self.store, ant, suc)

    def formulas(self) -> Iterator[Formula]:
        yield from self.store
        yield from self.ant
        yield from self.suc


def is_critical(s: Sequent) -> bool:
    """True when every member on both sides is a variable, bottom or a box."""
    return all(f.is_atom or f.is_box for f in s.formulas())

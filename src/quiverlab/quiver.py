"""Dynkin quivers, adapted root orders, and Kostant partitions.

Conventions used throughout the package:

* Vertices are numbered ``1..n`` and every arrow points from a smaller
  to a larger vertex.  :func:`build_quiver` accepts any acyclic
  orientation of a simply-laced Dynkin diagram and renumbers the
  vertices topologically when needed, recording the renumbering.
  Reflecting at a vertex reverses every arrow at it, so in the quiver
  reflected at a word the edge ``{i, j}`` points ``i -> j`` exactly
  when ``i < j`` and the two vertices occur in the word equally often
  mod 2, or ``i > j`` and they do not.
* The positive roots carry the total order induced by a reduced
  expression of the longest Weyl-group element that is *adapted* to the
  orientation: letter ``k`` of the word is a source of the quiver
  obtained by reflecting at the first ``k-1`` letters, and the ``k``-th
  root is ``s_{i_1}...s_{i_{k-1}}(alpha_{i_k})``.  Under this order,
  nonzero morphisms between indecomposables only flow from larger to
  smaller roots, and nonsplit extensions only from smaller to larger —
  the property every closed-form dimension count in :mod:`.homs` relies
  on.
* For the linearly oriented type-A quiver ``1 -> 2 -> ... -> n`` the
  canonical order is lexicographic on segments: ``[i,j] < [k,l]`` iff
  ``i < k`` or (``i = k`` and ``j < l``); here ``[a,b]`` denotes the
  root ``alpha_a + ... + alpha_b``.

A Kostant partition is a multiset of positive roots; it is stored as a
non-increasing tuple of indices into a :class:`RootTable`.  Quivers, root
tables and partitions are interned (``_record(intern=True)``): building
one returns the existing object for an equal value, so they compare and
hash by identity, and what is derived from one value (its dimension
vector and text form) is computed once.
"""

from __future__ import annotations

import functools
import itertools
import re
import sys
from collections import defaultdict
from typing import Iterable, Iterator, Sequence

__all__ = [
    "DynkinQuiver",
    "KostantPartition",
    "PartitionError",
    "QuiverError",
    "RootTable",
    "adapted_reduced_word",
    "build_quiver",
    "coxeter_number",
    "dim_add",
    "dim_leq",
    "dim_sub",
    "euler_form",
    "format_quiver_spec",
    "injective_root",
    "kp_count",
    "kp_enumerate",
    "kp_format",
    "kp_from_segments",
    "kp_from_vectors",
    "kp_parse",
    "kp_single",
    "kp_zero",
    "load_quiver",
    "parse_dim_vector",
    "parse_quiver_spec",
    "positive_root_count",
    "positive_roots",
    "root_segment",
    "segment_root",
    "segments_of",
    "simple_reflection",
    "standard_quiver",
    "weight",
]


class QuiverError(ValueError):
    """Input does not describe a valid oriented simply-laced Dynkin diagram."""


class PartitionError(ValueError):
    """Malformed Kostant-partition text, or a summand that is not a positive root."""


# ---------------------------------------------------------------------------
# frozen records


class _FrozenError(AttributeError):
    """An attribute of a :func:`_record` instance was assigned or deleted."""


def _frozen_setattr(self, name, value):
    raise _FrozenError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise _FrozenError(f"cannot delete field {name!r}")


def _record(cls=None, *, eq: bool = True, intern: bool = False):
    """Make ``cls`` an immutable record of its annotated fields, as
    ``dataclass(frozen=True, eq=eq)`` does, without importing
    :mod:`dataclasses`, which loads :mod:`inspect`, :mod:`ast` and
    :mod:`dis` into every cold CLI query.

    The constructor takes the fields, which have no defaults, by position
    or keyword, then calls ``__post_init__`` if the class has one.
    ``__repr__``, ``__eq__`` and ``__hash__`` read the fields as a tuple;
    a method the class defines itself is kept, and with ``eq=False``
    instances compare and hash by identity.

    With ``intern=True`` there is one instance per value: ``__new__``
    looks the fields up in a table of the instances built so far, and
    builds (and runs ``__post_init__``) only on a miss, so ``==`` and
    ``hash`` are the identity ones and every memo keyed by the instance
    hashes in C.  A class may define a static ``_key(*fields)`` that
    returns the fields normalised, for example sorted.  ``__reduce__``
    passes the fields back to the constructor, so pickling, ``copy`` and
    ``deepcopy`` return the interned instance.  The table lives for the
    process, as the memos holding these instances do.

    The methods are written out per class and compiled in one ``exec``,
    because sets and memos compare records, and reading the fields in a
    loop made ``==`` 1.5x (``operator.attrgetter``) to 7x (a generator)
    slower.  ``cached_property`` writes to ``__dict__``, past the frozen
    ``__setattr__``."""
    if cls is None:
        return functools.partial(_record, eq=eq, intern=intern)
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    args = ", ".join(names)
    mine = ", ".join(f"self.{n}" for n in names)
    theirs = ", ".join(f"other.{n}" for n in names)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    post = "self.__post_init__()" if hasattr(cls, "__post_init__") else "pass"
    if intern:
        # the fields are stored as the key holds them, normalised
        key = f"cls._key({args})" if hasattr(cls, "_key") else f"({args},)"
        source = (
            f"def __new__(cls, {args}):\n"
            f"    key = {key}\n"
            "    self = _interned.get(key)\n"
            "    if self is None:\n"
            "        self = _new(cls)\n"
            + "".join(f"        _set(self, {n!r}, key[{i}])\n" for i, n in enumerate(names))
            + f"        {post}\n"
            "        self = _interned.setdefault(key, self)\n"
            "    return self\n"
            "def __reduce__(self):\n"
            f"    return (self.__class__, ({mine},))\n"
        )
        wanted = ["__new__", "__reduce__"]
    else:
        source = (
            f"def __init__(self, {args}):\n"
            + "".join(f"    _set(self, {n!r}, {n})\n" for n in names)
            + f"    {post}\n"
        )
        wanted = ["__init__"]
    if eq and not intern:
        wanted += ["__eq__", "__hash__"]
        source += (
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({mine},) == ({theirs},)\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash(({mine},))\n"
        )
    source += (
        "def __repr__(self):\n"
        f"    return f'{{self.__class__.__qualname__}}({shown})'\n"
    )
    methods = {"_set": object.__setattr__, "_new": object.__new__, "_interned": {}}
    exec(source, methods)
    for name in wanted + ["__repr__"]:
        if name not in cls.__dict__:
            method = methods[name]
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, staticmethod(method) if name == "__new__" else method)
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__match_args__ = names
    if cls.__doc__ is None:
        fields = ", ".join(f"{n}: {a!r}" for n, a in annotations.items())
        cls.__doc__ = f"{cls.__name__}({fields})"
    return cls


_MEMOS: list = []


def _memo(fn):
    """Memoize ``fn`` with :func:`functools.cache`, so a hit is one C
    call, and append the memo to :data:`_MEMOS`, the one list of the
    package's memos, which reads (``cache_info()``) or clears
    (``cache_clear()``) them all.

    Every memo is unbounded and lives for the process.  The intern
    tables of :func:`_record` are not memos and are not listed: ``==``
    on an interned record is identity, so they are never cleared."""
    memo = functools.cache(fn)
    _MEMOS.append(memo)
    return memo


_E_ROOT_COUNTS = {6: 36, 7: 63, 8: 120}
_E_LEGS = {6: (1, 2, 2), 7: (1, 2, 3), 8: (1, 2, 4)}


def positive_root_count(diagram_type: str, rank: int) -> int:
    if diagram_type == "A":
        return rank * (rank + 1) // 2
    if diagram_type == "D":
        return rank * (rank - 1)
    return _E_ROOT_COUNTS[rank]


def coxeter_number(diagram_type: str, rank: int) -> int:
    # h = 2 |positive roots| / rank for every simply-laced type
    return 2 * positive_root_count(diagram_type, rank) // rank


# ---------------------------------------------------------------------------
# dimension vectors


def dim_add(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def dim_sub(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def dim_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Componentwise comparison of dimension vectors."""
    return all(x <= y for x, y in zip(a, b, strict=True))


def weight(a: Sequence[int]) -> int:
    """Total dimension ``|a| = sum_i a_i``."""
    return sum(a)


def parse_dim_vector(text: str, rank: int) -> tuple[int, ...]:
    parts = [p.strip() for p in text.strip().split(",")]
    try:
        vec = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise PartitionError(f"bad dimension vector {text!r}") from exc
    if len(vec) != rank:
        raise PartitionError(
            f"dimension vector {text!r} has {len(vec)} entries, expected {rank}"
        )
    if any(x < 0 for x in vec):
        raise PartitionError(f"dimension vector {text!r} has negative entries")
    return vec


# ---------------------------------------------------------------------------
# the quiver itself


@_record(intern=True)
class DynkinQuiver:
    """An oriented simply-laced Dynkin diagram with topological vertex numbering.

    ``renumbering[k-1]`` is the label the caller originally gave to the
    vertex now numbered ``k`` (the identity tuple when no reordering was
    necessary).  Use :func:`build_quiver` rather than constructing this
    directly; the factory validates the diagram shape and fixes the
    numbering.
    """

    diagram_type: str
    rank: int
    arrows: tuple[tuple[int, int], ...]
    renumbering: tuple[int, ...]

    @property
    def vertices(self) -> range:
        return range(1, self.rank + 1)

    @functools.cached_property
    def _neighbours(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.rank + 1)]
        for s, t in self.arrows:
            adj[s].append(t)
            adj[t].append(s)
        return tuple(tuple(sorted(x)) for x in adj)

    def neighbours(self, i: int) -> tuple[int, ...]:
        return self._neighbours[i]

    @staticmethod
    def _points_to(i: int, j: int, parity: Sequence[int]) -> bool:
        """Whether the edge between ``i`` and ``j`` points ``i -> j`` in the
        quiver reflected at a word in which vertex ``v`` occurs
        ``parity[v-1]`` times mod 2: every arrow starts at its smaller
        vertex, and each reflection at either end reverses it."""
        return (i < j) == (parity[i - 1] == parity[j - 1])

    def is_linear_type_a(self) -> bool:
        """True for the orientation ``1 -> 2 -> ... -> n`` of type A."""
        if self.diagram_type != "A":
            return False
        expected = tuple((i, i + 1) for i in range(1, self.rank))
        return self.arrows == expected

    def __repr__(self) -> str:  # keep pytest output readable
        arrows = ",".join(f"{s}->{t}" for s, t in self.arrows)
        return f"DynkinQuiver({self.diagram_type}{self.rank}: {arrows})"


def _component(adj, start: int, cut: int | None = None) -> set[int]:
    """The vertices reached from ``start`` along ``adj`` (``adj[v]`` lists
    the neighbours of ``v``) without passing ``cut``."""
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w != cut and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _heights(quiver: DynkinQuiver) -> tuple[int, ...]:
    """The heights ``xi`` of the vertices, one walk of the tree from
    vertex 1: ``xi_s = xi_t + 1`` along every arrow ``s -> t``, normalized
    to minimum 0.  Adjacent vertices differ by one, so the parity of the
    height 2-colours the diagram."""
    xi = {1: 0}
    frontier = [1]
    while frontier:
        v = frontier.pop()
        for w in quiver.neighbours(v):
            if w not in xi:
                # an arrow points to its larger vertex and lowers the height
                xi[w] = xi[v] - 1 if w > v else xi[v] + 1
                frontier.append(w)
    low = min(xi.values())
    return tuple(xi[v] - low for v in quiver.vertices)


def build_quiver(
    diagram_type: str,
    rank: int,
    orientation_spec: Iterable[tuple[int, int]],
) -> DynkinQuiver:
    """Validate an oriented Dynkin diagram and put it in topological numbering.

    ``orientation_spec`` lists every edge of the diagram as a directed
    pair ``(source, target)`` on labels ``1..rank``.  The underlying
    graph must be the Dynkin diagram of the declared type and rank;
    loops, repeated edges and disconnected graphs are rejected.  If some
    arrow runs from a larger to a smaller label, the vertices are
    renumbered along a topological order (smallest original label first)
    and the permutation is recorded in ``renumbering``.
    """
    arrows = [(int(s), int(t)) for s, t in orientation_spec]
    for s, t in arrows:
        if not (1 <= s <= rank and 1 <= t <= rank):
            raise QuiverError(f"arrow ({s},{t}) uses labels outside 1..{rank}")
        if s == t:
            raise QuiverError(f"loop at vertex {s}")
    # filled on demand: the rank is not yet known to fit the arrows
    adj: defaultdict[int, set[int]] = defaultdict(set)
    for s, t in arrows:
        if t in adj[s]:
            raise QuiverError(f"repeated edge between {s} and {t}")
        adj[s].add(t)
        adj[t].add(s)

    if diagram_type not in ("A", "D", "E"):
        raise QuiverError(f"unknown diagram type {diagram_type!r}")
    if diagram_type == "A" and rank < 1:
        raise QuiverError("type A needs rank >= 1")
    if diagram_type == "D" and rank < 4:
        raise QuiverError("type D needs rank >= 4")
    if diagram_type == "E" and rank not in (6, 7, 8):
        raise QuiverError("type E needs rank in {6, 7, 8}")
    if len(arrows) != rank - 1:
        raise QuiverError(
            f"expected {rank - 1} edges for a rank-{rank} diagram, got {len(arrows)}"
        )
    if len(_component(adj, 1)) != rank:
        raise QuiverError("diagram is not connected")
    if any(len(ws) > 3 for ws in adj.values()):
        raise QuiverError("a vertex of degree > 3 cannot occur in types A/D/E")
    branch_vertices = [v for v, ws in adj.items() if len(ws) == 3]
    if diagram_type == "A":
        if branch_vertices:
            raise QuiverError("type A diagram must be a path")
    else:
        if len(branch_vertices) != 1:
            raise QuiverError(f"type {diagram_type} diagram needs exactly one branch vertex")
        # the tree has no other branch vertex, so each leg is a path
        branch = branch_vertices[0]
        legs = sorted(len(_component(adj, start, branch)) for start in adj[branch])
        expected = (1, 1, rank - 3) if diagram_type == "D" else _E_LEGS[rank]
        if legs != sorted(expected):
            raise QuiverError(f"leg lengths {legs} do not match type {diagram_type}{rank}")

    # topological renumbering (Kahn, smallest original label first)
    indeg = dict.fromkeys(range(1, rank + 1), 0)
    for _, t in arrows:
        indeg[t] += 1
    ready = sorted(v for v, d in indeg.items() if d == 0)
    order: list[int] = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for s, t in arrows:
            if s == v:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
        ready.sort()
    if len(order) != rank:
        raise QuiverError("orientation has a directed cycle")

    new_of_old = {old: new for new, old in enumerate(order, start=1)}
    new_arrows = tuple(sorted((new_of_old[s], new_of_old[t]) for s, t in arrows))
    return DynkinQuiver(diagram_type, rank, new_arrows, tuple(order))


def standard_quiver(diagram_type: str, rank: int) -> DynkinQuiver:
    """A default orientation for each type, already topologically numbered.

    Type A is the linear quiver ``1 -> 2 -> ... -> n``.  Type D chains
    ``1 .. n-2`` and hangs vertices ``n-1`` and ``n`` off vertex ``n-2``.
    Type E chains ``1 .. n-1`` and hangs vertex ``n`` off vertex 3.  All
    arrows point from smaller to larger vertex.
    """
    if diagram_type == "A":
        arrows = [(i, i + 1) for i in range(1, rank)]
    elif diagram_type == "D":
        arrows = [(i, i + 1) for i in range(1, rank - 2)]
        arrows += [(rank - 2, rank - 1), (rank - 2, rank)]
    elif diagram_type == "E":
        arrows = [(i, i + 1) for i in range(1, rank - 1)]
        arrows.append((3, rank))
    else:
        raise QuiverError(f"unknown diagram type {diagram_type!r}")
    return build_quiver(diagram_type, rank, arrows)


# ---------------------------------------------------------------------------
# bilinear forms


def euler_form(quiver: DynkinQuiver, alpha: Sequence[int], beta: Sequence[int]) -> int:
    """``<a,b> = sum_i a_i b_i - sum_{arrows s->t} a_s b_t``.

    Bilinear but not symmetric; for modules it computes
    ``dim Hom - dim Ext^1``.  Memoized per ``(quiver, alpha, beta)``.
    """
    return _euler_form(quiver, tuple(alpha), tuple(beta))


@_memo
def _euler_form(quiver: DynkinQuiver, alpha: tuple[int, ...], beta: tuple[int, ...]) -> int:
    if len(alpha) != quiver.rank or len(beta) != quiver.rank:
        raise QuiverError("dimension vector length does not match the rank")
    total = sum(a * b for a, b in zip(alpha, beta))
    total -= sum(alpha[s - 1] * beta[t - 1] for s, t in quiver.arrows)
    return total


def simple_reflection(
    quiver: DynkinQuiver, i: int, v: Sequence[int]
) -> tuple[int, ...]:
    """Weyl reflection at vertex ``i`` acting on root coordinates."""
    pairing = 2 * v[i - 1] - sum(v[j - 1] for j in quiver.neighbours(i))
    w = list(v)
    w[i - 1] -= pairing
    return tuple(w)


# ---------------------------------------------------------------------------
# adapted reduced words and the root order


def _simple_images(rank: int) -> list[list[int]]:
    return [[1 if j == i else 0 for j in range(rank)] for i in range(rank)]


def _times_reflection(quiver: DynkinQuiver, images: list[list[int]], i: int) -> None:
    """Turn ``images`` (``images[j-1] = w(alpha_j)``) into the images under
    ``w s_i``, in place.  ``s_i`` negates ``alpha_i``, adds it to each
    neighbour and fixes the other simple roots, so only those images
    change; applying the same letter twice restores them."""
    col = images[i - 1]
    for j in quiver.neighbours(i):
        images[j - 1] = [a + b for a, b in zip(images[j - 1], col)]
    images[i - 1] = [-a for a in col]


def _is_source(quiver: DynkinQuiver, i: int, parity: Sequence[int]) -> bool:
    """Whether ``i`` is a source of the quiver reflected at a word with
    the vertex parities ``parity`` (see :meth:`DynkinQuiver._points_to`)."""
    return all(quiver._points_to(i, j, parity) for j in quiver.neighbours(i))


def adapted_reduced_word(
    quiver: DynkinQuiver, variant: str = "canonical"
) -> tuple[int, ...]:
    """A reduced word for the longest Weyl element, adapted to the orientation.

    Letter ``k`` is always a source of the quiver obtained by reflecting
    the orientation at the first ``k-1`` letters, and each new root
    ``s_{i_1}..s_{i_{k-1}}(alpha_{i_k})`` is positive (so the word is
    reduced).  At steps where several sources are eligible the
    ``canonical`` variant takes the one producing the lexicographically
    largest root vector — on the linear type-A quiver this reproduces
    the segment order ``[1,1] < [1,2] < ... < [n,n]`` — while
    ``alternate`` takes the smallest vertex label, giving a second word
    in the same commutation class whenever the quiver admits one.
    """
    return _adapted_walk(quiver, variant)[0]


def _adapted_walk(
    quiver: DynkinQuiver, variant: str
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The letters of :func:`adapted_reduced_word` and the root
    ``s_{i_1}..s_{i_{k-1}}(alpha_{i_k})`` each one adds."""
    if variant not in ("canonical", "alternate"):
        raise QuiverError(f"unknown word variant {variant!r}")
    m = positive_root_count(quiver.diagram_type, quiver.rank)
    # images[i-1] is w(alpha_i) for w the product of the letters so far
    images = _simple_images(quiver.rank)
    # parity[v-1] counts the letters v so far mod 2; reflecting at i
    # changes which of i and its neighbours are sources, and no other
    parity = [0] * quiver.rank
    sources = {i for i in quiver.vertices if _is_source(quiver, i, parity)}
    word: list[int] = []
    roots: list[tuple[int, ...]] = []
    # The first eligible source never leads to a dead end: the roots taken
    # so far are the dimension vectors of a predecessor-closed set of
    # indecomposables in the Auslander-Reiten quiver (a source reflection
    # with a positive root adds the next module of that vertex's
    # tau-orbit), and a minimal module outside the set sits at a source of
    # the reflected orientation with a positive root.  So a letter is
    # eligible until all m roots are taken, and no step is undone.
    while len(word) < m:
        eligible = [i for i in sources if min(images[i - 1]) >= 0]
        if not eligible:  # pragma: no cover - cannot happen for Dynkin orientations
            raise QuiverError("no adapted reduced word found")
        if variant == "canonical":
            i = max(eligible, key=lambda j: images[j - 1])
        else:
            i = min(eligible)
        word.append(i)
        roots.append(tuple(images[i - 1]))
        _times_reflection(quiver, images, i)
        parity[i - 1] ^= 1
        for j in (i, *quiver.neighbours(i)):
            if _is_source(quiver, j, parity):
                sources.add(j)
            else:
                sources.discard(j)
    return tuple(word), tuple(roots)


@_record(intern=True)
class RootTable:
    """The positive roots in the total order induced by an adapted word.

    ``roots[k]`` is the ``(k+1)``-st root; smaller index means smaller
    root.  All Kostant partitions built on this table store indices into
    ``roots``.
    """

    quiver: DynkinQuiver
    word: tuple[int, ...]
    roots: tuple[tuple[int, ...], ...]

    @classmethod
    def from_word(cls, quiver: DynkinQuiver, word: Sequence[int]) -> "RootTable":
        roots: list[tuple[int, ...]] = []
        # images[i-1] is w(alpha_i) for w the product of the letters so far
        images = _simple_images(quiver.rank)
        parity = [0] * quiver.rank
        for k, letter in enumerate(word):
            if not (1 <= letter <= quiver.rank and _is_source(quiver, letter, parity)):
                raise QuiverError(
                    f"word {tuple(word)} is not adapted: letter {k + 1} ({letter}) is "
                    "not a source of the quiver reflected at the letters before it"
                )
            roots.append(tuple(images[letter - 1]))
            _times_reflection(quiver, images, letter)
            parity[letter - 1] ^= 1
        return cls._checked(quiver, tuple(word), tuple(roots))

    @classmethod
    def _checked(
        cls, quiver: DynkinQuiver, word: tuple[int, ...], roots: tuple[tuple[int, ...], ...]
    ) -> "RootTable":
        """The table of ``word`` and the roots it adds, checked to hold
        every positive root exactly once."""
        if any(min(beta) < 0 for beta in roots):
            raise QuiverError(f"word {word} is not reduced")
        expected = positive_root_count(quiver.diagram_type, quiver.rank)
        if len(roots) != expected or len(set(roots)) != expected:
            raise QuiverError("word does not enumerate the positive roots")
        return cls(quiver, word, roots)

    def __len__(self) -> int:
        return len(self.roots)

    def index_of(self, vector: Sequence[int]) -> int:
        try:
            return _root_index_map(self)[tuple(vector)]
        except KeyError:
            raise PartitionError(f"{tuple(vector)} is not a positive root") from None

    def is_root(self, vector: Sequence[int]) -> bool:
        return tuple(vector) in _root_index_map(self)

    def simple_root_index(self, i: int) -> int:
        vec = tuple(1 if j == i else 0 for j in range(1, self.quiver.rank + 1))
        return self.index_of(vec)

    def __repr__(self) -> str:
        return f"RootTable({self.quiver!r}, word={self.word})"


@_memo
def _root_index_map(table: RootTable) -> dict[tuple[int, ...], int]:
    return {vec: k for k, vec in enumerate(table.roots)}


@_memo
def positive_roots(quiver: DynkinQuiver, variant: str = "canonical") -> RootTable:
    """The cached default root table for a quiver (canonical adapted word)."""
    return RootTable._checked(quiver, *_adapted_walk(quiver, variant))


def injective_root(quiver: DynkinQuiver, i: int) -> tuple[int, ...]:
    """Dimension vector of the injective at ``i``: 1 on ``i`` and on every
    vertex that reaches it; arrows point to the larger vertex."""
    adj = [[w for w in ws if w < v] for v, ws in enumerate(quiver._neighbours)]
    reach = _component(adj, i)
    return tuple(1 if v in reach else 0 for v in quiver.vertices)


# ---------------------------------------------------------------------------
# Kostant partitions


@_record(intern=True)
class KostantPartition:
    """A multiset of positive roots, stored as non-increasing root indices.

    ``total`` is the dimension vector, the sum of the parts, computed
    once when the partition is first built."""

    table: RootTable
    parts: tuple[int, ...]

    @staticmethod
    def _key(table: RootTable, parts: Sequence[int]) -> tuple:
        return table, tuple(sorted(parts, reverse=True))

    def __post_init__(self) -> None:
        roots = self.table.roots
        vec = [0] * self.table.quiver.rank
        for p in self.parts:
            if not (0 <= p < len(roots)):
                raise PartitionError(f"root index {p} out of range")
            for j, x in enumerate(roots[p]):
                vec[j] += x
        object.__setattr__(self, "total", tuple(vec))

    def part_roots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.table.roots[p] for p in self.parts)

    def __add__(self, other: "KostantPartition") -> "KostantPartition":
        """Direct sum: concatenate the two multisets of parts."""
        if self.table is not other.table:
            raise PartitionError("cannot add partitions over different root tables")
        return KostantPartition(self.table, self.parts + other.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __repr__(self) -> str:
        return f"KP({kp_format(self)})"


def kp_zero(table: RootTable) -> KostantPartition:
    return KostantPartition(table, ())


def kp_single(table: RootTable, root: Sequence[int] | int) -> KostantPartition:
    idx = root if isinstance(root, int) else table.index_of(root)
    return KostantPartition(table, (idx,))


def kp_from_vectors(
    table: RootTable, vectors: Iterable[Sequence[int]]
) -> KostantPartition:
    return KostantPartition(table, tuple(table.index_of(v) for v in vectors))


def segment_root(quiver: DynkinQuiver, a: int, b: int) -> tuple[int, ...]:
    if not (1 <= a <= b <= quiver.rank):
        raise PartitionError(f"bad segment [{a},{b}] for rank {quiver.rank}")
    return tuple(1 if a <= v <= b else 0 for v in quiver.vertices)


def root_segment(vector: Sequence[int]) -> tuple[int, int]:
    support = [i + 1 for i, x in enumerate(vector) if x]
    if not support or any(vector[i - 1] != 1 for i in support):
        raise PartitionError(f"{tuple(vector)} is not a segment root")
    a, b = support[0], support[-1]
    if support != list(range(a, b + 1)):
        raise PartitionError(f"{tuple(vector)} is not a segment root")
    return a, b


def kp_from_segments(
    table: RootTable, segments: Iterable[tuple[int, int]]
) -> KostantPartition:
    q = table.quiver
    return kp_from_vectors(table, (segment_root(q, a, b) for a, b in segments))


def segments_of(kp: KostantPartition) -> tuple[tuple[int, int], ...]:
    """The multisegment view (type A only), sorted lexicographically."""
    return tuple(sorted(root_segment(v) for v in kp.part_roots()))


def _kp_walk(
    table: RootTable, gamma: tuple[int, ...]
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every Kostant partition of ``gamma`` as ``(root index,
    multiplicity)`` pairs, in no fixed order.

    The non-simple roots are chosen depth-first (a stack of lazy branch
    iterators instead of recursion, since the depth is the number of
    roots).  What they leave is a non-negative vector, which the simple
    roots complete in exactly one way, so every branch ends in a
    partition: the first n partitions cost O(n) branches times the depth,
    with no dead ends, and no parts are ever spelled out.
    """
    if len(gamma) != table.quiver.rank:
        raise PartitionError("gamma length does not match the rank")
    if any(x < 0 for x in gamma):
        raise PartitionError("gamma has negative entries")
    roots = table.roots
    simple = [table.simple_root_index(i) for i in table.quiver.vertices]
    others = [k for k in range(len(roots)) if k not in simple]

    def branches(n: int, remaining: tuple[int, ...], acc: tuple) -> Iterator:
        k = others[n - 1]
        vec = roots[k]
        top = min(remaining[j] // vec[j] for j in range(len(vec)) if vec[j])
        for count in range(top + 1):
            rest = tuple(r - count * v for r, v in zip(remaining, vec))
            yield n - 1, rest, acc + ((k, count),) if count else acc

    stack = [iter([(len(others), tuple(gamma), ())])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        n, remaining, acc = node
        if n:
            stack.append(branches(n, remaining, acc))
        else:
            yield acc + tuple((k, x) for k, x in zip(simple, remaining) if x)


@_memo
def kp_enumerate(table: RootTable, gamma: tuple[int, ...]) -> tuple[KostantPartition, ...]:
    """All Kostant partitions with dimension vector ``gamma``, ordered by
    their parts (non-increasing root indices) from the largest down."""
    found = (
        KostantPartition(table, tuple(k for k, c in mult for _ in range(c)))
        for mult in _kp_walk(table, gamma)
    )
    return tuple(sorted(found, key=lambda kp: kp.parts, reverse=True))


def kp_count(table: RootTable, gamma: Sequence[int], limit: int | None = None) -> int:
    """The number of Kostant partitions of ``gamma``, without building
    them; with ``limit`` the walk stops there and ``min(count, limit)`` is
    returned, so a caller can check a cap before :func:`kp_enumerate`.
    ``islice`` takes no stop past ``sys.maxsize``, and no walk that long
    can finish, so a larger limit counts as ``sys.maxsize``."""
    if limit is not None:
        limit = min(limit, sys.maxsize)
    return sum(1 for _ in itertools.islice(_kp_walk(table, tuple(gamma)), limit))


# ---------------------------------------------------------------------------
# text round-trip

_SEGMENT_RE = re.compile(r"^\[\s*(\d+)\s*,\s*(\d+)\s*\]$")


def kp_parse(table: RootTable, text: str) -> KostantPartition:
    """Parse ``"[1,3]+[2,2]"`` (linear type A) or ``"1,1,0 + 0,1,1"`` (coordinates).

    Every summand must be a positive root of the quiver.  ``"0"`` parses
    to the empty partition.
    """
    s = text.strip()
    if not s:
        raise PartitionError("empty partition text")
    if s == "0":
        return kp_zero(table)
    quiver = table.quiver
    terms = [t.strip() for t in s.split("+")]
    if any(not t for t in terms):
        raise PartitionError(f"malformed partition text {text!r}")
    if "[" in s:
        if not quiver.is_linear_type_a():
            raise PartitionError(
                "segment syntax is only available for the linear type-A quiver"
            )
        segments = []
        for term in terms:
            m = _SEGMENT_RE.match(term)
            if not m:
                raise PartitionError(f"malformed segment {term!r}")
            a, b = int(m.group(1)), int(m.group(2))
            if a > b:
                raise PartitionError(f"segment [{a},{b}] has start > end")
            segments.append((a, b))
        return kp_from_segments(table, segments)
    vectors = [parse_dim_vector(term, quiver.rank) for term in terms]
    for v in vectors:
        if not table.is_root(v):
            raise PartitionError(f"{v} is not a positive root")
    return kp_from_vectors(table, vectors)


@_memo
def kp_format(kp: KostantPartition) -> str:
    """Canonical text form; inverse of :func:`kp_parse`."""
    if not kp.parts:
        return "0"
    if kp.table.quiver.is_linear_type_a():
        return "+".join(f"[{a},{b}]" for a, b in segments_of(kp))
    ordered = sorted(kp.parts)
    return " + ".join(",".join(str(x) for x in kp.table.roots[p]) for p in ordered)


# ---------------------------------------------------------------------------
# quiver spec files


def parse_quiver_spec(text: str) -> DynkinQuiver:
    """Parse the quiver description format::

        type A 3
        arrow 1 2
        arrow 2 3

    Blank lines and ``#`` comments are ignored.
    """
    diagram_type: str | None = None
    rank: int | None = None
    arrows: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "type":
            if len(fields) != 3:
                raise QuiverError(f"line {lineno}: expected 'type <letter> <rank>'")
            diagram_type = fields[1].upper()
            try:
                rank = int(fields[2])
            except ValueError:
                raise QuiverError(f"line {lineno}: bad rank {fields[2]!r}") from None
        elif fields[0] == "arrow":
            if len(fields) != 3:
                raise QuiverError(f"line {lineno}: expected 'arrow <s> <t>'")
            try:
                arrows.append((int(fields[1]), int(fields[2])))
            except ValueError:
                raise QuiverError(f"line {lineno}: bad arrow {line!r}") from None
        else:
            raise QuiverError(f"line {lineno}: unknown directive {fields[0]!r}")
    if diagram_type is None or rank is None:
        raise QuiverError("missing 'type' line")
    return build_quiver(diagram_type, rank, arrows)


def load_quiver(path: str) -> DynkinQuiver:
    with open(path, encoding="utf-8") as fh:
        return parse_quiver_spec(fh.read())


def format_quiver_spec(quiver: DynkinQuiver) -> str:
    lines = [f"type {quiver.diagram_type} {quiver.rank}"]
    lines += [f"arrow {s} {t}" for s, t in quiver.arrows]
    return "\n".join(lines) + "\n"

"""Quiver Grassmannians of subrepresentations over small finite fields.

``subreps`` walks the stable graded subspaces of a built representation
with a given dimension vector.  The b-dimensional subspaces of F_q^d
are listed once per ``(d, b, q)`` in a memoized table, in
:func:`.linalg.enumerate_subspaces` order; each entry is checked to be
a reduced echelon basis when its table is built, and keeps the
functionals that read a vector modulo it (the vector's residue).  At
each vertex, in topological order, the walk keeps the entries whose
residues kill the images of the spaces already chosen, once per walk
for each choice of table indices there.  A table holds
gaussian_binomial(d, b, q) entries (about 0.5 to 1 KB each for d <= 6),
a factor of the :func:`scan_states` count (for ``point_count``, of the
states of the colour class it enumerates), and is built only after that
count has passed the cap: the cap bounds every table, and a call it
refuses builds none.  The points fall into strata by the classes of
their subrepresentation and quotient (Caldero-Reineke, "On the quiver
Grassmannian in the acyclic case", J. Pure Appl. Algebra 212 (2008)),
pairs ``(quotient class mu, sub class nu)`` in a :class:`StrataReport`;
an entry's ``dim`` is that of its sub-class locus (:func:`stratum_dim`).

Points are classified without building the sub or the quotient.  A map
out of an indecomposable M_a is fixed by its values on the generators of
M_a (a map vanishing there vanishes on the submodule they generate,
which is M_a), and a map into M_a by its values under the cogenerators
(the coordinate functionals that generate its dual).  The number w_v of
them at vertex ``v`` is the multiplicity of the simple S_v in the top
of M_a, dim Hom(M_a, S_v), or in its socle, dim Hom(S_v, M_a), read off
the closed form and memoized per root (``homs._top_and_socle``).  With
``d`` the dimension vector of M, this bounds dim Hom(M_a, M) or
dim Hom(M, M_a) by sum(w * d), the Hom count of the projective cover
(or injective hull) of M_a, as :mod:`.homs` states.
Once per ``lam`` every root is sorted by comparing its closed-form
count with that bound:

* a root that reaches it is *forced*: every choice of values is a map,
  so at a point U, dim Hom(M_a, U) = sum(w * beta) and
  dim Hom(M/U, M_a) = sum(w * (d - beta)), read off ``beta`` with no
  matrix at all.  The projective P_i and the injective I_i are the
  case w = e_i, h = d_i;
* for the other roots, the *ranked* ones, bases f of Hom(M_a, M) and g
  of Hom(M, M_a) are assembled from bases of Hom(M_a, M_b) and
  Hom(M_b, M_a), memoized per pair of roots, placed at the block of each
  part b of ``lam``: no kernel is taken over the direct sum M.  With
  ``pi: M -> M/U``, dim Hom(M_a, U) = dim Hom(M_a, M) - rank{pi f} and
  dim Hom(M/U, M_a) = dim Hom(M, M_a) - rank{g|_U}.  Once per walk, each
  (vertex, table entry) met gets a block, the residues of the columns of
  every f_v and the rows of every g_v applied to U_v, packed; a point
  sums its blocks into one packed rank per ranked root, and a dict per
  walk maps the tuple of ranks to its pair.

The sub follows from the first counts by ``identify``'s forward
triangular solve, the quotient from the second by the transposed solve
from the last root down; both check the counts and the dimension
vector.  ``reps.sub_quotient`` with ``identify`` is the matrix-level
route the tests compare against.

Points are counted with no walk (``point_count``): a Dynkin diagram is
a tree, and only the colour class with fewer states is enumerated
(``_colour_count``).  When every root of ``lam`` is forced, every
count at a point is read off ``beta``, so the points lie in one
stratum: ``strata`` takes its total from this count, solves its pair
from the forced counts and walks no point, and its cap counts the
colour class's states.  Only a ``lam`` with a ranked root is walked,
its cap counting the walk's, and its total is the points walked.

The generic pairs with ``[nu, lambda] = [nu, nu] + [nu, mu]`` index the
irreducible components (``ext_ger``), decided by ``ext_set`` queries
(:mod:`.extensions`) with no point walked.

Whole strata are walked only for ``strata`` (so ``grass strata``).
``stratum_dim`` asks ``extensions.ext_pairs`` whether its sub class is
realized, with no point walked.
Whether one pair is realized is asked by ``_realizes``, for the subrep
route of ``extensions.ext_set``: it classifies the summand point M_nu of
the split class, compares the counts of an all-forced ``lam`` with the
pair's, and otherwise stops at the first point of the pair's class.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import mul
from typing import Callable, Iterator, Sequence

from . import linalg
from .homs import _top_and_socle, hom_dim, hom_ext_vectors
from .quiver import (
    KostantPartition,
    PartitionError,
    _heights,
    _memo,
    _record,
    dim_add,
    dim_leq,
    dim_sub,
    kp_format,
)
from .reps import Rep, RepError, _pair_basis, _partition_from_counts, build

__all__ = [
    "StrataReport",
    "StratumEntry",
    "a2_component_range",
    "ext_ger",
    "point_count",
    "scan_states",
    "strata",
    "stratum_dim",
    "subreps",
]

Pair = tuple[KostantPartition, KostantPartition]


def scan_states(dims: Sequence[int], beta: Sequence[int], q: int) -> int:
    """States a scan of ``beta``-dimensional graded subspaces of ``dims``
    visits before pruning: the product of per-vertex Gaussian binomials."""
    _check_scan(dims, beta, q, None)
    return math.prod(linalg.gaussian_binomial(n, b, q) for n, b in zip(dims, beta))


def _check_scan(dims: Sequence[int], beta: Sequence[int], q: int, cap: int | None) -> None:
    """The checks made before any scan: ``beta`` has one entry per vertex,
    none negative, and with a cap the :func:`scan_states` count fits it
    (with none, the count is not computed)."""
    if len(beta) != len(dims):
        raise PartitionError("beta length does not match the rank")
    if any(b < 0 for b in beta):
        raise PartitionError(f"beta {tuple(beta)} has a negative entry")
    if cap is not None:
        linalg.check_cap(scan_states(dims, beta, q), cap, "subrepresentation scan")


class _Subspace(list):
    """An entry of :func:`_subspace_table`: the reduced echelon basis of a
    subspace U of F_q^d, a list of rows u with pivots p, its ``index`` in
    the table, and its ``readings`` (:func:`.linalg.kernel_basis`), one
    per non-pivot column c: x -> x[c] - sum(x[p] * u[c]), which reads x
    modulo U at c.  Raises :class:`RepError` on a malformed basis.
    Shared by every walk: treat it as immutable."""

    __slots__ = ("index", "readings")

    def __init__(self, rows: list[list[int]], d: int, q: int, index: int):
        super().__init__(rows)
        if any(len(u) != d for u in rows):
            raise RepError("basis has wrong width")
        reduced, pivots = linalg.rref(rows, q)
        if len(pivots) != len(rows) or reduced != rows:
            raise RepError("basis is not in reduced echelon form")
        self.index = index
        self.readings = linalg.kernel_basis(rows, d, q)


@_memo
def _subspace_table(d: int, b: int, q: int) -> tuple[_Subspace, ...]:
    """The gaussian_binomial(d, b, q) subspaces of dimension ``b`` of
    F_q^d, in :func:`.linalg.enumerate_subspaces` order."""
    bases = linalg.enumerate_subspaces(d, b, q, None)
    return tuple(_Subspace(rows, d, q, i) for i, rows in enumerate(bases))


def subreps(
    m: Rep, beta: Sequence[int], cap: int | None = linalg.DEFAULT_CAP
) -> Iterator[tuple[list[list[int]], ...]]:
    """All stable graded subspaces of ``m`` with dimension vector ``beta``,
    as tuples of row bases (one per vertex, in reduced echelon form, as
    int lists reduced mod q), entries of :func:`_subspace_table` shared
    by every walk: treat them as immutable.

    The :func:`scan_states` count is checked against ``cap`` before any
    table is built.  At each vertex, in topological order, the walk keeps
    the entries whose residues kill the images of the spaces chosen."""
    beta = tuple(beta)
    _check_scan(m.dims, beta, m.q, cap)
    if not dim_leq(beta, m.dims):
        return
    q = m.q
    tables = [_subspace_table(d, b, q) for d, b in zip(m.dims, beta)]
    arrows = list(zip(m.mats, m.quiver.arrows))
    into = [[(x, s - 1) for x, (s, t) in arrows if t == v] for v in m.quiver.vertices]
    kept: list[dict[tuple[int, ...], list[_Subspace]]] = [{} for _ in beta]
    chosen: list[_Subspace] = []

    def walk(v: int) -> Iterator[tuple[list[list[int]], ...]]:
        if v == len(tables):
            yield tuple(chosen)
            return
        key = tuple(chosen[s].index for _, s in into[v])
        entries = kept[v].get(key)
        if entries is None:
            images = [[sum(map(mul, row, u)) for row in x] for x, s in into[v] for u in chosen[s]]
            entries = kept[v][key] = [
                e
                for e in tables[v]
                if not any(sum(map(mul, r, y)) % q for y in images for r in e.readings)
            ]
        for e in entries:
            chosen.append(e)
            yield from walk(v + 1)
            chosen.pop()

    yield from walk(0)


@_record
class StratumEntry:
    """The ``count`` points whose quotient is M_mu and whose sub is M_nu.

    ``dim`` is ``[nu, lambda] - [nu, nu]``, the :func:`stratum_dim` of
    ``nu`` read with no realization check (the entry realizes it): the
    dimension of the locus of points whose sub is M_nu, over every
    quotient.  Every entry with the same ``nu`` shares it; it is not the
    dimension of this entry's own locus, which can be smaller."""

    mu: KostantPartition
    nu: KostantPartition
    count: int
    dim: int


@_record
class StrataReport:
    """The ``total`` points of Gr_beta(M_lam) over F_q, sorted by
    (quotient, sub) class into entries.  An entry's ``dim`` belongs to
    its sub class, not to the entry: the entries with sub class nu share
    it, and their counts sum to a monic polynomial in q of that degree."""

    lam: KostantPartition
    beta: tuple[int, ...]
    q: int
    entries: tuple[StratumEntry, ...]
    total: int

    def pairs(self) -> frozenset[Pair]:
        return frozenset((e.mu, e.nu) for e in self.entries)


def strata(
    lam: KostantPartition,
    beta: Sequence[int],
    q: int,
    cap: int | None = linalg.DEFAULT_CAP,
) -> StrataReport:
    """Classify every point of the Grassmannian by (quotient, sub) classes.
    The cap counts the states of the walk, or of :func:`point_count` when
    every root of ``lam`` is forced (:func:`_root_kinds`) and none is walked."""
    beta = tuple(beta)
    if any(ranked for _, ranked in _root_kinds(lam)):
        _check_scan(lam.total, beta, q, cap)
    else:
        point_count(lam, beta, q, cap)  # the total, memoized for _strata
    return _strata(lam, beta, q)


@_memo
def _strata(lam: KostantPartition, beta: tuple[int, ...], q: int) -> StrataReport:
    """The report of :func:`strata`: every point walked (:func:`subreps`)
    and classified (:func:`_classifier`) when a root of ``lam`` is ranked,
    else the one stratum of :func:`_forced_counts`, with
    :func:`_colour_count` points."""
    counts: dict[Pair, int] = {}
    if any(ranked for _, ranked in _root_kinds(lam)):
        counts = Counter(map(_classifier(lam, q, beta), subreps(build(lam, q), beta, None)))
        total = sum(counts.values())
    else:
        total = _colour_count(lam, beta, q)
        if total:
            quot_dims, sub_counts, quot_counts = _forced_counts(lam, beta)
            nu = _partition_from_counts(lam.table, sub_counts, beta)
            mu = _partition_from_counts(lam.table, quot_counts, quot_dims, into=False)
            counts[(mu, nu)] = total
    entries = tuple(
        StratumEntry(mu, nu, counts[(mu, nu)], hom_dim(nu, lam) - hom_dim(nu, nu))
        for mu, nu in sorted(counts, key=lambda p: (p[0].parts, p[1].parts))
    )
    return StrataReport(lam, beta, q, entries, total)


@_memo
def _assembled_basis(lam: KostantPartition, a: int, q: int, dual: bool) -> tuple:
    """A basis of Hom(M_a, M), or with ``dual`` of Hom(M, M_a), for
    M = build(lam, q), written as :func:`~.reps.hom_basis` writes one: a
    basis of Hom(M_a, M_b) or Hom(M_b, M_a) (:func:`~.reps._pair_basis`) per
    part b of ``lam``, placed at that part's rows or columns."""
    table, dims, d_a = lam.table, lam.total, lam.table.roots[a]
    basis = []
    start = [0] * len(dims)
    for b in lam.parts:
        d_b = table.roots[b]
        for f in _pair_basis(table, b, a, q) if dual else _pair_basis(table, a, b, q):
            basis.append(tuple(
                [[0] * o + row + [0] * (n - o - e) for row in f_v]
                if dual
                else [[0] * k for _ in range(o)] + f_v + [[0] * k for _ in range(n - o - e)]
                for f_v, o, n, e, k in zip(f, start, dims, d_b, d_a)
            ))
        start = dim_add(start, d_b)
    return tuple(basis)


@_memo
def _root_kinds(lam: KostantPartition) -> tuple:
    """``(into, out_of)``, each ``(forced, ranked)``: the roots a with
    h = dim Hom(M_a, M) > 0, or h = dim Hom(M, M_a) > 0, read off
    :func:`~.homs.hom_ext_vectors`, sorted by the bound sum(w * d), w the
    top or the socle of M_a (:func:`~.homs._top_and_socle`), with no
    matrix built.  ``forced`` holds ``(a, w)`` where h reaches it,
    ``ranked`` holds ``(a, h)`` elsewhere."""
    table = lam.table
    into, _, out_of = hom_ext_vectors(lam)
    sides = (([], []), ([], []))
    for a in range(len(table)):
        for dual, h in enumerate((into[a], out_of[a])):
            if h:
                forced, ranked = sides[dual]
                w = _top_and_socle(table, a)[dual]
                if h == sum(map(mul, w, lam.total)):
                    forced.append((a, w))
                else:
                    ranked.append((a, h))
    return tuple((tuple(forced), tuple(ranked)) for forced, ranked in sides)


def _forced_counts(
    lam: KostantPartition, beta: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """``(quot_dims, sub_counts, quot_counts)`` at every point with sub
    dimension vector ``beta``: the quotient's dimension vector, and the
    counts of the forced roots ``(a, w)`` of :func:`_root_kinds` (0 at the
    others), dim Hom(M_a, U) = sum(w * beta) and
    dim Hom(M/U, M_a) = sum(w * quot_dims), with no matrix read."""
    (into_forced, _), (out_forced, _) = _root_kinds(lam)
    quot_dims = dim_sub(lam.total, beta)
    sub_counts = [0] * len(lam.table)
    for a, w in into_forced:
        sub_counts[a] = sum(map(mul, w, beta))
    quot_counts = [0] * len(lam.table)
    for a, w in out_forced:
        quot_counts[a] = sum(map(mul, w, quot_dims))
    return quot_dims, tuple(sub_counts), tuple(quot_counts)


def _classifier(
    lam: KostantPartition, q: int, beta: tuple[int, ...]
) -> Callable[[tuple[_Subspace, ...]], Pair]:
    """The map from the points :func:`subreps` yields on ``build(lam, q)``
    with dimension vector ``beta`` to their (quotient, sub) pairs.

    The row of a basis element is the sum of its blocks, one per vertex v,
    computed once per table entry U_v met: the residues of the columns of
    f_v, or the rows of g_v applied to the basis of U_v, packed at v's
    place.  Each tuple of ranks is solved once (:func:`_partition_from_counts`)."""
    table, dims = lam.table, lam.total
    quot_dims, forced_sub, forced_quot = _forced_counts(lam, beta)
    width = linalg._slot_bits(q)
    # per ranked root: (dual, a, h, slots in a row, per vertex (first slot,
    # per basis element the columns of f_v or the rows of g_v))
    roots = []
    for dual, (_, ranked) in enumerate(_root_kinds(lam)):
        for a, h in ranked:
            basis = _assembled_basis(lam, a, q, dual)
            if len(basis) != h:  # as where h passes the bound
                raise RepError("a Hom basis disagrees with the closed-form count")
            slots, at = 0, []
            for v, (n, b, k) in enumerate(zip(dims, beta, table.roots[a])):
                at.append((slots, [f[v] if dual else list(zip(*f[v])) for f in basis]))
                slots += k * (b if dual else n - b)
            roots.append((dual, a, h, slots, at))
    blocks: list[dict[int, list[tuple[int, ...]]]] = [{} for _ in dims]
    pairs: dict[tuple[int, ...], Pair] = {}

    def block(v: int, u: _Subspace) -> list[tuple[int, ...]]:
        out = []
        for dual, _, _, _, at in roots:
            first, vectors = at[v]
            ys = u if dual else u.readings
            out.append(tuple(
                linalg._pack([sum(map(mul, x, y)) for x in xs for y in ys], q) << first * width
                for xs in vectors
            ))
        return out

    def classify(point: tuple[_Subspace, ...]) -> Pair:
        parts = []
        for v, u in enumerate(point):
            got = blocks[v].get(u.index)
            if got is None:
                got = blocks[v][u.index] = block(v, u)
            parts.append(got)
        ranks = tuple(
            linalg._packed_rank([sum(row) for row in zip(*(p[i] for p in parts))], q, slots)
            for i, (_, _, _, slots, _) in enumerate(roots)
        )
        pair = pairs.get(ranks)
        if pair is None:
            counts = (list(forced_sub), list(forced_quot))
            for (dual, a, h, _, _), r in zip(roots, ranks):
                counts[dual][a] = h - r
            nu = _partition_from_counts(table, tuple(counts[0]), beta)
            mu = _partition_from_counts(table, tuple(counts[1]), quot_dims, into=False)
            pair = pairs[ranks] = (mu, nu)
        return pair

    return classify


def point_count(
    lam: KostantPartition,
    beta: Sequence[int],
    q: int,
    cap: int | None = linalg.DEFAULT_CAP,
) -> int:
    """Number of F_q-points of the Grassmannian of beta-dimensional subreps,
    counted over the two colour classes of the diagram with no walk; the
    cap is checked against the states of the class enumerated
    (:func:`_colour_classes`)."""
    beta = tuple(beta)
    _check_scan(lam.total, beta, q, None)
    states = _colour_classes(lam, beta, q)[2]
    linalg.check_cap(states, cap, "subspace scan of the colour class with fewer states")
    return _colour_count(lam, beta, q)


def _colour_classes(lam: KostantPartition, beta: tuple[int, ...], q: int) -> tuple:
    """``(xs, ys, states)``: the two colour classes of the diagram, a
    tree, by the parity of the height, xs the one whose subspaces of
    dimension ``beta`` in ``lam.total`` have fewer states (vertex 1's
    class on a tie), and ``states`` that number, a product of Gaussian
    binomials."""
    quiver, dims = lam.table.quiver, lam.total
    xi = _heights(quiver)
    classes = [[v for v in quiver.vertices if (xi[v - 1] - xi[0]) % 2 == c] for c in (0, 1)]
    states = [
        math.prod(linalg.gaussian_binomial(dims[v - 1], beta[v - 1], q) for v in c)
        for c in classes
    ]
    xs, ys = classes if states[0] <= states[1] else classes[::-1]
    return xs, ys, min(states)


@_memo
def _colour_count(lam: KostantPartition, beta: tuple[int, ...], q: int) -> int:
    """Number of points of the Grassmannian of ``beta``-dimensional
    subrepresentations of ``M = build(lam, q)``, counted with no walk.

    A Dynkin diagram is a tree, so its vertices fall into two colour
    classes with no edge inside either, and the subspaces U_x on the one
    with fewer states are enumerated (:func:`_colour_classes`).  A vertex
    y of the other class then only needs A_y <= U_y <= B_y, where A_y is
    spanned by the images of U_s along the arrows s -> y, and B_y is cut
    out by the annihilator of each U_t pulled back along the arrows
    y -> t.  So y contributes the Gaussian
    binomial [dim B_y - dim A_y choose beta_y - dim A_y]_q when
    A_y <= B_y, and 0 otherwise.
    """
    m = build(lam, q)
    quiver, dims, mats = m.quiver, m.dims, m.mats
    xs, ys, _ = _colour_classes(lam, beta, q)
    # per vertex x and subspace U_x: for every arrow at x, the vectors it
    # puts at the other end, images of U_x or functionals vanishing on B_y
    options = []
    for x in xs:
        per_u = []
        for u in _subspace_table(dims[x - 1], beta[x - 1], q):
            vectors = {}
            for k, (s, t) in enumerate(quiver.arrows):
                if s == x:
                    vectors[k] = [[sum(map(mul, row, b)) for row in mats[k]] for b in u]
                elif t == x:
                    columns = list(zip(*mats[k]))
                    vectors[k] = [[sum(map(mul, z, col)) for col in columns] for z in u.readings]
            per_u.append(vectors)
        options.append(per_u)
    arrows_at = [
        (y, [k for k, (_, t) in enumerate(quiver.arrows) if t == y],
         [k for k, (s, _) in enumerate(quiver.arrows) if s == y])
        for y in ys
    ]
    total = 0
    for choice in itertools.product(*options):
        vectors = {k: vs for option in choice for k, vs in option.items()}
        points = 1
        for y, into, out_of in arrows_at:
            images = [a for k in into for a in vectors[k]]
            forms = [f for k in out_of for f in vectors[k]]
            if any(sum(map(mul, f, a)) % q for f in forms for a in images):
                points = 0  # A_y is not inside B_y
                break
            low = linalg.rank(images, q)
            high = dims[y - 1] - linalg.rank(forms, q)
            points *= linalg.gaussian_binomial(high - low, beta[y - 1] - low, q)
            if not points:
                break
        total += points
    return total


def _summand_point(lam: KostantPartition, nu: KostantPartition, q: int) -> tuple[_Subspace, ...]:
    """The point U = M_nu of ``build(lam, q)``, ``nu``'s parts a
    sub-multiset of ``lam``'s: at each vertex, the unit vectors at the
    coordinates of the first copies of nu's parts among lam's, a summand
    and so stable (:func:`_unit_subspace`)."""
    left = Counter(nu.parts)
    rows: list[list[int]] = [[] for _ in lam.total]
    start = [0] * len(lam.total)
    for b in lam.parts:
        d_b = lam.table.roots[b]
        if left[b]:
            left[b] -= 1
            for v, (o, k) in enumerate(zip(start, d_b)):
                rows[v].extend(range(o, o + k))
        start = dim_add(start, d_b)
    return tuple(_unit_subspace(d, tuple(at), q) for at, d in zip(rows, lam.total))


@_memo
def _unit_subspace(d: int, at: tuple[int, ...], q: int) -> _Subspace:
    """The span of the unit vectors of F_q^d at the sorted coordinates
    ``at``, as an entry outside any table (index -1), memoized."""
    return _Subspace([[int(c == i) for c in range(d)] for i in at], d, q, -1)


def _realizes(lam: KostantPartition, beta: tuple[int, ...], q: int, pair: Pair) -> bool:
    """Whether ``pair`` (quotient mu, sub nu, of dimension vectors
    dim lam - beta and beta) is realized by a point of
    Gr_beta(build(lam, q)), deciding as little as it can: for the split
    class lam = mu + nu, the summand point M_nu (:func:`_summand_point`)
    is classified; when every root is forced, the counts read off
    ``beta`` (:func:`_forced_counts`), those of every point, are compared
    with the pair's, and points are counted (:func:`_colour_count`) only
    if they match; otherwise the walk stops at the first point of class
    ``pair``.  The cap is the caller's, on :func:`_realize_states`."""
    mu, nu = pair
    if lam == mu + nu:
        return _classifier(lam, q, beta)(_summand_point(lam, nu, q)) == pair
    if not any(ranked for _, ranked in _root_kinds(lam)):
        counts = _forced_counts(lam, beta)[1:]
        return counts == (hom_ext_vectors(nu)[0], hom_ext_vectors(mu)[2]) and bool(
            _colour_count(lam, beta, q)
        )
    classify = _classifier(lam, q, beta)
    return any(classify(point) == pair for point in subreps(build(lam, q), beta, None))


def _realize_states(lam: KostantPartition, beta: tuple[int, ...], q: int, pair: Pair) -> int:
    """The states :func:`_realizes` may visit, which a cap counts: none
    for the split class of ``pair``, those of the colour class enumerated
    (:func:`_colour_classes`) when every root is forced, else
    :func:`scan_states`."""
    if lam == pair[0] + pair[1]:
        return 0
    if not any(ranked for _, ranked in _root_kinds(lam)):
        return _colour_classes(lam, beta, q)[2]
    return scan_states(lam.total, beta, q)


def ext_ger(
    lam: KostantPartition,
    alpha: Sequence[int],
    beta: Sequence[int],
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int | None = linalg.DEFAULT_CAP,
) -> frozenset[Pair]:
    """The component labels: the generic pairs (:func:`.extensions.generic_pairs`)
    with ``[nu, lambda] = [nu, nu] + [nu, mu]`` (:func:`.extensions._hom_exact`)."""
    from .extensions import _hom_exact, generic_pairs  # extensions imports this module

    pairs = generic_pairs(lam, alpha, beta, fields=fields, cap=cap)
    return frozenset(p for p in pairs if _hom_exact(lam, *p))


def stratum_dim(
    lam: KostantPartition,
    nu: KostantPartition,
    *,
    q: int = 2,
    cap: int | None = linalg.DEFAULT_CAP,
) -> int:
    """Dimension ``[nu, lambda] - [nu, nu]`` of the sub-class locus, the
    points whose subrepresentation is M_nu, over every quotient:
    Hom^inj(M_nu, M_lambda) / Aut M_nu (Caldero-Reineke).  Every
    :class:`StratumEntry` with sub class ``nu`` carries it as ``dim``; it
    is not the dimension of an entry's own (mu, nu) locus.  The sub class
    is required to be realized over F_q, a pair of
    :func:`.extensions.ext_pairs` with no point walked, so the cap counts
    what it counts: the Kostant partitions of dim lambda - dim nu and of
    dim nu, then the u-route representatives of its queries."""
    from .extensions import ext_pairs  # extensions imports this module

    beta = nu.total
    pairs = ext_pairs(lam, dim_sub(lam.total, beta), beta, fields=(q,), cap=cap)
    if not any(pair[1] == nu for pair in pairs):
        raise PartitionError(
            f"{kp_format(nu)} is not realized as a sub class of {kp_format(lam)}"
        )
    return hom_dim(nu, lam) - hom_dim(nu, nu)


def a2_component_range(
    d: Sequence[int], e: Sequence[int], r: int
) -> frozenset[int]:
    """Closed-form component labels for the A2 Grassmannian family.

    ``M`` is the representation of ``1 -> 2`` with dimension vector
    ``d`` whose arrow matrix has rank ``r``; subspaces have dimension
    vector ``e``.  In the regime ``r < e_1 - e_2 + d_2`` the irreducible
    components are labeled by the rank ``a`` of the generic
    subrepresentation, and ``a`` ranges over::

        max(0, r + e_1 - d_1, r - d_2 + e_2) <= a <= min(e_1, e_2, r)

    Returns the (possibly empty) set of labels.
    """
    d1, d2 = int(d[0]), int(d[1])
    e1, e2 = int(e[0]), int(e[1])
    if not (0 <= r <= min(d1, d2)):
        raise PartitionError(f"rank {r} impossible for dims {d1},{d2}")
    if not (0 <= e1 <= d1 and 0 <= e2 <= d2):
        raise PartitionError("subspace dimensions exceed ambient dimensions")
    if not (r < e1 - e2 + d2):
        raise PartitionError("rank outside the closed-form regime r < e1 - e2 + d2")
    lo = max(0, r + e1 - d1, r - d2 + e2)
    hi = min(e1, e2, r)
    return frozenset(range(lo, hi + 1))

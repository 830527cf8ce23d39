"""Quiver Grassmannians of subrepresentations over small finite fields.

``subreps`` enumerates all stable graded subspaces of a built
representation with a prescribed dimension vector, walking vertices in
topological order so that at each vertex only subspaces containing the
images of the already-chosen spaces are generated.  The points fall
into strata by the isomorphism classes of their subrepresentation and
quotient, pairs ``(quotient class mu, sub class nu)`` recorded in a
:class:`StrataReport`.

Points are classified without building the sub or the quotient.  A map
out of an indecomposable M_a is fixed by its values on the generators of
M_a (a map vanishing there vanishes on the submodule they generate,
which is M_a), and a map into M_a by its values under the cogenerators
(the coordinate functionals that generate its dual).  The number w_v of
them at vertex ``v`` is the multiplicity of the simple S_v in the top
of M_a, dim Hom(M_a, S_v), or in its socle, dim Hom(S_v, M_a), both read
off the closed-form Hom counts.  With ``d`` the dimension vector of M,
this bounds dim Hom(M_a, M) or dim Hom(M, M_a) by sum(w * d).  Once per
``(lam, q)`` every root is sorted by comparing its closed-form count
with that bound:

* a root that reaches it is *forced*: every choice of values is a map,
  so at a point U, dim Hom(M_a, U) = sum(w * beta) and
  dim Hom(M/U, M_a) = sum(w * (d - beta)), read off ``beta`` with no
  matrix at all.  The projective P_i and the injective I_i are the
  case w = e_i, h = d_i;
* for the other roots, the *ranked* ones, M_a is built and bases of
  Hom(M_a, M) and Hom(M, M_a) are computed (kernels of the intertwiner
  systems of :mod:`.reps`).  For a point U with projection
  ``pi: M -> M/U`` the counts are then a few small ranks:
  dim Hom(M_a, U) = dim Hom(M_a, M) - rank{pi f} over the basis f and
  dim Hom(M/U, M_a) = dim Hom(M, M_a) - rank{g|_U} over the basis g,
  each morphism read through its whole matrices.  Per point, every
  column of every f is reduced modulo U, read off the reduced echelon
  basis of U, and every row of every g is restricted to U.

The sub follows from the first counts by ``identify``'s forward
triangular solve, the quotient from the second by the transposed solve
from the last root down; both check the counts and the dimension
vector, and each point is checked to be stable.  Everything per point
is int-list arithmetic.  ``reps.sub_quotient`` with ``identify`` is the
matrix-level route the tests compare against.

Points are counted with no walk (``point_count``).  A Dynkin diagram is
a tree, so its vertices split into two colour classes with no edge
inside either.  Once the subspaces on one class are fixed, each vertex
y of the other needs only A_y <= U_y <= B_y: A_y is spanned by the
images of its in-neighbours' subspaces, B_y is the common preimage of
its out-neighbours' ones, and the U_y between them are counted by one
Gaussian binomial.  So only the class with fewer states is enumerated.
When every root of ``(lam, q)`` is forced, every count at a point is
read off ``beta``, so the points lie in one stratum: ``strata`` takes
its total from this count, solves its pair from the forced counts and
walks no point.  Only a ``lam`` with a ranked root is walked and
classified point by point, and its total is the number of points
walked.  The tests check the count and the shortcut against that walk.

``ext_pairs`` unions the realized pairs over several fields.  A
realized pair is *generic* when neither coordinate can be degenerated
while keeping the other fixed among those pairs; the generic pairs
whose sub class satisfies the hom-count equality
``[nu, lambda] = [nu, nu] + [nu, mu]`` index the irreducible components
of the Grassmannian (``ext_ger``).

Point counts are exact; over F_q the count of a stratum is a polynomial
value in q, which is how the tests pin projective lines and points.
Each entry of a report carries ``dim = [nu, lambda] - [nu, nu]``, the
dimension of the sub-class locus: the points whose sub is M_nu, over
every quotient, which is Hom^inj(M_nu, M_lambda) / Aut M_nu
(Caldero-Reineke, "On the quiver Grassmannian in the acyclic case",
J. Pure Appl. Algebra 212 (2008)).  Every entry with the same sub class
shares it, so it is not the dimension of an entry's own (mu, nu) locus:
the counts of the entries with sub class nu sum to a monic polynomial
in q of degree ``dim``, and exactly one of them has that degree.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import mul
from typing import Iterator, Sequence

from . import linalg
from .homs import hom_dim, hom_ext_pair, hom_ext_vectors
from .order import lt
from .quiver import (
    KostantPartition,
    PartitionError,
    _heights,
    _record,
    dim_add,
    dim_leq,
    dim_sub,
    kp_format,
)
from .reps import (
    Rep,
    RepError,
    _partition_from_counts,
    build,
    hom_basis,
    indecomposable,
)

__all__ = [
    "StrataReport",
    "StratumEntry",
    "a2_component_range",
    "ext_ger",
    "ext_pairs",
    "generic_pairs",
    "point_count",
    "realized_pairs",
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
    and with a cap the :func:`scan_states` count fits it (with none, the
    count is not computed)."""
    if len(beta) != len(dims):
        raise PartitionError("beta length does not match the rank")
    if cap is not None:
        linalg.check_cap(scan_states(dims, beta, q), cap, "subrepresentation scan")


def subreps(
    m: Rep, beta: Sequence[int], cap: int | None = linalg.DEFAULT_CAP
) -> Iterator[tuple[list[list[int]], ...]]:
    """All stable graded subspaces of ``m`` with dimension vector ``beta``,
    as tuples of row bases (one per vertex, in reduced echelon form, as
    int lists reduced mod q).

    The :func:`scan_states` count is checked against ``cap`` before any
    enumeration starts.  The walk visits vertices in topological order
    and, at each, only the subspaces containing the images of the spaces
    already chosen.
    """
    beta = tuple(beta)
    _check_scan(m.dims, beta, m.q, cap)
    quiver = m.quiver
    if not dim_leq(beta, m.dims):
        return
    chosen: list[list[list[int]]] = []

    def walk(v: int) -> Iterator[tuple[list[list[int]], ...]]:
        if v > quiver.rank:
            yield tuple(chosen)
            return
        images = [
            [sum(map(mul, x_row, u)) for x_row in m.mats[k]]
            for k, (s, t) in enumerate(quiver.arrows)
            if t == v
            for u in chosen[s - 1]
        ]
        d, b = m.dims[v - 1], beta[v - 1]
        for w in linalg.subspaces_containing(images, d, b, m.q, None):
            chosen.append(w)
            yield from walk(v + 1)
            chosen.pop()

    yield from walk(1)


@_record
class StratumEntry:
    """The ``count`` points whose quotient is M_mu and whose sub is M_nu.

    ``dim`` is :func:`stratum_dim` of ``nu``, the dimension of the locus
    of points whose sub is M_nu, over every quotient.  Every entry with
    the same ``nu`` shares it; it is not the dimension of this entry's
    own locus, which can be smaller."""

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
    """Classify every point of the Grassmannian by (quotient, sub) classes."""
    beta = tuple(beta)
    _check_scan(lam.total, beta, q, cap)
    return _strata(lam, beta, q)


@functools.cache
def _strata(lam: KostantPartition, beta: tuple[int, ...], q: int) -> StrataReport:
    """The report of :func:`strata`.  When some root of ``(lam, q)`` is
    ranked, every point is walked (:func:`subreps`) and classified
    (:func:`_classify`), and the total is the number of points walked.
    When every root is forced, the total is :func:`_colour_count`, and
    every count at a point is read off ``beta``, so all the points lie in
    one stratum, whose pair is solved from :func:`_forced_counts`: no
    point is walked."""
    counts: dict[Pair, int] = {}
    _, (_, into_ranked), (_, out_ranked) = _hom_bases(lam, q)
    if into_ranked or out_ranked:
        for bases in subreps(build(lam, q), beta, None):
            pair = _classify(lam, q, bases)
            counts[pair] = counts.get(pair, 0) + 1
        total = sum(counts.values())
    else:
        total = _colour_count(lam, beta, q)
        if total:
            quot_dims, sub_counts, quot_counts = _forced_counts(lam, q, beta)
            nu = _partition_from_counts(lam.table, sub_counts, beta)
            mu = _partition_from_counts(lam.table, quot_counts, quot_dims, into=False)
            counts[(mu, nu)] = total
    entries = tuple(
        StratumEntry(mu, nu, counts[(mu, nu)], stratum_dim(lam, nu, check=False))
        for mu, nu in sorted(counts, key=lambda p: (p[0].parts, p[1].parts))
    )
    return StrataReport(lam, beta, q, entries, total)


@functools.cache
def _hom_bases(lam: KostantPartition, q: int) -> tuple:
    """What :func:`_classify` reads: ``(mats, into, out_of)``.

    ``mats`` are the arrow matrices of ``M = build(lam, q)``, whose
    dimension vector is ``d``.  ``into`` covers every root index ``a``
    with h = dim Hom(M_a, M) > 0, ``out_of`` every ``a`` with
    h = dim Hom(M, M_a) > 0, both read off :func:`~.homs.hom_ext_vectors`.
    ``w[v]`` is the multiplicity of the simple S_v in the top of M_a,
    dim Hom(M_a, S_v), for ``into``, and in its socle, dim Hom(S_v, M_a),
    for ``out_of``, both read off :func:`~.homs.hom_ext_pair`: the number
    of generators (cogenerators) of M_a at ``v``.  A map is fixed by its
    values there, so h <= sum(w * d).  Each side is ``(forced, ranked)``:

    * ``forced`` holds ``(a, w)`` for the roots with h = sum(w * d): every
      choice of values is a map, so the count at a point U is
      sum(w * beta) into U and sum(w * (d - beta)) out of M/U
      (:func:`_forced_counts`), with no matrix built;
    * ``ranked`` holds ``(a, fs)`` for the roots with h < sum(w * d): per
      element f of a basis of Hom(M_a, M), the ``(v, column)`` pairs of
      every column of f_v, or per element g of a basis of Hom(M, M_a),
      the ``(v, row)`` pairs of every row of g_v.
    """
    table = lam.table
    m = build(lam, q)
    into, _, out_of = hom_ext_vectors(lam)
    simples = [table.simple_root_index(v) for v in table.quiver.vertices]
    sides = (([], []), ([], []))
    for a in range(len(table)):
        for dual, h in enumerate((into[a], out_of[a])):
            if not h:
                continue
            forced, ranked = sides[dual]
            w = tuple(
                (hom_ext_pair(table, s, a) if dual else hom_ext_pair(table, a, s))[0]
                for s in simples
            )
            bound = sum(map(mul, w, m.dims))
            if h == bound:
                forced.append((a, w))
                continue
            if h > bound:
                raise RepError("a closed-form Hom count exceeds sum(w * d)")
            m_a = indecomposable(table, a, q)
            basis = hom_basis(m, m_a) if dual else hom_basis(m_a, m)
            if len(basis) != h:
                raise RepError("a Hom basis disagrees with the closed-form count")
            if dual:  # the rows of g
                fs = [[(v, row) for v, g_v in enumerate(g) for row in g_v] for g in basis]
            else:  # the columns of f
                fs = [[(v, col) for v, f_v in enumerate(f) for col in zip(*f_v)] for f in basis]
            ranked.append((a, fs))
    return (m.mats,) + tuple((tuple(forced), tuple(ranked)) for forced, ranked in sides)


@functools.cache
def _forced_counts(
    lam: KostantPartition, q: int, beta: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """``(quot_dims, sub_counts, quot_counts)`` at every point with sub
    dimension vector ``beta``: the quotient's dimension vector, and the
    counts of the forced roots ``(a, w)`` of :func:`_hom_bases` (0 at the
    others), dim Hom(M_a, U) = sum(w * beta) with w the top of M_a and
    dim Hom(M/U, M_a) = sum(w * quot_dims) with w its socle.  No matrix
    is read: w and forcedness come from the closed form and d = dim lam."""
    _, (into_forced, _), (out_forced, _) = _hom_bases(lam, q)
    quot_dims = dim_sub(lam.total, beta)
    sub_counts = [0] * len(lam.table)
    for a, w in into_forced:
        sub_counts[a] = sum(map(mul, w, beta))
    quot_counts = [0] * len(lam.table)
    for a, w in out_forced:
        quot_counts[a] = sum(map(mul, w, quot_dims))
    return quot_dims, tuple(sub_counts), tuple(quot_counts)


def _classify(lam: KostantPartition, q: int, bases: list[list[list[int]]]) -> Pair:
    """The (quotient, sub) classes of the point of ``build(lam, q)`` whose
    subspace at vertex ``v`` has the reduced row-echelon basis
    ``bases[v-1]`` (int-list rows, reduced mod q).

    With ``pi`` the projection onto M/U and the Hom bases of
    :func:`_hom_bases`, dim Hom(M_a, U) = h - rank{pi f} and
    dim Hom(M/U, M_a) = h' - rank{g|_U}, except that the forced roots
    read their counts off the dimension vectors; the sub and the
    quotient follow by the two triangular solves of
    :func:`reps._partition_from_counts`.  Raises :class:`RepError` if a
    basis is malformed or the subspace is not stable.
    """
    mats, (_, into_ranked), (_, out_ranked) = _hom_bases(lam, q)
    table = lam.table
    dims = lam.total
    beta = tuple(map(len, bases))
    free = []
    for v, (rows, d) in enumerate(zip(bases, dims), start=1):
        pivots: list[int] = []
        for u in rows:
            if len(u) != d:
                raise RepError(f"basis at vertex {v} has wrong width")
            lead = next((c for c, x in enumerate(u) if x % q), d)
            if lead == d or u[lead] % q != 1 or (pivots and lead <= pivots[-1]):
                raise RepError(f"basis at vertex {v} is not in reduced echelon form")
            pivots.append(lead)
        if any(u[p] % q for i, u in enumerate(rows) for p in pivots[i + 1 :]):
            raise RepError(f"basis at vertex {v} is not in reduced echelon form")
        # x modulo U_v is read at each free column c of the echelon basis
        # as x[c] - sum_i x[pivot_i] * rows[i][c]
        free.append(
            [(c, [(p, u[c]) for p, u in zip(pivots, rows)]) for c in range(d) if c not in pivots]
        )

    def residue(x: Sequence[int], v: int) -> list[int]:
        return [x[c] - sum(x[p] * e for p, e in row) for c, row in free[v]]

    for k, (s, t) in enumerate(table.quiver.arrows):
        for u in bases[s - 1]:
            image = [sum(map(mul, x_row, u)) for x_row in mats[k]]
            if any(x % q for x in residue(image, t - 1)):
                raise RepError(f"subspace is not stable along arrow {s}->{t}")
    quot_dims, forced_sub, forced_quot = _forced_counts(lam, q, beta)
    sub_counts = list(forced_sub)
    for a, fs in into_ranked:
        system = [[x for v, col in f for x in residue(col, v)] for f in fs]
        sub_counts[a] = len(fs) - linalg.rank(system, q)
    quot_counts = list(forced_quot)
    for a, gs in out_ranked:
        system = [[sum(map(mul, row, u)) for v, row in g for u in bases[v]] for g in gs]
        quot_counts[a] = len(gs) - linalg.rank(system, q)
    nu = _partition_from_counts(table, tuple(sub_counts), beta)
    mu = _partition_from_counts(table, tuple(quot_counts), quot_dims, into=False)
    return mu, nu


def point_count(
    lam: KostantPartition,
    beta: Sequence[int],
    q: int,
    cap: int | None = linalg.DEFAULT_CAP,
) -> int:
    """Number of F_q-points of the Grassmannian of beta-dimensional subreps,
    counted over the two colour classes of the diagram with no walk; the
    cap is checked as :func:`strata` checks it."""
    beta = tuple(beta)
    _check_scan(lam.total, beta, q, cap)
    return _colour_count(lam, beta, q)


@functools.cache
def _colour_count(lam: KostantPartition, beta: tuple[int, ...], q: int) -> int:
    """Number of points of the Grassmannian of ``beta``-dimensional
    subrepresentations of ``M = build(lam, q)``, counted with no walk.

    A Dynkin diagram is a tree, so its vertices fall into two colour
    classes with no edge inside either.  The subspaces U_x on the class
    with fewer states (a product of Gaussian binomials) are enumerated.
    A vertex y of the other class then only needs A_y <= U_y <= B_y,
    where A_y is spanned by the images of U_s along the arrows s -> y,
    and B_y is the common preimage of U_t along the arrows y -> t (cut
    out by the annihilator of each U_t pulled back to M_y).  So y
    contributes the Gaussian binomial
    [dim B_y - dim A_y choose beta_y - dim A_y]_q when A_y <= B_y, and 0
    otherwise.
    """
    m = build(lam, q)
    quiver, dims, mats = m.quiver, m.dims, m.mats
    # the parity of the height colours the tree, vertex 1's class first
    xi = _heights(quiver)
    classes = [[v for v in quiver.vertices if (xi[v - 1] - xi[0]) % 2 == c] for c in (0, 1)]
    states = [
        math.prod(linalg.gaussian_binomial(dims[v - 1], beta[v - 1], q) for v in c)
        for c in classes
    ]
    xs, ys = classes if states[0] <= states[1] else classes[::-1]
    # per vertex x and subspace U_x: for every arrow at x, the vectors it
    # puts at the other end, images of U_x or functionals vanishing on B_y
    options = []
    for x in xs:
        per_u = []
        for u in linalg.enumerate_subspaces(dims[x - 1], beta[x - 1], q, None):
            vectors = {}
            for k, (s, t) in enumerate(quiver.arrows):
                if s == x:
                    vectors[k] = [[sum(map(mul, row, b)) for row in mats[k]] for b in u]
                elif t == x:
                    columns = list(zip(*mats[k]))
                    vectors[k] = [
                        [sum(map(mul, z, col)) for col in columns]
                        for z in linalg.kernel_basis(u, dims[x - 1], q)
                    ]
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


def realized_pairs(
    lam: KostantPartition,
    beta: Sequence[int],
    q: int,
    cap: int | None = linalg.DEFAULT_CAP,
) -> frozenset[Pair]:
    return strata(lam, beta, q, cap).pairs()


def ext_pairs(
    lam: KostantPartition,
    alpha: Sequence[int],
    beta: Sequence[int],
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int | None = linalg.DEFAULT_CAP,
) -> frozenset[Pair]:
    """All (quotient, sub) class pairs realized by stable subspaces of
    ``build(lam)`` with sub dimension vector ``beta``, unioned over the
    fields."""
    if not fields:
        raise ValueError("ext_pairs needs at least one field")
    alpha, beta = tuple(alpha), tuple(beta)
    if dim_add(alpha, beta) != lam.total:
        raise PartitionError(
            f"alpha + beta = {dim_add(alpha, beta)} does not match dim lambda = {lam.total}"
        )
    return frozenset().union(*(realized_pairs(lam, beta, q, cap) for q in fields))


def generic_pairs(
    lam: KostantPartition,
    alpha: Sequence[int],
    beta: Sequence[int],
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int | None = linalg.DEFAULT_CAP,
) -> frozenset[Pair]:
    """Realized pairs that are minimal in each coordinate separately:
    no realized pair degenerates the sub keeping the quotient, and none
    degenerates the quotient keeping the sub."""
    realized = ext_pairs(lam, alpha, beta, fields=fields, cap=cap)
    out = set()
    for mu, nu in realized:
        blocked = any(
            (mu2 == mu and lt(nu2, nu)) or (nu2 == nu and lt(mu2, mu))
            for mu2, nu2 in realized
        )
        if not blocked:
            out.add((mu, nu))
    return frozenset(out)


def ext_ger(
    lam: KostantPartition,
    alpha: Sequence[int],
    beta: Sequence[int],
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int | None = linalg.DEFAULT_CAP,
) -> frozenset[Pair]:
    """Generic pairs satisfying ``[nu, lambda] = [nu, nu] + [nu, mu]``;
    these index the irreducible components of the Grassmannian."""
    pairs = generic_pairs(lam, alpha, beta, fields=fields, cap=cap)
    return frozenset(
        (mu, nu)
        for mu, nu in pairs
        if hom_dim(nu, lam) == hom_dim(nu, nu) + hom_dim(nu, mu)
    )


def stratum_dim(
    lam: KostantPartition,
    nu: KostantPartition,
    *,
    check: bool = True,
    q: int = 2,
    cap: int | None = linalg.DEFAULT_CAP,
) -> int:
    """Dimension ``[nu, lambda] - [nu, nu]`` of the sub-class locus, the
    points whose subrepresentation is M_nu, over every quotient:
    Hom^inj(M_nu, M_lambda) / Aut M_nu (Caldero-Reineke).  Every
    :class:`StratumEntry` with sub class ``nu`` carries it as ``dim``; it
    is not the dimension of an entry's own (mu, nu) locus.  With
    ``check`` the sub class is required to be realized (checked over
    F_q)."""
    if check:
        beta = nu.total
        if not any(pair[1] == nu for pair in realized_pairs(lam, beta, q, cap)):
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

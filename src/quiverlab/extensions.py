"""Extension sets, generic extensions, and dimension bookkeeping.

``ext_set(mu, nu)`` computes every isomorphism class that occurs as the
middle term of a short exact sequence with sub class ``nu`` and quotient
class ``mu``.  Two independent routes are kept deliberately separate:

* u-enumeration: every middle term is a block representation
  ``[[y, u], [0, x]]`` with ``y = build(nu)``, ``x = build(mu)`` and
  ``u`` in the affine space of connecting maps (one
  ``beta_t x alpha_s`` block per arrow).  E_u depends only on the
  orbit of [u] in Ext^1(M_mu, M_nu) under Aut(M_mu) x Aut(M_nu): for g
  in Aut(M_nu) and h in Aut(M_mu), conjugating by diag(g, h) gives
  E_{g u h^-1} = E_u.  The general linear groups of the repeated parts
  suffice: one u is classified per subspace of the Ext^1 coordinates of
  each root's copies (:func:`_ext_set_u`), on the side, nu's or mu's,
  with fewer of them.  For ``[1,1]+[1,1]+[1,1]`` by ``[2,2]+[2,2]+[2,2]``
  in A2 over GF(5) that is 64 points, where u-space and Ext^1 are both
  F_5^9 and one u per line would be 1 + (5^9 - 1)/4.  So u is written
  in Ext^1 coordinates, ext(c, b) per part c of mu and part b of nu
  (:func:`_part_pairs`), and E_u is not built: dim Hom(M_a, E_u) is
  hom(a, nu) + hom(a, mu) minus the rank of the connecting map
  Hom(M_a, M_mu) -> Ext^1(M_a, M_nu), f -> [u f].  Its packed columns,
  one per Ext^1 coordinate, are pieces of the Yoneda pairing
  Ext^1(M_c, M_b) x Hom(M_a, M_c) -> Ext^1(M_a, M_b), one per triple of
  roots (:func:`_yoneda`); a u sums those of its nonzero coordinates
  into packed rows to rank, and the class follows by ``identify``'s
  triangular solve.
* subrep-filter: a candidate ``lam <= mu (+) nu`` belongs to the set iff
  the Grassmannian of ``build(lam)`` realizes the pair ``(mu, nu)``.
  Only the candidates in the hom box are asked about:
  [a, nu] <= [a, lam] and [mu, a] <= [lam, a] for every root a, since
  Hom(M_a, -) and Hom(-, M_a) are left exact.  Each is decided by
  :func:`.grassmannian._realizes`, which classifies the summand point
  M_nu of the split class, reads the one pair of an all-forced ``lam``,
  and otherwise walks until its first point of class (mu, nu), so only a
  candidate outside the set gets a whole walk.  The cap counts, per
  field, what those decisions may visit
  (:func:`.grassmannian._realize_states`).

Both run over small prime fields; the result carries a stability flag
recording whether every field produced the same set.

A point U = M_nu of Gr_beta(M_lam) with M_lam/U = M_mu is a short exact
sequence 0 -> M_nu -> M_lam -> M_mu -> 0, so (mu, nu) is realized exactly
when lam is in ``ext_set(mu, nu)``.  ``ext_pairs``, ``generic_pairs``,
``ext_min`` and ``klr``'s component labels (:func:`_component_labels`)
ask that, with no Grassmannian walked.

The numerical bookkeeping for a triple ``(lam, mu, nu)`` — codimension
``d_lambda``, ``e_lambda = n_u + [lam, mu*nu] - [lam, lam]`` with n_u
the dimension of the connecting-map space (it can be negative), and
``2*e + d`` — is implemented from the closed hom/ext
formulas, with the two equivalent expressions for ``d_lambda`` both
evaluated and compared.
"""

from __future__ import annotations

import itertools
import math
from operator import add, le, mul
from typing import Callable, Iterator, Sequence

from . import grassmannian, linalg
from .homs import ext_dim, hom_dim, hom_ext_pair, hom_ext_vectors
from .order import _check_kp_cap, leq, lt
from .quiver import (
    KostantPartition,
    PartitionError,
    QuiverError,
    RootTable,
    _memo,
    _record,
    dim_add,
    euler_form,
    kp_enumerate,
    kp_format,
)
from .reps import (
    Rep,
    RepError,
    _intertwiner_system,
    _pair_basis,
    _partition_from_counts,
    identify,  # not called here: bench/smoke_test.py rebinds it to test the tracer
    indecomposable,
)

__all__ = [
    "METHOD_FILTER",
    "METHOD_U",
    "ExtSetResult",
    "d_lambda",
    "degree_bound",
    "e_lambda",
    "ext_min",
    "ext_pairs",
    "ext_set",
    "generic_ext",
    "generic_pairs",
    "hom_omega_dim",
    "orbit_dim",
]

METHOD_U = "u-enumeration"
METHOD_FILTER = "subrep-filter"

Pair = tuple[KostantPartition, KostantPartition]


def _normalize_method(method: str) -> str:
    low = method.lower()
    if low in ("u", METHOD_U):
        return METHOD_U
    if low in ("subrep", METHOD_FILTER):
        return METHOD_FILTER
    raise ValueError(f"unknown method {method!r}")


def hom_omega_dim(alpha: Sequence[int], beta: Sequence[int], quiver) -> int:
    """dim of the space of connecting maps: sum over arrows of
    alpha_source * beta_target."""
    return sum(alpha[s - 1] * beta[t - 1] for s, t in quiver.arrows)


@_record
class ExtSetResult:
    """The middle terms of :func:`ext_set`, unioned over ``fields``.

    ``stable`` is true when every field found the same classes.  It
    compares the fields given and promises nothing with a single field,
    where it is always true, even when that field misses a middle term
    (in D4, GF(2) misses ``1,2,1,1`` for ``1,1,0,0`` by ``0,1,1,1``)."""

    mu: KostantPartition
    nu: KostantPartition
    classes: frozenset[KostantPartition]
    method: str
    fields: tuple[int, ...]
    stable: bool


def _coboundaries(x: Rep, y: Rep) -> list[tuple[int, ...]]:
    """The coboundaries h -> (h_t X_k - Y_k h_s) of the unit vectors h,
    the columns of the unpacked rows of ``reps._intertwiner_system(x, y)``:
    cocycles, one ``dims_y[t] x dims_x[s]`` block per arrow ``s -> t``,
    arrow by arrow and row by row."""
    rows, offsets = _intertwiner_system(x, y)
    return list(zip(*(linalg._unpack(row, x.q, offsets[-1]) for row in rows)))


@_memo
def _pair_ext(table: RootTable, a: int, b: int, q: int) -> tuple:
    """``(free, coords)`` for Ext^1(M_a, M_b), memoized per pair of roots:
    the free (non-pivot) positions c of the reduced echelon form E of the
    coboundaries of M_a into M_b (:func:`_coboundaries`), and the rows
    reading a cocycle x there, x[c] - sum_i x[pivot_i] E[i][c]."""
    x, y = indecomposable(table, a, q), indecomposable(table, b, q)
    cocycles = _coboundaries(x, y)
    width = hom_omega_dim(x.dims, y.dims, table.quiver)
    pivots = set(linalg.rref(cocycles, q)[1])
    free = tuple(c for c in range(width) if c not in pivots)
    return free, linalg.kernel_basis(cocycles, width, q)


def _part_pairs(mu: KostantPartition, nu: KostantPartition):
    """``(i, j, c, b, e)`` for each part i of mu and part j of nu whose
    roots c, b have e = ext(c, b) > 0, asked once per pair of distinct
    roots: the order of the Ext^1(M_mu, M_nu) coordinates, e per pair,
    nu's parts outermost, so that each one's coordinates are contiguous."""
    table, runs = mu.table, _runs(mu.parts)
    for b, j0, n in _runs(nu.parts):
        meets = [(c, i0, m, e) for c, i0, m in runs if (e := hom_ext_pair(table, c, b)[1])]
        for j in range(j0, j0 + n):
            for c, i0, m, e in meets:
                for i in range(i0, i0 + m):
                    yield i, j, c, b, e


@_memo
def _yoneda(table: RootTable, a: int, c: int, b: int, q: int) -> tuple:
    """The Yoneda pairing Ext^1(M_c, M_b) x Hom(M_a, M_c) -> Ext^1(M_a, M_b),
    memoized per triple of roots: per free position of :func:`_pair_ext`
    of c and b and per f in the basis of Hom(M_a, M_c)
    (:func:`.reps._pair_basis`), the packed coordinates of [x f]
    for x the unit cocycle there.  If x is 1 at row r, column l of its
    block at the arrow ``s -> t``, x f is row l of f_s there, so a
    coordinate is its reading row's (arrow, r) block dotted with it."""
    roots = table.roots
    fs, coords = _pair_basis(table, a, c, q), _pair_ext(table, a, b, q)[1]
    spots, at = [], 0  # per position of x: (s - 1, l, where its row is read)
    for s, t in table.quiver.arrows:
        n = roots[a][s - 1]
        for _ in range(roots[b][t - 1]):
            spots.extend((s - 1, l, slice(at, at + n)) for l in range(roots[c][s - 1]))
            at += n
    return tuple(
        tuple(linalg._pack([sum(map(mul, x[read], f[v][l])) for x in coords], q) for f in fs)
        for v, l, read in map(spots.__getitem__, _pair_ext(table, c, b, q)[0])
    )


def _connecting_maps(mu: KostantPartition, nu: KostantPartition, q: int) -> tuple:
    """What :func:`_classify_u` reads: ``(base, maps)``.

    For E_u in 0 -> M_nu -> E_u -> M_mu -> 0 the exact sequence
    0 -> Hom(M_a, M_nu) -> Hom(M_a, E_u) -> Hom(M_a, M_mu) -> Ext^1(M_a, M_nu)
    gives dim Hom(M_a, E_u) = base[a] - rank{[u f]}, with
    ``base[a] = hom(a, nu) + hom(a, mu)``, f over the bases of Hom(M_a, M_c)
    per part c of mu (:func:`.reps._pair_basis`) and [u f] the
    Yoneda product.  ``maps`` holds ``(a, h, e, columns)`` for every
    root index ``a`` with h = hom(a, mu) > 0 and e = ext(a, nu) > 0
    (elsewhere the rank is 0), one column per Ext^1 coordinate p
    (:func:`_part_pairs`): ``(shift, piece)``, where ``piece << shift``
    packs coordinate j of [x f_i] in slot i * e + j, x the unit class at
    p.  At a coordinate of the parts c and b, the piece is that of
    :func:`_yoneda` of a, c and b, and the shift places it at their
    block; unshifted, the columns hold ext(mu, nu) small ints, not
    ext(mu, nu) * h * e slots."""
    table = mu.table
    width = linalg._slot_bits(q)
    into_mu = hom_ext_vectors(mu)[0]
    into_nu, ext_nu, _ = hom_ext_vectors(nu)
    base = tuple(map(add, into_mu, into_nu))
    maps = []
    for a, (h, e) in enumerate(zip(into_mu, ext_nu)):
        if not (h and e):
            continue
        step = e * width
        h_at = [0, *itertools.accumulate(len(_pair_basis(table, a, c, q)) for c in mu.parts)]
        e_at = [0, *itertools.accumulate(len(_pair_ext(table, a, b, q)[1]) for b in nu.parts)]
        if (h_at[-1], e_at[-1]) != (h, e):
            raise RepError("Hom or Ext^1 bases disagree with the closed-form counts")
        columns = tuple(
            (h_at[i] * step + e_at[j] * width, sum(row << k * step for k, row in enumerate(rows)))
            for i, j, c, b, _ in _part_pairs(mu, nu)
            for rows in _yoneda(table, a, c, b, q)
        )
        maps.append((a, h, e, columns))
    return base, tuple(maps)


def _classify_u(
    mu: KostantPartition, nu: KostantPartition, q: int
) -> Callable[[Sequence[tuple[int, int]]], KostantPartition]:
    """The map from a u, its nonzero Ext^1 coordinates ``(coordinate,
    value)``, to the class of E_u: per root, the sum of the entries'
    columns (:func:`_connecting_maps`; XOR over F_2, over odd q reduced
    after each term, so no slot passes q(q - 1)) is ranked as h packed
    rows of e slots, and the counts are solved by
    :func:`reps._partition_from_counts`."""
    base, maps = _connecting_maps(mu, nu, q)
    width = linalg._slot_bits(q)
    total = dim_add(nu.total, mu.total)

    def classify(entries: Sequence[tuple[int, int]]) -> KostantPartition:
        counts = list(base)
        for a, h, e, columns in maps:
            image = 0
            for p, x in entries:
                shift, piece = columns[p]
                if q == 2:
                    image ^= piece << shift
                else:
                    image = linalg._reduce(image + (x * piece << shift), q, h * e)
            mask = (1 << e * width) - 1
            rows = [image >> i * e * width & mask for i in range(h)]
            counts[a] -= linalg._packed_rank(rows, q, e)
        return _partition_from_counts(mu.table, tuple(counts), total)

    return classify


@_memo
def _subspaces_up_to(e: int, m: int, q: int) -> int:
    """The subspaces of F_q^e of dimension at most m: the orbits of GL_m
    on the e x m matrices, one per column space."""
    return sum(linalg.gaussian_binomial(e, r, q) for r in range(min(m, e) + 1))


def _representatives(copies: list[list[int]], m: int, q: int) -> list[list[tuple[int, int]]]:
    """One u-part per subspace W of F_q^e of dimension at most m, where
    e = len(copies[0]), the zero space first: W's echelon basis as
    ``(coordinate, value)`` entries, basis row i at the coordinates copies[i]."""
    e = len(copies[0])
    if e == 1:  # F_q^1 has one nonzero subspace, spanned by 1
        return [[], [(copies[0][0], 1)]]
    return [[]] + [
        [(c, x) for row, cs in zip(basis, copies) for c, x in zip(cs, row) if x]
        for r in range(1, min(m, e) + 1)
        for basis in linalg.enumerate_subspaces(e, r, q, None)
    ]


def _runs(parts: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """``(root, first, m)`` per root of the sorted ``parts``: its m copies
    are parts first .. first + m - 1."""
    runs, first = [], 0
    for root, copies in itertools.groupby(parts):
        m = sum(1 for _ in copies)
        runs.append((root, first, m))
        first += m
    return runs


@_memo
def _walked_side(mu: KostantPartition, nu: KostantPartition, q: int) -> tuple:
    """``(count, on_nu, runs)`` for the side :func:`_ext_set_u`
    walks, nu's or mu's, whichever has fewer representatives (nu on a
    tie): ``count`` is their number, the product over the side's roots
    of the subspaces of F_q^e of dim <= m, and ``runs`` holds
    ``(first, m, e)`` per root.  ``count`` is also the number of u the
    walk classifies, which the cap counts before any work.  The copies'
    groups contain the scalars, so it is at most 1 + (q^e - 1)/(q - 1)
    for e = dim Ext^1: u = 0 and the lines of Ext^1."""
    table = mu.table
    into_nu = hom_ext_vectors(nu)[1]
    sides = []
    for on_nu, side in ((True, nu), (False, mu)):
        runs = []
        for root, first, m in _runs(side.parts):
            e = sum(hom_ext_pair(table, c, root)[1] for c in mu.parts) if on_nu else into_nu[root]
            runs.append((first, m, e))
        sides.append((math.prod(_subspaces_up_to(e, m, q) for _, m, e in runs), on_nu, runs))
    return min(sides, key=lambda entry: entry[0])


@_memo
def _ext_set_u(mu: KostantPartition, nu: KostantPartition, q: int) -> frozenset:
    """One u per orbit of the copies' general linear groups on Ext^1.

    u is a vector of Ext^1(M_mu, M_nu) coordinates, ext(c, b) of them per
    pair of parts with roots c, b (:func:`_part_pairs`), each pair's
    count checked against the free positions of :func:`_pair_ext`.  The
    m copies of a root b of nu each hold e = ext(mu, b) coordinates, in
    one pattern, whose values form an e x m matrix U_b, one column per
    copy.  For g in GL_m acting on the copies, conjugating by
    diag(g x 1, 1) gives E_{(g x 1)u} = E_u, as g x 1 commutes with y;
    this is U_b -> U_b g^T, so only the column space W of U_b matters,
    and the representative of W puts W's echelon basis on the first
    copies and zeros on the rest, over every W of dim <= m and every
    root b (:func:`_representatives`).  Dually, conjugating by
    diag(1, h x 1) gives E_{u(h x 1)^-1} = E_u for the copies of a root
    of mu.  The side with fewer representatives is walked, nu on a tie
    (:func:`_walked_side`), one u per choice of a u-part per root."""
    _, on_nu, runs = _walked_side(mu, nu, q)
    coords: list[list[int]] = [[] for _ in (nu if on_nu else mu).parts]
    p = 0
    for i, j, c, b, e in _part_pairs(mu, nu):
        if len(_pair_ext(mu.table, c, b, q)[0]) != e:
            raise RepError("Ext^1 coordinates disagree with the closed-form count")
        coords[j if on_nu else i].extend(range(p, p + e))
        p += e
    options = [
        _representatives(coords[first : first + m], m, q)
        for first, m, e in runs
        if e
    ]
    classify = _classify_u(mu, nu, q)
    return frozenset(classify([*itertools.chain(*choice)]) for choice in itertools.product(*options))


@_memo
def _candidates(split: KostantPartition) -> tuple[KostantPartition, ...]:
    """The classes ``lam <= split``, which :func:`_hom_box` filters."""
    return tuple(lam for lam in kp_enumerate(split.table, split.total) if leq(lam, split))


def _in_hom_box(lam: KostantPartition, mu: KostantPartition, nu: KostantPartition) -> bool:
    """[a, nu] <= [a, lam] and [mu, a] <= [lam, a] for every root a,
    which every middle term lam of ``ext_set(mu, nu)`` has."""
    into, _, out_of = hom_ext_vectors(lam)
    return all(map(le, hom_ext_vectors(nu)[0], into)) and all(
        map(le, hom_ext_vectors(mu)[2], out_of)
    )


def _hom_box(mu: KostantPartition, nu: KostantPartition) -> list[KostantPartition]:
    """The candidates in the hom box (:func:`_in_hom_box`)."""
    return [lam for lam in _candidates(mu + nu) if _in_hom_box(lam, mu, nu)]


def _ext_set_filter(mu: KostantPartition, nu: KostantPartition, q: int) -> frozenset:
    """The candidates in the hom box whose Grassmannian realizes
    ``(mu, nu)`` over F_q, each decided by :func:`.grassmannian._realizes`."""
    return frozenset(
        lam for lam in _hom_box(mu, nu) if grassmannian._realizes(lam, nu.total, q, (mu, nu))
    )


def ext_set(
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    method: str = METHOD_U,
    cap: int = linalg.DEFAULT_CAP,
) -> ExtSetResult:
    """All middle-term classes of extensions of ``mu`` (quotient) by
    ``nu`` (sub), unioned over the given fields.  The cap is checked for
    every field before any enumeration starts.  The result is ``stable``
    when the fields agree; with one field it is always stable, which says
    nothing about the classes that field misses."""
    if not fields:
        raise ValueError("ext_set needs at least one field")
    method = _normalize_method(method)
    split = mu + nu
    if method == METHOD_FILTER:
        # the candidates are counted before they are listed
        _check_kp_cap(mu.table, split.total, cap)
        box = _hom_box(mu, nu)
    for q in fields:
        if method == METHOD_U:
            needed = _walked_side(mu, nu, q)[0]
            what = (
                "u-route walk, one u per orbit representative "
                "(the subrep-filter method may be feasible)"
            )
        else:
            needed = sum(
                grassmannian._realize_states(lam, nu.total, q, (mu, nu)) for lam in box
            )
            what = "subrepresentation scans of the candidates in the hom box"
        linalg.check_cap(needed, cap, what)
    runner = _ext_set_u if method == METHOD_U else _ext_set_filter
    per_field = [runner(mu, nu, q) for q in fields]
    classes = frozenset().union(*per_field)
    stable = all(s == per_field[0] for s in per_field)
    if split not in classes:
        raise QuiverError("split extension missing from ext_set — enumeration bug")
    for lam in classes:
        if lam.total != split.total or not leq(lam, split):
            raise QuiverError(
                f"ext_set member {kp_format(lam)} violates leq({kp_format(lam)}, split)"
            )
    return ExtSetResult(mu, nu, classes, method, tuple(fields), stable)


def generic_ext(
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    method: str = METHOD_U,
    cap: int = linalg.DEFAULT_CAP,
) -> KostantPartition:
    """The class in ext_set(mu, nu) with minimal self-extension; checked
    to be the unique minimum of the set in the degeneration order.  A
    tie aborts: the dense-orbit class is unique, so a tie means a bug or
    a field artifact."""
    classes = ext_set(mu, nu, fields=fields, method=method, cap=cap).classes
    by_self_ext = sorted(classes, key=lambda lam: (ext_dim(lam, lam), lam.parts))
    best = by_self_ext[0]
    ties = [lam for lam in by_self_ext if ext_dim(lam, lam) == ext_dim(best, best)]
    if len(ties) > 1:
        raise QuiverError(
            "generic extension not unique: "
            + ", ".join(kp_format(lam) for lam in ties)
            + f" all have self-ext {ext_dim(best, best)}"
        )
    for lam in classes:
        if not leq(best, lam):
            raise QuiverError(
                f"self-ext minimizer {kp_format(best)} is not below "
                f"{kp_format(lam)} in the degeneration order"
            )
    return best


def _hom_exact(lam: KostantPartition, mu: KostantPartition, nu: KostantPartition) -> bool:
    """[nu, lam] = [nu, nu] + [nu, mu]: Hom(M_nu, -) is exact on the
    sequences 0 -> M_nu -> M_lam -> M_mu -> 0.  On one of class xi it goes
    on [nu, mu] -> Ext^1(M_nu, M_nu), f -> xi f, so it is exact iff every
    xi f = 0; on a non-split square (mu = nu), f = id gives xi f = xi != 0."""
    return hom_dim(nu, lam) == hom_dim(nu, nu) + hom_dim(nu, mu)


def _check_queries(queries, fields: Sequence[int], cap: int | None, what: str) -> None:
    """Count, per field, the u-route representatives of the ``ext_set``
    queries (mu, nu) (:func:`_walked_side`) against ``cap``."""
    for q in fields:
        linalg.check_cap(sum(_walked_side(m, n, q)[0] for m, n in queries), cap, what)


def ext_pairs(
    lam: KostantPartition,
    alpha: Sequence[int],
    beta: Sequence[int],
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int | None = linalg.DEFAULT_CAP,
) -> frozenset[Pair]:
    """The (quotient, sub) class pairs realized by stable subspaces of
    ``build(lam)`` with sub dimension vector ``beta``, over any of the
    fields: the (mu, nu) in whose hom box lam lies, with lam <= mu + nu and
    lam in ``ext_set(mu, nu)``.  The Kostant partitions of ``alpha`` and
    ``beta``, then the queries, are counted against ``cap`` first."""
    if not fields:
        raise ValueError("ext_pairs needs at least one field")
    alpha, beta = tuple(alpha), tuple(beta)
    if dim_add(alpha, beta) != lam.total:
        raise PartitionError(
            f"alpha + beta = {dim_add(alpha, beta)} does not match dim lambda = {lam.total}"
        )
    if any(c < 0 for c in alpha + beta):
        raise PartitionError(f"alpha {alpha} or beta {beta} has a negative entry")
    for gamma in (alpha, beta):
        _check_kp_cap(lam.table, gamma, cap)
    queries = [
        (m, n)
        for m in kp_enumerate(lam.table, alpha)
        for n in kp_enumerate(lam.table, beta)
        if leq(lam, m + n) and _in_hom_box(lam, m, n)
    ]
    what = "ext_set queries of the realized pairs, one u per orbit representative"
    _check_queries(queries, fields, cap, what)
    return frozenset(p for p in queries if lam in ext_set(*p, fields=fields, cap=cap).classes)


def _generic_terms(
    mu: KostantPartition,
    nu: KostantPartition,
    lams: Sequence[KostantPartition],
    fields: Sequence[int],
    cap: int | None,
) -> Iterator[KostantPartition]:
    """The lam of ``lams``, in order, for which (mu, nu) is in
    ``generic_pairs(lam, mu.total, nu.total, fields=fields)``, each lam in
    ``ext_set(mu, nu, fields=fields)``: no nu' < nu has lam in
    ``ext_set(mu, nu')`` and no mu' < mu has lam in ``ext_set(mu', nu)``,
    asked only where lam <= mu' + nu' lies in their hom box.  The Kostant
    partitions of dim mu and dim nu, then the queries, are counted against
    ``cap`` before any query runs."""
    table = mu.table
    for gamma in (mu.total, nu.total):
        _check_kp_cap(table, gamma, cap)
    lower = [(mu, n) for n in kp_enumerate(table, nu.total) if lt(n, nu)] + [
        (m, nu) for m in kp_enumerate(table, mu.total) if lt(m, mu)
    ]
    tests = [
        (lam, [(m, n) for m, n in lower if leq(lam, m + n) and _in_hom_box(lam, m, n)])
        for lam in lams
    ]
    what = "ext_set queries of the component-label test, one u per orbit representative"
    _check_queries({query for _, some in tests for query in some}, fields, cap, what)
    for lam, some in tests:
        if not any(lam in ext_set(m, n, fields=fields, cap=cap).classes for m, n in some):
            yield lam


def _component_labels(
    mu: KostantPartition,
    nu: KostantPartition,
    lams: Sequence[KostantPartition],
    fields: Sequence[int],
    cap: int | None,
) -> Iterator[KostantPartition]:
    """The lam of ``lams``, in order, for which (mu, nu) is in
    ``ext_ger(lam, mu.total, nu.total, fields=fields)``: the generic
    terms (:func:`_generic_terms`) among those that pass
    :func:`_hom_exact`, which is checked first."""
    return _generic_terms(mu, nu, [lam for lam in lams if _hom_exact(lam, mu, nu)], fields, cap)


def generic_pairs(
    lam: KostantPartition,
    alpha: Sequence[int],
    beta: Sequence[int],
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int | None = linalg.DEFAULT_CAP,
) -> frozenset[Pair]:
    """Realized pairs (:func:`ext_pairs`) that are minimal in each
    coordinate separately: no realized pair degenerates the sub keeping
    the quotient, and none degenerates the quotient keeping the sub
    (:func:`_generic_terms`)."""
    pairs = ext_pairs(lam, alpha, beta, fields=fields, cap=cap)
    return frozenset(p for p in pairs if lam in _generic_terms(*p, [lam], fields, cap))


def ext_min(
    lam: KostantPartition,
    alpha: Sequence[int],
    beta: Sequence[int],
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int = linalg.DEFAULT_CAP,
) -> frozenset[Pair]:
    """Pairs minimal under the product order: no other realized pair is
    <= in both coordinates."""
    pairs = ext_pairs(lam, alpha, beta, fields=fields, cap=cap)
    return frozenset(
        p for p in pairs if not any(o != p and leq(o[0], p[0]) and leq(o[1], p[1]) for o in pairs)
    )


def orbit_dim(lam: KostantPartition) -> int:
    """Dimension of the orbit of ``build(lam)`` in the representation
    space of its dimension vector: sum of squares minus End dimension."""
    gamma = lam.total
    return sum(g * g for g in gamma) - hom_dim(lam, lam)


def d_lambda(lam: KostantPartition, mu: KostantPartition, nu: KostantPartition) -> int:
    """Codimension bookkeeping for a middle term: orbit_dim(lam) minus
    the Euler pairing of the outer dimension vectors and the outer orbit
    dimensions.  The equivalent hom-side expression is evaluated too and
    the two are required to agree."""
    alpha, beta = mu.total, nu.total
    if dim_add(alpha, beta) != lam.total:
        raise PartitionError("dim lambda must equal dim mu + dim nu")
    quiver = lam.table.quiver
    pairing = euler_form(quiver, alpha, beta)
    via_orbits = orbit_dim(lam) - pairing - orbit_dim(mu) - orbit_dim(nu)
    dot = sum(a * b for a, b in zip(alpha, beta))
    via_homs = (
        2 * dot
        + hom_dim(mu, mu)
        + hom_dim(nu, nu)
        - hom_dim(lam, lam)
        - pairing
    )
    if via_orbits != via_homs:
        raise QuiverError(
            f"d_lambda formulas disagree: {via_orbits} vs {via_homs}"
        )
    return via_orbits


def e_lambda(
    lam: KostantPartition,
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int = linalg.DEFAULT_CAP,
) -> int:
    """``n_u + [lam, mu*nu] - [lam, lam]``, with n_u the dimension of the
    connecting-map space (:func:`hom_omega_dim`) and mu*nu the generic
    extension.  It can be negative (-1 for the split class of ``[1,1]``
    by ``[1,1]+[2,2]`` in A2), and no geometric meaning is read into it.
    Requires ``mu*nu <= lam <= mu (+) nu``."""
    alpha, beta = mu.total, nu.total
    if dim_add(alpha, beta) != lam.total:
        raise PartitionError("dim lambda must equal dim mu + dim nu")
    gen = generic_ext(mu, nu, fields=fields, cap=cap)
    split = mu + nu
    if not (leq(gen, lam) and leq(lam, split)):
        raise PartitionError(
            f"{kp_format(lam)} is not between {kp_format(gen)} and the split class"
        )
    quiver = lam.table.quiver
    return (
        hom_omega_dim(alpha, beta, quiver)
        + hom_dim(lam, gen)
        - hom_dim(lam, lam)
    )


def degree_bound(
    lam: KostantPartition,
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int = linalg.DEFAULT_CAP,
) -> int:
    """``2*e_lambda + d_lambda``, the ``bound`` column of the lam-row of
    a pair (mu, nu); e_lambda can be negative, and no bound is claimed."""
    return 2 * e_lambda(lam, mu, nu, fields=fields, cap=cap) + d_lambda(lam, mu, nu)


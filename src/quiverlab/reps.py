"""Explicit quiver representations over small prime fields.

Indecomposables are built for every positive root by the reflection
construction: seed a simple at the appropriate vertex of the fully
reflected orientation, then walk the adapted word backwards applying
the sink-side kernel functor.  The result is certified against the root
table (its dimension vector must be the root), and for the linear
type-A quiver an independent chain-module construction is available as
a cross-check.

``hom_space_dim`` counts intertwiners by exact linear algebra — the
matrix-level oracle against which the closed forms in :mod:`.homs` are
tested.  The intertwiner system is built in one place,
``_intertwiner_system``, as packed rows (one Python int per equation)
assembled from arrow matrices each representation packs once.
``hom_space_dim`` ranks those rows; ``hom_basis`` and the coboundaries
of :mod:`.extensions` unpack them and take a kernel or the columns.
``identify`` recovers the Kostant partition of an
arbitrary representation from its hom counts against the
indecomposables (the counting matrix is unitriangular in the adapted
order, so a forward substitution inverts it).

Representations returned by the cached constructors are shared; treat
them as immutable.
"""

from __future__ import annotations

import functools
from itertools import accumulate
from operator import mul
from typing import Sequence

from . import linalg
from .quiver import (
    DynkinQuiver,
    KostantPartition,
    RootTable,
    _memo,
    _record,
    positive_roots,
)
from .homs import hom_ext_pair

__all__ = [
    "Rep",
    "RepError",
    "build",
    "chain_rep",
    "direct_sum",
    "hom_basis",
    "hom_space_dim",
    "identify",
    "indecomposable",
    "sub_quotient",
    "zero_rep",
]


class RepError(ValueError):
    """Malformed representation data or an inconsistent identification."""


Matrix = tuple[tuple[int, ...], ...]


@_record(eq=False)
class Rep:
    """A finite-dimensional representation: one matrix per arrow, acting
    on column vectors, with ``mats[k]`` attached to ``quiver.arrows[k]``.

    The matrix of an arrow ``s -> t`` is a tuple of ``dims[t]`` row
    tuples, each of ``dims[s]`` ints in ``range(q)``.  A matrix with no
    rows is ``()`` whatever its width: the width comes from ``dims``."""

    quiver: DynkinQuiver
    q: int
    dims: tuple[int, ...]
    mats: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if len(self.dims) != self.quiver.rank or any(d < 0 for d in self.dims):
            raise RepError(f"dims {self.dims} are not {self.quiver.rank} sizes >= 0")
        if len(self.mats) != len(self.quiver.arrows):
            raise RepError("one matrix per arrow required")
        for (s, t), m in zip(self.quiver.arrows, self.mats):
            shape = (self.dims[t - 1], self.dims[s - 1])
            if len(m) != shape[0] or any(len(row) != shape[1] for row in m):
                raise RepError(f"matrix for {s}->{t} is not {shape[0]} x {shape[1]}")

    def __repr__(self) -> str:
        return f"Rep({self.quiver!r}, q={self.q}, dims={self.dims})"

    @functools.cached_property
    def _packed(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per arrow, the columns of its matrix X and the rows of -X as
        packed rows over F_q (:func:`.linalg._pack`), the pieces
        :func:`hom_space_dim` assembles its equations from.  Packed once
        per representation, as a partition hashes once."""
        q = self.q
        return tuple(
            (
                tuple(linalg._pack([row[j] for row in x], q) for j in range(self.dims[s - 1])),
                tuple(linalg._pack([-y for y in row], q) for row in x),
            )
            for (s, _), x in zip(self.quiver.arrows, self.mats)
        )


def zero_rep(quiver: DynkinQuiver, q: int) -> Rep:
    return Rep(quiver, q, (0,) * quiver.rank, ((),) * len(quiver.arrows))


def direct_sum(*reps: Rep) -> Rep:
    if not reps:
        raise RepError("direct_sum needs at least one summand")
    quiver, q = reps[0].quiver, reps[0].q
    for r in reps[1:]:
        if r.quiver is not quiver or r.q != q:
            raise RepError("summands live over different quivers or fields")
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(quiver.rank))
    mats = []
    for k, (s, t) in enumerate(quiver.arrows):
        block = []
        co = 0
        for r in reps:
            rs = r.dims[s - 1]
            left, right = (0,) * co, (0,) * (dims[s - 1] - co - rs)
            block.extend(left + tuple(row) + right for row in r.mats[k])
            co += rs
        mats.append(tuple(block))
    return Rep(quiver, q, dims, tuple(mats))


def chain_rep(quiver: DynkinQuiver, q: int, a: int, b: int) -> Rep:
    """The segment module on ``[a,b]`` of the linear type-A quiver
    (identity maps along the chain); independent of the reflection
    construction, used to cross-check it."""
    if not quiver.is_linear_type_a():
        raise RepError("chain modules need the linear type-A quiver")
    if not (1 <= a <= b <= quiver.rank):
        raise RepError(f"bad segment [{a},{b}]")
    dims = tuple(1 if a <= v <= b else 0 for v in quiver.vertices)
    mats = tuple(
        ((int(a <= s and t <= b),) * dims[s - 1],) * dims[t - 1]
        for s, t in quiver.arrows
    )
    return Rep(quiver, q, dims, mats)


# ---------------------------------------------------------------------------
# reflection construction of the indecomposables


def _kernel_reflect_at_sink(
    quiver: DynkinQuiver, q: int, dims: list[int], mats: dict, v: int
) -> None:
    """Apply the kernel functor at a sink ``v``, in place: every arrow at
    a sink points in, so the arrows into ``v`` are ``(s, v)`` for its
    neighbours ``s``.  The new space is the kernel of the summed map into
    ``v``, and the reversed arrows ``(v, s)`` project it back onto the
    summands."""
    incoming = quiver.neighbours(v)
    blocks = [mats.pop((s, v)) for s in incoming]
    xi = [sum((m[i] for m in blocks), ()) for i in range(dims[v - 1])]
    kernel = linalg.kernel_basis(xi, sum(dims[s - 1] for s in incoming), q)
    offset = 0
    for s in incoming:
        width = dims[s - 1]
        mats[(v, s)] = tuple(
            tuple(vec[j] for vec in kernel) for j in range(offset, offset + width)
        )
        offset += width
    dims[v - 1] = len(kernel)


@_memo
def indecomposable(table: RootTable, root_index: int, q: int) -> Rep:
    """The indecomposable representation with dimension vector
    ``table.roots[root_index]``, built by reflections along the adapted word."""
    quiver = table.quiver
    *prefix, seed = table.word[: root_index + 1]
    parity = [0] * quiver.rank
    for v in prefix:
        parity[v - 1] ^= 1
    dims = [0] * quiver.rank
    dims[seed - 1] = 1
    mats = {
        (s, t): ((0,) * dims[s - 1],) * dims[t - 1]
        for s in quiver.vertices
        for t in quiver.neighbours(s)
        if quiver._points_to(s, t, parity)
    }
    for v in reversed(prefix):
        _kernel_reflect_at_sink(quiver, q, dims, mats, v)

    if mats.keys() != set(quiver.arrows):
        raise RepError(f"reflection walk did not end on the arrows of {quiver!r}")
    if tuple(dims) != table.roots[root_index]:
        raise RepError(
            f"reflection walk produced dims {tuple(dims)} for root "
            f"{table.roots[root_index]}"
        )
    ordered = tuple(mats[h] for h in quiver.arrows)
    return Rep(quiver, q, tuple(dims), ordered)


@_memo
def build(kp: KostantPartition, q: int) -> Rep:
    """Direct sum of indecomposables, one per part of the partition."""
    quiver = kp.table.quiver
    if not kp.parts:
        return zero_rep(quiver, q)
    return direct_sum(*(indecomposable(kp.table, p, q) for p in kp.parts))


# ---------------------------------------------------------------------------
# intertwiner counting and identification


@_memo
def _spread(row: int, stride: int, width: int) -> int:
    """The packed row ``row`` (slots of ``width`` bits) with its slot b
    moved to slot ``b * stride``."""
    mask = (1 << width) - 1
    step = stride * width
    out = shift = 0
    while row:
        out |= (row & mask) << shift
        row >>= width
        shift += step
    return out


def _intertwiner_system(m: Rep, n: Rep) -> tuple[list[int], list[int]]:
    """The linear system whose solutions are the intertwiners ``m -> n``,
    as packed rows over F_q (:func:`.linalg._pack`), and the offsets of
    its unknowns: the one system :func:`hom_space_dim` ranks and
    :func:`hom_basis` and the coboundaries of :mod:`.extensions` read
    back with :func:`.linalg._unpack`.

    ``f_v`` is an ``e_v x d_v`` matrix (``e`` = dims of ``n``, ``d`` =
    dims of ``m``); its entry ``(a, b)`` is unknown number
    ``offsets[v-1] + a * d_v + b``, so ``offsets[-1]`` counts the
    unknowns.  There is one row per entry ``(a, j)`` of
    ``f_t X_h - Y_h f_s`` for every arrow ``h: s -> t``, arrow by arrow
    and row by row: X_h's column j at row a of ``f_t`` plus -Y_h's row a
    spread along column j of ``f_s``, from the arrow matrices each side
    packs once (``Rep._packed``).
    """
    if m.quiver is not n.quiver or m.q != n.q:
        raise RepError("representations live over different quivers or fields")
    width = linalg._slot_bits(m.q)
    d = m.dims
    offsets = list(accumulate(map(mul, d, n.dims), initial=0))
    rows: list[int] = []
    for (s, t), (x_cols, _), (_, y_rows) in zip(m.quiver.arrows, m._packed, n._packed):
        d_s = d[s - 1]
        if not (d_s and y_rows):
            continue
        step = d[t - 1] * width
        base = offsets[t - 1] * width
        c_s = offsets[s - 1] * width
        shifts = range(c_s, c_s + d_s * width, width)
        for y_row in y_rows:
            spread = _spread(y_row, d_s, width)
            for x_col, j in zip(x_cols, shifts):
                rows.append((x_col << base) + (spread << j))
            base += step
    return rows, offsets


def hom_space_dim(m: Rep, n: Rep) -> int:
    """dim of the space of intertwiners ``f`` with ``f_t X_h = Y_h f_s``
    for every arrow ``h: s -> t``: the unknowns of
    :func:`_intertwiner_system` minus the rank of its packed rows
    (:func:`.linalg._packed_rank`)."""
    rows, offsets = _intertwiner_system(m, n)
    return offsets[-1] - linalg._packed_rank(rows, m.q, offsets[-1])


def hom_basis(m: Rep, n: Rep) -> list[tuple[list[list[int]], ...]]:
    """A basis of the intertwiners ``m -> n``: the kernel of the unpacked
    rows of :func:`_intertwiner_system`, the system :func:`hom_space_dim`
    ranks.  Each element is one ``e_v x d_v`` matrix per vertex (``e`` =
    dims of ``n``, ``d`` = dims of ``m``), as int-list rows reduced mod q."""
    q = m.q
    rows, offsets = _intertwiner_system(m, n)
    ncols = offsets[-1]
    kernel = linalg.kernel_basis([linalg._unpack(row, q, ncols) for row in rows], ncols, q)
    return [
        tuple(
            [vec[offsets[v] + a * d : offsets[v] + (a + 1) * d] for a in range(e)]
            for v, (d, e) in enumerate(zip(m.dims, n.dims))
        )
        for vec in kernel
    ]


@_memo
def _pair_basis(table: RootTable, a: int, b: int, q: int) -> list:
    """:func:`hom_basis` of M_a and M_b, memoized per pair of roots."""
    return hom_basis(indecomposable(table, a, q), indecomposable(table, b, q))


@_memo
def _partition_from_counts(
    table: RootTable, counts: tuple[int, ...], dims: tuple[int, ...], *, into: bool = True
) -> KostantPartition:
    """The Kostant partition with the given hom counts against the
    indecomposables, checked against the dimension vector ``dims``.
    Memoized: the point walks meet the same count vectors over and over.

    With ``into``, ``counts[a]`` is dim Hom(M_a, X); the closed-form
    counts dim Hom(M_a, M_b) of :func:`~.homs.hom_ext_pair` vanish for
    a < b and are 1 at a == b, so a forward substitution over the parts
    found so far inverts them.  Otherwise ``counts[a]`` is dim Hom(X, M_a),
    counted by dim Hom(M_b, M_a), and the substitution runs from the last
    root down.  Raises :class:`RepError` if the counts are not those of
    any multiset of roots with dimension vector ``dims``.
    """
    n = len(table)
    found: list[tuple[int, int]] = []  # (root index, multiplicity > 0)
    for a in range(n) if into else range(n - 1, -1, -1):
        residue = counts[a]
        for b, c in found:
            pair = hom_ext_pair(table, a, b) if into else hom_ext_pair(table, b, a)
            residue -= c * pair[0]
        if residue < 0:
            raise RepError("hom counts are not consistent with a root multiset")
        if residue:
            found.append((a, residue))
    total = [0] * len(dims)
    for a, c in found:
        for j, x in enumerate(table.roots[a]):
            total[j] += c * x
    if tuple(total) != tuple(dims):
        raise RepError("identified parts do not sum to the dimension vector")
    found.sort(reverse=True)
    return KostantPartition(table, tuple(a for a, c in found for _ in range(c)))


def identify(m: Rep, table: RootTable | None = None) -> KostantPartition:
    """Recover the Kostant partition of ``m`` from hom counts against the
    indecomposables.  Raises :class:`RepError` if the counts are not
    consistent with any multiset of roots (which would signal corrupted
    input, since every representation decomposes)."""
    if table is None:
        table = positive_roots(m.quiver)
    counts = tuple(hom_space_dim(indecomposable(table, a, m.q), m) for a in range(len(table)))
    return _partition_from_counts(table, counts, m.dims)


# ---------------------------------------------------------------------------
# subrepresentations and quotients


def sub_quotient(m: Rep, bases: Sequence[Sequence[Sequence[int]]]) -> tuple[Rep, Rep]:
    """Restrict ``m`` to a graded subspace and form the quotient.

    ``bases[v-1]`` holds row vectors spanning the chosen subspace at
    vertex ``v``.  The subspace must be stable (each arrow maps it into
    the subspace at the target); otherwise :class:`RepError` is raised.
    Returns ``(sub, quotient)``, written in the reduced echelon basis
    ``E_v`` of each subspace and, for the quotient, the unit vectors at
    the non-pivot columns of ``E_v``.
    """
    q = m.q
    if len(bases) != len(m.dims):
        raise RepError(f"{len(bases)} bases given for {len(m.dims)} vertices")
    echelons: list[tuple[list[list[int]], tuple[int, ...], list[int]]] = []
    for v, d in enumerate(m.dims, start=1):
        rows = bases[v - 1]
        if any(len(row) != d for row in rows):
            raise RepError(f"basis at vertex {v} has wrong width")
        reduced, pivots = linalg.rref(rows, q)
        if len(pivots) != len(rows):
            raise RepError(f"basis rows at vertex {v} are dependent")
        free = [c for c in range(d) if c not in pivots]
        echelons.append((reduced, pivots, free))
    sub_dims = tuple(len(pivots) for _, pivots, _ in echelons)
    quot_dims = tuple(len(free) for _, _, free in echelons)

    def coordinates(w: list[int], t: int) -> tuple[list[int], list[int]]:
        # w = sum_i w[p_i] E_t[i] + sum_j b_j e_{f_j}: the coefficient of
        # a row of E_t is read at its pivot, since E_t is reduced
        reduced, pivots, free = echelons[t - 1]
        a = [w[p] % q for p in pivots]
        b = [(w[f] - sum(x * row[f] for x, row in zip(a, reduced))) % q for f in free]
        return a, b

    sub_mats, quot_mats = [], []
    for k, (s, t) in enumerate(m.quiver.arrows):
        x = m.mats[k]
        reduced, _, free = echelons[s - 1]
        sub_cols = []
        for u in reduced:
            a, b = coordinates([sum(map(mul, row, u)) for row in x], t)
            if any(b):
                raise RepError(f"subspace is not stable along arrow {s}->{t}")
            sub_cols.append(a)
        quot_cols = [coordinates([row[c] for row in x], t)[1] for c in free]
        sub_mats.append(_from_columns(sub_cols, sub_dims[t - 1]))
        quot_mats.append(_from_columns(quot_cols, quot_dims[t - 1]))
    sub = Rep(m.quiver, q, sub_dims, tuple(sub_mats))
    quot = Rep(m.quiver, q, quot_dims, tuple(quot_mats))
    return sub, quot


def _from_columns(cols: list[list[int]], nrows: int) -> Matrix:
    """The ``nrows``-row matrix with the columns ``cols`` (``nrows`` is
    given, since there may be no columns)."""
    return tuple(tuple(col[i] for col in cols) for i in range(nrows))

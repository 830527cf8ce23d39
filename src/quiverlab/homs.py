"""Closed-form Hom and Ext^1 dimensions between quiver representations.

For indecomposables indexed by the adapted root order, morphisms vanish
from smaller to larger roots and extensions vanish from larger to
smaller.  Together with the Euler form this pins both dimensions for
every ordered pair of roots:

* ``a == b``: ``(hom, ext) = (1, 0)`` (simple endomorphism ring, rigid);
* ``a < b``:  ``(hom, ext) = (0, -<beta_a, beta_b>)``;
* ``a > b``:  ``(hom, ext) = (<beta_a, beta_b>, 0)``.

Each pair is memoized on its own (:func:`hom_ext_pair`), and a partition
reads only the pairs of its parts: at most 2N of them per part for N roots.
Both counts extend biadditively over the parts of a Kostant partition:
each y has one memoized triple of vectors (:func:`hom_ext_vectors`),
which :func:`hom_dim` and :func:`ext_dim` sum over the parts of x.  The
independent matrix-level count lives in :mod:`.reps` (``hom_space_dim``)
and the two are compared over exhaustive desk ranges in the test suite.

The top and the socle of each M_a, read off the pairs with the simples,
are memoized per root (:func:`_top_and_socle`).  The top sets the
projective cover: Q = sum over v of top_v copies of P_v maps onto M_a,
and since Hom(P_v, M) = M_v, dim Hom(Q, M) = sum(top * dim M).  This
bounds dim Hom(M_a, M), and M_a is *forced* for M where it reaches it
(every map Q -> M then factors through M_a).  ``grassmannian`` reads
the bound to sort roots and ``repetition.v_lambda`` the gap to it; the
socle plays the same part for the injective hull and Hom(M, M_a).
"""

from __future__ import annotations

from .quiver import (
    KostantPartition,
    PartitionError,
    RootTable,
    _memo,
    euler_form,
    segments_of,
)

__all__ = [
    "ext_dim",
    "hom_dim",
    "hom_ext_pair",
    "hom_ext_vectors",
    "typeA_ext_dim",
    "typeA_hom_dim",
]


@_memo
def hom_ext_pair(table: RootTable, a: int, b: int) -> tuple[int, int]:
    """``(dim Hom, dim Ext^1)`` between the indecomposables at root indices a, b."""
    if a == b:
        return (1, 0)
    value = euler_form(table.quiver, table.roots[a], table.roots[b])
    if a < b:
        return (0, -value)
    return (value, 0)


def _check_same_table(x: KostantPartition, y: KostantPartition) -> None:
    if x.table is not y.table:
        raise PartitionError("partitions live over different root tables")


@_memo
def hom_ext_vectors(
    y: KostantPartition,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """``(dim Hom(M_a, M_y), dim Ext^1(M_a, M_y), dim Hom(M_y, M_a))`` for
    every root index a: the sums of :func:`hom_ext_pair` over the parts of y.
    A part b maps to M_a only for a <= b, so the last sum stops at b."""
    table = y.table
    n = len(table)
    into_hom, into_ext, out_hom = [0] * n, [0] * n, [0] * n
    for b in y.parts:
        for a in range(n):
            h, e = hom_ext_pair(table, a, b)
            into_hom[a] += h
            into_ext[a] += e
        for a in range(b + 1):
            out_hom[a] += hom_ext_pair(table, b, a)[0]
    return tuple(into_hom), tuple(into_ext), tuple(out_hom)


@_memo
def _top_and_socle(table: RootTable, a: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The top and the socle of M_a: per vertex v, dim Hom(M_a, S_v) and
    dim Hom(S_v, M_a), the multiplicities of the simple S_v in them."""
    simples = [table.simple_root_index(v) for v in table.quiver.vertices]
    top = tuple(hom_ext_pair(table, a, s)[0] for s in simples)
    return top, tuple(hom_ext_pair(table, s, a)[0] for s in simples)


def hom_dim(x: KostantPartition, y: KostantPartition) -> int:
    """dim Hom(M_x, M_y): the hom vector of y summed over the parts of x."""
    _check_same_table(x, y)
    return sum(map(hom_ext_vectors(y)[0].__getitem__, x.parts))


def ext_dim(x: KostantPartition, y: KostantPartition) -> int:
    """dim Ext^1(M_x, M_y): the ext vector of y summed over the parts of x."""
    _check_same_table(x, y)
    return sum(map(hom_ext_vectors(y)[1].__getitem__, x.parts))


# ---------------------------------------------------------------------------
# segment combinatorics (linear type A only)


def _require_linear_a(x: KostantPartition) -> None:
    if not x.table.quiver.is_linear_type_a():
        raise PartitionError("segment formulas need the linear type-A quiver")


def typeA_hom_dim(x: KostantPartition, y: KostantPartition) -> int:
    """Hom dimension by segment counting: one morphism for each pair
    ``([i,j], [k,l])`` with ``k <= i <= l <= j``."""
    _check_same_table(x, y)
    _require_linear_a(x)
    return sum(
        1
        for (i, j) in segments_of(x)
        for (k, l) in segments_of(y)
        if k <= i <= l <= j
    )


def typeA_ext_dim(x: KostantPartition, y: KostantPartition) -> int:
    """Ext^1 dimension by segment counting: one extension for each pair
    ``([k,l], [i,j])`` with ``k+1 <= i <= l+1 <= j`` (segments linkable
    with the first strictly preceding)."""
    _check_same_table(x, y)
    _require_linear_a(x)
    return sum(
        1
        for (k, l) in segments_of(x)
        for (i, j) in segments_of(y)
        if k + 1 <= i <= l + 1 <= j
    )

"""The degeneration order on Kostant partitions of a fixed dimension vector.

``leq(x, y)`` holds when the orbit of ``M_y`` lies in the closure of the
orbit of ``M_x``.  For Dynkin quivers this orbit-closure order coincides
with the hom order — ``dim Hom(N, M_x) <= dim Hom(N, M_y)`` for every
indecomposable ``N`` (a standard theorem of Bongartz/Zwara for
representation-directed algebras) — which is what the implementation
evaluates, using the closed-form hom counts.  On the linear type-A
quiver the independent segment criterion :func:`typeA_leq` (compare the
counts of segments containing each ``[i,j]``) is provided and the two
are compared in tests.

The semisimple partition (all parts simple roots) is the unique maximum
of each poset; a rigid partition (no self-extensions) is the unique
minimum.

Partitions bounded in the hom order, such as the lower set {z <= x},
come from the one walk :func:`.quiver._kp_walk`, bounded here
(:func:`_hom_bounded`) so that it lists none outside the bound.
"""

from __future__ import annotations

from operator import ge, le, sub

from . import linalg
from .homs import _check_same_table, ext_dim, hom_ext_pair, hom_ext_vectors
from .quiver import (
    KostantPartition,
    PartitionError,
    RootTable,
    _kp_walk,
    _memo,
    euler_form,
    segments_of,
)

__all__ = [
    "hom_vector",
    "interval",
    "is_rigid",
    "leq",
    "lt",
    "typeA_leq",
]


def hom_vector(x: KostantPartition) -> tuple[int, ...]:
    """``dim Hom(M_beta, M_x)`` for every positive root ``beta``, in root order."""
    return hom_ext_vectors(x)[0]


# no memo of its own: it reports the memo of the vectors it reads
hom_vector.cache_info = hom_ext_vectors.cache_info


def leq(x: KostantPartition, y: KostantPartition) -> bool:
    """True when ``x <= y`` in the degeneration order (same dimension vector
    required; the more special partition is the larger one)."""
    if x.table is not y.table:  # _check_same_table, inline on this hot path
        raise PartitionError("partitions live over different root tables")
    if x.total != y.total:
        return False
    return all(map(le, hom_ext_vectors(x)[0], hom_ext_vectors(y)[0]))


def lt(x: KostantPartition, y: KostantPartition) -> bool:
    return x != y and leq(x, y)


def typeA_leq(x: KostantPartition, y: KostantPartition) -> bool:
    """Segment-counting criterion for the linear type-A quiver:
    ``x <= y`` iff for every segment ``[i,j]`` the number of parts of x
    containing it is at least the number for y."""
    _check_same_table(x, y)
    if not x.table.quiver.is_linear_type_a():
        raise PartitionError("typeA_leq needs the linear type-A quiver")
    if x.total != y.total:
        return False
    return all(map(ge, _containment(x), _containment(y)))


@_memo
def _containment(x: KostantPartition) -> tuple[int, ...]:
    """For every segment ``[i,j]``, in lexicographic order, the number of
    parts of x containing it."""
    n = x.table.quiver.rank
    segs = segments_of(x)
    return tuple(
        sum(1 for a, b in segs if a <= i and j <= b)
        for i in range(1, n + 1)
        for j in range(i, n + 1)
    )


def is_rigid(x: KostantPartition) -> bool:
    """No self-extensions; equivalently x is the minimum of its poset."""
    return ext_dim(x, x) == 0


@_memo
def _walk_rows(table: RootTable) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The rows :func:`_hom_bounded` walks with, per root k: ``[a, k]``
    then ``ext(a, k)`` over every root a for the into side, and
    ``[k, a]`` then ``ext(k, a)`` for the out-of side."""
    n = range(len(table))
    into = tuple(tuple(hom_ext_pair(table, a, k)[i] for i in (0, 1) for a in n) for k in n)
    out_of = tuple(tuple(hom_ext_pair(table, k, a)[i] for i in (0, 1) for a in n) for k in n)
    return into, out_of


def _hom_bounded(
    table: RootTable, gamma: tuple[int, ...], bound: tuple[int, ...], out_of: bool, cap: int | None
) -> tuple[KostantPartition, ...]:
    """The Kostant partitions p of ``gamma`` with ``[a, p] <= bound[a]``
    for every root a, or ``[p, a] <= bound[a]`` with ``out_of``, from a
    walk that stops past ``cap`` nodes.  [a, p] is additive over parts
    and never negative, and a completion r of a partial partition has
    [a, r] >= <a, dim r>, so the walk cuts once
    [a, partial] + max(0, <a, remaining>) > bound[a], that is, as
    <a, remaining> = <a, gamma> - [a, partial] + ext(a, partial), once
    [a, partial] > bound[a] or ext(a, partial) > bound[a] - <a, gamma>.
    The out-of side swaps the arguments."""
    q = table.quiver
    euler = [euler_form(q, *((gamma, b) if out_of else (b, gamma))) for b in table.roots]
    limits = (*bound, *map(sub, bound, euler))
    return _kp_walk(table, gamma, _walk_rows(table)[out_of], limits, cap)


@_memo
def _lower_set(x: KostantPartition, cap: int | None) -> tuple[KostantPartition, ...]:
    """The z <= x, ordered by their parts from the largest down: the
    partitions of dim x with [a, z] <= [a, x] for every root a
    (:func:`_hom_bounded`), walked within ``cap`` nodes.  The cap is part
    of the key, so a refusal does not depend on what is memoized."""
    return _hom_bounded(x.table, x.total, hom_ext_vectors(x)[0], False, cap)


def interval(
    low: KostantPartition, high: KostantPartition, *, cap: int | None = linalg.DEFAULT_CAP
) -> tuple[KostantPartition, ...]:
    """All partitions z of the common dimension vector with low <= z <= high:
    the lower set of high, walked within ``cap`` nodes, then low <= z."""
    _check_same_table(low, high)
    if low.total != high.total:
        return ()
    return tuple(z for z in _lower_set(high, cap) if leq(low, z))

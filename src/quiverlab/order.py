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
"""

from __future__ import annotations

from operator import ge, le

from . import linalg
from .homs import _check_same_table, ext_dim, hom_ext_vectors
from .quiver import (
    KostantPartition,
    PartitionError,
    RootTable,
    _memo,
    kp_count,
    kp_enumerate,
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


def _check_kp_cap(table: RootTable, gamma: tuple[int, ...], cap: int | None) -> None:
    if cap is not None:
        linalg.check_cap(
            _kp_count(table, tuple(gamma), cap + 1),
            cap,
            "Kostant partition enumeration (counting stopped past the cap)",
        )


@_memo
def _kp_count(table: RootTable, gamma: tuple[int, ...], limit: int) -> int:
    """:func:`~.quiver.kp_count` stopped at ``limit``, memoized per
    ``(table, gamma, limit)``: the caps of ``ext_set``'s subrep route and
    of ``klr`` ask for the same vectors over and over."""
    return kp_count(table, gamma, limit)


def interval(
    low: KostantPartition, high: KostantPartition, *, cap: int | None = linalg.DEFAULT_CAP
) -> tuple[KostantPartition, ...]:
    """All partitions z of the common dimension vector with low <= z <= high.
    The partitions are counted against ``cap`` before any is listed."""
    _check_same_table(low, high)
    if low.total != high.total:
        return ()
    _check_kp_cap(low.table, low.total, cap)
    return tuple(
        z
        for z in kp_enumerate(low.table, low.total)
        if leq(low, z) and leq(z, high)
    )

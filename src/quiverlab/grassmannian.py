"""Quiver Grassmannians of subrepresentations over small finite fields.

``subreps`` enumerates all stable graded subspaces of a built
representation with a prescribed dimension vector, walking vertices in
topological order so that at each vertex only subspaces containing the
images of the already-chosen spaces are generated.  Every point is
classified by the isomorphism classes of its subrepresentation and
quotient, giving the stratification by pairs ``(quotient class mu, sub
class nu)`` recorded in a :class:`StrataReport`.

A realized pair is *generic* when neither coordinate can be degenerated
while keeping the other fixed among realized pairs; the generic pairs
whose sub class satisfies the hom-count equality
``[nu, lambda] = [nu, nu] + [nu, mu]`` index the irreducible components
of the Grassmannian (``ext_ger``).

Point counts are exact; over F_q the count of a stratum is a polynomial
value in q, which is how the tests pin projective lines and points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import linalg
from .homs import hom_dim
from .order import lt
from .quiver import (
    KostantPartition,
    PartitionError,
    dim_add,
    dim_leq,
    kp_format,
)
from .reps import Rep, build, identify, sub_quotient

__all__ = [
    "StrataReport",
    "StratumEntry",
    "a2_component_range",
    "ext_ger",
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
    if len(beta) != len(dims):
        raise PartitionError("beta length does not match the rank")
    return math.prod(linalg.gaussian_binomial(n, b, q) for n, b in zip(dims, beta))


def subreps(
    m: Rep, beta: Sequence[int], cap: int | None = linalg.DEFAULT_CAP
) -> Iterator[tuple[np.ndarray, ...]]:
    """All stable graded subspaces of ``m`` with dimension vector ``beta``,
    as tuples of row bases (one per vertex).

    The :func:`scan_states` count is checked against ``cap`` before any
    enumeration starts.
    """
    quiver = m.quiver
    q = m.q
    beta = tuple(beta)
    linalg.check_cap(scan_states(m.dims, beta, q), cap, "subrepresentation scan")
    if not dim_leq(beta, m.dims):
        return

    arrows_by_target: dict[int, list[int]] = {v: [] for v in quiver.vertices}
    for k, (_, t) in enumerate(quiver.arrows):
        arrows_by_target[t].append(k)

    def walk(v: int, chosen: list[np.ndarray]) -> Iterator[tuple[np.ndarray, ...]]:
        if v > quiver.rank:
            yield tuple(chosen)
            return
        image_rows = []
        for k in arrows_by_target[v]:
            s = quiver.arrows[k][0]
            img = (chosen[s - 1] @ m.mats[k].T) % q
            if img.size:
                image_rows.append(img)
        if image_rows:
            reduced, pivots = linalg.rref(np.vstack(image_rows), q)
            lower = reduced[: len(pivots)]
        else:
            lower = linalg.zeros(0, m.dims[v - 1])
        if lower.shape[0] > beta[v - 1]:
            return
        for w in linalg.subspaces_containing(
            lower, m.dims[v - 1], beta[v - 1], q, cap=None
        ):
            chosen.append(w)
            yield from walk(v + 1, chosen)
            chosen.pop()

    yield from walk(1, [])


@dataclass(frozen=True)
class StratumEntry:
    mu: KostantPartition
    nu: KostantPartition
    count: int
    dim: int


@dataclass(frozen=True)
class StrataReport:
    lam: KostantPartition
    beta: tuple[int, ...]
    q: int
    entries: tuple[StratumEntry, ...]
    total: int

    def pairs(self) -> frozenset[Pair]:
        return frozenset((e.mu, e.nu) for e in self.entries)

    def count_of(self, mu: KostantPartition, nu: KostantPartition) -> int:
        for e in self.entries:
            if e.mu == mu and e.nu == nu:
                return e.count
        return 0

    def to_json_dict(self) -> dict:
        return {
            "lambda": kp_format(self.lam),
            "beta": ",".join(str(x) for x in self.beta),
            "q": self.q,
            "strata": [
                {
                    "mu": kp_format(e.mu),
                    "nu": kp_format(e.nu),
                    "count": e.count,
                    "dim": e.dim,
                }
                for e in self.entries
            ],
            "total": self.total,
        }


def strata(
    lam: KostantPartition,
    beta: Sequence[int],
    q: int,
    cap: int | None = linalg.DEFAULT_CAP,
) -> StrataReport:
    """Classify every point of the Grassmannian by (quotient, sub) classes."""
    beta = tuple(beta)
    linalg.check_cap(scan_states(lam.total, beta, q), cap, "subrepresentation scan")
    return _strata(lam, beta, q)


@functools.cache
def _strata(lam: KostantPartition, beta: tuple[int, ...], q: int) -> StrataReport:
    m = build(lam, q)
    counts: dict[Pair, int] = {}
    total = 0
    for bases in subreps(m, beta, None):
        sub, quot = sub_quotient(m, bases)
        pair = (identify(quot, lam.table), identify(sub, lam.table))
        counts[pair] = counts.get(pair, 0) + 1
        total += 1
    entries = tuple(
        StratumEntry(mu, nu, counts[(mu, nu)], stratum_dim(lam, nu, check=False))
        for mu, nu in sorted(counts, key=lambda p: (p[0].parts, p[1].parts))
    )
    return StrataReport(lam, beta, q, entries, total)


def point_count(
    lam: KostantPartition,
    beta: Sequence[int],
    q: int,
    cap: int | None = linalg.DEFAULT_CAP,
) -> int:
    """Number of F_q-points of the Grassmannian of beta-dimensional subreps."""
    return strata(lam, beta, q, cap).total


def realized_pairs(
    lam: KostantPartition,
    beta: Sequence[int],
    q: int,
    cap: int | None = linalg.DEFAULT_CAP,
) -> frozenset[Pair]:
    return strata(lam, beta, q, cap).pairs()


def _validate_split(
    lam: KostantPartition, alpha: Sequence[int], beta: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    alpha, beta = tuple(alpha), tuple(beta)
    if dim_add(alpha, beta) != lam.total:
        raise PartitionError(
            f"alpha + beta = {dim_add(alpha, beta)} does not match dim lambda = {lam.total}"
        )
    return alpha, beta


def generic_pairs(
    lam: KostantPartition,
    alpha: Sequence[int],
    beta: Sequence[int],
    *,
    fields: Sequence[int] = (2, 3),
    cap: int | None = linalg.DEFAULT_CAP,
) -> frozenset[Pair]:
    """Realized pairs that are minimal in each coordinate separately:
    no realized pair degenerates the sub keeping the quotient, and none
    degenerates the quotient keeping the sub."""
    alpha, beta = _validate_split(lam, alpha, beta)
    realized: set[Pair] = set()
    for q in fields:
        realized |= realized_pairs(lam, beta, q, cap)
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
    fields: Sequence[int] = (2, 3),
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
    """Dimension ``[nu, lambda] - [nu, nu]`` of the stratum of points whose
    subrepresentation has class ``nu``.  With ``check`` the stratum is
    required to be realized (checked over F_q)."""
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

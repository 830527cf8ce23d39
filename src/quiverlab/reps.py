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
tested — and ``identify`` recovers the Kostant partition of an
arbitrary representation from its hom counts against the
indecomposables (the counting matrix is unitriangular in the adapted
order, so a forward substitution inverts it).

Representations returned by the cached constructors are shared; treat
them as immutable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .quiver import (
    DynkinQuiver,
    KostantPartition,
    RootTable,
    positive_roots,
)
from .homs import hom_table

__all__ = [
    "Rep",
    "RepError",
    "build",
    "chain_rep",
    "conjugate",
    "direct_sum",
    "hom_basis",
    "hom_space_dim",
    "identify",
    "indecomposable",
    "simple_rep",
    "sub_quotient",
    "zero_rep",
]


class RepError(ValueError):
    """Malformed representation data or an inconsistent identification."""


@dataclass(frozen=True, eq=False)
class Rep:
    """A finite-dimensional representation: one matrix per arrow, acting
    on column vectors, with ``mats[k]`` attached to ``quiver.arrows[k]``
    (shape ``dims[target] x dims[source]``)."""

    quiver: DynkinQuiver
    q: int
    dims: tuple[int, ...]
    mats: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.mats) != len(self.quiver.arrows):
            raise RepError("one matrix per arrow required")
        for (s, t), m in zip(self.quiver.arrows, self.mats):
            if m.shape != (self.dims[t - 1], self.dims[s - 1]):
                raise RepError(
                    f"matrix for {s}->{t} has shape {m.shape}, expected "
                    f"({self.dims[t - 1]}, {self.dims[s - 1]})"
                )

    def mat(self, arrow: tuple[int, int]) -> np.ndarray:
        return self.mats[self.quiver.arrows.index(arrow)]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def __repr__(self) -> str:
        return f"Rep({self.quiver!r}, q={self.q}, dims={self.dims})"


def zero_rep(quiver: DynkinQuiver, q: int) -> Rep:
    dims = (0,) * quiver.rank
    mats = tuple(linalg.zeros(0, 0) for _ in quiver.arrows)
    return Rep(quiver, q, dims, mats)


def simple_rep(quiver: DynkinQuiver, q: int, vertex: int) -> Rep:
    dims = tuple(1 if v == vertex else 0 for v in quiver.vertices)
    mats = tuple(
        linalg.zeros(dims[t - 1], dims[s - 1]) for s, t in quiver.arrows
    )
    return Rep(quiver, q, dims, mats)


def direct_sum(*reps: Rep) -> Rep:
    if not reps:
        raise RepError("direct_sum needs at least one summand")
    quiver, q = reps[0].quiver, reps[0].q
    for r in reps[1:]:
        if r.quiver != quiver or r.q != q:
            raise RepError("summands live over different quivers or fields")
    dims = tuple(sum(r.dims[v] for r in reps) for v in range(quiver.rank))
    mats = []
    for k, (s, t) in enumerate(quiver.arrows):
        block = linalg.zeros(dims[t - 1], dims[s - 1])
        ro = co = 0
        for r in reps:
            rt, rs = r.dims[t - 1], r.dims[s - 1]
            block[ro : ro + rt, co : co + rs] = r.mats[k]
            ro += rt
            co += rs
        mats.append(block)
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
    mats = []
    for s, t in quiver.arrows:
        m = linalg.zeros(dims[t - 1], dims[s - 1])
        if a <= s and t <= b:
            m[0, 0] = 1
        mats.append(m)
    return Rep(quiver, q, dims, tuple(mats))


# ---------------------------------------------------------------------------
# reflection construction of the indecomposables


def _reflect_arrow_set(arrows: tuple, i: int) -> tuple:
    return tuple(
        sorted((t, s) if s == i or t == i else (s, t) for s, t in arrows)
    )


def _kernel_reflect_at_sink(
    q: int,
    arrows: tuple,
    dims: list[int],
    mats: dict,
    v: int,
) -> tuple[tuple, dict]:
    """Apply the kernel functor at a sink ``v``: the new space is the
    kernel of the summed map into ``v`` and the reversed arrows project
    it back onto the incoming summands."""
    incoming = sorted((s, t) for s, t in arrows if t == v)
    blocks = [mats[h] for h in incoming]
    if blocks:
        xi = np.hstack(blocks)
    else:
        xi = linalg.zeros(dims[v - 1], 0)
    kernel = linalg.kernel_basis(xi, q)
    new_dim = kernel.shape[0]

    new_arrows = _reflect_arrow_set(arrows, v)
    new_mats = {h: m for h, m in mats.items() if h[1] != v}
    offset = 0
    for s, _ in incoming:
        width = dims[s - 1]
        new_mats[(v, s)] = kernel[:, offset : offset + width].T.copy() % q
        offset += width
    dims[v - 1] = new_dim
    return new_arrows, new_mats


@functools.cache
def indecomposable(table: RootTable, root_index: int, q: int) -> Rep:
    """The indecomposable representation with dimension vector
    ``table.roots[root_index]``, built by reflections along the adapted word."""
    quiver = table.quiver
    word = table.word
    k = root_index
    arrow_seq = [tuple(quiver.arrows)]
    for j in range(k):
        arrow_seq.append(_reflect_arrow_set(arrow_seq[-1], word[j]))

    seed = word[k]
    dims = [0] * quiver.rank
    dims[seed - 1] = 1
    arrows = arrow_seq[k]
    mats = {
        (s, t): linalg.zeros(dims[t - 1], dims[s - 1]) for s, t in arrows
    }
    for j in range(k - 1, -1, -1):
        arrows, mats = _kernel_reflect_at_sink(q, arrows, dims, mats, word[j])
        assert arrows == arrow_seq[j]

    if tuple(dims) != table.roots[root_index]:
        raise RepError(
            f"reflection walk produced dims {tuple(dims)} for root "
            f"{table.roots[root_index]}"
        )
    ordered = tuple(mats[h] for h in quiver.arrows)
    return Rep(quiver, q, tuple(dims), ordered)


@functools.cache
def build(kp: KostantPartition, q: int) -> Rep:
    """Direct sum of indecomposables, one per part of the partition."""
    quiver = kp.table.quiver
    if not kp.parts:
        return zero_rep(quiver, q)
    return direct_sum(*(indecomposable(kp.table, p, q) for p in kp.parts))


# ---------------------------------------------------------------------------
# intertwiner counting and identification


def _intertwiner_system(m: Rep, n: Rep) -> tuple[list[list[int]], list[int]]:
    """The linear system whose solutions are the intertwiners ``m -> n``.

    ``f_v`` is an ``e_v x d_v`` matrix (``e`` = dims of ``n``, ``d`` =
    dims of ``m``); its entry ``(a, b)`` is unknown number
    ``offsets[v-1] + a * d_v + b``, so ``offsets[-1]`` counts the
    unknowns.  There is one int-list row per entry ``(a, j)`` of
    ``f_t X_h - Y_h f_s`` for every arrow ``h: s -> t``; entries need not
    be reduced mod q (the :mod:`.linalg` kernel reads them mod q).
    """
    if m.quiver != n.quiver or m.q != n.q:
        raise RepError("representations live over different quivers or fields")
    offsets = [0]
    for d_v, e_v in zip(m.dims, n.dims):
        offsets.append(offsets[-1] + d_v * e_v)
    total_cols = offsets[-1]
    rows: list[list[int]] = []
    if total_cols == 0:
        return rows, offsets
    for k, (s, t) in enumerate(m.quiver.arrows):
        e_t, d_s, d_t = n.dims[t - 1], m.dims[s - 1], m.dims[t - 1]
        if not e_t * d_s:
            continue
        x_cols = m.mats[k].T.tolist()
        y_rows = n.mats[k].tolist()
        c_t, c_s = offsets[t - 1], offsets[s - 1]
        end_s = offsets[s]
        # X_h's column j meets row a of f_t, and -Y_h's row a meets
        # column j of f_s
        for a in range(e_t):
            lo = c_t + a * d_t
            y_row = [-y for y in y_rows[a]]
            for j in range(d_s):
                row = [0] * total_cols
                row[lo : lo + d_t] = x_cols[j]
                row[c_s + j : end_s : d_s] = y_row
                rows.append(row)
    return rows, offsets


def hom_space_dim(m: Rep, n: Rep) -> int:
    """dim of the space of intertwiners ``f`` with ``f_t X_h = Y_h f_s``
    for every arrow ``h: s -> t``, by exact rank computation."""
    rows, offsets = _intertwiner_system(m, n)
    return offsets[-1] - linalg.rank(rows, m.q)


def hom_basis(m: Rep, n: Rep) -> list[tuple[list[list[int]], ...]]:
    """A basis of the intertwiners ``m -> n``: the kernel of the system
    :func:`hom_space_dim` ranks.  Each element is one ``e_v x d_v``
    matrix per vertex (``e`` = dims of ``n``, ``d`` = dims of ``m``), as
    int-list rows reduced mod q."""
    rows, offsets = _intertwiner_system(m, n)
    total_cols = offsets[-1]
    if total_cols == 0:
        return []
    kernel = linalg.kernel_basis(rows or [[0] * total_cols], m.q).tolist()
    return [
        tuple(
            [vec[offsets[v] + a * d : offsets[v] + (a + 1) * d] for a in range(e)]
            for v, (d, e) in enumerate(zip(m.dims, n.dims))
        )
        for vec in kernel
    ]


def _partition_from_counts(
    table: RootTable, counts: Sequence[int], dims: Sequence[int], *, into: bool = True
) -> KostantPartition:
    """The Kostant partition with the given hom counts against the
    indecomposables, checked against the dimension vector ``dims``.

    With ``into``, ``counts[a]`` is dim Hom(M_a, X); the counting matrix
    ``hom[a][b]`` vanishes above its unit diagonal, so a forward
    substitution inverts it.  Otherwise ``counts[a]`` is dim Hom(X, M_a),
    counted by the transposed matrix, and the substitution runs from the
    last root down.  Raises :class:`RepError` if the counts are not those
    of any multiset of roots with dimension vector ``dims``.
    """
    homs = hom_table(table).hom
    n = len(table)
    found: list[tuple[int, int]] = []  # (root index, multiplicity > 0)
    for a in range(n) if into else range(n - 1, -1, -1):
        residue = counts[a]
        for b, c in found:
            residue -= c * (homs[a][b] if into else homs[b][a])
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
    counts = [hom_space_dim(indecomposable(table, a, m.q), m) for a in range(len(table))]
    return _partition_from_counts(table, counts, m.dims)


# ---------------------------------------------------------------------------
# subrepresentations and quotients


def sub_quotient(m: Rep, bases: Sequence[np.ndarray]) -> tuple[Rep, Rep]:
    """Restrict ``m`` to a graded subspace and form the quotient.

    ``bases[v-1]`` holds row vectors spanning the chosen subspace at
    vertex ``v``.  The subspace must be stable (each arrow maps it into
    the subspace at the target); otherwise :class:`RepError` is raised.
    Returns ``(sub, quotient)``.
    """
    q = m.q
    echelons: list[np.ndarray] = []
    complements: list[np.ndarray] = []
    for v in m.quiver.vertices:
        b = np.asarray(bases[v - 1], dtype=np.int64) % q
        if b.size == 0:
            b = b.reshape(0, m.dims[v - 1])
        if b.ndim != 2 or b.shape[1] != m.dims[v - 1]:
            raise RepError(f"basis at vertex {v} has wrong width")
        reduced, pivots = linalg.rref(b, q)
        if len(pivots) != b.shape[0]:
            raise RepError(f"basis rows at vertex {v} are dependent")
        echelons.append(reduced[: len(pivots)])
        free = [c for c in range(m.dims[v - 1]) if c not in pivots]
        comp = linalg.zeros(len(free), m.dims[v - 1])
        for r, c in enumerate(free):
            comp[r, c] = 1
        complements.append(comp)

    sub_dims = tuple(e.shape[0] for e in echelons)
    quot_dims = tuple(c.shape[0] for c in complements)
    sub_mats, quot_mats = [], []
    for k, (s, t) in enumerate(m.quiver.arrows):
        x = m.mats[k]
        images = (echelons[s - 1] @ x.T) % q
        if not linalg.row_space_contains(echelons[t - 1], images, q):
            raise RepError(f"subspace is not stable along arrow {s}->{t}")
        basis_t = np.vstack([echelons[t - 1], complements[t - 1]])
        basis_s = np.vstack([echelons[s - 1], complements[s - 1]])
        p_t = basis_t.T % q
        p_s = basis_s.T % q
        inv_t = linalg.solve(p_t, linalg.identity(m.dims[t - 1]), q)
        assert inv_t is not None
        transformed = (inv_t @ x @ p_s) % q
        st, ss = sub_dims[t - 1], sub_dims[s - 1]
        if np.any(transformed[st:, :ss]):
            raise RepError(f"subspace is not stable along arrow {s}->{t}")
        sub_mats.append(transformed[:st, :ss].copy())
        quot_mats.append(transformed[st:, ss:].copy())
    sub = Rep(m.quiver, q, sub_dims, tuple(sub_mats))
    quot = Rep(m.quiver, q, quot_dims, tuple(quot_mats))
    return sub, quot


def conjugate(m: Rep, g: Sequence[np.ndarray]) -> Rep:
    """Base change by invertible ``g[v-1]`` at each vertex: ``x -> g_t x g_s^{-1}``."""
    q = m.q
    inverses = []
    for v in m.quiver.vertices:
        gv = np.asarray(g[v - 1], dtype=np.int64) % q
        inv = linalg.solve(gv, linalg.identity(m.dims[v - 1]), q)
        if inv is None:
            raise RepError(f"base change at vertex {v} is singular")
        inverses.append(inv)
    mats = []
    for k, (s, t) in enumerate(m.quiver.arrows):
        gt = np.asarray(g[t - 1], dtype=np.int64)
        mats.append((gt @ m.mats[k] @ inverses[s - 1]) % q)
    return Rep(m.quiver, q, m.dims, tuple(mats))

"""Exact dense linear algebra over the prime fields F_2, F_3 (and F_5).

Matrices are numpy ``int64`` arrays reduced mod p; every operation stays
in exact integer arithmetic (no floating point anywhere).  Enumeration
of subspaces walks reduced row-echelon profiles in a fixed
lexicographic order, so iterating twice gives the same sequence and the
number of bases produced always equals the Gaussian binomial.

Enumerations that would exceed an explicit cap raise :class:`CapExceeded`
up front instead of running forever.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "CapExceeded",
    "DEFAULT_CAP",
    "SUPPORTED_FIELDS",
    "check_cap",
    "enumerate_subspaces",
    "gaussian_binomial",
    "identity",
    "kernel_basis",
    "matmul",
    "rank",
    "row_space_contains",
    "rref",
    "solve",
    "subspace_count",
    "subspaces_containing",
    "zeros",
]

SUPPORTED_FIELDS = (2, 3, 5)
DEFAULT_CAP = 2**24


class CapExceeded(RuntimeError):
    """An enumeration was asked to produce more states than its cap allows."""

    def __init__(self, needed: int, cap: int, what: str = "enumeration"):
        super().__init__(f"{what} needs {needed} states, cap is {cap}")
        self.needed = needed
        self.cap = cap


def check_cap(needed: int, cap: int | None, what: str) -> None:
    """Raise :class:`CapExceeded` when ``needed`` states pass ``cap`` (None: no cap)."""
    if cap is not None and needed > cap:
        raise CapExceeded(needed, cap, what)


def _check_field(q: int) -> None:
    if q not in SUPPORTED_FIELDS:
        raise ValueError(f"unsupported field F_{q}; supported: {SUPPORTED_FIELDS}")


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.int64)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return m


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def matmul(a, b, q: int) -> np.ndarray:
    _check_field(q)
    return (_as_matrix(a) @ _as_matrix(b)) % q


def rref(a, q: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row-echelon form and pivot columns."""
    _check_field(q)
    m = _as_matrix(a) % q
    m = m.copy()
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        inv = pow(int(m[r, c]), q - 2, q)
        m[r] = (m[r] * inv) % q
        col = m[:, c].copy()
        col[r] = 0
        m = (m - np.outer(col, m[r])) % q
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def rank(a, q: int) -> int:
    return len(rref(a, q)[1])


def kernel_basis(a, q: int) -> np.ndarray:
    """Rows span the right kernel ``{v : a v = 0}``; shape ``(nullity, ncols)``."""
    m = _as_matrix(a)
    ncols = m.shape[1]
    reduced, pivots = rref(m, q)
    free = [c for c in range(ncols) if c not in pivots]
    basis = zeros(len(free), ncols)
    for row, fc in enumerate(free):
        basis[row, fc] = 1
        for i, pc in enumerate(pivots):
            basis[row, pc] = (-int(reduced[i, fc])) % q
    return basis


def solve(a, b, q: int) -> np.ndarray | None:
    """One solution ``x`` of ``a x = b`` (``b`` a vector or matrix), or None.

    Free variables are set to zero, so the answer is deterministic.
    """
    _check_field(q)
    m = _as_matrix(a) % q
    rhs = np.asarray(b, dtype=np.int64) % q
    vector_rhs = rhs.ndim == 1
    if vector_rhs:
        rhs = rhs.reshape(-1, 1)
    if rhs.shape[0] != m.shape[0]:
        raise ValueError("incompatible shapes in solve")
    aug = np.hstack([m, rhs])
    reduced, pivots = rref(aug, q)
    ncols = m.shape[1]
    if any(p >= ncols for p in pivots):
        return None
    x = zeros(ncols, rhs.shape[1])
    for i, pc in enumerate(pivots):
        x[pc] = reduced[i, ncols:]
    return x[:, 0] if vector_rhs else x


def row_space_contains(basis, vectors, q: int) -> bool:
    """True when every row of ``vectors`` lies in the row space of ``basis``."""
    b = _as_matrix(basis)
    v = _as_matrix(vectors)
    if v.shape[0] == 0:
        return True
    if b.shape[0] == 0:
        return not np.any(v % q)
    return rank(np.vstack([b, v]), q) == rank(b, q)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n (exact integer)."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def subspace_count(n: int, q: int) -> int:
    """Total number of subspaces of F_q^n, all dimensions together."""
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def enumerate_subspaces(
    n: int, d: int, q: int, cap: int | None = DEFAULT_CAP
) -> Iterator[np.ndarray]:
    """All d-dimensional subspaces of F_q^n as reduced row-echelon bases.

    Yields ``(d, n)`` arrays whose rows are the echelon basis, ordered
    lexicographically by pivot profile and then by the free entries, so
    the iteration order is reproducible.
    """
    _check_field(q)
    if d < 0 or d > n:
        return
    check_cap(gaussian_binomial(n, d, q), cap, f"Gr({d}, F_{q}^{n})")
    if d == 0:
        yield zeros(0, n)
        return
    for pivots in itertools.combinations(range(n), d):
        free_positions = [
            (r, c)
            for r in range(d)
            for c in range(pivots[r] + 1, n)
            if c not in pivots
        ]
        base = zeros(d, n)
        for r, c in enumerate(pivots):
            base[r, c] = 1
        if not free_positions:
            yield base.copy()
            continue
        for values in itertools.product(range(q), repeat=len(free_positions)):
            m = base.copy()
            for (r, c), v in zip(free_positions, values):
                m[r, c] = v
            yield m


def subspaces_containing(
    lower, n: int, d: int, q: int, cap: int | None = DEFAULT_CAP
) -> Iterator[np.ndarray]:
    """All d-dimensional subspaces of F_q^n containing the row space of ``lower``.

    Works through the quotient by ``lower``: bases are the rows of
    ``lower`` (in echelon form) plus lifts of echelon bases of the
    quotient, re-echelonised.  Deterministic order inherited from
    :func:`enumerate_subspaces`.
    """
    low = _as_matrix(lower) % q
    low, piv = rref(low, q)
    u = len(piv)
    low = low[:u]
    if d < u or d > n:
        return
    if u == 0:
        yield from enumerate_subspaces(n, d, q, cap)
        return
    # complement coordinates: non-pivot columns of the lower space
    free_cols = [c for c in range(n) if c not in piv]
    k = len(free_cols)
    for small in enumerate_subspaces(k, d - u, q, cap):
        lift = zeros(small.shape[0], n)
        lift[:, free_cols] = small
        full, fpiv = rref(np.vstack([low, lift]), q)
        assert len(fpiv) == d
        yield full[:d]

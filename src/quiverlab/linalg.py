"""Exact dense linear algebra over the prime fields F_2, F_3 (and F_5).

One pure-Python Gauss–Jordan routine does every elimination: rows are
lists of Python ints, read mod p, so arithmetic is exact and there is no
per-call numpy overhead on the small systems the package builds.
Forward elimination gives :func:`rank`; the same loop with
back-substitution gives the canonical reduced row-echelon form behind
:func:`rref`, :func:`kernel_basis`, :func:`solve`,
:func:`row_space_contains` and :func:`subspaces_containing`.  numpy
stays at the boundary: these functions take a list of int lists or
anything ``numpy.asarray`` takes, and return numpy ``int64`` arrays
reduced mod p.  Enumeration
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
    "rank",
    "row_space_contains",
    "rref",
    "solve",
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


def _rows(a) -> tuple[list[list[int]], int]:
    """The rows of ``a`` as a new list of int lists, and the column count.

    ``a`` is a list of int lists, or anything :func:`numpy.asarray` takes
    (a 1-D input is one row).  Entries are not reduced mod q.
    """
    if type(a) is list and (not a or type(a[0]) is list):
        if len(set(map(len, a))) > 1:
            raise ValueError("rows of unequal length")
        return list(a), len(a[0]) if a else 0
    m = _as_matrix(a)
    return m.tolist(), m.shape[1]


def _to_array(rows: list[list[int]], ncols: int, q: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols) % q


def _eliminate(rows: list[list[int]], q: int, reduced: bool) -> list[int]:
    """Row-reduce the int lists ``rows`` over F_q in place and return the
    pivot columns.

    The pivot rows end up first, in pivot order, each with a leading 1,
    above rows that are zero mod q.  Without ``reduced`` only the entries
    below each pivot are cleared (forward elimination, enough for the
    rank); with it the entries above are cleared too, which leaves the
    reduced row-echelon form mod q.  Entries may be any ints: each one is
    read mod q, and a row the loop rewrites is reduced, but a row it
    never rewrites keeps its entries as given.  Rows are replaced, never
    changed in place, so a caller may pass a new list holding rows it
    still uses elsewhere.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for p in range(r, nrows):
            if rows[p][c] % q:
                break
        else:
            continue
        pivot_row = rows[p]
        rows[p] = rows[r]
        lead = pivot_row[c]
        if lead != 1:
            inv = pow(lead, q - 2, q)
            pivot_row = [x * inv % q for x in pivot_row]
        rows[r] = pivot_row
        for i in range(0 if reduced else r + 1, nrows):
            f = rows[i][c] % q
            if f and i != r:
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], pivot_row)]
        pivots.append(c)
        r += 1
    return pivots


def rref(a, q: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row-echelon form and pivot columns."""
    _check_field(q)
    rows, ncols = _rows(a)
    pivots = _eliminate(rows, q, True)
    return _to_array(rows, ncols, q), tuple(pivots)


def rank(a, q: int) -> int:
    """Rank over F_q; a list of int lists is used as it is, without numpy."""
    _check_field(q)
    return len(_eliminate(_rows(a)[0], q, False))


def kernel_basis(a, q: int) -> np.ndarray:
    """Rows span the right kernel ``{v : a v = 0}``; shape ``(nullity, ncols)``."""
    _check_field(q)
    rows, ncols = _rows(a)
    pivots = _eliminate(rows, q, True)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = -rows[i][fc] % q
        basis.append(v)
    return _to_array(basis, ncols, q)


def solve(a, b, q: int) -> np.ndarray | None:
    """One solution ``x`` of ``a x = b`` (``b`` a vector or matrix), or None.

    Free variables are set to zero, so the answer is deterministic.
    """
    _check_field(q)
    rows, ncols = _rows(a)
    rhs = np.asarray(b, dtype=np.int64)
    vector_rhs = rhs.ndim == 1
    if vector_rhs:
        rhs = rhs.reshape(-1, 1)
    if rhs.ndim != 2 or rhs.shape[0] != len(rows):
        raise ValueError("incompatible shapes in solve")
    aug = [row + extra for row, extra in zip(rows, rhs.tolist())]
    pivots = _eliminate(aug, q, True)
    if pivots and pivots[-1] >= ncols:
        return None
    x = [[0] * rhs.shape[1] for _ in range(ncols)]
    for i, pc in enumerate(pivots):
        x[pc] = aug[i][ncols:]
    out = _to_array(x, rhs.shape[1], q)
    return out[:, 0] if vector_rhs else out


def row_space_contains(basis, vectors, q: int) -> bool:
    """True when every row of ``vectors`` lies in the row space of ``basis``."""
    _check_field(q)
    b, b_cols = _rows(basis)
    v, v_cols = _rows(vectors)
    if not v:
        return True
    if not b:
        return all(x % q == 0 for row in v for x in row)
    if b_cols != v_cols:
        raise ValueError("basis and vectors have different widths")
    return len(_eliminate(b + v, q, False)) == len(_eliminate(b, q, False))


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


def _subspaces(n: int, d: int, q: int, cap: int | None) -> Iterator[list[list[int]]]:
    """:func:`enumerate_subspaces` as int-list rows, after the cap check."""
    if d < 0 or d > n:
        return
    check_cap(gaussian_binomial(n, d, q), cap, f"Gr({d}, F_{q}^{n})")
    for pivots in itertools.combinations(range(n), d):
        free_positions = [
            (r, c)
            for r in range(d)
            for c in range(pivots[r] + 1, n)
            if c not in pivots
        ]
        for values in itertools.product(range(q), repeat=len(free_positions)):
            rows = [[0] * n for _ in range(d)]
            for r, c in enumerate(pivots):
                rows[r][c] = 1
            for (r, c), v in zip(free_positions, values):
                rows[r][c] = v
            yield rows


def enumerate_subspaces(
    n: int, d: int, q: int, cap: int | None = DEFAULT_CAP
) -> Iterator[np.ndarray]:
    """All d-dimensional subspaces of F_q^n as reduced row-echelon bases.

    Yields ``(d, n)`` arrays whose rows are the echelon basis, ordered
    lexicographically by pivot profile and then by the free entries, so
    the iteration order is reproducible.
    """
    _check_field(q)
    for rows in _subspaces(n, d, q, cap):
        yield _to_array(rows, n, q)


def _subspaces_containing(
    low: list[list[int]], n: int, d: int, q: int, cap: int | None
) -> Iterator[list[list[int]]]:
    """:func:`subspaces_containing` as int-list rows reduced mod q; the
    int lists ``low`` (any spanning rows, entries read mod q) are
    row-reduced in place."""
    piv = _eliminate(low, q, True)
    u = len(piv)
    low = low[:u]
    if d < u or d > n:
        return
    if u == 0:
        yield from _subspaces(n, d, q, cap)
        return
    # complement coordinates: non-pivot columns of the lower space
    free_cols = [c for c in range(n) if c not in piv]
    for small in _subspaces(len(free_cols), d - u, q, cap):
        rows = list(low)
        for small_row in small:
            lift = [0] * n
            for c, x in zip(free_cols, small_row):
                lift[c] = x
            rows.append(lift)
        fpiv = _eliminate(rows, q, True)
        assert len(fpiv) == d
        yield [[x % q for x in row] for row in rows]


def subspaces_containing(
    lower, n: int, d: int, q: int, cap: int | None = DEFAULT_CAP
) -> Iterator[np.ndarray]:
    """All d-dimensional subspaces of F_q^n containing the row space of ``lower``.

    Works through the quotient by ``lower``: bases are the rows of
    ``lower`` (in echelon form) plus lifts of echelon bases of the
    quotient, re-echelonised.  Deterministic order inherited from
    :func:`enumerate_subspaces`.
    """
    _check_field(q)
    for rows in _subspaces_containing(_rows(lower)[0], n, d, q, cap):
        yield _to_array(rows, n, q)

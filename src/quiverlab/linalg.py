"""Exact dense linear algebra over the prime fields F_2, F_3 (and F_5).

Arithmetic is exact: every elimination is pure Python, over int lists
or over packed rows.  A matrix is a sequence of rows, each a sequence of
Python ints read mod p; results are int lists reduced mod p.  A matrix
with no rows carries no width, so :func:`kernel_basis`, which needs
it, takes the column count from the caller.  Forward elimination gives
:func:`rank`; the same loop with back-substitution gives the canonical
reduced row-echelon form behind :func:`rref` and :func:`kernel_basis`.
Enumeration of subspaces walks reduced row-echelon profiles in a fixed
lexicographic order, so iterating twice gives the same sequence and the
number of bases produced always equals the Gaussian binomial.

The private :func:`_packed_rank` ranks rows packed into one Python int
each (:func:`_pack`): one bit per entry over F_2, where a row operation
is one XOR, and one byte per entry over odd q, where it is one big-int
multiply-add followed by a byte-wise reduction mod q (:func:`_reduce`);
:func:`_unpack` reads a packed row back as an int list.  They serve the
intertwiner systems of :mod:`.reps`, which are so small that per-entry
Python overhead is the whole cost: :func:`.reps.hom_space_dim` ranks the
packed rows, and the kernels and coboundaries read them unpacked.  The
classifiers of :mod:`.grassmannian` and :mod:`.extensions` rank packed sums.

Enumerations that would exceed an explicit cap raise :class:`CapExceeded`
up front instead of running forever.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .quiver import _memo

__all__ = [
    "CapExceeded",
    "DEFAULT_CAP",
    "DEFAULT_FIELDS",
    "SUPPORTED_FIELDS",
    "check_cap",
    "enumerate_subspaces",
    "gaussian_binomial",
    "kernel_basis",
    "rank",
    "rref",
]

SUPPORTED_FIELDS = (2, 3, 5)
DEFAULT_FIELDS = (2, 3)
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


# Packed rows: one Python int per row, the entry of column c in slot c
# (bits c*w .. c*w + w - 1, w = _slot_bits(q)).  Over F_2 a slot is one
# bit and addition is XOR; over odd q a slot is one byte, wide enough to
# hold row + (q - lead) * pivot, at most q(q - 1) < 256, before each byte
# is reduced mod q by one bytes.translate.


def _slot_bits(q: int) -> int:
    """Bits per entry of a packed row over F_q."""
    return 1 if q == 2 else 8


def _pack(entries: Sequence[int], q: int) -> int:
    """The packed row of the int entries (read mod q), entry c in slot c."""
    w = _slot_bits(q)
    return sum((x % q) << (c * w) for c, x in enumerate(entries))


def _unpack(row: int, q: int, ncols: int) -> list[int]:
    """The ``ncols`` entries of the packed row ``row``, the inverse of
    :func:`_pack` on entries in ``range(q)``."""
    if q == 2:
        return [(row >> c) & 1 for c in range(ncols)]
    return list(row.to_bytes(ncols, "little"))


@_memo
def _byte_table(q: int) -> tuple[bytes, tuple[int, ...]]:
    """The translate table taking a byte b to b mod q, and the inverses
    mod q (0 at 0), built the first time F_q is eliminated over."""
    if q * (q - 1) > 255:
        raise ValueError(f"F_{q} entries do not fit a one-byte slot")
    inverses = (0,) + tuple(pow(x, q - 2, q) for x in range(1, q))
    return bytes(b % q for b in range(256)), inverses


def _reduce(row: int, q: int, ncols: int) -> int:
    """The packed row of ``ncols`` byte slots (odd q), each slot mod q."""
    return int.from_bytes(row.to_bytes(ncols, "little").translate(_byte_table(q)[0]), "little")


def _packed_rank(rows: Sequence[int], q: int, ncols: int) -> int:
    """Rank over F_q of packed rows of ``ncols`` entries, each in
    ``range(q)`` (see :func:`_pack`).

    Each row is reduced against the pivots found so far, keyed by its
    leading slot, until it vanishes or leads a slot no pivot holds.  Over
    F_2 a reduction is one XOR; over odd q it is ``row + (q - lead) *
    pivot`` on a pivot with leading 1, then every byte mod q.
    """
    _check_field(q)
    if q == 2:
        pivots: dict[int, int] = {}
        for row in rows:
            while row:
                top = row.bit_length()
                pivot = pivots.get(top)
                if pivot is None:
                    pivots[top] = row
                    break
                row ^= pivot
        return len(pivots)
    inverses = _byte_table(q)[1]
    pivots = {}
    for row in rows:
        while row:
            top = (row.bit_length() - 1) & ~7
            lead = row >> top
            pivot = pivots.get(top)
            if pivot is None:
                if lead != 1:
                    row = _reduce(row * inverses[lead], q, ncols)
                pivots[top] = row
                break
            row = _reduce(row + (q - lead) * pivot, q, ncols)
    return len(pivots)


def _rows(a, ncols: int | None = None) -> list[list[int]]:
    """A new list holding the rows of ``a``, each checked to have ``ncols``
    entries (with None, as many as the first row).  Entries are not
    reduced mod q."""
    rows = list(a)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError(f"expected rows of length {ncols}")
    return rows


def _eliminate(rows: list[Sequence[int]], q: int, reduced: bool) -> list[int]:
    """Row-reduce the list ``rows`` over F_q in place and return the pivot
    columns.

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


def rref(a, q: int) -> tuple[list[list[int]], tuple[int, ...]]:
    """Reduced row-echelon form, all rows kept and reduced mod q, and the
    pivot columns."""
    _check_field(q)
    rows = _rows(a)
    pivots = _eliminate(rows, q, True)
    return [[x % q for x in row] for row in rows], tuple(pivots)


def rank(a, q: int) -> int:
    """Rank over F_q."""
    _check_field(q)
    return len(_eliminate(_rows(a), q, False))


def kernel_basis(a, ncols: int, q: int) -> list[list[int]]:
    """Rows spanning the right kernel ``{v : a v = 0}`` of the matrix ``a``
    with ``ncols`` columns: ``ncols - rank`` rows of length ``ncols``."""
    _check_field(q)
    rows = _rows(a, ncols)
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
    return basis


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


def enumerate_subspaces(
    n: int, d: int, q: int, cap: int | None = DEFAULT_CAP
) -> Iterator[list[list[int]]]:
    """All d-dimensional subspaces of F_q^n as reduced row-echelon bases.

    Yields ``d`` int-list rows of length ``n``, the echelon basis, ordered
    lexicographically by pivot profile and then by the free entries, so
    the iteration order is reproducible.
    """
    _check_field(q)
    if d < 0 or d > n:
        return
    if cap is not None:
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


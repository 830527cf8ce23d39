"""Exact linear algebra over small prime fields.

Property tests pin the row-echelon and kernel contracts and check the
rank against a brute-force kernel count; counting tests pin the
subspace enumerator against Gaussian binomials.
"""

import itertools
import random
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from quiverlab import linalg
from quiverlab.linalg import (
    CapExceeded,
    SUPPORTED_FIELDS,
    enumerate_subspaces,
    gaussian_binomial,
    kernel_basis,
    rank,
    rref,
)


def apply(a, v, q):
    """The matrix ``a`` times the column vector ``v``, mod q."""
    return [sum(map(mul, row, v)) % q for row in a]


def subspace_count(n, q):
    """Total number of subspaces of F_q^n, all dimensions together."""
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


fields = st.sampled_from(SUPPORTED_FIELDS)


def matrices(max_dim=5):
    return st.integers(2, 5).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.integers(0, max_dim).flatmap(
                lambda r: st.integers(0, max_dim).flatmap(
                    lambda c: st.lists(
                        st.lists(st.integers(0, q - 1), min_size=c, max_size=c),
                        min_size=r,
                        max_size=r,
                    )
                )
            ),
        )
    )


mat_strategy = st.tuples(
    fields,
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 2**32 - 1),
)


def _random_matrix(q, r, c, seed):
    rng = random.Random(seed)
    return [[rng.randrange(q) for _ in range(c)] for _ in range(r)]


@given(mat_strategy)
@settings(max_examples=200, deadline=None)
def test_rref_properties(params):
    q, r, c, seed = params
    a = _random_matrix(q, r, c, seed)
    red, pivots = rref(a, q)
    # zero rows are kept, callers trim by pivot count
    assert len(red) == r and all(len(row) == c for row in red)
    assert len(pivots) == rank(a, q)
    assert not any(map(any, red[len(pivots):]))
    # strictly increasing pivot columns, unit pivots, cleared columns
    assert list(pivots) == sorted(set(pivots))
    for i, p in enumerate(pivots):
        assert red[i][p] == 1
        assert not any(row[p] for j, row in enumerate(red) if j != i)
    # row space is preserved both ways
    assert rank(red + a, q) == rank(red, q) == rank(a, q)


@given(mat_strategy)
@settings(max_examples=200, deadline=None)
def test_kernel_is_exact(params):
    q, r, c, seed = params
    a = _random_matrix(q, r, c, seed)
    k = kernel_basis(a, c, q)
    assert len(k) == c - rank(a, q)  # rank-nullity
    assert all(len(v) == c and not any(apply(a, v, q)) for v in k)
    assert rank(k, q) == len(k)


@given(st.tuples(fields, st.integers(0, 4), st.integers(0, 5), st.integers(0, 2**32 - 1)))
@settings(max_examples=200, deadline=None)
def test_rank_against_brute_force_kernel_count(params):
    q, r, c, seed = params
    a = _random_matrix(q, r, c, seed)
    kernel_size = sum(
        all(sum(x * y for x, y in zip(row, v)) % q == 0 for row in a)
        for v in itertools.product(range(q), repeat=c)
    )
    assert q ** (c - rank(a, q)) == kernel_size
    # an int-list input with entries off by multiples of q has the same rank
    shifted = [[x + q * (i - j) for j, x in enumerate(row)] for i, row in enumerate(a)]
    assert rank(shifted, q) == rank(a, q)
    red, pivots = rref(a, q)
    again, pivots_again = rref(red, q)
    assert again == red and pivots_again == pivots


@pytest.mark.parametrize(
    "a,ncols,expected",
    [
        # 0 x 3: no equations, so every vector is in the kernel
        ([], 3, {"rref": [], "kernel": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        # 3 x 0: no unknowns, so the kernel is the zero space
        ([[], [], []], 0, {"rref": [[], [], []], "kernel": []}),
    ],
)
@pytest.mark.parametrize("q", SUPPORTED_FIELDS)
def test_zero_size_matrices(a, ncols, expected, q):
    assert rank(a, q) == 0
    assert rref(a, q) == (expected["rref"], ())
    assert kernel_basis(a, ncols, q) == expected["kernel"]
    # the width comes from the caller and is checked against every row
    with pytest.raises(ValueError):
        kernel_basis(a + [[0] * (ncols + 1)], ncols, q)


# ------------------------------------------------------------- counting

def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(5, 0, 3) == 1
    assert gaussian_binomial(2, 3, 2) == 0
    # symmetry [n k] = [n n-k]
    for q in SUPPORTED_FIELDS:
        for n in range(6):
            for k in range(n + 1):
                assert gaussian_binomial(n, k, q) == gaussian_binomial(n, n - k, q)


@pytest.mark.parametrize("q", SUPPORTED_FIELDS)
@pytest.mark.parametrize("n", range(5))
def test_enumerate_subspaces_counts(n, q):
    for k in range(n + 1):
        got = list(enumerate_subspaces(n, k, q))
        assert len(got) == gaussian_binomial(n, k, q)
        canon = set()
        for basis in got:
            assert len(basis) == k and all(len(row) == n for row in basis)
            assert rank(basis, q) == k
            canon.add(tuple(map(tuple, rref(basis, q)[0])))
        assert len(canon) == len(got)  # pairwise distinct subspaces
    # Galois numbers, from G(n+1) = 2 G(n) + (q^n - 1) G(n-1)
    galois = {2: [1, 2, 5, 16, 67], 3: [1, 2, 6, 28, 212], 5: [1, 2, 8, 64, 1120]}
    assert subspace_count(n, q) == galois[q][n]


def test_cap_exceeded():
    with pytest.raises(CapExceeded) as exc:
        list(enumerate_subspaces(8, 4, 3, cap=10))
    assert exc.value.needed > 10
    assert exc.value.cap == 10
    # generous cap is fine
    assert len(list(enumerate_subspaces(3, 2, 2, cap=100))) == 7


def test_no_cap_counts_no_states(monkeypatch):
    # with no cap there is nothing to check, so the Gaussian binomial is skipped
    def forbidden(*args):
        raise AssertionError("gaussian_binomial called with no cap")

    monkeypatch.setattr(linalg, "gaussian_binomial", forbidden)
    assert len(list(enumerate_subspaces(3, 2, 2, cap=None))) == 7
    with pytest.raises(AssertionError):
        list(enumerate_subspaces(3, 2, 2, cap=100))


# ------------------------------------------------------------- packed rows


def _low_rank_matrix(q, r, c, k, rng):
    """An r x c matrix over F_q of rank at most k: a product of random
    r x k and k x c matrices, so that rows cancel in the elimination."""
    left = [[rng.randrange(q) for _ in range(k)] for _ in range(r)]
    right = [[rng.randrange(q) for _ in range(c)] for _ in range(k)]
    return [[sum(x * right[l][j] for l, x in enumerate(row)) % q for j in range(c)] for row in left]


def packed(a, q):
    return [linalg._pack(row, q) for row in a]


@given(
    st.tuples(fields, st.integers(0, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
)
@settings(max_examples=300, deadline=None)
def test_packed_rank_equals_rank(params):
    q, r, c, k, seed = params
    rng = random.Random(seed)
    a = _low_rank_matrix(q, r, c, k, rng)
    # packing reads entries mod q: entries off by multiples of q, negative
    # ones too, pack to the same row
    shifted = [[x + q * rng.randint(-3, 3) for x in row] for row in a]
    assert packed(shifted, q) == packed(a, q)
    assert linalg._packed_rank(packed(shifted, q), q, c) == rank(a, q)


@given(st.tuples(fields, st.lists(st.integers(-40, 40), max_size=8), st.integers(0, 3)))
@settings(max_examples=300, deadline=None)
def test_unpack_inverts_pack(params):
    # entries off by multiples of q, negative ones too, unpack reduced;
    # zero columns (empty rows, trailing zeros) unpack to zeros
    q, row, zeros = params
    row = row + [q * k for k in range(-zeros, 0)]
    assert linalg._unpack(linalg._pack(row, q), q, len(row)) == [x % q for x in row]


@pytest.mark.parametrize("q", SUPPORTED_FIELDS)
def test_packed_rank_of_empty_systems(q):
    assert linalg._packed_rank([], q, 0) == 0
    assert linalg._packed_rank([], q, 4) == 0
    # rows with zero columns pack to 0 and add nothing to the rank
    assert linalg._packed_rank(packed([[], [], []], q), q, 0) == 0


def test_packed_rank_rejects_unsupported_fields():
    for q in (4, 7):
        # the field is checked even when there is nothing to eliminate
        with pytest.raises(ValueError):
            linalg._packed_rank([], q, 0)
        with pytest.raises(ValueError):
            linalg._packed_rank([1], q, 1)


def test_packed_rank_over_fields_added_after_import(monkeypatch):
    # the byte tables are built the first time a field is eliminated over,
    # so fields added to SUPPORTED_FIELDS later work as the others do; a
    # slot holds up to q(q - 1), which is below 256 up to q = 13
    monkeypatch.setattr(linalg, "SUPPORTED_FIELDS", SUPPORTED_FIELDS + (7, 11, 13, 17))
    rng = random.Random(20261019)
    for q in (7, 11, 13):
        for _ in range(60):
            r, c = rng.randint(0, 6), rng.randint(0, 6)
            a = _low_rank_matrix(q, r, c, rng.randint(0, 6), rng)
            assert linalg._packed_rank(packed(a, q), q, c) == rank(a, q)
            for row in a:
                shifted = [x + q * rng.randint(-3, 3) for x in row] + [0]
                assert linalg._unpack(linalg._pack(shifted, q), q, c + 1) == row + [0]
    with pytest.raises(ValueError):
        linalg._packed_rank([], 17, 0)

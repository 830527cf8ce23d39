"""Representations over small prime fields and class identification."""

import itertools
import random

import pytest

from quiverlab import (
    Rep,
    build,
    build_quiver,
    chain_rep,
    direct_sum,
    hom_basis,
    hom_dim,
    hom_space_dim,
    identify,
    indecomposable,
    kp_enumerate,
    kp_format,
    kp_parse,
    positive_roots,
    standard_quiver,
    sub_quotient,
    zero_rep,
)
from quiverlab import linalg
from quiverlab.reps import RepError, _intertwiner_system


def random_invertible(rng, n, q):
    """A random invertible n x n matrix over F_q, by rejection sampling."""
    while True:
        m = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        if linalg.rank(m, q) == n:
            return m


def matmul(a, b, ncols, q):
    """The product of ``a`` and the ``ncols``-column matrix ``b``, mod q."""
    return tuple(
        tuple(sum(x * b[i][j] for i, x in enumerate(row)) % q for j in range(ncols))
        for row in a
    )


def conjugate(m, g):
    """Base change by invertible ``g[v-1]`` at each vertex: ``x -> g_t x g_s^{-1}``."""
    q = m.q
    inverses = []
    for gv, d in zip(g, m.dims):
        # rref of [g | I] is [I | g^{-1}] exactly when g is invertible
        reduced, pivots = linalg.rref(
            [[*row, *(int(i == j) for j in range(d))] for i, row in enumerate(gv)], q
        )
        assert pivots == tuple(range(d)), "singular base change"
        inverses.append([row[d:] for row in reduced])
    mats = tuple(
        matmul(matmul(g[t - 1], x, m.dims[s - 1], q), inverses[s - 1], m.dims[s - 1], q)
        for (s, t), x in zip(m.quiver.arrows, m.mats)
    )
    return Rep(m.quiver, q, m.dims, mats)


def shift(mats, by):
    """Every entry of every matrix plus ``by``."""
    return tuple(tuple(tuple(x + by for x in row) for row in m) for m in mats)


def simple_rep(quiver, q, vertex):
    dims = tuple(int(v == vertex) for v in quiver.vertices)
    mats = tuple(((0,) * dims[s - 1],) * dims[t - 1] for s, t in quiver.arrows)
    return Rep(quiver, q, dims, mats)


def flipped(dt, rank, seed):
    """The standard diagram with each arrow reversed at random (seeded)."""
    rng = random.Random(seed)
    return [(t, s) if rng.random() < 0.5 else (s, t) for s, t in standard_quiver(dt, rank).arrows]


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "dt,rank,arrows",
    [
        pytest.param("A", 3, None, id="A-3"),
        pytest.param("D", 4, None, id="D-4"),
        # the zigzag A4 and sink-centred D4 of tests/test_grassmann.py
        pytest.param("A", 4, [(2, 1), (2, 3), (4, 3)], id="A-4-zigzag"),
        pytest.param("D", 4, [(1, 2), (3, 2), (4, 2)], id="D-4-sink"),
        pytest.param("E", 6, flipped("E", 6, "E6"), id="E-6-random"),
    ],
)
def test_indecomposables_have_right_dims_and_trivial_end(dt, rank, arrows, q):
    # the walk starts on the orientation reflected at the word's prefix,
    # so orientations other than the standard one and both words count
    quiver = standard_quiver(dt, rank) if arrows is None else build_quiver(dt, rank, arrows)
    for variant in ("canonical", "alternate"):
        table = positive_roots(quiver, variant)
        for idx, root in enumerate(table.roots):
            m = indecomposable(table, idx, q)
            assert m.dims == root
            assert hom_space_dim(m, m) == 1


@pytest.mark.parametrize("q", [2, 3, 5])
def test_identify_roundtrip(t3, q):
    for gamma in itertools.product(range(5), repeat=3):
        if not 0 < sum(gamma) <= 4:
            continue
        for kp in kp_enumerate(t3, gamma):
            m = build(kp, q)
            assert m.dims == kp.total
            assert identify(m) == kp


@pytest.mark.parametrize("dt,rank,max_total", [("A", 3, 4), ("D", 4, 3)])
def test_identify_roundtrip_on_alternate_table(dt, rank, max_total):
    # partitions come back over the table they were built on, so parts
    # index the alternate root order, not the canonical one
    table = positive_roots(standard_quiver(dt, rank), "alternate")
    assert table != positive_roots(table.quiver)
    for gamma in itertools.product(range(max_total + 1), repeat=rank):
        if not 0 < sum(gamma) <= max_total:
            continue
        for kp in kp_enumerate(table, gamma):
            for q in (2, 3):
                assert identify(build(kp, q), table) == kp


def test_identify_is_conjugation_invariant(t3):
    rng = random.Random(20260818)
    kp = kp_parse(t3, "[1,2]+[2,3]+[1,1]")
    m = build(kp, 3)
    for _ in range(5):
        g = [random_invertible(rng, d, 3) for d in m.dims]
        assert identify(conjugate(m, g)) == kp


def test_chain_rep_agrees_with_reflection_construction(t3):
    for a in range(1, 4):
        for b in range(a, 4):
            for q in (2, 3):
                m = chain_rep(t3.quiver, q, a, b)
                assert identify(m) == kp_parse(t3, f"[{a},{b}]")


def test_direct_sum_identifies_as_sum(t3):
    x = kp_parse(t3, "[1,2]")
    y = kp_parse(t3, "[2,3]")
    m = direct_sum(build(x, 2), build(y, 2))
    assert m.dims == (1, 2, 1)
    assert identify(m) == x + y
    # vertex 3 is zero-dimensional: the arrow 2->3 carries a 0 x 1 matrix
    z = kp_parse(t3, "[1,1]")
    m = direct_sum(build(x, 2), build(z, 2))
    assert m.dims == (2, 1, 0)
    assert m.mats == (((1, 0),), ())
    assert identify(m) == x + z


def test_simple_and_zero(t3):
    s2 = simple_rep(t3.quiver, 2, 2)
    assert s2.dims == (0, 1, 0)
    assert identify(s2) == kp_parse(t3, "[2,2]")
    z = zero_rep(t3.quiver, 2)
    assert z.dims == (0, 0, 0)
    assert identify(z) == kp_parse(t3, "0")


def test_hom_space_dim_examples(t2):
    m12 = build(kp_parse(t2, "[1,2]"), 2)
    s1 = build(kp_parse(t2, "[1,1]"), 2)
    s2 = build(kp_parse(t2, "[2,2]"), 2)
    assert hom_space_dim(m12, m12) == 1
    assert hom_space_dim(s1, m12) == 0
    assert hom_space_dim(m12, s1) == 1  # quotient map
    assert hom_space_dim(s2, m12) == 1  # socle inclusion
    assert hom_space_dim(m12, s2) == 0
    assert hom_space_dim(direct_sum(m12, m12), m12) == 2


def test_sub_quotient_splits_the_segment(t2):
    m = build(kp_parse(t2, "[1,2]"), 2)
    # the one-dimensional space at vertex 2 is the unique proper subrep
    bases = ([], [[1]])
    sub, quot = sub_quotient(m, bases)
    assert identify(sub) == kp_parse(t2, "[2,2]")
    assert identify(quot) == kp_parse(t2, "[1,1]")


def test_sub_quotient_rejects_unstable_subspace(t2):
    # the space at vertex 1 is NOT a subrep of M[1,2]: the arrow maps it out
    m = build(kp_parse(t2, "[1,2]"), 2)
    bases = ([[1]], [])
    with pytest.raises(RepError):
        sub_quotient(m, bases)
    # one basis per vertex, no fewer and no more
    for bases in (([],), ([], [[1]], [])):
        with pytest.raises(RepError, match="bases"):
            sub_quotient(m, bases)


def test_rep_shape_validation(t2):
    quiver = t2.quiver  # the one arrow is 1 -> 2
    with pytest.raises(RepError):
        Rep(quiver, 2, (1, 1), (((0,), (0,)),))  # two rows, not one
    with pytest.raises(RepError):
        Rep(quiver, 2, (1, 1), ())
    with pytest.raises(RepError):
        Rep(quiver, 2, (2, 2), (((0, 0), (0,)),))  # a ragged row
    # a 2 x 0 matrix has two empty rows, a 0 x 2 matrix none at all
    assert Rep(quiver, 2, (0, 2), (((), ()),)).dims == (0, 2)
    assert Rep(quiver, 2, (2, 0), ((),)).dims == (2, 0)
    with pytest.raises(RepError):
        Rep(quiver, 2, (0, 2), ((),))
    with pytest.raises(RepError):
        Rep(quiver, 2, (2, 0), (((), ()),))
    # one size per vertex, none negative: a phantom third vertex would add
    # a free unknown to every hom count
    with pytest.raises(RepError, match="dims"):
        Rep(quiver, 2, (1, 1, 1), (((1,),),))
    with pytest.raises(RepError, match="dims"):
        Rep(quiver, 2, (1,), (((1,),),))
    with pytest.raises(RepError, match="dims"):
        Rep(quiver, 2, (-1, 1), ((),))


def test_build_builds_over_each_field(t3):
    kp = kp_parse(t3, "[1,3]+[2,2]")
    for q in (2, 3, 5):
        m = build(kp, q)
        assert m.q == q and m.dims == (1, 2, 1)
        assert identify(m) == kp


def test_hom_space_dim_without_unknowns_or_equations(t3):
    q = 2
    quiver = t3.quiver
    m = build(kp_parse(t3, "[1,3]"), q)
    z = zero_rep(quiver, q)
    # a zero dimension on either side leaves no unknowns
    assert hom_space_dim(z, m) == 0
    assert hom_space_dim(m, z) == 0
    assert hom_space_dim(simple_rep(quiver, q, 1), simple_rep(quiver, q, 3)) == 0
    # every arrow of A3 meets vertex 2, where both sides vanish: unknowns
    # at vertices 1 and 3 and not a single equation
    ends = direct_sum(simple_rep(quiver, q, 1), simple_rep(quiver, q, 3))
    assert hom_space_dim(ends, ends) == 2
    assert hom_space_dim(simple_rep(quiver, q, 1), ends) == 1
    # one f per vertex, e_v x d_v: 1 x 1, 0 x 0, then 1 x 0
    assert hom_basis(simple_rep(quiver, q, 1), ends) == [([[1]], [], [[]])]
    # S1's arrow 1->2 has a 0 x 1 matrix, so its one column is empty; the
    # equation on that arrow forces f_1 = 0, as S1 is not in M[1,2]'s socle
    m12 = build(kp_parse(t3, "[1,2]"), q)
    assert hom_space_dim(simple_rep(quiver, q, 1), m12) == 0
    assert hom_basis(simple_rep(quiver, q, 1), m12) == []
    assert hom_basis(m12, simple_rep(quiver, q, 1)) == [([[1]], [], [])]
    # both sides must share quiver and field, and the field is checked
    # even when there is nothing to rank
    with pytest.raises(RepError):
        hom_space_dim(z, zero_rep(quiver, 3))
    with pytest.raises(RepError):
        hom_space_dim(z, zero_rep(build_quiver("A", 3, [(2, 1), (2, 3)]), q))
    with pytest.raises(ValueError):
        hom_space_dim(zero_rep(quiver, 4), zero_rep(quiver, 4))


def test_hom_space_dim_reads_entries_mod_q(t3):
    q = 3
    classes = [kp_parse(t3, s) for s in ("[1,3]", "[1,2]+[2,3]", "[1,1]+[2,2]+[3,3]")]
    for x in classes:
        for y in classes:
            m, n = build(x, q), build(y, q)
            shifted = Rep(m.quiver, q, m.dims, shift(m.mats, 3 * q))
            negated = Rep(n.quiver, q, n.dims, shift(n.mats, -2 * q))
            assert hom_space_dim(shifted, negated) == hom_space_dim(m, n)


def random_rep(rng, quiver, q, max_dim=3):
    """A representation with random dims and random, mostly sparse arrow
    matrices, not built as a direct sum.  Entries are unreduced and often
    negative: about half are multiples of q, which read as 0."""

    def entry():
        return rng.randrange(-2 * q, 3 * q) if rng.random() < 0.5 else q * rng.randint(-2, 2)

    dims = tuple(rng.randint(0, max_dim) for _ in quiver.vertices)
    mats = tuple(
        tuple(tuple(entry() for _ in range(dims[s - 1])) for _ in range(dims[t - 1]))
        for s, t in quiver.arrows
    )
    return Rep(quiver, q, dims, mats)


def intertwines(f, m, n):
    """Whether the per-vertex matrices ``f`` satisfy f_t X_h = Y_h f_s
    mod q on every arrow ``h: s -> t``, by direct matrix products."""
    q = m.q
    return all(
        matmul(f[t - 1], x, m.dims[s - 1], q) == matmul(y, f[s - 1], m.dims[s - 1], q)
        for (s, t), x, y in zip(m.quiver.arrows, m.mats, n.mats)
    )


def brute_force_count(m, n):
    """The number of intertwiners ``m -> n``, over every choice of f."""
    shapes = list(zip(n.dims, m.dims))
    count = 0
    for values in itertools.product(range(m.q), repeat=sum(e * d for e, d in shapes)):
        it = iter(values)
        f = [[[next(it) for _ in range(d)] for _ in range(e)] for e, d in shapes]
        count += intertwines(f, m, n)
    return count


# the pairs of each case with at most 4096 candidate f, which are counted
# by brute force
BRUTE_FORCED = {
    "A3": {2: 67, 3: 46, 5: 32},
    "D4": {2: 58, 3: 30, 5: 20},
    "A4": {2: 65, 3: 31, 5: 24},
    "E6": {2: 34, 3: 19, 5: 6},
}


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize(
    "dt,rank,arrows",
    [
        pytest.param("A", 3, None, id="A-3"),
        pytest.param("D", 4, None, id="D-4"),
        pytest.param("A", 4, [(2, 1), (2, 3), (4, 3)], id="A-4-zigzag"),
        pytest.param("E", 6, None, id="E-6"),
    ],
)
def test_hom_space_dim_agrees_with_the_dense_system(dt, rank, arrows, q):
    # the dense system is the definition itself, the arrow matrices
    # multiplied out: hom_basis must span intertwiners, independent ones,
    # as many as hom_space_dim counts; the count must be the closed form's
    # for the identified classes, and q^count must be the number of all f
    # that intertwine wherever there are few enough f to try
    quiver = standard_quiver(dt, rank) if arrows is None else build_quiver(dt, rank, arrows)
    table = positive_roots(quiver)
    rng = random.Random(f"{dt}{rank}/{arrows}/{q}")
    dependent = 0  # systems whose elimination clears a row
    tried = 0  # pairs counted by brute force
    for _ in range(80):
        m, n = random_rep(rng, quiver, q), random_rep(rng, quiver, q)
        dim = hom_space_dim(m, n)
        basis = hom_basis(m, n)
        assert dim == len(basis), (m.mats, n.mats)
        assert all(intertwines(f, m, n) for f in basis), (m.mats, n.mats)
        flat = [[x for mat in f for row in mat for x in row] for f in basis]
        assert linalg.rank(flat, q) == dim, (m.mats, n.mats)
        assert dim == hom_dim(identify(m, table), identify(n, table)), (m.mats, n.mats)
        rows, offsets = _intertwiner_system(m, n)
        r = linalg._packed_rank(rows, q, offsets[-1])
        dependent += 0 < r < len(rows)
        if q ** offsets[-1] <= 4096:
            assert brute_force_count(m, n) == q**dim, (m.mats, n.mats)
            tried += 1
    assert dependent >= 20
    assert tried == BRUTE_FORCED[f"{dt}{rank}"][q]


def test_hom_oracle_over_f5(t3, t4):
    # criterion 4 sweeps GF(2) and GF(3); over GF(5) the packed rows also
    # meet leads other than 1 and -1
    counts = []
    for table, max_total in ((t3, 4), (t4, 3)):
        classes = [
            kp
            for gamma in itertools.product(range(max_total + 1), repeat=table.quiver.rank)
            if 0 < sum(gamma) <= max_total
            for kp in kp_enumerate(table, gamma)
        ]
        built = {kp: build(kp, 5) for kp in classes}
        mismatches = [
            (kp_format(x), kp_format(y))
            for x in classes
            for y in classes
            if hom_dim(x, y) != hom_space_dim(built[x], built[y])
        ]
        assert not mismatches
        counts.append(len(classes) ** 2)
    assert counts == [3721, 2704]

"""Hom/Ext dimensions: closed form and segment formulas."""

import itertools
import random
from collections import Counter

import pytest

from quiverlab import (
    KostantPartition,
    PartitionError,
    build_quiver,
    euler_form,
    ext_dim,
    hom_dim,
    hom_ext_pair,
    hom_ext_vectors,
    hom_vector,
    kp_enumerate,
    kp_parse,
    kp_single,
    leq,
    positive_roots,
    segments_of,
    standard_quiver,
    typeA_ext_dim,
    typeA_hom_dim,
    typeA_leq,
)


def all_kps(table, max_weight):
    rank = table.quiver.rank
    out = []
    for gamma in itertools.product(range(max_weight + 1), repeat=rank):
        if 0 < sum(gamma) <= max_weight:
            out.extend(kp_enumerate(table, gamma))
    return out


def test_a2_hom_matrix_hand_checked(t2):
    # roots in enumeration order: [1,1], [1,2], [2,2]
    hom = [[hom_ext_pair(t2, a, b)[0] for b in range(3)] for a in range(3)]
    ext = [[hom_ext_pair(t2, a, b)[1] for b in range(3)] for a in range(3)]
    assert hom == [[1, 0, 0], [1, 1, 0], [0, 1, 1]]
    assert ext == [[0, 0, 1], [0, 0, 0], [0, 0, 0]]


def test_biadditivity(t3):
    x = kp_parse(t3, "[1,2]")
    y = kp_parse(t3, "[2,3]")
    z = kp_parse(t3, "[1,1]+[2,2]")
    assert hom_dim(x + y, z) == hom_dim(x, z) + hom_dim(y, z)
    assert hom_dim(z, x + y) == hom_dim(z, x) + hom_dim(z, y)
    assert ext_dim(x + y, z) == ext_dim(x, z) + ext_dim(y, z)


def test_adjacent_simples(t2):
    s1 = kp_parse(t2, "[1,1]")
    s2 = kp_parse(t2, "[2,2]")
    assert ext_dim(s1, s2) == 1  # nonsplit 0 -> S2 -> M[1,2] -> S1 -> 0
    assert ext_dim(s2, s1) == 0
    assert hom_dim(s1, s2) == hom_dim(s2, s1) == 0


def test_segment_formulas_match_closed_form(t3):
    for x in all_kps(t3, 4):
        for y in all_kps(t3, 4):
            assert typeA_hom_dim(x, y) == hom_dim(x, y)
            assert typeA_ext_dim(x, y) == ext_dim(x, y)


def test_segment_formulas_reject_other_quivers(t4):
    s = kp_single(t4, (1, 0, 0, 0))
    with pytest.raises(PartitionError):
        typeA_hom_dim(s, s)


def test_cross_table_mixing_is_rejected(t2, t3):
    # the alternate word has the same quiver and its roots in another
    # order, so a vector of one table must not be read at the other's parts
    alt = positive_roots(t3.quiver, "alternate")
    for x, y in (
        (kp_parse(t2, "[1,1]"), kp_parse(t3, "[1,1]")),
        (kp_parse(t3, "[1,2]+[3,3]"), kp_parse(alt, "[2,3]")),
    ):
        for f in (hom_dim, ext_dim):
            for pair in ((x, y), (y, x)):
                with pytest.raises(PartitionError):
                    f(*pair)


def test_hom_vanishing_pattern(t3):
    # hom vanishes strictly upward, ext strictly downward, in word order
    n = len(t3.roots)
    for a in range(n):
        for b in range(n):
            hom, ext = hom_ext_pair(t3, a, b)
            if a < b:
                assert hom == 0
            if a > b:
                assert ext == 0
            if a == b:
                assert (hom, ext) == (1, 0)


def test_euler_identity_on_roots(t4):
    quiver = t4.quiver
    n = len(t4.roots)
    for a in range(n):
        for b in range(n):
            hom, ext = hom_ext_pair(t4, a, b)
            assert hom - ext == euler_form(quiver, t4.roots[a], t4.roots[b])


def assert_pairs_consistent(table):
    """Every ordered pair of roots: non-negative counts, (1, 0) on the
    diagonal, hom vanishing strictly upward and ext strictly downward in
    the adapted order, and hom - ext the Euler form."""
    for a, alpha in enumerate(table.roots):
        for b, beta in enumerate(table.roots):
            hom, ext = hom_ext_pair(table, a, b)
            assert hom >= 0 and ext >= 0, (a, b)
            if a == b:
                assert (hom, ext) == (1, 0), a
            elif a < b:
                assert hom == 0, (a, b)
            else:
                assert ext == 0, (a, b)
            assert hom - ext == euler_form(table.quiver, alpha, beta), (a, b)


@pytest.mark.parametrize("dt,rank", [("A", 3), ("D", 4)])
def test_hom_table_validates(dt, rank):
    # the pair checks over the standard quivers; E6 is the [E6] case below
    assert_pairs_consistent(positive_roots(standard_quiver(dt, rank)))


# the standard A3, D4 and E6, A3 over its alternate adapted word, and a
# sink-centred D4 and a zigzag A4
CLOSED_FORM_TABLES = {
    "A3": lambda: positive_roots(standard_quiver("A", 3)),
    "D4": lambda: positive_roots(standard_quiver("D", 4)),
    "E6": lambda: positive_roots(standard_quiver("E", 6)),
    "A3-alternate": lambda: positive_roots(standard_quiver("A", 3), "alternate"),
    "D4-sink": lambda: positive_roots(build_quiver("D", 4, [(1, 2), (3, 2), (4, 2)])),
    "A4-zigzag": lambda: positive_roots(build_quiver("A", 4, [(2, 1), (2, 3), (4, 3)])),
}


@pytest.mark.parametrize(
    "name", sorted(set(CLOSED_FORM_TABLES) - {"A3", "D4"})
)
def test_closed_form_pairs_are_consistent(name):
    # A3 and D4 are test_hom_table_validates
    assert_pairs_consistent(CLOSED_FORM_TABLES[name]())


def random_kp(rng, table):
    """A partition of 0 to 5 parts drawn uniformly from the roots."""
    return KostantPartition(
        table, tuple(rng.randrange(len(table)) for _ in range(rng.randrange(6)))
    )


@pytest.mark.parametrize("name", sorted(CLOSED_FORM_TABLES))
def test_closed_forms_equal_the_biadditive_double_sum(name):
    table = CLOSED_FORM_TABLES[name]()
    rng = random.Random(name)
    for _ in range(300):
        x, y = random_kp(rng, table), random_kp(rng, table)
        cx, cy = Counter(x.parts), Counter(y.parts)
        pairs = [
            (m * n, hom_ext_pair(table, a, b))
            for a, m in cx.items()
            for b, n in cy.items()
        ]
        assert hom_dim(x, y) == sum(c * h for c, (h, _) in pairs)
        assert ext_dim(x, y) == sum(c * e for c, (_, e) in pairs)
    for _ in range(30):
        x = random_kp(rng, table)
        singles = [kp_single(table, a) for a in range(len(table))]
        assert hom_vector(x) == tuple(hom_dim(s, x) for s in singles)
        assert hom_ext_vectors(x)[2] == tuple(hom_dim(x, s) for s in singles)


def split_segment(rng, x):
    """x with one of its segments [i,j], i < j, cut into [i,k] + [k+1,j]."""
    segments = list(segments_of(x))
    i, j = rng.choice([s for s in segments if s[0] < s[1]])
    k = rng.randrange(i, j)
    segments.remove((i, j))
    segments += [(i, k), (k + 1, j)]
    return kp_parse(x.table, "+".join(f"[{a},{b}]" for a, b in segments))


def test_rank_50_closed_forms_equal_the_segment_counts():
    # A50 has 1275 roots; the segment formulas share no code with the
    # closed forms, and the queries fill the pair memo with at most two
    # rows of pairs per root they meet, never with all N^2 pairs
    table = positive_roots(standard_quiver("A", 50))
    n = len(table)
    rng = random.Random("A50")
    before = hom_ext_pair.cache_info().currsize
    roots_met = set()
    for _ in range(5):
        x, y = random_kp(rng, table), random_kp(rng, table)
        assert hom_dim(x, y) == typeA_hom_dim(x, y)
        assert ext_dim(x, y) == typeA_ext_dim(x, y)
        out_of = hom_ext_vectors(x)[2]
        assert out_of == tuple(typeA_hom_dim(x, kp_single(table, a)) for a in range(n))
        for a in y.parts:
            assert out_of[a] == hom_dim(x, kp_single(table, a))
        classes = [x, y]
        if any(i < j for i, j in segments_of(x)):
            # classes of one dimension vector: the order is not decided by it
            classes += [split_segment(rng, x), split_segment(rng, x)]
        for u in classes:
            roots_met.update(u.parts)
            for v in classes:
                assert leq(u, v) == typeA_leq(u, v), (u, v)
    grown = hom_ext_pair.cache_info().currsize - before
    assert grown <= 2 * n * len(roots_met) < n * n // 10

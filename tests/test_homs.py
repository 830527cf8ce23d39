"""Hom/Ext dimensions: closed form, segment formulas, resolutions."""

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
    hom_table,
    hom_vector,
    kp_enumerate,
    kp_parse,
    kp_single,
    positive_roots,
    projective_resolution,
    standard_quiver,
    typeA_ext_dim,
    typeA_hom_dim,
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


@pytest.mark.parametrize("dt,rank", [("A", 3), ("D", 4), ("E", 6)])
def test_hom_table_validates(dt, rank):
    hom_table(positive_roots(standard_quiver(dt, rank))).validate()


def test_euler_identity_on_roots(t4):
    quiver = t4.quiver
    n = len(t4.roots)
    for a in range(n):
        for b in range(n):
            hom, ext = hom_ext_pair(t4, a, b)
            assert hom - ext == euler_form(quiver, t4.roots[a], t4.roots[b])


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
        assert hom_vector(x) == tuple(
            hom_dim(kp_single(table, a), x) for a in range(len(table))
        )


def test_projective_resolution_values(t2, t3):
    def fmt(pair):
        from quiverlab import kp_format

        return tuple(kp_format(k) for k in pair)

    assert fmt(projective_resolution(t2, t2.index_of((1, 0)))) == ("[1,2]", "[2,2]")
    assert fmt(projective_resolution(t3, t3.index_of((0, 1, 0)))) == ("[2,3]", "[3,3]")
    # projectives resolve themselves
    assert fmt(projective_resolution(t3, t3.index_of((1, 1, 1)))) == ("[1,3]", "0")


@pytest.mark.parametrize("dt,rank", [("A", 3), ("D", 4)])
def test_projective_resolution_is_exact(dt, rank):
    """0 -> P -> Q -> M -> 0 forces dim Q = dim P + root and
    [Q,X] - [P,X] = <root, dim X> for every class X."""
    quiver = standard_quiver(dt, rank)
    table = positive_roots(quiver)
    probes = all_kps(table, 3)
    for idx, root in enumerate(table.roots):
        q_cover, p_kernel = projective_resolution(table, idx)
        assert tuple(
            a - b for a, b in zip(q_cover.total, p_kernel.total)
        ) == root
        for x in probes:
            assert hom_dim(q_cover, x) - hom_dim(p_kernel, x) == euler_form(
                quiver, root, x.total
            )

"""The repetition quiver: labeling, q-Cartan operator, pairing exponents.

Sign and shift conventions are easy to get wrong, so the hand-checked
rank-2 values are frozen in full detail here; the acceptance suite
re-checks the structural properties exhaustively in rank 3.
"""

import itertools
from operator import mul

import pytest

from quiverlab import (
    GradedDimVector,
    KostantPartition,
    RepetitionError,
    V_COORDINATE_SHIFT,
    build_quiver,
    build_repetition,
    cartan_q,
    degree_report,
    coxeter_tau,
    coxeter_tau_inv,
    d_value,
    epsilon,
    euler_form,
    ext_dim,
    hom_dim,
    kp_enumerate,
    kp_parse,
    kp_single,
    pairing,
    positive_roots,
    standard_quiver,
    v_lambda,
    w_gamma,
)


@pytest.fixture(scope="module")
def rq2(a2):
    return build_repetition(a2)


@pytest.fixture(scope="module")
def rq3(a3):
    return build_repetition(a3)


# ------------------------------------------------------------ vectors

def test_graded_vector_basics():
    d = GradedDimVector.from_dict({(1, 0): 2, (2, 1): -1, (3, 3): 0})
    assert d.entries == ((1, 0, 2), (2, 1, -1))  # zeros dropped, sorted
    assert d.as_dict()[(1, 0)] == 2 and (9, 9) not in d.as_dict()
    assert set(d.as_dict()) == {(1, 0), (2, 1)}
    assert (-d).entries == ((1, 0, -2), (2, 1, 1))
    assert (d - d).entries == ()
    assert sum(v for _, _, v in d.entries) == 1
    assert not d.is_nonnegative()
    assert d.shift(1).as_dict() == {(1, 1): 2, (2, 2): -1}  # q^{-1} direction
    assert d.shift(-1).as_dict() == {(1, -1): 2, (2, 0): -1}
    assert GradedDimVector.from_dict(d.as_dict()) == d


def test_pairing():
    a = GradedDimVector.from_dict({(1, 0): 2, (2, 1): 3})
    b = GradedDimVector.from_dict({(1, 0): 5, (2, 1): 1, (1, 4): 9})
    assert pairing(a, b) == 10 + 3


# ------------------------------------------------------------ tau

def test_coxeter_tau_a2(a2):
    assert coxeter_tau(a2, (1, 0)) == (0, 1)
    assert coxeter_tau(a2, (1, 1)) == (-1, 0)  # the projective dies
    assert coxeter_tau_inv(a2, (0, 1)) == (1, 0)


def test_coxeter_tau_shifts_segments(a3):
    # on the linear quiver tau moves M[a,b] to M[a+1,b+1]
    assert coxeter_tau(a3, (1, 0, 0)) == (0, 1, 0)
    assert coxeter_tau(a3, (1, 1, 0)) == (0, 1, 1)
    assert coxeter_tau(a3, (0, 1, 0)) == (0, 0, 1)
    assert coxeter_tau(a3, (1, 1, 1))[0] < 0  # projective [1,3] dies
    # inverses, where defined
    assert coxeter_tau_inv(a3, (0, 0, 1)) == (0, 1, 0)
    assert coxeter_tau_inv(a3, (0, 1, 1)) == (1, 1, 0)


# ------------------------------------------------------------ labeling

def test_a2_window_and_heights(rq2):
    assert rq2.window == (-6, 3)
    assert rq2.xi == (1, 0)


@pytest.mark.parametrize(
    "dt,rank,arrows",
    [
        pytest.param("A", 4, [(2, 1), (2, 3), (4, 3)], id="A-4-zigzag"),
        pytest.param("D", 4, [(1, 2), (3, 2), (4, 2)], id="D-4-sink"),
        pytest.param("E", 6, [(1, 2), (3, 2), (3, 4), (5, 4), (3, 6)], id="E-6-alternating"),
    ],
)
def test_heights_drop_by_one_along_every_arrow(dt, rank, arrows):
    quiver = build_quiver(dt, rank, arrows)
    xi = build_repetition(quiver).xi
    assert min(xi) == 0
    assert all(xi[t - 1] == xi[s - 1] - 1 for s, t in quiver.arrows)


def test_a2_zero_slice(rq2):
    zero = {k: v[0] for k, v in rq2.phi.items() if v[1] == 0}
    assert zero == {(1, 1): (1, 0), (1, -1): (0, 1), (2, 0): (1, 1)}
    assert rq2.vertex_of_root((1, 1)) == (2, 0)


def test_a2_windings(rq2):
    assert rq2.phi[(1, 3)] == ((1, 1), 1)
    assert rq2.phi[(1, -3)] == ((1, 1), -1)
    assert rq2.phi[(1, -5)] == ((1, 0), -2)


def test_a3_zero_slice(rq3):
    assert rq3.window == (-8, 4)
    assert rq3.xi == (2, 1, 0)
    zero = {k: v[0] for k, v in rq3.phi.items() if v[1] == 0}
    assert zero == {
        (1, 2): (1, 0, 0),
        (1, 0): (0, 1, 0),
        (1, -2): (0, 0, 1),
        (2, 1): (1, 1, 0),
        (2, -1): (0, 1, 1),
        (3, 0): (1, 1, 1),
    }


def test_labeling_is_bijective_on_the_window(rq3):
    labels = list(rq3.phi.values())
    assert len(labels) == len(set(labels)) == len(rq3.vertices)


def test_window_too_small_is_an_error(a2):
    with pytest.raises(RepetitionError):
        build_repetition(a2, (0, 1))


def test_window_wider_than_eight_coxeter_numbers_is_an_error(a2):
    # h = 3 for A2: 24 levels are allowed, 25 are not
    assert build_repetition(a2, (-21, 3)).window == (-21, 3)
    with pytest.raises(RepetitionError, match="at most 8"):
        build_repetition(a2, (-22, 3))


# ------------------------------------------------------------ operators

def test_cartan_q_on_a_delta(rq2):
    c = cartan_q(rq2, GradedDimVector.from_dict({(1, 0): 1}))
    assert c.as_dict() == {(1, -1): 1, (1, 1): 1, (2, 0): -1}


def test_cartan_q_checks_the_window(a2):
    rq = build_repetition(a2, (-6, 3))
    edge = GradedDimVector.from_dict({(1, 3): 1})  # p+1 leaves the window
    with pytest.raises(RepetitionError):
        cartan_q(rq, edge)


def test_w_gamma_sits_on_simple_root_vertices(rq2, rq3):
    # gamma_i lands on the zero-winding vertex labeled by the i-th simple root
    assert w_gamma(rq2, (1, 1)).as_dict() == {(1, -1): 1, (1, 1): 1}
    assert w_gamma(rq3, (1, 0, 2)).as_dict() == {(1, 2): 1, (1, -2): 2}


def test_v_lambda_values(rq2, t2):
    assert V_COORDINATE_SHIFT == -1
    v12 = v_lambda(rq2, kp_parse(t2, "[1,2]"))
    assert v12.as_dict() == {(1, 0): 1}
    assert v_lambda(rq2, kp_parse(t2, "[1,1]")).entries == ()
    assert v_lambda(rq2, kp_parse(t2, "[1,1]+[2,2]")).entries == ()


def test_v_lambda_additivity(rq3, t3):
    x = kp_parse(t3, "[1,2]+[2,3]")
    y = kp_parse(t3, "[1,1]+[2,2]")
    assert v_lambda(rq3, x + y) == v_lambda(rq3, x) + v_lambda(rq3, y)


def test_v_lambda_injective_per_dimension_vector(rq3, t3):
    for gamma in ((1, 1, 0), (1, 1, 1), (1, 2, 1)):
        kps = kp_enumerate(t3, gamma)
        images = {v_lambda(rq3, kp).entries for kp in kps}
        assert len(images) == len(kps)


def projective_presentation(table, a):
    """``(Q, P)`` of ``0 -> P -> Q -> M_a -> 0``, built from the quiver:
    Q takes dim Hom(M_a, S_v) copies of the projective P_v (1 on v and on
    every vertex reached from it), and P is the combination of projectives
    with dim P = dim Q - root, solved by forward substitution since P_v
    lives on v and on larger vertices."""
    quiver = table.quiver
    projective = {}
    for v in quiver.vertices:
        reached = {v}
        for s, t in sorted(quiver.arrows):
            if s in reached:
                reached.add(t)
        projective[v] = tuple(int(w in reached) for w in quiver.vertices)
    m_a = kp_single(table, a)
    q_parts, remaining = [], [-x for x in table.roots[a]]
    for v in quiver.vertices:
        top = hom_dim(m_a, kp_single(table, table.simple_root_index(v)))
        q_parts += [table.index_of(projective[v])] * top
        remaining = [r + top * x for r, x in zip(remaining, projective[v])]
    p_parts = []
    for v in quiver.vertices:
        c = remaining[v - 1]
        assert c >= 0, (table.roots[a], v)
        p_parts += [table.index_of(projective[v])] * c
        remaining = [r - c * x for r, x in zip(remaining, projective[v])]
    assert not any(remaining), table.roots[a]
    return KostantPartition(table, tuple(q_parts)), KostantPartition(table, tuple(p_parts))


@pytest.mark.parametrize(
    "kind,rank,arrows,pairs",
    [
        ("A", 3, None, 540),
        ("A", 4, None, 2100),
        ("D", 4, None, 2640),
        ("D", 5, None, 8320),
        ("E", 6, None, 25344),
        ("A", 4, [(2, 1), (2, 3), (4, 3)], 2100),
        ("D", 4, [(1, 2), (3, 2), (4, 2)], 2640),
    ],
    ids=["A3", "A4", "D4", "D5", "E6", "zigzag_A4", "sink_D4"],
)
def test_v_lambda_is_the_gap_to_the_projective_cover(kind, rank, arrows, pairs):
    # v_lam puts [Q, lam] - [U, lam] at U for the projective cover Q of M_U;
    # checked against a presentation 0 -> P -> Q -> M_U -> 0 built here, over
    # both adapted words, on every class with entries <= 2 and weight <= 4.
    # The presentation is exact: [Q, X] - [P, X] = <U, X> for every such X
    quiver = standard_quiver(kind, rank) if arrows is None else build_quiver(kind, rank, arrows)
    rq = build_repetition(quiver)
    checked = 0
    for variant in ("canonical", "alternate"):
        table = positive_roots(quiver, variant)
        classes = [
            lam
            for gamma in itertools.product(range(3), repeat=rank)
            if 0 < sum(gamma) <= 4
            for lam in kp_enumerate(table, gamma)
        ]
        masses = [v_lambda(rq, lam).as_dict() for lam in classes]
        for a, root in enumerate(table.roots):
            q_cover, p_kernel = projective_presentation(table, a)
            m_a = kp_single(table, a)
            i, p = rq.vertex_of_root(root)
            at = (i, p + V_COORDINATE_SHIFT)
            for lam, mass in zip(classes, masses):
                assert hom_dim(q_cover, lam) - hom_dim(p_kernel, lam) == euler_form(
                    quiver, root, lam.total
                ), (variant, root, lam)
                assert mass.get(at, 0) == hom_dim(q_cover, lam) - hom_dim(m_a, lam), (
                    variant, root, lam
                )
                checked += 1
    assert checked == pairs


def test_dominance_golden(rq2, t2):
    w = w_gamma(rq2, (1, 1))
    v = v_lambda(rq2, kp_parse(t2, "[1,2]"))
    assert (w - cartan_q(rq2, v)).as_dict() == {(2, 0): 1}
    # the one non-projective root [1,1] extends the split class, not [1,2]
    s1 = kp_parse(t2, "[1,1]")
    assert ext_dim(s1, kp_parse(t2, "[1,1]+[2,2]")) == 1
    assert ext_dim(s1, kp_parse(t2, "[1,2]")) == 0


# ------------------------------------------------------------ epsilon

def test_epsilon_simples(rq2, t2):
    v1 = v_lambda(rq2, kp_parse(t2, "[1,1]"))
    v2 = v_lambda(rq2, kp_parse(t2, "[2,2]"))
    assert epsilon(rq2, v1, w_gamma(rq2, (1, 0)), v2, w_gamma(rq2, (0, 1))) == 0


def test_epsilon_segment_against_simple(rq2, t2):
    v12 = v_lambda(rq2, kp_parse(t2, "[1,2]"))
    v1 = v_lambda(rq2, kp_parse(t2, "[1,1]"))
    w12, w1 = w_gamma(rq2, (1, 1)), w_gamma(rq2, (1, 0))
    assert d_value(rq2, v12, w12, v1, w1) == 0
    assert d_value(rq2, v1, w1, v12, w12) == 1
    assert epsilon(rq2, v12, w12, v1, w1) == -1
    assert epsilon(rq2, v1, w1, v12, w12) == 1  # antisymmetry


def test_epsilon_antisymmetric_on_samples(rq3, t3):
    import random

    rng = random.Random(11)
    gammas = [g for g in itertools.product(range(3), repeat=3) if 0 < sum(g) <= 3]
    for _ in range(25):
        g1, g2 = rng.choice(gammas), rng.choice(gammas)
        l1 = rng.choice(kp_enumerate(t3, g1))
        l2 = rng.choice(kp_enumerate(t3, g2))
        a = (v_lambda(rq3, l1), w_gamma(rq3, g1))
        b = (v_lambda(rq3, l2), w_gamma(rq3, g2))
        assert epsilon(rq3, *a, *b) == -epsilon(rq3, *b, *a)


def orientations(diagram_type, rank):
    """Every orientation of the diagram's edges."""
    edges = standard_quiver(diagram_type, rank).arrows
    for flips in itertools.product((False, True), repeat=len(edges)):
        yield build_quiver(
            diagram_type, rank, [(t, s) if f else (s, t) for (s, t), f in zip(edges, flips)]
        )


def test_d_and_epsilon_are_closed_forms_on_every_root_pair():
    # d(v_l1, w_g1; v_l2, w_g2) = g1.g2 - [l1, l2], hence
    # epsilon(l1, l2) = [l2, l1] - [l1, l2], the form degree_report reads;
    # v and w are additive (criterion 10), so root pairs decide it
    quivers = [
        *orientations("A", 3), *orientations("A", 4), *orientations("D", 4),
        standard_quiver("E", 6),
    ]
    pairs = 0
    for quiver in quivers:
        table, rq = positive_roots(quiver), build_repetition(quiver)
        roots = [
            (lam, v_lambda(rq, lam), w_gamma(rq, lam.total))
            for lam in (kp_single(table, k) for k in range(len(table)))
        ]
        for l1, v1, w1 in roots:
            for l2, v2, w2 in roots:
                dot = sum(map(mul, l1.total, l2.total))
                assert d_value(rq, v1, w1, v2, w2) == dot - hom_dim(l1, l2)
                eps = epsilon(rq, v1, w1, v2, w2)
                assert eps == hom_dim(l2, l1) - hom_dim(l1, l2), (quiver, l1, l2)
                pairs += 1
    assert pairs == 4 * 6**2 + 8 * 10**2 + 8 * 12**2 + 36**2


def test_degree_report_epsilon_agrees_with_the_repetition_route(rq3, t3):
    # the split row's epsilon against the epsilon subcommand's route
    for x, y in itertools.permutations(["[1,2]", "[2,3]", "[1,1]+[3,3]", "[2,2]"], 2):
        mu, nu = kp_parse(t3, x), kp_parse(t3, y)
        split_row = [row for row in degree_report(mu, nu).rows if row.lam == mu + nu]
        expected = epsilon(
            rq3, v_lambda(rq3, mu), w_gamma(rq3, mu.total), v_lambda(rq3, nu), w_gamma(rq3, nu.total)
        )
        assert [row.eps for row in split_row] == [expected]

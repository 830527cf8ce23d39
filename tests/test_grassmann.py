"""Quiver Grassmannians: point counts, strata, component labels."""

import itertools
import json
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

from quiverlab import (
    CapExceeded,
    PartitionError,
    V_COORDINATE_SHIFT,
    a2_component_range,
    build,
    build_quiver,
    build_repetition,
    dim_sub,
    ext_ger,
    ext_pairs,
    generic_pairs,
    hom_basis,
    hom_dim,
    hom_ext_vectors,
    identify,
    indecomposable,
    kp_enumerate,
    kp_format,
    kp_parse,
    kp_single,
    leq,
    point_count,
    positive_roots,
    scan_states,
    standard_quiver,
    strata,
    stratum_dim,
    sub_quotient,
    subreps,
    v_lambda,
)
from quiverlab import grassmannian, linalg
from quiverlab.cli import main
from quiverlab.grassmannian import (
    _assembled_basis,
    _classifier,
    _forced_counts,
    _realizes,
    _root_kinds,
    _Subspace,
    _subspace_table,
)
from quiverlab.extensions import _in_hom_box
from quiverlab.homs import _top_and_socle
from quiverlab.linalg import rank, rref
from quiverlab.reps import RepError, _partition_from_counts


def pair_names(pairs):
    return sorted((kp_format(m), kp_format(n)) for m, n in pairs)


def apply(x, u):
    """The matrix ``x`` times the column vector ``u``."""
    return [sum(map(mul, row, u)) for row in x]


def matmul(a, b, ncols, q):
    """The product of ``a`` and the ``ncols``-column matrix ``b``, mod q."""
    return [
        [sum(x * b[i][j] for i, x in enumerate(row)) % q for j in range(ncols)]
        for row in a
    ]


# --------------------------------------------------- the P^1 workhorse

def test_projective_line_point_counts(t3):
    lam = kp_parse(t3, "[1,2]+[2,3]")
    assert point_count(lam, (0, 1, 1), 2) == 3
    assert point_count(lam, (0, 1, 1), 3) == 4


def test_strata_report(t3):
    lam = kp_parse(t3, "[1,2]+[2,3]")
    rep = strata(lam, (0, 1, 1), 2)
    rows = [(kp_format(e.mu), kp_format(e.nu), e.count, e.dim) for e in rep.entries]
    assert rows == [
        ("[1,2]", "[2,3]", 2, 1),
        ("[1,1]+[2,2]", "[2,2]+[3,3]", 1, 0),
    ]
    assert rep.total == 3
    # the open stratum grows with the field, the closed one does not
    rep3 = strata(lam, (0, 1, 1), 3)
    assert [(e.mu, e.nu) for e in rep3.entries] == [(e.mu, e.nu) for e in rep.entries]
    assert [e.count for e in rep3.entries] == [3, 1]


def test_strata_json_schema(t3, capsys):
    """The CLI's JSON payload for ``grass strata`` serializes the library report."""
    lam = kp_parse(t3, "[1,2]+[2,3]")
    report = strata(lam, (0, 1, 1), 2)
    rc = main(["grass", "strata", "[1,2]+[2,3]", "--beta", "0,1,1",
               "--field", "2", "--type", "A", "--rank", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["lambda"] == "[1,2]+[2,3]"
    assert payload["beta"] == "0,1,1"
    assert payload["q"] == report.q == 2
    assert payload["total"] == report.total == 3
    assert payload["strata"] == [
        {"mu": kp_format(e.mu), "nu": kp_format(e.nu), "count": e.count, "dim": e.dim}
        for e in report.entries
    ]
    assert payload["strata"] == [
        {"mu": "[1,2]", "nu": "[2,3]", "count": 2, "dim": 1},
        {"mu": "[1,1]+[2,2]", "nu": "[2,2]+[3,3]", "count": 1, "dim": 0},
    ]


def test_single_point_grassmannian(t3):
    lam = kp_parse(t3, "[1,2]+[2,3]")
    for q in (2, 3):
        assert point_count(lam, (1, 1, 0), q) == 1


def test_realized_generic_and_component_pairs(t3):
    lam = kp_parse(t3, "[1,2]+[2,3]")
    assert pair_names(strata(lam, (0, 1, 1), 2).pairs()) == [
        ("[1,1]+[2,2]", "[2,2]+[3,3]"),
        ("[1,2]", "[2,3]"),
    ]
    assert pair_names(generic_pairs(lam, (1, 1, 0), (0, 1, 1))) == [
        ("[1,1]+[2,2]", "[2,2]+[3,3]"),
        ("[1,2]", "[2,3]"),
    ]
    # the semisimple pair fails [nu,lam] = [nu,nu] + [nu,mu]  (2 < 2+1)
    assert pair_names(ext_ger(lam, (1, 1, 0), (0, 1, 1))) == [("[1,2]", "[2,3]")]


# --------------------------------------------------- subspace scans

def test_subreps_yields_exactly_the_stable_subspaces(t4):
    kp = kp_parse(t4, "0,1,1,1 + 1,1,0,0")
    m = build(kp, 2)
    beta = (1, 1, 1, 0)
    seen = 0
    for bases in subreps(m, beta):
        seen += 1
        for v, basis in enumerate(bases, start=1):
            assert len(basis) == beta[v - 1]
            assert all(len(row) == m.dims[v - 1] for row in basis)
            assert rank(basis, 2) == beta[v - 1]
        # stability: each arrow maps the chosen rows into the target rows
        for k, (s, t) in enumerate(m.quiver.arrows):
            img = [
                [sum(map(mul, x_row, u)) % 2 for x_row in m.mats[k]] for u in bases[s - 1]
            ]
            assert rank(bases[t - 1] + img, 2) == beta[t - 1]
    assert seen == point_count(kp, beta, 2)


def test_subreps_empty_when_beta_exceeds_dims(t2):
    m = build(kp_parse(t2, "[1,2]"), 2)
    assert list(subreps(m, (2, 0))) == []


def test_subreps_cap(t3):
    m = build(kp_parse(t3, "[1,1]+[1,1]+[2,2]+[2,2]"), 3)
    with pytest.raises(CapExceeded):
        list(subreps(m, (1, 1, 0), cap=2))


def contains(u, x, q):
    """Whether the readings of the table entry ``u`` put ``x`` in its subspace."""
    return not any(sum(map(mul, r, x)) % q for r in u.readings)


def test_subspace_table_entries_containing_a_space(monkeypatch, cold):
    # the entries of F_2^4's plane table that contain a fixed line: [3 1]_2 = 7
    lower = [[1, 0, 0, 0]]
    got = [u for u in _subspace_table(4, 2, 2) if contains(u, lower[0], 2)]
    assert len(got) == 7
    for basis in got:
        assert rank(basis, 2) == rank(basis + lower, 2) == 2
    # every entry contains the zero space
    assert len(_subspace_table(3, 1, 3)) == linalg.gaussian_binomial(3, 1, 3)

    # a table is built with no cap, so no Gaussian binomial is counted
    def forbidden(*args):
        raise AssertionError("gaussian_binomial called for a table")

    monkeypatch.setattr(linalg, "gaussian_binomial", forbidden)
    cold()
    table = _subspace_table(3, 2, 2)
    assert len(table) == 7
    assert sum(contains(u, [1, 0, 0], 2) for u in table) == 3


@pytest.mark.parametrize(
    "which,max_total,n_inputs,n_points,n_tables",
    [
        pytest.param("t3", 4, 906, 2743, 30, id="A3-4"),
        pytest.param("t4", 3, 568, 818, 20, id="D4-3"),
        pytest.param("zigzag_a4", 3, 552, 812, 20, id="zigzag_A4-3"),
    ],
)
def test_walk_equals_the_stable_tuples_of_the_subspace_product(
    request, which, max_total, n_inputs, n_points, n_tables
):
    # every class and every beta <= dim lam, over GF(2) and GF(3): subreps
    # yields, in order, the stable tuples of the product of the per-vertex
    # enumerations, stability checked by rank; every table it reads is that
    # enumeration, entry i at index i, with readings spanning the annihilator
    table = request.getfixturevalue(which)
    arrows = table.quiver.arrows
    inputs = points = 0
    tables = set()
    for lam in all_classes(table, max_total):
        for q in (2, 3):
            m = build(lam, q)
            for beta in itertools.product(*(range(x + 1) for x in lam.total)):
                tables.update((d, b, q) for d, b in zip(m.dims, beta))
                walked = list(subreps(m, beta, None))
                brute = [
                    bases
                    for bases in itertools.product(
                        *(linalg.enumerate_subspaces(d, b, q, None) for d, b in zip(m.dims, beta))
                    )
                    if all(
                        rank(bases[t - 1] + [apply(m.mats[k], u) for u in bases[s - 1]], q)
                        == beta[t - 1]
                        for k, (s, t) in enumerate(arrows)
                    )
                ]
                assert walked == brute, (kp_format(lam), beta, q)
                inputs += 1
                points += len(walked)
    for d, b, q in tables:
        entries = _subspace_table(d, b, q)
        assert list(entries) == list(linalg.enumerate_subspaces(d, b, q, None))
        assert [u.index for u in entries] == list(range(len(entries)))
        for u in entries:
            assert len(u.readings) == rank(u.readings, q) == d - b
            assert all(sum(map(mul, r, x)) % q == 0 for r in u.readings for x in u)
    assert (inputs, points, len(tables)) == (n_inputs, n_points, n_tables)


@pytest.mark.parametrize(
    "which,max_total,n_bases", [("t3", 4, 1464), ("t4", 3, 1686), ("zigzag_a4", 3, 1368)]
)
def test_assembled_hom_bases_are_bases_of_intertwiners(request, which, max_total, n_bases):
    # for every root a and class lam, over GF(2) and GF(3): the bases placed
    # part by part are intertwiners, independent, as many as the closed form
    # counts, and have dim M_a[v] columns (or rows) at every vertex; the
    # ranked roots of _root_kinds carry that count
    table = request.getfixturevalue(which)
    arrows = table.quiver.arrows
    seen = 0
    for lam in all_classes(table, max_total):
        into, _, out_of = hom_ext_vectors(lam)
        for q in (2, 3):
            m = build(lam, q)
            ranked = [dict(side[1]) for side in _root_kinds(lam)]
            for a in range(len(table)):
                m_a = indecomposable(table, a, q)
                for dual, h in enumerate((into[a], out_of[a])):
                    basis = _assembled_basis(lam, a, q, dual)
                    src, dst = (m, m_a) if dual else (m_a, m)
                    assert len(basis) == h, (kp_format(lam), a, q, dual)
                    for f in basis:
                        for f_v, d, e in zip(f, src.dims, dst.dims):
                            assert len(f_v) == e and all(len(row) == d for row in f_v)
                        for k, (s, t) in enumerate(arrows):
                            lhs = matmul(f[t - 1], src.mats[k], src.dims[s - 1], q)
                            rhs = matmul(dst.mats[k], f[s - 1], src.dims[s - 1], q)
                            assert lhs == rhs, (kp_format(lam), a, q, dual)
                    flat = [[x for f_v in f for row in f_v for x in row] for f in basis]
                    if flat:
                        assert rank(flat, q) == h, (kp_format(lam), a, q, dual)
                    assert ranked[dual].get(a, h) == h
                    seen += len(basis)
    assert seen == n_bases


@pytest.mark.parametrize(
    "call",
    [
        lambda lam: strata(lam, (-1, 2), 2),
        lambda lam: point_count(lam, (-1, 2), 2),
        lambda lam: list(subreps(build(lam, 2), (-1, 2))),
        lambda lam: ext_pairs(lam, (2, 0), (-1, 2)),
    ],
    ids=["strata", "point_count", "subreps", "ext_pairs"],
)
def test_a_negative_beta_is_rejected(t2, call):
    with pytest.raises(PartitionError, match="negative entry"):
        call(kp_parse(t2, "[1,2]+[2,2]"))


def test_a_call_refused_by_the_cap_builds_no_table(t3, cold):
    # a table holds gaussian_binomial(d, b, q) entries, a factor of the
    # scan_states count the cap is checked against, so a refused call
    # builds none and an accepted one builds none larger than the cap
    lam = kp_parse(t3, "[1,1]+[1,1]+[1,1]+[1,2]")
    beta = (2, 1, 0)
    assert scan_states(lam.total, beta, 3) == 130
    # point_count enumerates only vertex 2's colour class, one state
    for call, needed in (
        (lambda cap: list(subreps(build(lam, 3), beta, cap)), 130),
        (lambda cap: strata(lam, beta, 3, cap), 130),
        (lambda cap: point_count(lam, beta, 3, cap), 1),
    ):
        with pytest.raises(CapExceeded) as exc:
            call(needed - 1)
        assert exc.value.needed == needed
        assert grassmannian._subspace_table.cache_info().currsize == 0
    assert strata(lam, beta, 3, 130).total == 130
    assert grassmannian._subspace_table.cache_info().currsize > 0
    assert max(len(_subspace_table(d, b, 3)) for d, b in zip(lam.total, beta)) == 130


def test_stratum_dim_checks_realization(t2, t3):
    # Gr_(0,1)(M[1,2]) is a single point
    assert stratum_dim(kp_parse(t2, "[1,2]"), kp_parse(t2, "[2,2]")) == 0
    lam = kp_parse(t3, "[1,2]+[2,3]")
    assert stratum_dim(lam, kp_parse(t3, "[2,3]")) == 1
    assert stratum_dim(lam, kp_parse(t3, "[2,2]+[3,3]")) == 0
    # S1 never embeds in [1,3]+[2,2]: the first arrow is injective on it
    with pytest.raises(PartitionError, match="not realized"):
        stratum_dim(kp_parse(t3, "[1,3]+[2,2]"), kp_parse(t3, "[1,1]"))
    # the sub class is asked of ext_pairs: walking Gr_(3,3) of this class
    # needs 40,994,800 states over GF(3), past the default cap
    lam = kp_parse(t2, "[1,1]+[1,1]+[1,1]+[1,2]+[1,2]+[1,2]+[2,2]+[2,2]")
    nu = kp_parse(t2, "[1,2]+[1,2]+[1,2]")
    assert stratum_dim(lam, nu) == stratum_dim(lam, nu, q=3) == 9
    # a sub class past dim lambda leaves a negative quotient vector
    with pytest.raises(PartitionError, match="negative entry"):
        stratum_dim(kp_parse(t2, "[1,2]"), kp_parse(t2, "[2,2]+[2,2]"))


# --------------------------------------------------- the A2 family

def test_a2_component_labels_match_brute_force(t2):
    assert a2_component_range((2, 2), (1, 1), 1) == frozenset({0, 1})
    # brute force on M = [1,2] + [1,1] + [2,2] over both fields
    lam = kp_parse(t2, "[1,2]+[1,1]+[2,2]")
    labels = {
        sum(1 for i in nu.parts if nu.table.roots[i] == (1, 1))
        for _, nu in ext_ger(lam, (1, 1), (1, 1))
    }
    assert labels == {0, 1}


def test_a2_component_range_edge_cases():
    # r = 0: the representation is semisimple, single label a = 0
    assert a2_component_range((2, 2), (1, 1), 0) == frozenset({0})
    # zero subspace dimension
    assert a2_component_range((2, 2), (0, 0), 0) == frozenset({0})
    # in-regime instance whose label window is empty
    assert a2_component_range((2, 2), (2, 1), 2) == frozenset()


def test_a2_component_range_preconditions():
    with pytest.raises(PartitionError):
        a2_component_range((2, 2), (1, 1), 3)  # rank too large
    with pytest.raises(PartitionError):
        a2_component_range((2, 2), (3, 1), 1)  # e exceeds d
    with pytest.raises(PartitionError):
        a2_component_range((2, 1), (1, 1), 1)  # outside the covered regime


# --------------------------------------------------- point classification

def all_classes(table, max_total):
    rank = table.quiver.rank
    return [
        kp
        for g in itertools.product(range(max_total + 1), repeat=rank)
        if 0 < sum(g) <= max_total
        for kp in kp_enumerate(table, g)
    ]


@pytest.fixture(scope="module")
def a4():
    return positive_roots(standard_quiver("A", 4))


def generator_coordinates(m, dual):
    """Per vertex, the coordinates whose unit vectors span a complement of
    the images of the arrows into it (they generate ``m``); with ``dual``,
    those whose functionals span a complement of the rows of the arrows
    out of it (they generate the dual of ``m``)."""
    arrows = m.quiver.arrows
    out = []
    for v in m.quiver.vertices:
        if dual:
            vectors = [row for k, (s, _) in enumerate(arrows) if s == v for row in m.mats[k]]
        else:
            vectors = [
                [row[j] for row in m.mats[k]]
                for k, (s, t) in enumerate(arrows)
                if t == v
                for j in range(m.dims[s - 1])
            ]
        pivots = rref(vectors, m.q)[1]
        out.append(tuple(c for c in range(m.dims[v - 1]) if c not in pivots))
    return tuple(out)


# which roots read their counts off the dimension vectors depends on the
# orientation and on lam: t3 and t4 are the standard A3 and D4
@pytest.mark.parametrize(
    "which,max_total,fields,n_points",
    [
        pytest.param("t3", 4, (2, 3), 2743, id="t3-4-2743"),
        pytest.param("t4", 3, (2, 3), 818, id="t4-3-818"),
        pytest.param("zigzag_a4", 3, (2, 3), 812, id="zigzag_a4-3-812"),
        pytest.param("sink_d4", 3, (2, 3), 822, id="sink_d4-3-822"),
        pytest.param("t3", 3, (5,), 400, id="t3-3-q5-400"),
        pytest.param("e6", 2, (2, 3), 240, id="e6-2-240"),
    ],
)
def test_classifier_agrees_with_sub_quotient_and_identify(
    request, which, max_total, fields, n_points
):
    # the Hom-basis classifier against the matrix-level route, point by point
    table = request.getfixturevalue(which)
    points = 0
    for lam in all_classes(table, max_total):
        for q in fields:
            m = build(lam, q)
            for beta in itertools.product(*(range(x + 1) for x in lam.total)):
                classify = _classifier(lam, q, beta)
                for bases in subreps(m, beta):
                    sub, quot = sub_quotient(m, bases)
                    expected = (identify(quot, table), identify(sub, table))
                    got = classify(bases)
                    assert got == expected, (kp_format(lam), beta, q)
                    points += 1
    assert points == n_points


# In the standard A3 (1 -> 2 -> 3), P_i = [i,3] and I_i = [1,i] are forced
# (one generator at i, h = d_i).  Of the other roots, the into-root [1,2]
# reaches dim Hom = sum(w * d) for both lam, and so does the out-of root
# [2,3] for the second; the rest need a basis and a rank per point.
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "lam,into_forced,into_ranked,out_forced,out_ranked",
    [
        ("[1,1]+[1,1]+[1,1]+[1,1]", ["[1,1]", "[1,2]", "[1,3]"], [], ["[1,1]"], []),
        (
            "[1,1]+[1,2]+[2,3]+[3,3]",
            ["[1,2]", "[1,3]", "[2,3]", "[3,3]"],
            ["[1,1]", "[2,2]"],
            ["[1,1]", "[1,2]", "[1,3]", "[2,3]"],
            ["[2,2]", "[3,3]"],
        ),
    ],
)
def test_forced_roots_read_their_counts_off_beta(
    t3, q, lam, into_forced, into_ranked, out_forced, out_ranked
):
    into, out_of = _root_kinds(kp_parse(t3, lam))

    def names(entries):
        return sorted(kp_format(kp_single(t3, a)) for a, *_ in entries)

    assert [names(into[0]), names(into[1])] == [into_forced, into_ranked]
    assert [names(out_of[0]), names(out_of[1])] == [out_forced, out_ranked]


@pytest.mark.parametrize(
    "which,max_total,fields,n_forced,n_ranked",
    [
        pytest.param("t3", 4, (2, 3), 872, 48, id="t3-4"),
        pytest.param("t4", 3, (2, 3), 1190, 48, id="t4-3"),
        pytest.param("zigzag_a4", 3, (2, 3), 932, 68, id="zigzag_a4-3"),
        pytest.param("sink_d4", 3, (2, 3), 1144, 132, id="sink_d4-3"),
        pytest.param("e6", 2, (2, 3), 1646, 2, id="e6-2"),
        pytest.param("t3", 3, (5,), 182, 4, id="t3-3-q5"),
    ],
)
def test_forced_roots_are_those_whose_basis_spans_the_generator_values(
    request, which, max_total, fields, n_forced, n_ranked
):
    # the dimension count against a rank: a Hom basis evaluated at the
    # (co)generators of M_a has rank h <= sum(w * d), and the root is
    # forced exactly when that rank is sum(w * d), so that the values
    # there can be chosen freely, over every field: _root_kinds reads the
    # closed forms alone, with no field
    table = request.getfixturevalue(which)
    seen = [0, 0]
    for lam in all_classes(table, max_total):
        for q in fields:
            m = build(lam, q)
            for dual, (forced, ranked) in enumerate(_root_kinds(lam)):
                forced, ranked = dict(forced), {a for a, _ in ranked}
                for a in range(len(table)):
                    m_a = indecomposable(table, a, q)
                    basis = hom_basis(m, m_a) if dual else hom_basis(m_a, m)
                    coords = generator_coordinates(m_a, dual)
                    w = tuple(map(len, coords))
                    values = [
                        [
                            x
                            for f_v, c_v in zip(f, coords)
                            for c in c_v
                            for x in (f_v[c] if dual else [row[c] for row in f_v])
                        ]
                        for f in basis
                    ]
                    bound = sum(map(mul, w, m.dims))
                    if not basis:
                        assert a not in forced and a not in ranked
                        continue
                    r = rank(values, q)
                    assert r == len(basis) <= bound, (kp_format(lam), a, q)
                    assert (a in forced) == (r == bound) == (a not in ranked)
                    assert forced.get(a, w) == w
                    seen[a in ranked] += 1
    assert seen == [n_forced, n_ranked]


@pytest.mark.parametrize(
    "diagram",
    [
        ("A", 3, None),
        ("D", 4, None),
        ("A", 4, [(2, 1), (2, 3), (4, 3)]),
        ("D", 4, [(1, 2), (3, 2), (4, 2)]),
        ("E", 6, None),
        ("E", 8, None),
        ("A", 6, None),
    ],
    ids=["A3", "D4", "zigzag_A4", "sink_D4", "E6", "E8", "A6"],
)
def test_top_and_socle_from_the_hom_table_count_the_generators(diagram):
    # the generators of M_a at v number dim Hom(M_a, S_v) (the top of M_a),
    # its cogenerators dim Hom(S_v, M_a) (the socle), over every field
    kind, n, arrows = diagram
    quiver = standard_quiver(kind, n) if arrows is None else build_quiver(kind, n, arrows)
    table = positive_roots(quiver)
    for a in range(len(table)):
        top, socle = _top_and_socle(table, a)
        for q in (2, 3, 5):
            m_a = indecomposable(table, a, q)
            assert tuple(len(c) for c in generator_coordinates(m_a, False)) == top, (a, q)
            assert tuple(len(c) for c in generator_coordinates(m_a, True)) == socle, (a, q)


def test_forced_into_roots_are_the_roots_v_lambda_leaves_empty(t3, t4, zigzag_a4, sink_d4, e6):
    # a root U with a map into M_lam is forced on the into side when
    # [U, lam] reaches the Hom count sum(top_U * dim lam) of its projective
    # cover, and v_lam puts the gap between the two at U: so it is forced
    # exactly when v_lam has no mass at U, over every field
    checked = 0
    for table, max_total in [(t3, 4), (t4, 3), (zigzag_a4, 3), (sink_d4, 3), (e6, 2)]:
        rq = build_repetition(table.quiver)
        at = {}
        for a, root in enumerate(table.roots):
            i, p = rq.vertex_of_root(root)
            at[a] = (i, p + V_COORDINATE_SHIFT)
        for lam in all_classes(table, max_total):
            mass = v_lambda(rq, lam).as_dict()
            into = hom_ext_vectors(lam)[0]
            for q in (2, 3):
                (forced, ranked), _ = _root_kinds(lam)
                forced = {a for a, _ in forced}
                assert forced.isdisjoint(a for a, _ in ranked)
                for a in range(len(table)):
                    if into[a]:
                        assert (a in forced) == (at[a] not in mass), (kp_format(lam), a, q)
                        checked += 1
    assert checked == 3022


def walked_strata(lam, beta, q):
    """The (quotient, sub) pairs of every point, walked and classified one by one."""
    return Counter(map(_classifier(lam, q, beta), subreps(build(lam, q), beta, None)))


def test_all_forced_classes_have_at_most_one_stratum_fixed_by_beta(
    t3, t4, zigzag_a4, sink_d4, e6
):
    # when no root of lam is ranked, every count at a point is read off
    # beta, so the (quotient, sub) pair is the same at every point; strata
    # reads it off beta with no walk, checked here against the walk
    all_forced = classes_seen = reports = 0
    for table, max_total in [(t3, 4), (t4, 3), (zigzag_a4, 3), (sink_d4, 3), (e6, 2)]:
        for lam in all_classes(table, max_total):
            for q in (2, 3):
                classes_seen += 1
                (_, into_ranked), (_, out_ranked) = _root_kinds(lam)
                if into_ranked or out_ranked:
                    continue
                all_forced += 1
                for beta in itertools.product(*(range(x + 1) for x in lam.total)):
                    report = strata(lam, beta, q)
                    walked = walked_strata(lam, beta, q)
                    reports += 1
                    assert len(walked) <= 1, (kp_format(lam), beta, q)
                    assert report.total == sum(walked.values()), (kp_format(lam), beta, q)
                    assert report.pairs() == set(walked), (kp_format(lam), beta, q)
                    if walked:
                        quot_dims, sub_counts, quot_counts = _forced_counts(lam, beta)
                        nu = _partition_from_counts(table, sub_counts, beta)
                        mu = _partition_from_counts(table, quot_counts, quot_dims, into=False)
                        assert set(walked) == {(mu, nu)}, (kp_format(lam), beta, q)
    assert (all_forced, classes_seen, reports) == (368, 496, 1842)


@pytest.mark.parametrize(
    "which,max_total,fields,n_inputs,n_ranked,n_one_side",
    [
        pytest.param("t3", 4, (2, 3), 906, 340, 256, id="t3-4"),
        pytest.param("t4", 4, (2, 3), 2376, 1198, 720, id="t4-4"),
        pytest.param("a4", 3, (2, 3), 552, 72, 72, id="a4-3"),
        pytest.param("zigzag_a4", 4, (2, 3), 2264, 1198, 728, id="zigzag_a4-4"),
        pytest.param("sink_d4", 3, (2, 3), 568, 240, 108, id="sink_d4-3"),
        pytest.param("e6", 2, (2, 3), 220, 8, 8, id="e6-2"),
        pytest.param("t3", 3, (5,), 139, 24, 24, id="t3-3-q5"),
    ],
)
def test_colour_count_equals_the_walked_count(
    request, which, max_total, fields, n_inputs, n_ranked, n_one_side
):
    # point_count counts over the two colour classes, and strata walks only
    # when a root is ranked: both against the walk, on every (lam, beta, q);
    # the pins show the sweep covers the inputs the walk still serves
    table = request.getfixturevalue(which)
    seen = [0, 0, 0]
    for lam in all_classes(table, max_total):
        for q in fields:
            (_, into_ranked), (_, out_ranked) = _root_kinds(lam)
            for beta in itertools.product(*(range(x + 1) for x in lam.total)):
                walked = walked_strata(lam, beta, q)
                report = strata(lam, beta, q)
                where = (kp_format(lam), beta, q)
                assert point_count(lam, beta, q) == sum(walked.values()) == report.total, where
                assert {(e.mu, e.nu): e.count for e in report.entries} == walked, where
                seen[0] += 1
                seen[1] += bool(into_ranked or out_ranked)
                seen[2] += bool(into_ranked) != bool(out_ranked)
    assert seen == [n_inputs, n_ranked, n_one_side]


@pytest.mark.parametrize(
    "which,max_total,n_pairs,n_realized,n_box,n_kinds",
    [
        pytest.param("t2", 5, 720, 520, 0, (420, 42, 258), id="A2-5"),
        pytest.param("t3", 4, 1354, 854, 6, (690, 196, 468), id="A3-4"),
        pytest.param("t4", 3, 736, 516, 0, (448, 56, 232), id="D4-3"),
    ],
)
def test_realizes_decides_membership_in_the_realized_pairs(
    request, which, max_total, n_pairs, n_realized, n_box, n_kinds
):
    # _realizes answers for one pair: the split class by its summand point,
    # an all-forced lam by its one pair, any other by a walk that stops at
    # its first witness; against the walk's pairs, on every (lam, beta) at
    # q = 2 and 3, for every pair (mu, nu) with lam <= mu + nu, realized or
    # not, the realized ones all in the hom box
    table = request.getfixturevalue(which)
    seen = [0, 0, 0]
    kinds = Counter()
    for lam in all_classes(table, max_total):
        ranked = any(r for _, r in _root_kinds(lam))
        for beta in itertools.product(*(range(x + 1) for x in lam.total)):
            pairs = [
                (mu, nu)
                for mu in kp_enumerate(table, dim_sub(lam.total, beta))
                for nu in kp_enumerate(table, beta)
                if leq(lam, mu + nu)
            ]
            for q in (2, 3):
                realized = strata(lam, beta, q).pairs()
                for pair in pairs:
                    where = (kp_format(lam), beta, q, pair_names([pair]))
                    got = _realizes(lam, beta, q, pair)
                    assert got == (pair in realized), where
                    in_box = _in_hom_box(lam, *pair)
                    assert in_box or not got, where
                    seen[0] += 1
                    seen[1] += got
                    seen[2] += in_box and not got
                    split = lam == pair[0] + pair[1]
                    kinds["split" if split else "walked" if ranked else "forced"] += 1
    assert (*seen, (kinds["split"], kinds["forced"], kinds["walked"])) == (
        n_pairs, n_realized, n_box, n_kinds
    )


@pytest.mark.parametrize(
    "part,beta,n_enumerated",
    [("[1,1]", (3, 0, 0), 1), ("[2,2]", (0, 3, 0), 1)],
    ids=["sources", "middle"],
)
def test_all_forced_strata_walk_no_point(t3, monkeypatch, cold, part, beta, n_enumerated):
    # six copies of a simple over GF(5): every root is forced, so the one
    # stratum is read off beta, and its gaussian_binomial(6, 3, 5) points are
    # counted on the colour class with a single state (one empty subspace per
    # vertex, from the one table of the empty subspace of F_5^0), not on the
    # other class, which has them all; the cap counts that single state
    lam = kp_parse(t3, "+".join([part] * 6))
    half = kp_parse(t3, "+".join([part] * 3))

    def no_walk(*args):
        raise AssertionError("an all-forced Grassmannian was walked")

    enumerate_subspaces = linalg.enumerate_subspaces
    enumerated = []

    def counted(*args):
        for rows in enumerate_subspaces(*args):
            enumerated.append(rows)
            if len(enumerated) > n_enumerated:
                raise AssertionError("the colour class with more states was enumerated")
            yield rows

    monkeypatch.setattr(grassmannian, "subreps", no_walk)
    monkeypatch.setattr(linalg, "enumerate_subspaces", counted)
    # the cap counts the states of the class enumerated, not the walk's
    with pytest.raises(CapExceeded) as exc:
        strata(lam, beta, 5, n_enumerated - 1)
    assert exc.value.needed == n_enumerated and "colour class" in str(exc.value)
    assert enumerated == []
    report = strata(lam, beta, 5, n_enumerated)
    count = linalg.gaussian_binomial(6, 3, 5)
    assert count == 2558556
    assert [(e.mu, e.nu, e.count) for e in report.entries] == [(half, half, count)]
    assert report.total == point_count(lam, beta, 5) == count
    assert len(enumerated) == n_enumerated


def test_walked_strata_count_their_points_with_no_colour_count(t3, t4, monkeypatch, cold):
    # a lam with a ranked root is walked, so its total is the number of
    # points walked; the colour count, run afterwards, must agree with it
    def forbidden(*args):
        raise AssertionError("a walked stratum ran the colour count")

    monkeypatch.setattr(grassmannian, "_colour_count", forbidden)
    totals = {}
    for table, max_total in [(t3, 4), (t4, 3)]:
        for lam in all_classes(table, max_total):
            for q in (2, 3):
                (_, into_ranked), (_, out_ranked) = _root_kinds(lam)
                if into_ranked or out_ranked:
                    for beta in itertools.product(*(range(x + 1) for x in lam.total)):
                        totals[lam, beta, q] = strata(lam, beta, q).total
    monkeypatch.undo()
    for (lam, beta, q), total in totals.items():
        assert point_count(lam, beta, q) == total, (kp_format(lam), beta, q)
    assert (len(totals), sum(totals.values())) == (524, 714)


def test_no_cap_computes_no_scan_states(t3, monkeypatch):
    # with no cap there is nothing to check the Gaussian-binomial product
    # against, so it is not computed; the length of beta is still checked
    lam = kp_parse(t3, "[1,2]+[2,3]")
    m = build(lam, 2)

    def forbidden(*args):
        raise AssertionError("scan_states computed with no cap")

    monkeypatch.setattr(grassmannian, "scan_states", forbidden)
    assert len(list(subreps(m, (0, 1, 1), None))) == 3
    assert strata(lam, (0, 1, 1), 2, None).total == 3
    assert point_count(lam, (0, 1, 1), 3, None) == 4
    for call in (
        lambda: list(subreps(m, (0, 1), None)),
        lambda: strata(lam, (0, 1), 2, None),
        lambda: point_count(lam, (0, 1), 2, None),
    ):
        with pytest.raises(PartitionError, match="beta length does not match the rank"):
            call()
    with pytest.raises(AssertionError, match="scan_states"):
        strata(lam, (0, 1, 1), 2)


def test_classifier_rejects_what_sub_quotient_rejects(t2):
    lam = kp_parse(t2, "[1,2]")
    m = build(lam, 2)
    # vertex 2's line is the unique proper subrep of M[1,2]
    (line,) = subreps(m, (0, 1))
    assert line == ([], [[1]])
    assert pair_names([_classifier(lam, 2, (0, 1))(line)]) == [("[1,1]", "[2,2]")]
    # vertex 1's line is not stable: the arrow maps it out, so sub_quotient
    # raises and the walk's residue test drops it
    with pytest.raises(RepError):
        sub_quotient(m, [[[1]], []])
    assert list(subreps(m, (1, 0))) == []
    # a table entry must be a reduced echelon basis, of the right width
    for rows, d, q in [
        ([[2]], 1, 3),
        ([[1, 0]], 1, 2),
        ([[0]], 1, 2),
        ([[1, 1], [0, 1]], 2, 3),
        ([[0, 1], [1, 0]], 2, 3),
    ]:
        with pytest.raises(RepError):
            _Subspace(rows, d, q, 0)
    plane = kp_parse(t2, "[1,1]+[1,1]")
    (whole,) = subreps(build(plane, 3), (2, 0))
    assert whole == ([[1, 0], [0, 1]], [])
    assert pair_names([_classifier(plane, 3, (2, 0))(whole)]) == [("0", "[1,1]+[1,1]")]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_hom_basis_is_a_basis_of_intertwiners(t3, q):
    classes = all_classes(t3, 3)
    built = {kp: build(kp, q) for kp in classes}
    for x in classes:
        for y in classes:
            m, n = built[x], built[y]
            basis = hom_basis(m, n)
            assert len(basis) == hom_dim(x, y)
            flat = []
            for f in basis:
                for f_v, d, e in zip(f, m.dims, n.dims):
                    assert len(f_v) == e and all(len(row) == d for row in f_v)
                for k, (s, t) in enumerate(m.quiver.arrows):
                    lhs = matmul(f[t - 1], m.mats[k], m.dims[s - 1], q)
                    rhs = matmul(n.mats[k], f[s - 1], m.dims[s - 1], q)
                    assert lhs == rhs, (kp_format(x), kp_format(y))
                flat.append([v for f_v in f for row in f_v for v in row])
            if flat:
                assert rank(flat, q) == len(basis)


# --------------------------------------------------- what dim means

FIELDS = (2, 3, 5, 7, 11)


def lagrange_basis():
    """Per prime qi of FIELDS, the coefficients, constant term first, of
    the polynomial that is 1 at qi and 0 at the other primes."""
    rows = []
    for i, qi in enumerate(FIELDS):
        row = [Fraction(1)]
        for qj in FIELDS[:i] + FIELDS[i + 1 :]:  # times (x - qj) / (qi - qj)
            row = [(a - qj * b) / (qi - qj) for a, b in zip([0] + row, row + [0])]
        rows.append(row)
    return rows


LAGRANGE = lagrange_basis()


def interpolate(values):
    """The coefficients, constant term first and no trailing zeros, of the
    polynomial of degree < len(FIELDS) taking ``values`` at the primes of
    FIELDS, or None when one is not an integer."""
    coeffs = [sum(map(mul, values, column)) for column in zip(*LAGRANGE)]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return None if any(c.denominator != 1 for c in coeffs) else [int(c) for c in coeffs]


@pytest.mark.parametrize(
    "which,max_total,n_subs,n_entries",
    [("t3", 4, 411, 427), ("t4", 3, 255, 258), ("zigzag_a4", 3, 252, 255)],
)
def test_dim_is_the_degree_of_the_sub_class_count(
    request, monkeypatch, which, max_total, n_subs, n_entries
):
    # StratumEntry.dim = [nu, lam] - [nu, nu] is the dimension of the locus
    # of points whose sub is M_nu, over every quotient (Caldero-Reineke): the
    # counts of the entries with sub class nu sum to a monic polynomial in q
    # of that degree.  Each entry's own count is a monic polynomial of degree
    # at most dim, and exactly one entry per sub class reaches it.  Every
    # polynomial is read off q = 2..11 and must predict the count at q = 13
    table = request.getfixturevalue(which)
    monkeypatch.setattr(linalg, "SUPPORTED_FIELDS", FIELDS + (13,))

    def degree(values, where):
        poly = interpolate(values[:-1])
        assert poly is not None and poly[-1] == 1, where
        assert sum(c * 13**k for k, c in enumerate(poly)) == values[-1], where
        return len(poly) - 1

    subs = entries = 0
    for lam in all_classes(table, max_total):
        for beta in itertools.product(*(range(x + 1) for x in lam.total)):
            counts, dims = {}, {}  # (mu, nu) -> count per field, nu -> dim
            for i, q in enumerate(FIELDS + (13,)):
                for e in strata(lam, beta, q).entries:
                    counts.setdefault((e.mu, e.nu), [0] * (len(FIELDS) + 1))[i] = e.count
                    assert dims.setdefault(e.nu, e.dim) == e.dim
            for nu, dim in dims.items():
                where = (kp_format(lam), beta, kp_format(nu))
                per_entry = [c for (_, n), c in counts.items() if n == nu]
                assert degree([sum(col) for col in zip(*per_entry)], where) == dim, where
                degrees = [degree(values, where) for values in per_entry]
                assert max(degrees) == dim and degrees.count(dim) == 1, where
                subs += 1
                entries += len(per_entry)
    assert (subs, entries) == (n_subs, n_entries)

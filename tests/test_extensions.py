"""Extension sets, generic extensions, and the dimension bookkeeping."""

import itertools

import pytest

from quiverlab import (
    CapExceeded,
    METHOD_FILTER,
    METHOD_U,
    PartitionError,
    d_lambda,
    build,
    degree_bound,
    dim_add,
    e_lambda,
    ext_dim,
    ext_ger,
    ext_min,
    ext_pairs,
    ext_set,
    generic_ext,
    generic_pairs,
    hom_omega_dim,
    identify,
    interval,
    kp_enumerate,
    kp_format,
    kp_from_vectors,
    kp_parse,
    leq,
    orbit_dim,
    point_count,
    positive_roots,
    strata,
)
from quiverlab import extensions, grassmannian
from quiverlab.extensions import _candidates, _classify_u, _ext_set_u, _hom_box
from quiverlab.reps import Rep, RepError


def names(classes):
    return sorted(kp_format(k) for k in classes)


def pair_names(pairs):
    return sorted((kp_format(m), kp_format(n)) for m, n in pairs)


# ------------------------------------------------------------- ext_set

def test_adjacent_simples_two_middle_terms(t2):
    s1, s2 = kp_parse(t2, "[1,1]"), kp_parse(t2, "[2,2]")
    res = ext_set(s1, s2)
    assert names(res.classes) == ["[1,1]+[2,2]", "[1,2]"]
    assert res.stable
    assert res.fields == (2, 3)
    assert res.method == METHOD_U


def test_opposite_order_only_splits(t2):
    s1, s2 = kp_parse(t2, "[1,1]"), kp_parse(t2, "[2,2]")
    res = ext_set(s2, s1)
    assert names(res.classes) == ["[1,1]+[2,2]"]
    assert res.stable


def test_methods_agree_on_a_bigger_example(t3):
    mu = kp_parse(t3, "[1,2]")
    nu = kp_parse(t3, "[2,2]+[3,3]")
    by_u = ext_set(mu, nu, method=METHOD_U)
    by_filter = ext_set(mu, nu, method=METHOD_FILTER)
    assert by_u.classes == by_filter.classes
    assert by_u.stable and by_filter.stable
    # method aliases accepted
    assert ext_set(mu, nu, method="u").classes == by_u.classes
    assert ext_set(mu, nu, method="subrep").classes == by_u.classes
    for method in ("magic", "u-enum", "filter"):
        with pytest.raises(ValueError):
            ext_set(mu, nu, method=method)


def test_a_middle_term_with_no_f2_point(t4):
    # the (mu, nu) stratum of Gr(M_lam) counts q - 2 points: none over GF(2),
    # so GF(2) alone misses lam, and the default fields find it over GF(3)
    mu, nu, lam = (kp_parse(t4, x) for x in ("1,1,0,0", "0,1,1,1", "1,2,1,1"))
    assert [
        sum(e.count for e in strata(lam, nu.total, q).entries if (e.mu, e.nu) == (mu, nu))
        for q in (2, 3, 5)
    ] == [0, 1, 3]
    alone = ext_set(mu, nu, fields=(2,))
    assert lam not in alone.classes and alone.stable
    default = ext_set(mu, nu)
    assert default.classes == alone.classes | {lam} and not default.stable


def block_rep(mu, nu, q, u):
    """The middle term ``[[y, u], [0, x]]`` with ``y = build(nu)`` and
    ``x = build(mu)``: the flat ``u`` holds one ``dim nu_t x dim mu_s``
    block per arrow ``s -> t``, arrow by arrow and row by row."""
    quiver = mu.table.quiver
    alpha, beta = mu.total, nu.total
    x, y = build(mu, q), build(nu, q)
    mats, pos = [], 0
    for (s, t), x_k, y_k in zip(quiver.arrows, x.mats, y.mats):
        c = alpha[s - 1]
        top = tuple(
            y_row + tuple(u[pos + i * c : pos + (i + 1) * c]) for i, y_row in enumerate(y_k)
        )
        pos += beta[t - 1] * c
        bottom = tuple((0,) * beta[s - 1] + row for row in x_k)
        mats.append(top + bottom)
    return Rep(quiver, q, dim_add(beta, alpha), tuple(mats))


@pytest.mark.parametrize(
    "which,max_total,n_points", [("t2", 4, 430), ("t3", 4, 1350), ("t4", 3, 410)]
)
def test_connecting_map_ranks_agree_with_identify(request, which, max_total, n_points):
    # the u-route's classification against identify on the block
    # representation, at every u-point of every pair
    table = request.getfixturevalue(which)
    classes = [
        kp
        for g in itertools.product(range(max_total + 1), repeat=table.quiver.rank)
        if 0 < sum(g) < max_total
        for kp in kp_enumerate(table, g)
    ]
    points = 0
    for mu, nu in itertools.product(classes, repeat=2):
        if sum(mu.total) + sum(nu.total) > max_total:
            continue
        for q in (2, 3):
            n_u = hom_omega_dim(mu.total, nu.total, table.quiver)
            for u in itertools.product(range(q), repeat=n_u):
                expected = identify(block_rep(mu, nu, q, u), table)
                assert _classify_u(mu, nu, q, u) == expected, (kp_format(mu), kp_format(nu), q, u)
                points += 1
    assert points == n_points


def test_ext_set_rejects_an_empty_field_list(t2):
    # a union over no field would have no split class to check against
    s1, s2 = kp_parse(t2, "[1,1]"), kp_parse(t2, "[2,2]")
    for method in (METHOD_U, METHOD_FILTER):
        with pytest.raises(ValueError, match="at least one field"):
            ext_set(s1, s2, fields=(), method=method, cap=0)
        with pytest.raises(ValueError, match="at least one field"):
            generic_ext(s1, s2, fields=[], method=method)


def test_every_middle_term_degenerates_to_split(t3):
    mu = kp_parse(t3, "[1,2]")
    nu = kp_parse(t3, "[2,3]")
    res = ext_set(mu, nu)
    split = mu + nu
    assert split in res.classes
    assert all(leq(lam, split) for lam in res.classes)


def test_u_enumeration_cap(t3):
    mu = kp_parse(t3, "[1,2]")
    nu = kp_parse(t3, "[2,2]+[3,3]")
    with pytest.raises(CapExceeded) as exc:
        ext_set(mu, nu, cap=1)
    assert "subrep-filter" in str(exc.value)  # points at the fallback method


def test_subrep_cap_counts_every_candidate_scan(t3, monkeypatch):
    # the cap counts a scan of the Grassmannian of each of the 10 classes
    # lam <= mu + nu, 27 states each over GF(2) and 64 over GF(3), though
    # only the 5 in the hom box are scanned
    mu = kp_parse(t3, "[1,1]+[2,2]+[3,3]")
    split = mu + mu
    assert sum(leq(lam, split) for lam in kp_enumerate(t3, split.total)) == 10
    box = _hom_box(mu, mu)
    assert len(box) == 5
    scanned = []
    realized_pairs = grassmannian.realized_pairs

    def counted(lam, beta, q, cap):
        scanned.append((lam, q))
        return realized_pairs(lam, beta, q, cap)

    monkeypatch.setattr(grassmannian, "realized_pairs", counted)
    extensions._ext_set_filter.cache_clear()
    with pytest.raises(CapExceeded) as exc:
        ext_set(mu, mu, method=METHOD_FILTER, cap=64)
    assert exc.value.needed == 270 and "subrepresentation scan" in str(exc.value)
    with pytest.raises(CapExceeded) as exc:
        ext_set(mu, mu, method=METHOD_FILTER, cap=639)
    assert exc.value.needed == 640
    assert scanned == []
    result = ext_set(mu, mu, method=METHOD_FILTER, cap=640)
    assert scanned == [(lam, q) for q in (2, 3) for lam in box]
    assert sorted(kp_format(lam) for lam in result.classes) == [
        "[1,1]+[1,1]+[2,2]+[2,2]+[3,3]+[3,3]",
        "[1,1]+[1,1]+[2,2]+[2,3]+[3,3]",
        "[1,1]+[1,2]+[2,2]+[3,3]+[3,3]",
        "[1,1]+[1,2]+[2,3]+[3,3]",
    ]
    assert result.classes == ext_set(mu, mu, method=METHOD_U).classes
    # the candidates are counted before any is listed
    with pytest.raises(CapExceeded, match="counting stopped past the cap"):
        ext_set(mu, mu, method=METHOD_FILTER, cap=9)


def sweep_pairs(table, bound):
    """The pairs of nonzero classes whose dimension vectors add up inside
    ``bound``: a tuple bounds each vertex, an int the total."""
    box = bound if isinstance(bound, tuple) else (bound,) * table.quiver.rank
    limit = sum(box) if isinstance(bound, tuple) else bound
    classes = [
        kp
        for g in itertools.product(*(range(b + 1) for b in box))
        if 0 < sum(g) <= limit
        for kp in kp_enumerate(table, g)
    ]
    for mu, nu in itertools.product(classes, repeat=2):
        total = dim_add(mu.total, nu.total)
        if all(map(int.__le__, total, box)) and sum(total) <= limit:
            yield mu, nu


SWEEPS = [
    pytest.param("t2", (2, 2), (2, 3), 60, 18, 248, 155, id="A2-box22"),
    pytest.param("t3", 5, (2, 3), 1386, 751, 10204, 5471, id="A3-5"),
    pytest.param("t4", 4, (2, 3), 1138, 551, 3152, 2179, id="D4-4"),
    pytest.param("zigzag_a4", 4, (2, 3), 1122, 467, 3183, 2195, id="zigzag_A4-4"),
    pytest.param("sink_d4", 3, (2, 3), 240, 60, 420, 345, id="sink_D4-3"),
    pytest.param("t2", 4, (5,), 60, 24, 1224, 322, id="A2-4-q5"),
]


@pytest.mark.parametrize("which,bound,fields,n_triples,n_skipped,n_points,n_lines", SWEEPS)
def test_every_middle_term_lies_in_the_hom_box(
    request, which, bound, fields, n_triples, n_skipped, n_points, n_lines
):
    # Hom(M_a, -) and Hom(-, M_a) are left exact, so every middle term found
    # by the u-route passes the box the subrep route scans; the pin counts
    # the candidates lam <= mu + nu the box leaves out
    table = request.getfixturevalue(which)
    triples = skipped = 0
    for mu, nu in sweep_pairs(table, bound):
        box = _hom_box(mu, nu)
        skipped += len(_candidates(mu + nu)) - len(box)
        for q in fields:
            assert _ext_set_u(mu, nu, q) <= set(box), (kp_format(mu), kp_format(nu), q)
            triples += 1
    assert (triples, skipped) == (n_triples, n_skipped)


@pytest.mark.parametrize("which,bound,fields,n_triples,n_skipped,n_points,n_lines", SWEEPS)
def test_u_route_classifies_one_u_per_line_of_ext(
    request, monkeypatch, which, bound, fields, n_triples, n_skipped, n_points, n_lines
):
    # the classes of one representative per line of Ext^1 (and of u = 0)
    # against the classes of every point of u-space
    table = request.getfixturevalue(which)
    calls = []

    def counted(mu, nu, q, u):
        calls.append(tuple(u))
        return _classify_u(mu, nu, q, u)

    monkeypatch.setattr(extensions, "_classify_u", counted)
    triples = points = lines = 0
    for mu, nu in sweep_pairs(table, bound):
        n_u = hom_omega_dim(mu.total, nu.total, table.quiver)
        e = ext_dim(mu, nu)
        for q in fields:
            walked = {_classify_u(mu, nu, q, u) for u in itertools.product(range(q), repeat=n_u)}
            calls.clear()
            assert _ext_set_u.__wrapped__(mu, nu, q) == walked, (kp_format(mu), kp_format(nu), q)
            assert len(calls) == len(set(calls)) == 1 + (q**e - 1) // (q - 1)
            triples += 1
            points += q**n_u
            lines += len(calls)
    assert (triples, points, lines) == (n_triples, n_points, n_lines)


def test_u_route_checks_the_ext_count(t2, monkeypatch):
    # the free coordinates of the coboundaries' echelon form are checked
    # against the closed-form dim Ext^1
    s1, s2 = kp_parse(t2, "[1,1]"), kp_parse(t2, "[2,2]")
    monkeypatch.setattr(extensions, "ext_dim", lambda x, y: 2)
    with pytest.raises(RepError, match="closed-form count"):
        _ext_set_u.__wrapped__(s1, s2, 2)


def test_middle_terms_are_neither_an_interval_nor_the_hom_box(t3):
    # neither closed form can replace the Grassmannian scan: both hold a
    # class that is no middle term
    mu, nu = kp_parse(t3, "[1,1]"), kp_parse(t3, "[1,2]+[2,3]")
    expected = ["[1,1]+[1,2]+[2,3]", "[1,2]+[1,3]"]
    assert names(ext_set(mu, nu).classes) == expected
    assert names(ext_set(mu, nu, method=METHOD_FILTER).classes) == expected
    extra = ["[1,1]+[1,3]+[2,2]"]
    assert names(interval(generic_ext(mu, nu), mu + nu)) == sorted(expected + extra)
    assert names(_hom_box(mu, nu)) == sorted(expected + extra)


def test_cap_is_checked_after_a_warm_memo(t3):
    mu, nu = kp_parse(t3, "[1,2]"), kp_parse(t3, "[2,3]")
    lam, beta = mu + nu, nu.total
    point_count(lam, beta, 2)
    for method in (METHOD_U, METHOD_FILTER):
        ext_set(mu, nu, method=method)
        with pytest.raises(CapExceeded):
            ext_set(mu, nu, method=method, cap=1)
    with pytest.raises(CapExceeded):
        point_count(lam, beta, 2, cap=1)


def test_alternate_word_agrees_with_canonical(t3):
    # [1,3] and [2,2] swap places between the two adapted root orders
    alt = positive_roots(t3.quiver, "alternate")

    def over(table, kp):
        return kp_from_vectors(table, kp.part_roots())

    mu, nu = kp_parse(alt, "[1,1]"), kp_parse(alt, "[2,3]")
    for method in (METHOD_U, METHOD_FILTER):
        expected = ext_set(over(t3, mu), over(t3, nu), method=method).classes
        assert ext_set(mu, nu, method=method).classes == {
            over(alt, lam) for lam in expected
        }
    assert kp_parse(alt, "[1,3]") in ext_set(mu, nu).classes
    lam = kp_parse(alt, "[1,3]+[2,2]")
    for q in (2, 3):
        got = strata(lam, (0, 1, 0), q).entries
        expected = strata(over(t3, lam), (0, 1, 0), q).entries
        assert [(e.mu, e.nu, e.count, e.dim) for e in got] == [
            (over(alt, e.mu), over(alt, e.nu), e.count, e.dim) for e in expected
        ]


def test_generic_ext_values(t2, t3):
    s1, s2 = kp_parse(t2, "[1,1]"), kp_parse(t2, "[2,2]")
    assert kp_format(generic_ext(s1, s2)) == "[1,2]"
    assert kp_format(generic_ext(s2, s1)) == "[1,1]+[2,2]"
    # the weight-(1,2,1) generic product of the linked pair
    assert (
        kp_format(generic_ext(kp_parse(t3, "[1,2]"), kp_parse(t3, "[2,3]")))
        == "[1,3]+[2,2]"
    )
    # nested pair: no extensions either way, product is the split class
    assert (
        kp_format(generic_ext(kp_parse(t3, "[1,3]"), kp_parse(t3, "[2,2]")))
        == "[1,3]+[2,2]"
    )


def test_generic_ext_is_leq_minimum(t3):
    mu = kp_parse(t3, "[1,1]+[2,2]")
    nu = kp_parse(t3, "[2,2]+[3,3]")
    gen = generic_ext(mu, nu)
    for lam in ext_set(mu, nu).classes:
        assert leq(gen, lam)


# ------------------------------------------------------------- pairs

def test_ext_pairs_and_min_golden(t3):
    lam = kp_parse(t3, "[1,3]+[2,2]")
    pairs = ext_pairs(lam, (1, 1, 0), (0, 1, 1))
    assert pair_names(pairs) == [
        ("[1,1]+[2,2]", "[2,3]"),
        ("[1,2]", "[2,2]+[3,3]"),
        ("[1,2]", "[2,3]"),
    ]
    assert pair_names(ext_min(lam, (1, 1, 0), (0, 1, 1))) == [("[1,2]", "[2,3]")]


def test_ext_pairs_validates_split(t3):
    lam = kp_parse(t3, "[1,3]+[2,2]")
    with pytest.raises(PartitionError):
        ext_pairs(lam, (1, 0, 0), (0, 1, 1))  # alpha+beta != dim lambda


def test_ext_pairs_rejects_an_empty_field_list(t2):
    # no pairs over no field is not an answer, so every caller refuses
    lam = kp_parse(t2, "[1,2]")
    for func in (ext_pairs, generic_pairs, ext_ger, ext_min):
        with pytest.raises(ValueError, match="at least one field"):
            func(lam, (1, 0), (0, 1), fields=(), cap=0)
    assert pair_names(ext_pairs(lam, (1, 0), (0, 1), fields=(2,))) == [("[1,1]", "[2,2]")]


# ------------------------------------------------------------- dimensions

def test_hom_omega_dim(a2, a3):
    assert hom_omega_dim((1, 0), (0, 1), a2) == 1
    assert hom_omega_dim((0, 1), (1, 0), a2) == 0
    assert hom_omega_dim((1, 2, 1), (1, 2, 1), a3) == 2 + 2  # two arrows


def test_orbit_dim(t2):
    assert orbit_dim(kp_parse(t2, "[1,2]")) == 1  # dense orbit in E_(1,1)
    assert orbit_dim(kp_parse(t2, "[1,1]+[2,2]")) == 0
    assert orbit_dim(kp_parse(t2, "[1,1]")) == 0


def test_d_and_e_spot_values(t2):
    s1, s2 = kp_parse(t2, "[1,1]"), kp_parse(t2, "[2,2]")
    lam = kp_parse(t2, "[1,2]")
    split = s1 + s2
    assert d_lambda(lam, s1, s2) == 2
    assert e_lambda(lam, s1, s2) == 1
    assert degree_bound(lam, s1, s2) == 4
    assert d_lambda(split, s1, s2) == 1
    assert e_lambda(split, s1, s2) == 0
    assert degree_bound(split, s1, s2) == 1


def test_e_lambda_needs_lambda_between_generic_and_split(t3):
    mu = kp_parse(t3, "[1,2]")
    nu = kp_parse(t3, "[2,3]")
    outside = kp_parse(t3, "[1,1]+[2,3]+[2,2]")  # not >= mu*nu
    with pytest.raises(PartitionError):
        e_lambda(outside, mu, nu)


def test_d_lambda_rejects_weight_mismatch(t2):
    s1, s2 = kp_parse(t2, "[1,1]"), kp_parse(t2, "[2,2]")
    with pytest.raises(PartitionError):
        d_lambda(kp_parse(t2, "[1,2]"), s1, s1)


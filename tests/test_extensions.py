"""Extension sets, generic extensions, and the dimension bookkeeping."""

import itertools
import math
import random
import time
from operator import mul

import pytest

from quiverlab import (
    CapExceeded,
    KostantPartition,
    METHOD_FILTER,
    METHOD_U,
    PartitionError,
    d_lambda,
    build,
    degree_bound,
    dim_add,
    dim_sub,
    e_lambda,
    ext_dim,
    ext_ger,
    ext_min,
    ext_pairs,
    ext_set,
    gaussian_binomial,
    generic_ext,
    generic_pairs,
    hom_dim,
    hom_omega_dim,
    identify,
    interval,
    kp_enumerate,
    kp_format,
    kp_from_vectors,
    kp_parse,
    leq,
    lt,
    orbit_dim,
    point_count,
    positive_roots,
    rank,
    standard_quiver,
    strata,
    stratum_dim,
)
from quiverlab import extensions, grassmannian, linalg, reps
from quiverlab.extensions import (
    _classify_u,
    _coboundaries,
    _connecting_maps,
    _ext_set_filter,
    _ext_set_u,
    _hom_box,
    _pair_ext,
    _part_pairs,
    _walked_side,
    _yoneda,
)
from quiverlab.homs import hom_ext_vectors
from quiverlab.order import _lower_set
from quiverlab.reps import Rep, RepError, _partition_from_counts, indecomposable


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


def pair_positions(mu, nu, i, j, c, b):
    """The positions in a flat u (the layout of :func:`block_rep`) of the
    block of part i of mu and part j of nu, roots c and b, in the layout
    of the cocycles of M_c into M_b (:func:`_coboundaries`)."""
    table = mu.table
    roots, alpha, beta = table.roots, mu.total, nu.total
    left = [sum(roots[p][v] for p in mu.parts[:i]) for v in range(len(alpha))]
    top = [sum(roots[p][v] for p in nu.parts[:j]) for v in range(len(beta))]
    at, pos = [], 0
    for s, t in table.quiver.arrows:
        for r in range(roots[b][t - 1]):
            row = pos + (top[t - 1] + r) * alpha[s - 1] + left[s - 1]
            at.extend(range(row, row + roots[c][s - 1]))
        pos += beta[t - 1] * alpha[s - 1]
    return at


def ext_coordinates(mu, nu, q):
    """``(read, place, free)`` between a flat u and its Ext^1 coordinates,
    in the order of :func:`_part_pairs`.  ``read(u)`` gives the nonzero
    coordinates ``(coordinate, value)`` of the class of u, as the u-route's
    classifier takes them: each pair's block read by the rows of
    :func:`_pair_ext`.  ``place(entries)`` gives the flat u that sums the
    unit cocycles at the pairs' free positions, ``free``, scaled by the
    entries' values."""
    table = mu.table
    n_u = hom_omega_dim(mu.total, nu.total, table.quiver)
    readers, free = [], []
    for i, j, c, b, _ in _part_pairs(mu, nu):
        at = pair_positions(mu, nu, i, j, c, b)
        pair_free, coords = _pair_ext(table, c, b, q)
        readers.extend(list(zip(at, row)) for row in coords)
        free.extend(at[k] for k in pair_free)

    def read(u):
        values = (sum(u[c] * w for c, w in row) % q for row in readers)
        return [(p, x) for p, x in enumerate(values) if x]

    def place(entries):
        u = [0] * n_u
        for p, x in entries:
            u[free[p]] = x
        return tuple(u)

    return read, place, free


@pytest.mark.parametrize(
    "which,max_total,n_points", [("t2", 4, 430), ("t3", 4, 1350), ("t4", 3, 410)]
)
def test_connecting_map_ranks_agree_with_identify(request, which, max_total, n_points):
    # the u-route's classification against identify on the block
    # representation, at every u-point of every pair, read in Ext^1
    # coordinates
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
            classify, read = _classify_u(mu, nu, q), ext_coordinates(mu, nu, q)[0]
            for u in itertools.product(range(q), repeat=n_u):
                expected = identify(block_rep(mu, nu, q, u), table)
                assert classify(read(u)) == expected, (
                    kp_format(mu), kp_format(nu), q, u,
                )
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


def test_u_route_cap_counts_the_representatives_it_classifies(t3, monkeypatch, cold):
    # u-space is F_q^16, past the default cap at GF(3), but the walk
    # classifies one u per subspace of dim <= 4 of F_q^4 on nu's side:
    # 67 over GF(2) and 212 over GF(3); the cap is checked before any
    mu = kp_parse(t3, "[2,2]+[2,2]+[2,2]+[2,2]")
    nu = kp_parse(t3, "[3,3]+[3,3]+[3,3]+[3,3]")
    calls = counting_classify(monkeypatch)
    with pytest.raises(CapExceeded) as exc:
        ext_set(mu, nu, cap=211)
    assert exc.value.needed == 212 and "orbit representative" in str(exc.value)
    assert calls == []
    assert len(ext_set(mu, nu, cap=212).classes) == 5
    assert len(calls) == 67 + 212
    # at the default cap, which 3^16 points of u-space pass
    assert kp_format(generic_ext(mu, nu)) == "[2,3]+[2,3]+[2,3]+[2,3]"


def test_subrep_cap_counts_the_hom_box_scans(t3, monkeypatch, cold):
    # of the 10 classes lam <= mu + nu only the 5 in the hom box are
    # decided, and the cap counts a scan of the Grassmannian of each of
    # those but the split class, whose summand point needs none: 27
    # states each over GF(2) and 64 over GF(3)
    mu = kp_parse(t3, "[1,1]+[2,2]+[3,3]")
    split = mu + mu
    assert sum(leq(lam, split) for lam in kp_enumerate(t3, split.total)) == 10
    box = _hom_box(mu, mu, None)
    assert len(box) == 5 and split in box
    scanned = []
    realizes = grassmannian._realizes

    def counted(lam, beta, q, pair):
        scanned.append((lam, q))
        return realizes(lam, beta, q, pair)

    monkeypatch.setattr(grassmannian, "_realizes", counted)
    with pytest.raises(CapExceeded) as exc:
        ext_set(mu, mu, method=METHOD_FILTER, cap=64)
    assert exc.value.needed == 108 and "subrepresentation scan" in str(exc.value)
    with pytest.raises(CapExceeded) as exc:
        ext_set(mu, mu, method=METHOD_FILTER, cap=255)
    assert exc.value.needed == 256
    assert scanned == []
    result = ext_set(mu, mu, method=METHOD_FILTER, cap=256)
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
    pytest.param("t2", (2, 2), (2, 3), 60, 18, 248, 89, id="A2-box22"),
    pytest.param("t3", 5, (2, 3), 1386, 751, 10204, 2138, id="A3-5"),
    pytest.param("t4", 4, (2, 3), 1138, 551, 3152, 1624, id="D4-4"),
    pytest.param("zigzag_a4", 4, (2, 3), 1122, 467, 3183, 1591, id="zigzag_A4-4"),
    pytest.param("sink_d4", 3, (2, 3), 240, 60, 420, 312, id="sink_D4-3"),
    pytest.param("t2", 4, (5,), 60, 24, 1224, 83, id="A2-4-q5"),
]


@pytest.mark.parametrize("which,bound,fields,n_triples,n_skipped,n_points,n_reps", SWEEPS)
def test_every_middle_term_lies_in_the_hom_box(
    request, which, bound, fields, n_triples, n_skipped, n_points, n_reps
):
    # Hom(M_a, -) and Hom(-, M_a) are left exact, so every middle term found
    # by the u-route passes the box the subrep route scans; the pin counts
    # the candidates lam <= mu + nu the box leaves out
    table = request.getfixturevalue(which)
    triples = skipped = 0
    for mu, nu in sweep_pairs(table, bound):
        box = _hom_box(mu, nu, None)
        skipped += len(_lower_set(mu + nu, None)) - len(box)
        for q in fields:
            assert _ext_set_u(mu, nu, q) <= set(box), (kp_format(mu), kp_format(nu), q)
            triples += 1
    assert (triples, skipped) == (n_triples, n_skipped)


def counting_classify(monkeypatch):
    """The u classified by the u-route, recorded as flat u placed from the
    Ext^1 coordinates passed to the classifiers ``_classify_u`` builds;
    each flat u reads back as those coordinates."""
    calls = []

    def counted(mu, nu, q):
        classify = _classify_u(mu, nu, q)
        read, place, _ = ext_coordinates(mu, nu, q)

        def counted_classify(entries):
            u = place(entries)
            assert read(u) == sorted(entries)
            calls.append(u)
            return classify(entries)

        return counted_classify

    monkeypatch.setattr(extensions, "_classify_u", counted)
    return calls


def part_blocks(mu, nu, u, on_nu):
    """u's entries in the rows of each part of nu (``on_nu``) or in the
    columns of each part of mu, one flat vector per part, read off the
    layout of :func:`block_rep`."""
    table = mu.table
    alpha, beta = mu.total, nu.total
    parts = nu.parts if on_nu else mu.parts
    blocks = [[] for _ in parts]
    pos = 0
    for s, t in table.quiver.arrows:
        width = alpha[s - 1]
        rows = [u[pos + i * width : pos + (i + 1) * width] for i in range(beta[t - 1])]
        pos += beta[t - 1] * width
        first = 0
        for p, block in zip(parts, blocks):
            d = table.roots[p][(t if on_nu else s) - 1]
            if on_nu:
                block.extend(x for row in rows[first : first + d] for x in row)
            else:
                block.extend(x for row in rows for x in row[first : first + d])
            first += d
    return blocks


def orbit_sides(mu, nu, q):
    """For the copies of each root of nu, then of mu: ``(count, roots)``
    with roots = [(root, m, e)], e = dim Ext^1 of mu by the root (nu) or
    of the root by nu (mu), and count = prod over the roots of
    sum_{r <= min(m, e)} [e choose r]_q."""
    table = mu.table
    sides = []
    for parts, ext_of in (
        (nu.parts, lambda b: ext_dim(mu, KostantPartition(table, (b,)))),
        (mu.parts, lambda c: ext_dim(KostantPartition(table, (c,)), nu)),
    ):
        roots = [(b, parts.count(b), ext_of(b)) for b in sorted(set(parts), reverse=True)]
        count = math.prod(
            sum(gaussian_binomial(e, r, q) for r in range(min(m, e) + 1)) for _, m, e in roots
        )
        sides.append((count, roots))
    return sides


@pytest.mark.parametrize("which,bound,fields,n_triples,n_skipped,n_points,n_reps", SWEEPS)
def test_u_route_classifies_one_u_per_orbit_representative(
    request, monkeypatch, which, bound, fields, n_triples, n_skipped, n_points, n_reps
):
    # the classes of one representative per orbit of the copies' general
    # linear groups against the classes of every point of u-space; the
    # representatives are counted by the closed form on the side with
    # fewer (nu on a tie), and they cover Ext^1: an e x m matrix of rank r
    # is in the orbit of prod_{i<r} (q^m - q^i) matrices per root
    table = request.getfixturevalue(which)
    calls = counting_classify(monkeypatch)
    triples = points = reps = 0
    for mu, nu in sweep_pairs(table, bound):
        n_u = hom_omega_dim(mu.total, nu.total, table.quiver)
        e = ext_dim(mu, nu)
        for q in fields:
            classify = _classify_u(mu, nu, q)
            read, _, pair_free = ext_coordinates(mu, nu, q)
            walked = {classify(read(u)) for u in itertools.product(range(q), repeat=n_u)}
            calls.clear()
            assert _ext_set_u.__wrapped__(mu, nu, q) == walked, (kp_format(mu), kp_format(nu), q)
            (nu_count, nu_roots), (mu_count, mu_roots) = orbit_sides(mu, nu, q)
            on_nu = nu_count <= mu_count
            assert len(calls) == len(set(calls)) == min(nu_count, mu_count)
            # the count the cap reads is the walk's, never past u = 0 and
            # the lines of Ext^1, as the copies' groups hold the scalars
            assert _walked_side(mu, nu, q)[0] == len(calls)
            assert len(calls) <= 1 + (q**e - 1) // (q - 1)
            # the pairs' free positions, placed in the flat u, are those of
            # the whole sum's coboundaries
            pivots = linalg.rref(_coboundaries(build(mu, q), build(nu, q)), q)[1]
            assert sorted(pair_free) == [c for c in range(n_u) if c not in pivots]
            roots, parts = (nu_roots, nu.parts) if on_nu else (mu_roots, mu.parts)
            covered = 0
            for u in calls:
                blocks = part_blocks(mu, nu, u, on_nu)
                orbit = 1
                for b, m, _ in roots:
                    r = rank([blk for p, blk in zip(parts, blocks) if p == b], q)
                    orbit *= math.prod(q**m - q**i for i in range(r))
                covered += orbit
            assert covered == q**e, (kp_format(mu), kp_format(nu), q)
            triples += 1
            points += q**n_u
            reps += len(calls)
    assert (triples, points, reps) == (n_triples, n_points, n_reps)


def whole_sum_ranks(mu, nu, q):
    """The connecting maps f -> [u f] built from the whole direct sums,
    as the u-route once built them: M_nu is built, the coordinates of
    Ext^1(M_a, M_nu) are read off the kernel of the coboundaries of M_a
    into all of M_nu, and f runs over the zero-padded basis of
    Hom(M_a, M_mu) (``grassmannian._assembled_basis``).  Returns the map
    from a flat u to ``{a: rank}`` over the roots a with hom(a, mu) > 0
    and ext(a, nu) > 0."""
    table = mu.table
    alpha, beta = mu.total, nu.total
    y = build(nu, q)
    into_mu, ext_nu = hom_ext_vectors(mu)[0], hom_ext_vectors(nu)[1]
    maps = []
    for a, (h, e) in enumerate(zip(into_mu, ext_nu)):
        if h and e:
            m_a = indecomposable(table, a, q)
            width = hom_omega_dim(m_a.dims, y.dims, table.quiver)
            coords = linalg.kernel_basis(_coboundaries(m_a, y), width, q)
            fs = grassmannian._assembled_basis(mu, a, q, False)
            assert (len(fs), len(coords)) == (h, e)
            maps.append((a, m_a.dims, coords, fs))

    def ranks(u):
        out = {}
        for a, d_a, coords, fs in maps:
            rows = []
            for f in fs:
                cocycle, pos = [], 0  # u_k f_s, arrow by arrow and row by row
                for s, t in table.quiver.arrows:
                    n = alpha[s - 1]
                    for r in range(beta[t - 1]):
                        u_row = u[pos + r * n : pos + (r + 1) * n]
                        cocycle.extend(
                            sum(u_row[l] * f[s - 1][l][j] for l in range(n))
                            for j in range(d_a[s - 1])
                        )
                    pos += beta[t - 1] * n
                rows.append([sum(map(mul, coord, cocycle)) % q for coord in coords])
            out[a] = rank(rows, q)
        return out

    return ranks


def packed_ranks(maps, q, entries):
    """``{a: rank}`` read off the packed columns ``maps`` of
    ``_connecting_maps``, unpacked and summed entry by entry."""
    out = {}
    for a, h, e, columns in maps:
        image = [0] * (h * e)
        for c, x in entries:
            shift, piece = columns[c]
            column = linalg._unpack(piece << shift, q, h * e)
            image = [(v + x * w) % q for v, w in zip(image, column)]
        out[a] = rank([image[i * e : (i + 1) * e] for i in range(h)], q)
    return out


@pytest.mark.parametrize(
    "which,bound,fields",
    [pytest.param(*p.values[:3], id=p.id) for p in SWEEPS]
    + [
        pytest.param("t2", "stacks", (2, 3, 5), id="A2-stacks"),
        pytest.param("e6", "roots", (2, 3), id="E6-roots"),
    ],
)
def test_connecting_maps_from_pair_blocks_match_the_whole_sum(
    request, monkeypatch, cold, which, bound, fields
):
    # the u-route fills its columns from pair pieces alone; at every u it
    # classifies, each root's connecting map has the rank the whole-sum
    # construction gives it, and with that construction made to raise,
    # ext_set still returns the classes those ranks solve to
    table = request.getfixturevalue(which)
    if bound == "stacks":  # [1,1] or [1,2] times k by [2,2] times m, k, m <= 4
        pairs = [
            (kp_parse(table, "+".join([x] * k)), kp_parse(table, "+".join(["[2,2]"] * m)))
            for x in ("[1,1]", "[1,2]")
            for k, m in itertools.product(range(1, 5), repeat=2)
        ]
    elif bound == "roots":  # single roots, some of dimension 2 or 3 at a source
        roots = [KostantPartition(table, (a,)) for a in range(len(table))]
        pairs = [(mu, nu) for mu, nu in itertools.product(roots, repeat=2) if ext_dim(mu, nu)]
    else:
        pairs = list(sweep_pairs(table, bound))
    calls = counting_classify(monkeypatch)
    expected = {}
    for mu, nu in pairs:
        base = list(map(int.__add__, hom_ext_vectors(mu)[0], hom_ext_vectors(nu)[0]))
        for q in fields:
            calls.clear()
            _ext_set_u.__wrapped__(mu, nu, q)
            ranks = whole_sum_ranks(mu, nu, q)
            maps, read = _connecting_maps(mu, nu, q)[1], ext_coordinates(mu, nu, q)[0]
            classes = set()
            for u in calls:
                got = ranks(u)
                assert packed_ranks(maps, q, read(u)) == got, (kp_format(mu), kp_format(nu), q, u)
                counts = tuple(h - got.get(a, 0) for a, h in enumerate(base))
                classes.add(_partition_from_counts(table, counts, dim_add(mu.total, nu.total)))
            expected[mu, nu, q] = classes
    monkeypatch.undo()

    def forbidden(*args):
        raise AssertionError("the u-route built a whole direct sum")

    assert not hasattr(extensions, "build")
    monkeypatch.setattr(reps, "build", forbidden)
    monkeypatch.setattr(grassmannian, "_assembled_basis", forbidden)
    cold()
    for (mu, nu, q), classes in expected.items():
        assert ext_set(mu, nu, fields=(q,), method="u").classes == classes
    if bound == "stacks":
        mu, nu = kp_parse(table, "+".join(["[1,1]"] * 300)), kp_parse(table, "[2,2]")
        assert names(ext_set(mu, nu, method="u").classes) == [
            "+".join(["[1,1]"] * 300 + ["[2,2]"]),
            "+".join(["[1,1]"] * 299 + ["[1,2]"]),
        ]


def on_copies(mu, nu, q, u, on_nu, first, g):
    """The flat u with the m x m matrix g acting on the m copies of one
    root, parts ``first .. first + m - 1``: (g x 1)u on the rows of those
    parts of nu (``on_nu``), u(g x 1) on the columns of those parts of mu."""
    table = mu.table
    alpha, beta = mu.total, nu.total
    parts = nu.parts if on_nu else mu.parts
    m = len(g)
    out, pos = list(u), 0
    for s, t in table.quiver.arrows:
        width, height = alpha[s - 1], beta[t - 1]
        v = (t if on_nu else s) - 1
        start = sum(table.roots[p][v] for p in parts[:first])
        d = table.roots[parts[first]][v]
        for j, l in itertools.product(range(m), range(d)):
            if on_nu:  # row (j, l) of the block is sum_k g[j][k] row (k, l)
                for col in range(width):
                    at = [pos + (start + k * d + l) * width + col for k in range(m)]
                    out[at[j]] = sum(g[j][k] * u[at[k]] for k in range(m)) % q
            else:  # column (j, l) is sum_k column (k, l) g[k][j]
                for row in range(height):
                    at = [pos + row * width + start + k * d + l for k in range(m)]
                    out[at[j]] = sum(u[at[k]] * g[k][j] for k in range(m)) % q
        pos += height * width
    return out


@pytest.mark.parametrize("which,bound,n_cases", [("t3", 4, 1062), ("t4", 3, 130)])
def test_copies_of_a_root_act_on_u_by_isomorphisms(request, which, bound, n_cases):
    # the lemma behind the u-route, on the block representation and not on
    # the connecting-map ranks: for g in GL_m acting on the m copies of a
    # root, E_{(g x 1)u} = E_u on nu's side and E_{u(g x 1)} = E_u on mu's,
    # the latter being u(h x 1)^-1 for h = g^-1
    table = request.getfixturevalue(which)
    rng = random.Random(2029)
    cases = 0
    for mu, nu in sweep_pairs(table, bound):
        n_u = hom_omega_dim(mu.total, nu.total, table.quiver)
        for on_nu, parts in ((True, nu.parts), (False, mu.parts)):
            for first, b in enumerate(parts):
                m = parts.count(b)
                if m < 2 or (first and parts[first - 1] == b):
                    continue
                for q in (2, 3):
                    g = [[rng.randrange(q) for _ in range(m)] for _ in range(m)]
                    while rank(g, q) < m:
                        g = [[rng.randrange(q) for _ in range(m)] for _ in range(m)]
                    for u in itertools.product(range(q), repeat=n_u):
                        moved = on_copies(mu, nu, q, u, on_nu, first, g)
                        expected = identify(block_rep(mu, nu, q, u), table)
                        assert identify(block_rep(mu, nu, q, moved), table) == expected, (
                            kp_format(mu), kp_format(nu), q, u, g,
                        )
                        cases += 1
    assert cases == n_cases


def test_three_simples_by_three_walk_the_subspaces_of_ext(t2, monkeypatch):
    # u-space and Ext^1 are F_5^9, a 3 x 3 matrix of coordinates on the
    # copies of either simple, and GL_3 on the copies leaves one u per
    # column space, a subspace of F_5^3: 1 + 31 + 31 + 1
    calls = counting_classify(monkeypatch)
    mu, nu = kp_parse(t2, "[1,1]+[1,1]+[1,1]"), kp_parse(t2, "[2,2]+[2,2]+[2,2]")
    classes = _ext_set_u.__wrapped__(mu, nu, 5)
    assert len(calls) == len(set(calls)) == 64
    assert names(classes) == [
        "[1,1]+[1,1]+[1,1]+[2,2]+[2,2]+[2,2]",
        "[1,1]+[1,1]+[1,2]+[2,2]+[2,2]",
        "[1,1]+[1,2]+[1,2]+[2,2]",
        "[1,2]+[1,2]+[1,2]",
    ]


@pytest.mark.parametrize(
    "which,mu,nu",
    [
        ("t2", "[1,1]+[1,1]", "[2,2]+[2,2]"),
        ("t2", "[1,1]+[1,2]", "[1,2]+[2,2]"),
        ("t3", "[1,2]", "[2,2]+[3,3]"),
        ("t3", "[1,1]+[1,2]", "[2,3]+[3,3]"),
    ],
)
def test_classify_u_sums_columns_without_overflow(request, which, mu, nu):
    # a classifier is linear in its entries: 64 copies of (c, 4) sum to
    # 256 (c, 1) = (c, 1) over GF(5), while their bytes, summed with no
    # reduction between terms, would pass 255
    table = request.getfixturevalue(which)
    mu, nu = kp_parse(table, mu), kp_parse(table, nu)
    classify = _classify_u(mu, nu, 5)
    classes = set()
    for c in range(ext_dim(mu, nu)):
        expected = classify([(c, 1)])
        assert classify([(c, 4)] * 64) == expected, (kp_format(mu), kp_format(nu), c)
        classes.add(expected)
    assert classes - {mu + nu}  # some entry alone is a non-split extension


def test_u_route_on_an_e6_pair_with_ext_14(e6, monkeypatch):
    # n_u = 99 and dim Ext^1 = 14: the orbit walk classifies 3,264 u over GF(2)
    calls = counting_classify(monkeypatch)
    mu = kp_parse(e6, "1,0,0,0,0,0 + 1,1,1,0,0,0 + 1,2,2,1,0,1 + 1,2,3,2,1,2 + 0,0,1,1,0,0")
    nu = kp_parse(
        e6,
        "1,1,1,0,0,0 + 1,1,1,1,0,0 + 1,2,2,1,0,1 + 0,1,1,1,0,0 + 0,0,1,1,0,0"
        " + 0,0,0,0,0,1 + 0,0,0,0,0,1",
    )
    assert hom_omega_dim(mu.total, nu.total, e6.quiver) == 99 and ext_dim(mu, nu) == 14
    classes = _ext_set_u.__wrapped__(mu, nu, 2)
    assert len(calls) == len(set(calls)) == 3264
    assert len(classes) == 182 and mu + nu in classes


def test_u_route_walks_mu_side_of_a_class_against_itself(t2, monkeypatch):
    # for x = [1,1]+[1,1]+[2,2], Ext^1(x, x) = F_q^2 sits on the two copies
    # of [1,1] in the quotient (2 orbits) and on the one [2,2] in the sub
    # (q + 2): mu's side is walked though mu is nu
    calls = counting_classify(monkeypatch)
    x = kp_parse(t2, "[1,1]+[1,1]+[2,2]")
    for q in (2, 3):
        calls.clear()
        assert _ext_set_u.__wrapped__(x, x, q) == _ext_set_filter(x, x, q, _hom_box(x, x, None))
        assert len(calls) == 2


def test_u_route_checks_the_ext_count(t2, monkeypatch):
    # each pair of parts' free positions of the coboundaries' echelon form
    # are checked against the closed-form ext of its roots, here 1
    s1, s2 = kp_parse(t2, "[1,1]"), kp_parse(t2, "[2,2]")
    free, coords = _pair_ext(t2, s1.parts[0], s2.parts[0], 2)
    assert len(free) == 1
    monkeypatch.setattr(extensions, "_pair_ext", lambda *args: (free * 2, coords))
    with pytest.raises(RepError, match="closed-form count"):
        _ext_set_u.__wrapped__(s1 + s1, s2, 2)


def test_connecting_maps_are_built_per_triple_of_roots(t2, cold):
    # 300 copies of [1,1] by [2,2] meet in 300 pairs of parts, all of the
    # roots [1,1] and [2,2], and only the connecting map of [1,1] is
    # nonzero: one Yoneda piece per field serves every pair
    mu, nu = kp_parse(t2, "+".join(["[1,1]"] * 300)), kp_parse(t2, "[2,2]")
    for n, q in enumerate((2, 3), 1):
        assert names(ext_set(mu, nu, fields=(q,)).classes) == [
            "+".join(["[1,1]"] * 300 + ["[2,2]"]),
            "+".join(["[1,1]"] * 299 + ["[1,2]"]),
        ]
        assert _yoneda.cache_info().currsize == n


def test_middle_terms_are_neither_an_interval_nor_the_hom_box(t3):
    # neither closed form can replace the Grassmannian scan: both hold a
    # class that is no middle term
    mu, nu = kp_parse(t3, "[1,1]"), kp_parse(t3, "[1,2]+[2,3]")
    expected = ["[1,1]+[1,2]+[2,3]", "[1,2]+[1,3]"]
    assert names(ext_set(mu, nu).classes) == expected
    assert names(ext_set(mu, nu, method=METHOD_FILTER).classes) == expected
    extra = ["[1,1]+[1,3]+[2,2]"]
    assert names(interval(generic_ext(mu, nu), mu + nu)) == sorted(expected + extra)
    assert names(_hom_box(mu, nu, None)) == sorted(expected + extra)


def test_cap_is_checked_after_a_warm_memo(t3):
    mu, nu = kp_parse(t3, "[1,2]"), kp_parse(t3, "[2,3]")
    lam, beta = mu + nu, nu.total
    point_count(lam, beta, 2)
    for method in (METHOD_U, METHOD_FILTER):
        ext_set(mu, nu, method=method)
        with pytest.raises(CapExceeded):
            ext_set(mu, nu, method=method, cap=1)
    # the count enumerates vertex 1 and 3's colour class, one state
    with pytest.raises(CapExceeded):
        point_count(lam, beta, 2, cap=0)


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


def test_ext_pairs_names_a_vector_whose_length_is_not_the_rank(t3):
    # an alpha or beta whose length is not the rank is refused by name
    # before any partition is counted (cap=0)
    lam = kp_parse(t3, "[1,3]+[2,2]")
    for alpha, beta, name in (
        ((1, 0), (0, 1, 0), r"alpha \(1, 0\) has 2 entries, not the rank 3"),
        ((1, 1, 0), (0, 1), r"beta \(0, 1\) has 2 entries, not the rank 3"),
        ((1, 1), (0, 1), r"alpha \(1, 1\) has 2 entries"),
        ((1, 1, 0, 0), (0, 1, 1, 0), r"alpha \(1, 1, 0, 0\) has 4 entries"),
    ):
        for func in (ext_pairs, generic_pairs, ext_ger, ext_min):
            with pytest.raises(PartitionError, match=name):
                func(lam, alpha, beta, cap=0)


@pytest.mark.parametrize(
    "diagram,rank_,bound,n_grass,n_pairs,n_subs",
    [
        ("A", 2, 6, 459, 519, (1404, 938)),
        ("A", 3, 5, 1271, 1255, (4390, 2340)),
        ("D", 4, 4, 1188, 1070, (3784, 2070)),
    ],
    ids=["A2-6", "A3-5", "D4-4"],
)
def test_realized_pairs_match_the_walk(diagram, rank_, bound, n_grass, n_pairs, n_subs):
    # the query route against the Grassmannian walk on every (lam, beta)
    # with lam of weight at most the bound and 0 <= beta <= dim lam: the
    # walk's pairs unioned over GF(2) and GF(3), and its generic pairs,
    # component labels and minimal pairs filtered here from them; and
    # stratum_dim, which refuses every nu of dimension beta that is no
    # sub class of the walk's pairs over its field
    table = positive_roots(standard_quiver(diagram, rank_))
    grassmannians = pairs = checks = subs = 0
    for g in itertools.product(range(bound + 1), repeat=rank_):
        for lam in kp_enumerate(table, g) if 0 < sum(g) <= bound else ():
            for beta in itertools.product(*(range(d + 1) for d in g)):
                alpha = dim_sub(g, beta)
                walked = {q: strata(lam, beta, q).pairs() for q in (2, 3)}
                realized = walked[2] | walked[3]
                generic = {
                    (m, n)
                    for m, n in realized
                    if not any((m2 == m and lt(n2, n)) or (n2 == n and lt(m2, m))
                               for m2, n2 in realized)
                }
                labels = {
                    (m, n) for m, n in generic if hom_dim(n, lam) == hom_dim(n, n) + hom_dim(n, m)
                }
                minimal = {
                    (m, n)
                    for m, n in realized
                    if not any((m2, n2) != (m, n) and leq(m2, m) and leq(n2, n)
                               for m2, n2 in realized)
                }
                where = (kp_format(lam), beta)
                assert ext_pairs(lam, alpha, beta) == realized, where
                assert generic_pairs(lam, alpha, beta) == generic, where
                assert ext_ger(lam, alpha, beta) == labels, where
                assert ext_min(lam, alpha, beta) == minimal, where
                for nu, q in itertools.product(kp_enumerate(table, beta), (2, 3)):
                    if any(n == nu for _, n in walked[q]):
                        dim = hom_dim(nu, lam) - hom_dim(nu, nu)
                        assert stratum_dim(lam, nu, q=q) == dim, (*where, kp_format(nu), q)
                        subs += 1
                    else:
                        with pytest.raises(PartitionError, match="not realized"):
                            stratum_dim(lam, nu, q=q)
                    checks += 1
                grassmannians += 1
                pairs += len(realized)
    assert (grassmannians, pairs, (checks, subs)) == (n_grass, n_pairs, n_subs)


STATE_CLASS = "[1,1]+[1,1]+[1,1]+[1,2]+[1,2]+[1,2]+[2,2]+[2,2]"


def test_realized_pairs_walk_no_grassmannian(t2, monkeypatch, cold):
    # walking the Grassmannian of beta = 3,3 takes 40,994,800 states over
    # GF(3); each pair is asked of ext_set instead
    def walked(*args, **kwargs):
        raise AssertionError("a Grassmannian was walked")

    monkeypatch.setattr(grassmannian, "subreps", walked)
    monkeypatch.setattr(grassmannian, "_strata", walked)
    lam = kp_parse(t2, STATE_CLASS)
    assert len(ext_pairs(lam, (3, 2), (3, 3))) == 9
    nu = kp_parse(t2, "[1,2]+[1,2]+[1,2]")
    assert stratum_dim(lam, nu) == stratum_dim(lam, nu, q=3) == 9
    assert len(generic_pairs(lam, (3, 2), (3, 3))) == 3
    assert pair_names(ext_ger(lam, (3, 2), (3, 3))) == [
        ("[1,1]+[1,1]+[1,1]+[2,2]+[2,2]", "[1,2]+[1,2]+[1,2]"),
        ("[1,1]+[1,1]+[1,2]+[2,2]", "[1,1]+[1,2]+[1,2]+[2,2]"),
        ("[1,1]+[1,2]+[1,2]", "[1,1]+[1,1]+[1,2]+[2,2]+[2,2]"),
    ]
    assert pair_names(ext_min(lam, (2, 3), (4, 2))) == [
        ("[1,1]+[1,2]+[2,2]+[2,2]", "[1,1]+[1,1]+[1,2]+[1,2]"),
        ("[1,2]+[1,2]+[2,2]", "[1,1]+[1,1]+[1,1]+[1,2]+[2,2]"),
    ]


def test_realized_pairs_cap_counts_partitions_then_queries(t2, monkeypatch):
    # alpha = 3,2 has 3 Kostant partitions and beta = 3,3 has 4; the 9
    # queries in the hom box classify 40 u over GF(2) and 55 over GF(3),
    # and all of it is counted before any query runs, also when
    # stratum_dim asks them over GF(3) for a sub class of dimension 3,3
    asked = []

    def counted(*args, **kwargs):
        asked.append(args)
        return ext_set(*args, **kwargs)

    monkeypatch.setattr(extensions, "ext_set", counted)
    lam = kp_parse(t2, STATE_CLASS)
    nu = kp_parse(t2, "[1,2]+[1,2]+[1,2]")
    for cap, needed, what in (
        (2, 3, "Kostant partition"), (3, 4, "Kostant partition"), (54, 55, "realized pairs")
    ):
        for call in (
            lambda: ext_pairs(lam, (3, 2), (3, 3), cap=cap),
            lambda: stratum_dim(lam, nu, q=3, cap=cap),
        ):
            with pytest.raises(CapExceeded) as exc:
                call()
            assert exc.value.needed == needed and what in str(exc.value)
    assert asked == []
    # Hom([1,1], [1,2]) = 0, so the hom box leaves no query for sub [1,1]
    assert ext_pairs(kp_parse(t2, "[1,2]"), (0, 1), (1, 0)) == frozenset() and asked == []
    assert len(ext_pairs(lam, (3, 2), (3, 3), cap=55)) == 9 and len(asked) == 9
    assert stratum_dim(lam, nu, q=3, cap=55) == 9 and len(asked) == 18


def test_ext_pairs_walks_each_side_in_its_hom_box(cold):
    # dim alpha has 3,288 Kostant partitions and dim beta 354, and none of
    # either lies in lambda's hom box, so no pair is formed
    e6 = positive_roots(standard_quiver("E", 6))
    lam = kp_parse(e6, "1,1,2,2,1,1 + 1,2,2,2,1,1 + 0,1,1,1,1,0 + 1,1,1,0,0,1")
    beta = (1, 2, 3, 2, 1, 1)
    start = time.perf_counter()
    assert ext_pairs(lam, dim_sub(lam.total, beta), beta) == frozenset()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"ext_pairs took {elapsed:.2f}s (budget 1s)"


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


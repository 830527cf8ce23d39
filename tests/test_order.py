"""Degeneration order via hom vectors, checked against the segment criterion."""

import itertools
from operator import le

import pytest

from quiverlab import (
    CapExceeded,
    METHOD_FILTER,
    dim_leq,
    dim_sub,
    ext_set,
    hom_vector,
    interval,
    is_rigid,
    kp_enumerate,
    kp_format,
    kp_parse,
    leq,
    lt,
    positive_roots,
    standard_quiver,
    typeA_leq,
)
from quiverlab.homs import hom_ext_vectors
from quiverlab.order import _hom_bounded, _lower_set, _walk_rows
from quiverlab.quiver import _kp_walk


def test_a2_weight_two_chain(t2):
    generic = kp_parse(t2, "[1,2]")
    split = kp_parse(t2, "[1,1]+[2,2]")
    assert leq(generic, split)
    assert lt(generic, split)
    assert not leq(split, generic)
    assert leq(generic, generic) and not lt(generic, generic)


def test_split_class_is_maximum(t3):
    for gamma in ((1, 1, 0), (1, 1, 1), (1, 2, 1)):
        kps = kp_enumerate(t3, gamma)
        split = max(kps, key=lambda k: hom_vector(k))
        # the class made of simple roots dominates everything
        semisimple = kp_parse(
            t3, "+".join(f"[{v},{v}]" for v in (1, 2, 3) for _ in range(gamma[v - 1]))
        )
        assert all(leq(x, semisimple) for x in kps)
        assert split == semisimple


def test_rigid_class_is_minimum(t3):
    for gamma in ((1, 1, 0), (1, 1, 1), (1, 2, 1), (2, 2, 1)):
        kps = kp_enumerate(t3, gamma)
        rigids = [x for x in kps if is_rigid(x)]
        assert len(rigids) == 1  # unique dense class per dimension vector
        # and the unique minimal element: nothing lies strictly below it
        minimal = [x for x in kps if not any(lt(y, x) for y in kps)]
        assert minimal == rigids
        assert all(leq(rigids[0], x) for x in kps)


def test_hom_vector_refines_order(t3):
    # nested segments carry no extensions, so [1,3]+[2,2] is the rigid
    # minimum of weight (1,2,1) and sits below the linked pair
    assert leq(kp_parse(t3, "[1,3]+[2,2]"), kp_parse(t3, "[1,2]+[2,3]"))
    # hand-checked incomparable pair: each has a segment count the other lacks
    x = kp_parse(t3, "[1,2]+[2,2]+[3,3]")
    y = kp_parse(t3, "[1,1]+[2,2]+[2,3]")
    assert not leq(x, y) and not leq(y, x)


def test_matches_segment_criterion_exhaustively(t3):
    for gamma in itertools.product(range(5), repeat=3):
        if not 0 < sum(gamma) <= 4:
            continue
        kps = kp_enumerate(t3, gamma)
        for x in kps:
            for y in kps:
                assert leq(x, y) == typeA_leq(x, y), (kp_format(x), kp_format(y))


def test_interval(t3):
    low = kp_parse(t3, "[1,2]+[2,3]")
    high = kp_parse(t3, "[1,1]+[2,2]+[2,2]+[3,3]")
    names = sorted(kp_format(k) for k in interval(low, high))
    assert names == [
        "[1,1]+[2,2]+[2,2]+[3,3]",
        "[1,1]+[2,2]+[2,3]",
        "[1,2]+[2,2]+[3,3]",
        "[1,2]+[2,3]",
    ]
    assert interval(low, low) == (low,)


def test_interval_counts_against_the_cap_before_listing(t3):
    # the lower set of the semisimple class is all 5 Kostant partitions of
    # (1,2,1), one walk node each: a cap of 4 stops the walk before any z is
    # listed, and kp_enumerate is not called at all
    low = kp_parse(t3, "[1,2]+[2,3]")
    high = kp_parse(t3, "[1,1]+[2,2]+[2,2]+[3,3]")
    before = kp_enumerate.cache_info()
    with pytest.raises(CapExceeded):
        interval(low, high, cap=4)
    after = kp_enumerate.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert interval(low, high, cap=5) == interval(low, high, cap=None) == interval(low, high)


def test_cover_relations_weight_three(t3):
    elems = kp_enumerate(t3, (1, 1, 1))
    covers = [
        (x, y)
        for x in elems
        for y in elems
        if lt(x, y) and not any(lt(x, z) and lt(z, y) for z in elems)
    ]
    named = sorted((kp_format(a), kp_format(b)) for a, b in covers)
    # chain [1,3] < [1,2]+[3,3] , [1,1]+[2,3] < split, no diagonal edge
    assert named == [
        ("[1,1]+[2,3]", "[1,1]+[2,2]+[3,3]"),
        ("[1,2]+[3,3]", "[1,1]+[2,2]+[3,3]"),
        ("[1,3]", "[1,1]+[2,3]"),
        ("[1,3]", "[1,2]+[3,3]"),
    ]


# ------------------------------------------------------------ the bounded walk

def test_hom_bounded_walks_are_the_filtered_enumeration(t3, t4, e6):
    # every class x of A3 <= 5, D4 <= 4 and E6 <= 3 bounds a walk on each
    # side, [a, z] <= [a, x] and [z, a] <= [x, a], in dim x and in dim x
    # less each simple root it holds, as ext_pairs bounds its subs and
    # quotients by lambda; in dim x the into side is the lower set of x
    walks = 0
    for table, max_total in ((t3, 5), (t4, 4), (e6, 3)):
        rank = table.quiver.rank
        simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        for gamma in itertools.product(range(max_total + 1), repeat=rank):
            if not 0 < sum(gamma) <= max_total:
                continue
            for x in kp_enumerate(table, gamma):
                into, _, out_of = hom_ext_vectors(x)
                below = tuple(z for z in kp_enumerate(table, gamma) if leq(z, x))
                assert _lower_set(x, None) == below
                smaller = [dim_sub(gamma, s) for s in simples if dim_leq(s, gamma)]
                for g in (gamma, *smaller):
                    for side, bound in ((False, into), (True, out_of)):
                        expected = tuple(
                            z
                            for z in kp_enumerate(table, g)
                            if all(map(le, hom_ext_vectors(z)[2 if side else 0], bound))
                        )
                        assert _hom_bounded(table, g, bound, side, None) == expected, (x, g)
                        walks += 1
    assert walks == 2498


def test_the_euler_form_cut_walks_the_e7_lower_set_in_35_nodes():
    # mu has 581,729 Kostant partitions, of which 5 lie below it; the walk
    # makes 35 nodes, and 2,350 when it cuts on [a, partial] alone, without
    # the Euler form's bound on what the remaining vector adds
    e7 = positive_roots(standard_quiver("E", 7))
    mu = kp_parse(e7, "1,2,3,2,1,0,2 + 1,2,3,3,2,1,2")
    assert len(_lower_set(mu, 35)) == 5
    with pytest.raises(CapExceeded) as exc:
        _lower_set(mu, 34)
    assert exc.value.needed == 35
    hom_only = (*hom_ext_vectors(mu)[0], *[10**9] * len(e7))
    with pytest.raises(CapExceeded) as exc:
        _kp_walk(e7, mu.total, _walk_rows(e7)[0], hom_only, 2349)
    assert exc.value.needed == 2350


def test_a_refusal_does_not_depend_on_the_memo(t3, cold):
    # each walk is first run with no cap, which memoizes its result; the
    # same walk with a small cap is still refused
    low = kp_parse(t3, "[1,2]+[2,3]")
    high = kp_parse(t3, "[1,1]+[2,2]+[2,2]+[3,3]")
    assert len(interval(low, high, cap=None)) == 4
    with pytest.raises(CapExceeded):
        interval(low, high, cap=4)
    assert len(kp_enumerate(t3, (1, 2, 1))) == 5
    with pytest.raises(CapExceeded):
        _kp_walk(t3, (1, 2, 1), cap=4)
    mu = kp_parse(t3, "[1,1]+[2,2]+[3,3]")
    assert len(ext_set(mu, mu, method=METHOD_FILTER, cap=None).classes) == 4
    with pytest.raises(CapExceeded, match="counting stopped past the cap"):
        ext_set(mu, mu, method=METHOD_FILTER, cap=9)

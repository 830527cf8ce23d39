"""Degeneration order via hom vectors, checked against the segment criterion."""

import itertools

import pytest

from quiverlab import (
    CapExceeded,
    hom_vector,
    interval,
    is_rigid,
    kp_enumerate,
    kp_format,
    kp_parse,
    leq,
    lt,
    typeA_leq,
)


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
    # (1,2,1) has 5 Kostant partitions: a cap of 4 stops the count before
    # kp_enumerate is called at all
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

"""Quivers, adapted words, root enumerations, Kostant partitions."""

import copy
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
import time

import pytest

import quiverlab
from quiverlab import (
    DegreeReport,
    DegreeRow,
    DynkinQuiver,
    ExtSetResult,
    GradedDimVector,
    HeadSocleBounds,
    InequalityRow,
    KostantPartition,
    LengthTwoReport,
    QuiverError,
    PartitionError,
    Rep,
    RootTable,
    SimplicityVerdict,
    SoclePrediction,
    StrataReport,
    StratumEntry,
    SupportPairResult,
    TwoSidedSupportPairResult,
    adapted_reduced_word,
    build_quiver,
    coxeter_number,
    dim_add,
    dim_leq,
    dim_sub,
    euler_form,
    ext_set,
    format_quiver_spec,
    head_socle_bounds,
    injective_root,
    interval,
    kp_enumerate,
    kp_format,
    kp_from_segments,
    kp_from_vectors,
    kp_parse,
    kp_single,
    kp_zero,
    parse_dim_vector,
    parse_quiver_spec,
    positive_root_count,
    positive_roots,
    root_segment,
    segment_root,
    segments_of,
    simple_reflection,
    standard_quiver,
    strata,
    weight,
)
from quiverlab.linalg import CapExceeded
from quiverlab.quiver import _kp_walk


# ---------------------------------------------------------------- shape

def test_root_counts_by_type():
    assert positive_root_count("A", 1) == 1
    assert positive_root_count("A", 2) == 3
    assert positive_root_count("A", 3) == 6
    assert positive_root_count("A", 5) == 15
    assert positive_root_count("D", 4) == 12
    assert positive_root_count("D", 5) == 20
    assert positive_root_count("E", 6) == 36
    assert positive_root_count("E", 7) == 63
    assert positive_root_count("E", 8) == 120


def test_coxeter_numbers():
    assert coxeter_number("A", 2) == 3
    assert coxeter_number("A", 3) == 4
    assert coxeter_number("D", 4) == 6
    assert coxeter_number("D", 5) == 8
    assert coxeter_number("E", 6) == 12
    assert coxeter_number("E", 7) == 18
    assert coxeter_number("E", 8) == 30


def test_standard_quiver_arrows_ascend(a3, d4):
    assert a3.arrows == ((1, 2), (2, 3))
    assert d4.arrows == ((1, 2), (2, 3), (2, 4))
    for q in (a3, d4):
        assert all(s < t for s, t in q.arrows)


def test_build_quiver_renumbers_topologically():
    # A3 chain labeled 3 -> 1 -> 2 gets renumbered to 1 -> 2 -> 3
    q = build_quiver("A", 3, [(3, 1), (1, 2)])
    assert q.arrows == ((1, 2), (2, 3))
    assert q.renumbering == (3, 1, 2)  # old labels in new order
    rng = random.Random(13)
    for dt, rank in [("A", 1), ("A", 5), ("D", 4), ("D", 6), ("E", 6), ("E", 7), ("E", 8)]:
        for _ in range(6):
            # relabel the standard diagram and orient each edge at random
            labels = rng.sample(range(1, rank + 1), rank)
            spec = []
            for s, t in standard_quiver(dt, rank).arrows:
                s, t = labels[s - 1], labels[t - 1]
                spec.append((t, s) if rng.random() < 0.5 else (s, t))
            q = build_quiver(dt, rank, spec)
            assert all(s < t for s, t in q.arrows)
            assert sorted(q.renumbering) == list(q.vertices)
            new_of_old = {old: new for new, old in enumerate(q.renumbering, start=1)}
            assert tuple(sorted((new_of_old[s], new_of_old[t]) for s, t in spec)) == q.arrows
            assert len(positive_roots(q)) == positive_root_count(dt, rank)


# one input per message of build_quiver, then inputs with two faults: the
# check that comes first in build_quiver reports
BAD_SHAPES = [
    ("A", 2, [(1, 3)], "arrow (1,3) uses labels outside 1..2"),
    ("A", 3, [(1, 1), (2, 3)], "loop at vertex 1"),
    ("A", 3, [(1, 2), (1, 2)], "repeated edge between 1 and 2"),
    ("X", 2, [(1, 2)], "unknown diagram type 'X'"),
    ("A", 0, [], "type A needs rank >= 1"),
    ("D", 3, [(1, 2), (2, 3)], "type D needs rank >= 4"),
    ("E", 9, [(k, k + 1) for k in range(1, 9)], "type E needs rank in {6, 7, 8}"),
    ("A", 3, [(1, 2), (2, 3), (3, 1)], "expected 2 edges for a rank-3 diagram, got 3"),
    ("A", 4, [(1, 2), (3, 4)], "expected 3 edges for a rank-4 diagram, got 2"),
    ("A", 4, [(2, 3), (3, 4), (2, 4)], "diagram is not connected"),
    ("D", 5, [(1, 2), (1, 3), (1, 4), (1, 5)], "a vertex of degree > 3 cannot occur"),
    ("A", 4, [(1, 2), (1, 3), (1, 4)], "type A diagram must be a path"),
    ("D", 4, [(1, 2), (2, 3), (3, 4)], "type D diagram needs exactly one branch vertex"),
    (
        "E", 8, [(1, 2), (1, 3), (1, 4), (4, 5), (5, 6), (6, 7), (6, 8)],
        "type E diagram needs exactly one branch vertex",
    ),
    (
        "D", 6, [(1, 2), (1, 3), (3, 4), (1, 5), (5, 6)],
        "leg lengths [1, 2, 2] do not match type D6",
    ),
    (
        "E", 6, [(1, 2), (1, 3), (1, 4), (4, 5), (5, 6)],
        "leg lengths [1, 1, 3] do not match type E6",
    ),
    ("A", 3, [(2, 2), (0, 1)], "loop at vertex 2"),
    ("A", 2, [(1, 2), (3, 3)], "arrow (3,3) uses labels outside 1..2"),
    ("A", 3, [(1, 2), (1, 2), (3, 3)], "loop at vertex 3"),
    ("X", 3, [(1, 2), (2, 1)], "repeated edge between 2 and 1"),
    ("X", 0, [], "unknown diagram type 'X'"),
    ("D", 3, [], "type D needs rank >= 4"),
    ("D", 6, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3)], "diagram is not connected"),
    ("A", 5, [(1, 2), (1, 3), (1, 4), (1, 5)], "a vertex of degree > 3 cannot occur"),
]


def test_build_quiver_rejects_bad_shapes():
    for dt, rank, spec, message in BAD_SHAPES:
        with pytest.raises(QuiverError, match="^" + re.escape(message)):
            build_quiver(dt, rank, spec)


def test_spec_text_roundtrip(a3):
    text = format_quiver_spec(a3)
    assert parse_quiver_spec(text) == a3
    # comments/blank lines are tolerated
    q = parse_quiver_spec("# demo\ntype A 2\n\narrow 1 2  # edge\n")
    assert q == standard_quiver("A", 2)
    with pytest.raises(QuiverError):
        parse_quiver_spec("arrow 1 2\n")  # missing type line


# ---------------------------------------------------------------- words

def test_a2_canonical_word_and_roots(t2):
    assert t2.word == (1, 2, 1)
    assert t2.roots == ((1, 0), (1, 1), (0, 1))


def test_a3_canonical_word_and_segment_order(t3):
    assert t3.word == (1, 2, 3, 1, 2, 1)
    # enumeration order = lexicographic on segments
    assert t3.roots == (
        (1, 0, 0),
        (1, 1, 0),
        (1, 1, 1),
        (0, 1, 0),
        (0, 1, 1),
        (0, 0, 1),
    )


def test_a3_alternate_word(a3):
    assert adapted_reduced_word(a3, variant="alternate") == (1, 2, 1, 3, 2, 1)


@pytest.mark.parametrize("dt,rank", [("A", 3), ("A", 4), ("D", 4), ("D", 5), ("E", 6)])
def test_words_enumerate_all_roots_once(dt, rank):
    quiver = standard_quiver(dt, rank)
    for variant in ("canonical", "alternate"):
        table = positive_roots(quiver, variant)
        n = positive_root_count(dt, rank)
        assert len(table.roots) == n
        assert len(set(table.roots)) == n
        assert all(all(c >= 0 for c in r) for r in table.roots)


@pytest.mark.parametrize("dt,rank", [("A", 3), ("D", 4)])
def test_variants_differ(dt, rank):
    quiver = standard_quiver(dt, rank)
    assert adapted_reduced_word(quiver) != adapted_reduced_word(quiver, variant="alternate")


@pytest.mark.parametrize("variant", ["canonical", "alternate"])
@pytest.mark.parametrize(
    "dt,rank",
    [("A", n) for n in range(2, 8)] + [("D", n) for n in range(4, 8)]
    + [("E", n) for n in (6, 7, 8)],
)
def test_adapted_words_on_random_orientations(dt, rank, variant):
    rng = random.Random(f"{dt}{rank}")
    edges = standard_quiver(dt, rank).arrows
    for _ in range(4):
        quiver = build_quiver(
            dt, rank, [(t, s) if rng.random() < 0.5 else (s, t) for s, t in edges]
        )
        word = adapted_reduced_word(quiver, variant)
        arrows = set(quiver.arrows)
        for i in word:
            # each letter is a source of the orientation reflected so far
            assert all(t != i for _, t in arrows), (quiver, word)
            arrows = {(t, s) if i in (s, t) else (s, t) for s, t in arrows}
        table = RootTable.from_word(quiver, word)
        assert len(table) == positive_root_count(dt, rank)


def test_from_word_rejects_words_that_are_not_adapted(a2):
    # reduced, but its first letter is the sink of 1 -> 2; accepted, it
    # gave a hom table with a negative entry
    with pytest.raises(QuiverError, match="not adapted"):
        RootTable.from_word(a2, (2, 1, 2))
    with pytest.raises(QuiverError, match="not adapted"):
        RootTable.from_word(a2, (1, 2, 3))  # no vertex 3


def test_simple_reflection(a2):
    assert simple_reflection(a2, 1, (1, 0)) == (-1, 0)
    assert simple_reflection(a2, 1, (0, 1)) == (1, 1)
    assert simple_reflection(a2, 2, (1, 1)) == (1, 0)


def test_projective_and_injective_roots(a3, d4):
    # arrows ascend, so I_i collects the paths into i
    assert injective_root(a3, 1) == (1, 0, 0)
    assert injective_root(a3, 3) == (1, 1, 1)
    assert injective_root(d4, 4) == (1, 1, 0, 1)


# ---------------------------------------------------------------- forms

def test_euler_form_a2(a2):
    # <a,b> = sum a_i b_i - sum over arrows a_s b_t
    assert euler_form(a2, (1, 0), (0, 1)) == -1
    assert euler_form(a2, (0, 1), (1, 0)) == 0
    assert euler_form(a2, (1, 1), (1, 1)) == 1
    # the symmetrized form is the Cartan pairing: -1 across the edge
    assert euler_form(a2, (1, 0), (0, 1)) + euler_form(a2, (0, 1), (1, 0)) == -1


def test_euler_form_checks_lengths_against_the_rank(a2):
    for alpha, beta in (
        ((1, 0, 0), (0, 1)),
        ((1, 0), (0, 1, 0)),
        ((1, 0, 0), (0, 1, 0)),
        ((1,), (1,)),
    ):
        with pytest.raises(QuiverError, match="does not match the rank"):
            euler_form(a2, alpha, beta)


# ---------------------------------------------------------------- partitions

def test_dim_helpers():
    assert dim_add((1, 2), (3, 0)) == (4, 2)
    assert weight((1, 2, 3)) == 6
    assert parse_dim_vector("1,2,1", 3) == (1, 2, 1)
    assert parse_dim_vector("0, 1, 1", 3) == (0, 1, 1)
    with pytest.raises(PartitionError):
        parse_dim_vector("1,2", 3)
    with pytest.raises(PartitionError):
        parse_dim_vector("1,-2,1", 3)


@pytest.mark.parametrize("helper", [dim_add, dim_sub, dim_leq])
def test_dim_helpers_refuse_unequal_lengths(helper):
    for a, b in (((1, 2), (3, 0, 0)), ((1, 2, 0), (3, 0)), ((), (1,))):
        with pytest.raises(ValueError, match="lengths"):
            helper(a, b)
    assert dim_sub((4, 2), (3, 0)) == (1, 2)
    assert dim_leq((1, 2), (1, 3)) and not dim_leq((1, 2), (0, 3))


def test_kp_parse_format_roundtrip(t3):
    for text in ("[1,2]+[2,3]", "[1,1]+[2,2]", "[1,1]+[1,1]", "[1,3]", "0"):
        kp = kp_parse(t3, text)
        assert kp_parse(t3, kp_format(kp)) == kp
    assert kp_format(kp_parse(t3, "[2,2]+[1,1]")) == "[1,1]+[2,2]"  # sorted
    assert kp_format(kp_zero(t3)) == "0"


def test_kp_parse_coordinates(t3, t4):
    # coordinate syntax names a root by its dimension vector
    assert kp_parse(t3, "1,1,0 + 0,1,1") == kp_parse(t3, "[1,2]+[2,3]")
    # the only syntax available outside linear type A, and format inverts it
    y = kp_parse(t4, "1,1,1,1 + 0,1,0,0")
    assert kp_format(y) == "0,1,0,0 + 1,1,1,1"
    assert kp_parse(t4, kp_format(y)) == y
    with pytest.raises(PartitionError):
        kp_parse(t3, "1,0,1")  # not a root
    with pytest.raises(PartitionError):
        kp_parse(t3, "[3,1]")  # backwards segment
    with pytest.raises(PartitionError):
        kp_parse(t3, "[1,4]")  # out of range
    with pytest.raises(PartitionError):
        kp_parse(t4, "[1,2]")  # segment syntax needs the linear A quiver


def test_segments(a3, t3):
    assert segment_root(a3, 1, 2) == (1, 1, 0)
    assert root_segment((0, 1, 1)) == (2, 3)
    kp = kp_from_segments(t3, [(1, 2), (2, 3)])
    assert segments_of(kp) == ((1, 2), (2, 3))
    assert kp == kp_from_vectors(t3, [(1, 1, 0), (0, 1, 1)])


def test_kp_totals_and_addition(t3):
    x = kp_parse(t3, "[1,2]")
    y = kp_parse(t3, "[2,3]")
    assert x.total == (1, 1, 0)
    assert (x + y).total == (1, 2, 1)
    assert (x + y) == kp_parse(t3, "[1,2]+[2,3]")
    assert kp_single(t3, (1, 1, 1)) == kp_parse(t3, "[1,3]")


def test_kp_enumerate_counts(t3):
    # weight-2 multiset: gamma (1,1,0) splits as [1,2] or [1,1]+[2,2]
    assert len(kp_enumerate(t3, (1, 1, 0))) == 2
    assert len(kp_enumerate(t3, (1, 1, 1))) == 4
    assert len(kp_enumerate(t3, (0, 0, 0))) == 1
    for gamma in ((1, 1, 0), (1, 1, 1), (1, 2, 1)):
        for kp in kp_enumerate(t3, gamma):
            assert kp.total == gamma
    with pytest.raises(PartitionError):
        kp_enumerate(t3, (1, 1))


def partition_count(roots, gamma):
    """Kostant partitions of gamma counted by a knapsack over all vectors
    <= gamma, independently of the partition walk."""
    ways = dict.fromkeys(itertools.product(*(range(g + 1) for g in gamma)), 0)
    ways[(0,) * len(gamma)] = 1
    for root in roots:
        for v in ways:  # lexicographic, so v - root comes first
            w = tuple(a - b for a, b in zip(v, root))
            if min(w) >= 0:
                ways[v] += ways[w]
    return ways[tuple(gamma)]


def test_kp_enumerate_order_and_node_count(t3, t4):
    for table, max_total in ((t3, 5), (t4, 4)):
        rank = table.quiver.rank
        for gamma in itertools.product(range(max_total + 1), repeat=rank):
            if sum(gamma) > max_total:
                continue
            classes = kp_enumerate(table, gamma)
            parts = [kp.parts for kp in classes]
            # distinct, and ordered by parts from the largest down
            assert parts == sorted(set(parts), reverse=True)
            assert len(classes) == partition_count(table.roots, gamma)
            # with no bound the walk makes one node per partition
            assert _kp_walk(table, gamma, cap=len(classes)) == classes
            with pytest.raises(CapExceeded) as exc:
                _kp_walk(table, gamma, cap=len(classes) - 1)
            assert exc.value.needed == len(classes)


def partitions_by_recursion(roots, gamma, start=0):
    """Every multiset of roots[start:] summing to gamma, as non-increasing
    root indices: the root of the next smallest part is chosen first, then
    the rest is a partition of gamma minus that root."""
    if not any(gamma):
        yield ()
    for k in range(start, len(roots)):
        rest = tuple(g - r for g, r in zip(gamma, roots[k]))
        if min(rest) >= 0:
            for tail in partitions_by_recursion(roots, rest, k):
                yield tail + (k,)


def test_kp_walk_matches_a_recursion_over_the_roots(t3, t4, e6):
    for table, max_total, extra in (
        (t3, 5, [(2, 4, 2)]),
        (t4, 4, [(1, 2, 1, 1), (2, 3, 2, 1)]),
        (e6, 3, [(1, 2, 2, 3, 2, 1)]),
    ):
        rank = table.quiver.rank
        vectors = [
            gamma
            for gamma in itertools.product(range(max_total + 1), repeat=rank)
            if sum(gamma) <= max_total
        ] + extra
        for gamma in vectors:
            expected = sorted(partitions_by_recursion(table.roots, gamma), reverse=True)
            assert [kp.parts for kp in kp_enumerate(table, gamma)] == expected, gamma
            assert len(_kp_walk(table, gamma, cap=len(expected))) == len(expected), gamma


def test_kp_walk_stops_past_its_cap():
    e8 = positive_roots(standard_quiver("E", 8))
    # far too many partitions to list, and entries far too large to spell
    # out: the walk refuses as soon as its node count passes the cap
    start = time.perf_counter()
    for gamma, cap in (((6,) * 8, 100), ((10**9,) * 8, 1000)):
        with pytest.raises(CapExceeded, match="counting stopped past the cap") as exc:
            _kp_walk(e8, gamma, cap=cap)
        assert exc.value.needed == cap + 1
    assert time.perf_counter() - start < 0.5
    # no non-simple root fits, so the one node is the one partition
    assert _kp_walk(e8, (5,) + (0,) * 7, cap=1) == (
        KostantPartition(e8, (e8.simple_root_index(1),) * 5),
    )


def test_caps_past_sys_maxsize_do_not_stop_the_count(t2, t3):
    # a cap is compared with the node count, however large it is
    for cap in (2**70, sys.maxsize + 1):
        assert len(_kp_walk(t3, (1, 2, 1), cap=cap)) == 5
    low, high = kp_parse(t3, "[1,3]+[2,2]"), kp_parse(t3, "[1,1]+[2,2]+[2,2]+[3,3]")
    assert len(interval(low, high, cap=2**70)) == 5
    mu, nu = kp_parse(t2, "[1,1]"), kp_parse(t2, "[2,2]")
    assert len(ext_set(mu, nu, method="subrep", cap=2**70).classes) == 2
    assert head_socle_bounds(mu, nu, cap=2**70) == head_socle_bounds(mu, nu)


def test_partitions_and_tables_hash_by_value(t3):
    x = kp_parse(t3, "[1,2]+[2,3]")
    y = KostantPartition(t3, tuple(reversed(x.parts)))
    assert x == y and hash(x) == hash(y) and x.total == (1, 2, 1)
    table = RootTable.from_word(t3.quiver, t3.word)
    assert table == t3 and table is t3 and hash(table) == hash(t3)
    for obj in (x, t3):
        clone = pickle.loads(pickle.dumps(obj))
        assert clone == obj and hash(clone) == hash(obj) and {obj: 1}[clone] == 1
        # interned: the round-trip returns the same object, and its
        # identity hash is the one every memo holds
        assert clone is obj and pickle.loads(pickle.dumps(clone)) is obj
    for obj in (t3.quiver, GradedDimVector(((1, 0, 1),)), strata(x, (0, 1, 1), 2)):
        clone = pickle.loads(pickle.dumps(obj))
        assert clone == obj and hash(clone) == hash(obj)
    rep = Rep(t3.quiver, 2, (1, 1, 0), (((1,),), ()))
    clone = pickle.loads(pickle.dumps(rep))
    # a representation compares by identity, so compare its fields
    assert vars(clone) == vars(rep) and clone != rep


def test_equal_values_are_one_object(t3):
    # quivers, root tables and partitions are interned, so equal values
    # are one object and compare and hash by identity
    assert KostantPartition(t3, (2, 1)) is KostantPartition(t3, (1, 2))
    assert KostantPartition(t3, [1, 2, 1]) is KostantPartition(table=t3, parts=(2, 1, 1))
    a3 = t3.quiver
    assert RootTable.from_word(a3, positive_roots(a3).word) is positive_roots(a3)
    zigzag = [(2, 1), (2, 3), (4, 3)]
    assert build_quiver("A", 4, zigzag) is build_quiver("A", 4, reversed(zigzag))
    assert build_quiver("A", 3, [(1, 2), (2, 3)]) is a3
    for obj in (a3, t3, kp_parse(t3, "[1,2]+[2,3]"), kp_zero(t3)):
        assert pickle.loads(pickle.dumps(obj)) is obj
        assert copy.copy(obj) is obj and copy.deepcopy(obj) is obj
    # a pickle written by another process loads as this process's object
    script = (
        "import pickle, sys\n"
        "from quiverlab import kp_parse, positive_roots, standard_quiver\n"
        "t3 = positive_roots(standard_quiver('A', 3))\n"
        "sys.stdout.buffer.write(pickle.dumps((t3, kp_parse(t3, '[1,2]+[2,3]'))))\n"
    )
    src = os.path.dirname(os.path.dirname(quiverlab.__file__))
    paths = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=paths, PYTHONHASHSEED="1"),
    )
    assert proc.returncode == 0, proc.stderr
    table, x = pickle.loads(proc.stdout)
    assert table is t3 and x is kp_parse(t3, "[1,2]+[2,3]")
    # an invalid value raises as before
    with pytest.raises(PartitionError, match="out of range"):
        KostantPartition(t3, (len(t3),))
    with pytest.raises(QuiverError):
        build_quiver("A", 4, zigzag[:2])


# the records with one object per value
INTERNED = {DynkinQuiver, RootTable, KostantPartition}

RECORDS = [
    DynkinQuiver, RootTable, KostantPartition, Rep, GradedDimVector,
    StratumEntry, StrataReport, ExtSetResult, SupportPairResult,
    TwoSidedSupportPairResult, InequalityRow, SimplicityVerdict, SoclePrediction,
    LengthTwoReport, HeadSocleBounds, DegreeRow, DegreeReport,
]


def record_fields(t2):
    """The field values of one small instance of each record class."""
    a2 = t2.quiver
    mu, nu, lam = (kp_parse(t2, text) for text in ("[1,1]", "[2,2]", "[1,2]"))
    entry, one_sided = (mu, nu, 1, 0), (False, lam)
    return {
        DynkinQuiver: (a2.diagram_type, a2.rank, a2.arrows, a2.renumbering),
        RootTable: (a2, t2.word, t2.roots),
        KostantPartition: (t2, (2,)),
        Rep: (a2, 2, (1, 0), ((),)),
        GradedDimVector: (((1, 0, 1),),),
        StratumEntry: entry,
        StrataReport: (lam, (0, 1), 2, (StratumEntry(*entry),), 1),
        ExtSetResult: (mu, nu, frozenset({lam}), "u-enumeration", (2,), True),
        SupportPairResult: one_sided,
        TwoSidedSupportPairResult: (SupportPairResult(*one_sided), SupportPairResult(True, None)),
        InequalityRow: (lam, 1, 0, 1, 0),
        SimplicityVerdict: (mu, nu, "cannot_be_simple", lam, ()),
        SoclePrediction: (mu, nu, lam, None),
        LengthTwoReport: (lam, mu + nu),
        HeadSocleBounds: (frozenset({lam}), frozenset({mu + nu})),
        DegreeRow: (lam, 1, 0, 1, True, False, None),
        DegreeReport: (mu, nu, ()),
    }


# reprs pinned to the `Name(field=value, ...)` form
RECORD_REPRS = {
    SupportPairResult: "SupportPairResult(ok=False, witness=KP([1,2]))",
    StratumEntry: "StratumEntry(mu=KP([1,1]), nu=KP([2,2]), count=1, dim=0)",
    GradedDimVector: "GradedDimVector(entries=((1, 0, 1),))",
    DegreeRow: (
        "DegreeRow(lam=KP([1,2]), d=1, e=0, bound=1, is_generic_pair=True, "
        "in_ext_ger=False, eps=None)"
    ),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_frozen_values(cls, t2):
    values = record_fields(t2)[cls]
    names = cls.__match_args__
    assert names == tuple(cls.__annotations__) and len(names) == len(values)
    x, y = cls(*values), cls(**dict(zip(names, values)))
    assert tuple(getattr(x, name) for name in names) == values
    for args, kwargs in ((values[:-1], {}), (values + (None,), {}), (values, {"other": 1})):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)
    for change in (lambda: setattr(x, names[0], values[0]), lambda: setattr(x, "other", 1),
                   lambda: delattr(x, names[0])):
        with pytest.raises(AttributeError):
            change()
    assert tuple(getattr(x, name) for name in names) == values
    if cls is Rep:
        assert x == x and x != y and hash(x) != hash(y)
    elif cls in INTERNED:
        assert x == y and hash(x) == hash(y) and x is y and x != values
    else:
        assert x == y and hash(x) == hash(y) == hash(values) and x != values
    if cls in RECORD_REPRS:
        assert repr(x) == RECORD_REPRS[cls]

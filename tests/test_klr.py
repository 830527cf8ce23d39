"""Simplicity and socle criteria for induction products.

The A2 simple-times-simple pair is worked out by hand in both orders:
one order has a nonsplit extension (product not simple, socle the
nonsplit middle term), the other is generic (split product).
"""

import itertools
import json

import pytest

from quiverlab import (
    CapExceeded,
    PartitionError,
    degree_report,
    head_socle_bounds,
    ext_dim,
    ext_ger,
    ext_set,
    hom_dim,
    is_rigid,
    is_support_pair,
    kp_enumerate,
    kp_format,
    kp_parse,
    length_two_report,
    positive_roots,
    rigid_simplicity,
    semicuspidal_pairs,
    simplicity_necessary,
    socle_prediction,
    standard_quiver,
    strata,
    two_sided_support_pair,
)
from quiverlab import klr, order
from quiverlab.extensions import _hom_exact
from quiverlab.cli import main


@pytest.fixture(scope="module")
def s1(t2):
    return kp_parse(t2, "[1,1]")


@pytest.fixture(scope="module")
def s2(t2):
    return kp_parse(t2, "[2,2]")


# ------------------------------------------------------------ support pairs

def test_support_pair_fails_with_witness(t2, s1, s2):
    res = is_support_pair(s1, s2)
    assert not res.ok and not res
    assert kp_format(res.witness) == "[1,2]"


def test_support_pair_holds_in_the_generic_order(s1, s2):
    res = is_support_pair(s2, s1)
    assert res.ok and bool(res)
    assert res.witness is None


def test_support_pair_is_necessary_not_sufficient(t3):
    # rigid simplicity always forces the support-pair condition...
    mu, nu = kp_parse(t3, "[2,3]"), kp_parse(t3, "[1,1]")
    if rigid_simplicity(mu, nu):
        assert is_support_pair(mu, nu).ok
    # ...but the converse direction fails: here Ext1(nu, mu) is nonzero
    # yet no smaller middle term carries (mu, nu) as a component label.
    mu, nu = kp_parse(t3, "[2,2]"), kp_parse(t3, "[1,1]")
    assert is_support_pair(mu, nu).ok
    assert not rigid_simplicity(mu, nu)


def test_two_sided_support_pair_catches_the_reversed_order(t3):
    # passes in the given order, fails in the reversed one with a witness
    mu, nu = kp_parse(t3, "[3,3]"), kp_parse(t3, "[2,2]")
    res = two_sided_support_pair(mu, nu)
    assert not res.ok and not res
    assert res.forward.ok and res.forward.witness is None
    assert not res.reverse.ok
    assert kp_format(res.reverse.witness) == "[2,3]"
    assert not rigid_simplicity(mu, nu)


def test_two_sided_support_pair_fails_in_both_argument_orders(s1, s2):
    res = two_sided_support_pair(s1, s2)
    assert not res.ok and res.reverse.ok
    assert kp_format(res.forward.witness) == "[1,2]"
    res = two_sided_support_pair(s2, s1)
    assert not res.ok and res.forward.ok
    assert kp_format(res.reverse.witness) == "[1,2]"


@pytest.mark.parametrize(
    "which,bound,n_pairs,n_members",
    [("t4", 4, 356, 109), ("zigzag_a4", 4, 356, 115), ("sink_d4", 4, 356, 124),
     ("e6", 3, 288, 56)],
)
def test_rigid_converse(request, which, bound, n_pairs, n_members):
    # for rigid mu and nu with Ext^1(mu, nu) != 0, every non-split middle
    # term lam has (mu, nu) in ext_ger(lam) (see two_sided_support_pair), so
    # the one-sided test passes iff Ext^1(mu, nu) = 0 and the two-sided test
    # is rigid_simplicity; pairs of total dimension at most the bound
    table = request.getfixturevalue(which)
    rigid = [
        kp
        for g in itertools.product(range(bound), repeat=table.quiver.rank)
        if 0 < sum(g) < bound
        for kp in kp_enumerate(table, g)
        if is_rigid(kp)
    ]
    pairs = [(m, n) for m in rigid for n in rigid if sum(m.total) + sum(n.total) <= bound]
    members = 0
    for mu, nu in pairs:
        where = (kp_format(mu), kp_format(nu))
        e = ext_dim(mu, nu)
        for lam in ext_set(mu, nu).classes - {mu + nu}:
            assert e and (mu, nu) in ext_ger(lam, mu.total, nu.total), where
            members += 1
        assert is_support_pair(mu, nu).ok == (e == 0), where
        assert two_sided_support_pair(mu, nu).ok == rigid_simplicity(mu, nu), where
    assert (len(pairs), members) == (n_pairs, n_members)


@pytest.mark.parametrize(
    "which,bound,n_pairs,n_terms,n_members",
    [
        pytest.param("t3", 5, 693, 1017, 860, id="A3-5"),
        pytest.param("t4", 4, 569, 798, 730, id="D4-4"),
        pytest.param("t2", 6, 300, 421, 339, id="A2-6"),
    ],
)
def test_component_labels_are_ext_ger_membership(
    request, which, bound, n_pairs, n_terms, n_members
):
    # the targeted ext_set queries against the Grassmannian walk, on every
    # middle term, the split one included, of every pair of total dimension
    # at most the bound; degree_report's two flags against the same walk.
    # The walk's realized pairs, unioned over the fields, are filtered here,
    # so that no query of the route under test decides the reference
    table = request.getfixturevalue(which)
    classes = [
        kp
        for g in itertools.product(range(bound + 1), repeat=table.quiver.rank)
        if 0 < sum(g) <= bound
        for kp in kp_enumerate(table, g)
    ]
    pairs = [(m, n) for m in classes for n in classes if sum(m.total) + sum(n.total) <= bound]
    terms = members = 0
    for mu, nu in pairs:
        where = (kp_format(mu), kp_format(nu))
        lams = sorted(ext_set(mu, nu).classes, key=lambda x: x.parts)
        walked = []
        for lam in lams:
            realized = strata(lam, nu.total, 2).pairs() | strata(lam, nu.total, 3).pairs()
            assert (mu, nu) in realized, where
            generic = not any(
                (m == mu and order.lt(n, nu)) or (n == nu and order.lt(m, mu))
                for m, n in realized
            )
            hom_exact = hom_dim(nu, lam) == hom_dim(nu, nu) + hom_dim(nu, mu)
            walked.append((lam, generic, generic and hom_exact))
        got = list(klr._component_labels(mu, nu, lams, (2, 3), 2**24))
        assert got == [lam for lam, _, in_eg in walked if in_eg], where
        rows = degree_report(mu, nu).rows
        assert [(r.lam, r.is_generic_pair, r.in_ext_ger) for r in rows] == walked, where
        terms += len(lams)
        members += len(got)
    assert (len(pairs), terms, members) == (n_pairs, n_terms, n_members)


def test_component_label_cap_counts_the_queries_before_any_runs(t3, monkeypatch):
    # ext_set of the pair itself classifies 2 u per field; the queries of
    # the component-label test, 4 u per field, are counted before any runs
    mu, nu = kp_parse(t3, "[1,1]+[1,1]+[2,2]"), kp_parse(t3, "[2,3]")
    asked = []

    def counted(m, n, **kwargs):
        asked.append((m, n))
        return ext_set(m, n, **kwargs)

    monkeypatch.setattr(klr, "ext_set", counted)
    for call in (is_support_pair, socle_prediction, degree_report):
        with pytest.raises(CapExceeded) as exc:
            call(mu, nu, cap=3)
        assert exc.value.needed == 4 and "component-label test" in str(exc.value)
    # is_support_pair and degree_report each ask for the pair itself only
    assert asked == [(mu, nu), (mu, nu)]
    assert is_support_pair(mu, nu, cap=4).ok
    assert len(asked) > 2
    assert degree_report(mu, nu, cap=4).rows


@pytest.mark.parametrize(
    "which,bound,n_squares,n_terms",
    [("t3", 5, 119, 112), ("t4", 4, 136, 113), ("e6", 3, 123, 50)],
    ids=["A3-5", "D4-4", "E6-3"],
)
def test_no_square_fails_the_support_pair_test(request, which, bound, n_squares, n_terms):
    # for a non-split sequence 0 -> M_mu -> M_lam -> M_mu -> 0 of class xi,
    # Hom(M_mu, -) ends in [mu, mu] -> Ext^1(M_mu, M_mu), f -> xi f, and
    # f = id gives xi != 0: no non-split middle term of a square passes the
    # hom check, so no lam is a witness against (mu, mu)
    table = request.getfixturevalue(which)
    squares = [
        kp
        for g in itertools.product(range(bound + 1), repeat=table.quiver.rank)
        if 0 < sum(g) <= bound
        for kp in kp_enumerate(table, g)
    ]
    terms = 0
    for mu in squares:
        for lam in ext_set(mu, mu).classes - {mu + mu}:
            assert not _hom_exact(lam, mu, mu), (kp_format(mu), kp_format(lam))
            terms += 1
        assert is_support_pair(mu, mu).ok, kp_format(mu)
    assert (len(squares), terms) == (n_squares, n_terms)


# ------------------------------------------------------------ simplicity

def test_simplicity_necessary_rejects(s1, s2):
    v = simplicity_necessary(s1, s2)
    assert v.verdict == "cannot_be_simple"
    assert kp_format(v.witness) == "[1,2]"
    assert len(v.rows) == 1
    row = v.rows[0]
    assert kp_format(row.lam) == "[1,2]"
    assert (row.hom_nu_split, row.hom_nu_lam) == (1, 1)
    assert (row.hom_mu_split, row.hom_mu_lam) == (1, 0)


def test_simplicity_necessary_passes(s1, s2):
    v = simplicity_necessary(s2, s1)
    assert v.verdict == "passes_necessary_test"
    assert v.witness is None and v.rows == ()


def test_verdict_json_schema(s1, s2, capsys):
    """The CLI's JSON payload for ``simplicity`` serializes the library verdict."""
    verdict = simplicity_necessary(s1, s2)
    rc = main(["simplicity", "[1,1]", "[2,2]", "--type", "A", "--rank", "2"])
    d = json.loads(capsys.readouterr().out)
    assert rc == 3
    assert d["verdict"] == verdict.verdict
    assert d["witness"] == kp_format(verdict.witness)
    assert d["inequalities"] == [
        {
            "lambda": kp_format(r.lam),
            "hom_nu_split": r.hom_nu_split,
            "hom_nu_lambda": r.hom_nu_lam,
            "hom_mu_split": r.hom_mu_split,
            "hom_mu_lambda": r.hom_mu_lam,
        }
        for r in verdict.rows
    ]
    assert d == {
        "mu": "[1,1]",
        "nu": "[2,2]",
        "verdict": "cannot_be_simple",
        "witness": "[1,2]",
        "inequalities": [
            {
                "lambda": "[1,2]",
                "hom_nu_split": 1,
                "hom_nu_lambda": 1,
                "hom_mu_split": 1,
                "hom_mu_lambda": 0,
            }
        ],
    }


def test_rigid_simplicity(t3, s1, s2):
    assert rigid_simplicity(s1, s2) is False
    assert rigid_simplicity(s2, s1) is False  # Ext1(s1, s2) != 0 either way
    assert rigid_simplicity(kp_parse(t3, "[1,1]"), kp_parse(t3, "[3,3]"))
    assert rigid_simplicity(s1, s1)


def test_rigid_simplicity_rejects_nonrigid_input(t2, s1):
    split = kp_parse(t2, "[1,1]+[2,2]")
    with pytest.raises(PartitionError):
        rigid_simplicity(split, s1)


# ------------------------------------------------------------ socle

def test_socle_prediction(s1, s2):
    sp = socle_prediction(s1, s2)
    assert kp_format(sp.generic_product) == "[1,2]"
    assert kp_format(sp.predicted) == "[1,2]"
    assert sp.abstained is False


def test_socle_prediction_split_case(s1, s2):
    sp = socle_prediction(s2, s1)
    assert kp_format(sp.generic_product) == "[1,1]+[2,2]"
    assert kp_format(sp.predicted) == "[1,1]+[2,2]"
    assert not sp.abstained


def test_socle_prediction_abstains(t3):
    mu = kp_parse(t3, "[1,1]+[2,2]")
    nu = kp_parse(t3, "[2,2]+[3,3]")
    sp = socle_prediction(mu, nu)
    assert kp_format(sp.generic_product) == "[1,2]+[2,3]"
    assert sp.predicted is None and sp.abstained


def test_length_two_report(s1, s2):
    rep = length_two_report(s1, s2)
    assert kp_format(rep.socle) == "[1,2]"
    assert kp_format(rep.head) == "[1,1]+[2,2]"
    assert rep.factors == (rep.socle, rep.head)


def test_length_two_needs_a_one_dimensional_ext(s1, s2):
    with pytest.raises(PartitionError):
        length_two_report(s2, s1)


def test_head_socle_bounds(s1, s2):
    b = head_socle_bounds(s1, s2)
    assert {kp_format(x) for x in b.head_interval} == {"[1,1]+[2,2]"}
    assert {kp_format(x) for x in b.socle_interval} == {"[1,2]", "[1,1]+[2,2]"}
    assert head_socle_bounds(s1, s2, cap=None) == b  # None: no cap, as in ext_set


# ------------------------------------------------------------ semicuspidal

def test_semicuspidal_pairs_rank2(t2):
    pairs = semicuspidal_pairs(t2, (1, 1))
    assert {(kp_format(m), kp_format(n)) for m, n in pairs} == {("[1,1]", "[2,2]")}
    assert semicuspidal_pairs(t2, (1, 1), cap=None) == pairs


def test_semicuspidal_pairs_long_root(t3):
    pairs = semicuspidal_pairs(t3, (1, 1, 1))
    assert {(kp_format(m), kp_format(n)) for m, n in pairs} == {
        ("[1,1]", "[2,3]"),
        ("[1,2]", "[3,3]"),
    }


def test_semicuspidal_pairs_checks_the_cap_first(t3, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("generic_ext ran before the cap check")

    monkeypatch.setattr(klr, "generic_ext", unreachable)
    with pytest.raises(CapExceeded) as exc:
        semicuspidal_pairs(t3, (1, 1, 1), cap=1)
    assert "counting stopped past the cap" in str(exc.value)


def test_head_socle_bounds_checks_the_cap_first(monkeypatch):
    # both generic extensions fit cap 5, but the interval would enumerate
    # all 8 Kostant partitions of (1, 1, 1, 1)
    t = positive_roots(standard_quiver("A", 4))
    mu, nu = kp_parse(t, "[1,1]"), kp_parse(t, "[2,4]")

    def unreachable(*args, **kwargs):
        raise AssertionError("kp_enumerate ran before the cap check")

    monkeypatch.setattr(order, "kp_enumerate", unreachable)
    with pytest.raises(CapExceeded) as exc:
        head_socle_bounds(mu, nu, cap=5)
    assert "needs 6 states, cap is 5" in str(exc.value)


# ------------------------------------------------------------ degrees

def test_degree_report(s1, s2):
    rep = degree_report(s1, s2)
    assert [kp_format(r.lam) for r in rep.rows] == ["[1,2]", "[1,1]+[2,2]"]
    nonsplit, split = rep.rows
    assert (nonsplit.d, nonsplit.e, nonsplit.bound) == (2, 1, 4)
    assert nonsplit.is_generic_pair and nonsplit.in_ext_ger
    assert nonsplit.eps is None  # epsilon is reported on the split row only
    assert (split.d, split.e, split.bound) == (1, 0, 1)
    assert split.is_generic_pair and split.in_ext_ger
    assert split.eps == 0

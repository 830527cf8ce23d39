"""Decision procedures for induction products of simple modules.

Every test here reduces a module-category question about the induction
product L(mu) o L(nu) to exact quiver-side computations:

* ``is_support_pair``: (mu, nu) is a support pair when no middle term
  strictly below the split class realizes (mu, nu) as a component label
  of its Grassmannian.  Membership in ext_ger presupposes realization,
  so only members of ext_set are asked about, and each is decided by
  targeted ``ext_set`` queries (:func:`.extensions._component_labels`),
  with no Grassmannian walked.
* ``simplicity_necessary``: a failed support-pair test means the
  product cannot be simple; the verdict carries the full hom-count
  table so a failure is explainable, not just boolean.  Passing is only
  ever reported as "passes_necessary_test" — the converse is not
  claimed.
* ``rigid_simplicity``: the Ext criterion for rigid classes — the
  product is simple iff both extension groups vanish.
* ``two_sided_support_pair``: the support-pair test run in both orders.
  ``is_support_pair(mu, nu)`` only scans extensions of ``mu`` by ``nu``,
  so it cannot see Ext^1(nu, mu); the two-sided test is the exact
  rigid-case test, agreeing with ``rigid_simplicity`` (both directions
  are argued in its docstring).
* ``socle_prediction``: predicts the socle class mu*nu when the
  defining hypothesis ((mu, nu) in ext_ger(mu*nu)) holds, and abstains
  otherwise; the hypothesis is decided by the same queries.
* ``length_two_report``: when ext_dim(mu, nu) = 1 the product has
  exactly the two factors mu*nu (socle) and mu (+) nu (head).
* ``head_socle_bounds``: interval bounds for head and socle classes in
  the degeneration order (the head interval is anchored at nu*mu, the
  reversed product).
* ``semicuspidal_pairs``: proper pairs whose generic extension is a
  given root class, with all parts of mu strictly below and all parts
  of nu strictly above that root in the enumeration order.
* ``degree_report``: per middle term, the bookkeeping d, e and 2e + d,
  the generic-pair and ext_ger flags, decided by the same queries asked
  once over all the middle terms, and on the split row the pairing
  exponent epsilon(mu, nu) = [nu, mu] - [mu, nu].  That is the closed
  form of the repetition-quiver calculus (:func:`.repetition.epsilon`),
  checked against it on every pair of roots of every orientation of A3,
  A4 and D4 and of the standard E6.

Grading shifts (powers of q on composition factors) are uniformly out
of scope; statements are about ungraded classes.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from . import linalg
from .extensions import (
    _component_labels, _generic_terms, _hom_exact, d_lambda, e_lambda, ext_set, generic_ext
)
from .homs import ext_dim, hom_dim
from .order import _lower_set, interval, is_rigid
from .quiver import (
    KostantPartition,
    PartitionError,
    RootTable,
    _kp_walk,
    _record,
    kp_single,
)

__all__ = [
    "CANNOT_BE_SIMPLE",
    "PASSES_NECESSARY_TEST",
    "DegreeReport",
    "DegreeRow",
    "HeadSocleBounds",
    "InequalityRow",
    "LengthTwoReport",
    "SimplicityVerdict",
    "SoclePrediction",
    "SupportPairResult",
    "TwoSidedSupportPairResult",
    "degree_report",
    "head_socle_bounds",
    "is_support_pair",
    "length_two_report",
    "rigid_simplicity",
    "semicuspidal_pairs",
    "simplicity_necessary",
    "socle_prediction",
    "two_sided_support_pair",
]

CANNOT_BE_SIMPLE = "cannot_be_simple"
PASSES_NECESSARY_TEST = "passes_necessary_test"


@_record
class SupportPairResult:
    ok: bool
    witness: KostantPartition | None

    def __bool__(self) -> bool:
        return self.ok


def is_support_pair(
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int = linalg.DEFAULT_CAP,
) -> SupportPairResult:
    """True iff no strictly-smaller middle term has (mu, nu) among the
    component labels of its Grassmannian (:func:`.extensions._component_labels`);
    on failure the first offending middle term is returned as the witness."""
    classes = ext_set(mu, nu, fields=fields, cap=cap).classes
    lams = sorted(classes - {mu + nu}, key=lambda x: x.parts)
    witness = next(_component_labels(mu, nu, lams, fields, cap), None)
    return SupportPairResult(witness is None, witness)


@_record
class TwoSidedSupportPairResult:
    """The one-sided results for (mu, nu) and for (nu, mu); a failure
    names its order (``forward`` or ``reverse``) and its witness."""

    forward: SupportPairResult
    reverse: SupportPairResult

    @property
    def ok(self) -> bool:
        return self.forward.ok and self.reverse.ok

    def __bool__(self) -> bool:
        return self.ok


def two_sided_support_pair(
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int = linalg.DEFAULT_CAP,
) -> TwoSidedSupportPairResult:
    """Support-pair test of (mu, nu) and of (nu, mu); passes only if
    both orders pass.

    Soundness as a necessary condition: at q = 1 the shuffle product is
    commutative, so L(mu) o L(nu) and L(nu) o L(mu) have the same
    character, hence the same composition factors, and one is simple iff
    the other is.  A failed support-pair test in either order therefore
    rules out simplicity of L(mu) o L(nu).

    On rigid classes this is the exact test, equal to
    :func:`rigid_simplicity`.  If both extension groups vanish, each
    ext_set holds only the split class, so both orders pass.  Conversely,
    let mu and nu be rigid with Ext^1(mu, nu) != 0:

    * a non-split extension exists over every field, and its middle term
      lam is not mu (+) nu, since a short exact sequence of finite-length
      modules whose middle term is isomorphic to the direct sum of its
      ends splits (Miyata, "Note on direct summands of modules",
      J. Math. Kyoto Univ. 7 (1967));
    * for every middle term lam, Hom(nu, -) is exact on the sequence
      because Ext^1(nu, nu) = 0, so [nu, lam] = [nu, nu] + [nu, mu];
    * a rigid class has the open orbit of its dimension vector (Voigt),
      so it is the unique minimum of that vector in the degeneration
      order (Bongartz), and no realized pair has a strictly smaller sub
      or quotient: (mu, nu) is a generic pair.

    So (mu, nu) lies in ext_ger(lam) for every non-split lam, and
    ``is_support_pair(mu, nu)`` fails.  On rigid pairs the one-sided test
    therefore passes iff Ext^1(mu, nu) = 0, and the two-sided one iff
    both groups vanish, on every Dynkin quiver and field."""
    return TwoSidedSupportPairResult(
        is_support_pair(mu, nu, fields=fields, cap=cap),
        is_support_pair(nu, mu, fields=fields, cap=cap),
    )


@_record
class InequalityRow:
    """Hom counts entering the twin strictness test for one nontrivial
    middle term."""

    lam: KostantPartition
    hom_nu_split: int
    hom_nu_lam: int
    hom_mu_split: int
    hom_mu_lam: int


@_record
class SimplicityVerdict:
    mu: KostantPartition
    nu: KostantPartition
    verdict: str
    witness: KostantPartition | None
    rows: tuple[InequalityRow, ...]


def simplicity_necessary(
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int = linalg.DEFAULT_CAP,
) -> SimplicityVerdict:
    """Necessary condition: if the product were simple, (mu, nu) would
    be a support pair.  The verdict never claims sufficiency."""
    split = mu + nu
    support = is_support_pair(mu, nu, fields=fields, cap=cap)
    classes = ext_set(mu, nu, fields=fields, cap=cap).classes
    rows = tuple(
        InequalityRow(
            lam,
            hom_dim(nu, split),
            hom_dim(nu, lam),
            hom_dim(mu, split),
            hom_dim(mu, lam),
        )
        for lam in sorted(classes - {split}, key=lambda x: x.parts)
    )
    verdict = PASSES_NECESSARY_TEST if support.ok else CANNOT_BE_SIMPLE
    return SimplicityVerdict(mu, nu, verdict, support.witness, rows)


def rigid_simplicity(mu: KostantPartition, nu: KostantPartition) -> bool:
    """For rigid classes the product is simple iff both extension
    spaces vanish (equivalently, the direct sum is rigid)."""
    if not (is_rigid(mu) and is_rigid(nu)):
        raise PartitionError("rigid_simplicity requires both classes rigid")
    return ext_dim(mu, nu) == 0 and ext_dim(nu, mu) == 0


@_record
class SoclePrediction:
    mu: KostantPartition
    nu: KostantPartition
    generic_product: KostantPartition
    predicted: KostantPartition | None

    @property
    def abstained(self) -> bool:
        return self.predicted is None


def socle_prediction(
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int = linalg.DEFAULT_CAP,
) -> SoclePrediction:
    """Predict the socle class mu*nu when (mu, nu) labels a component
    of the Grassmannian of mu*nu; abstain when that hypothesis fails."""
    gen = generic_ext(mu, nu, fields=fields, cap=cap)
    predicted = next(_component_labels(mu, nu, [gen], fields, cap), None)
    return SoclePrediction(mu, nu, gen, predicted)


@_record
class LengthTwoReport:
    socle: KostantPartition
    head: KostantPartition

    @property
    def factors(self) -> tuple[KostantPartition, KostantPartition]:
        return (self.socle, self.head)


def length_two_report(
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int = linalg.DEFAULT_CAP,
) -> LengthTwoReport:
    """When ext_dim(mu, nu) = 1 the product has length two: socle
    mu*nu, head mu (+) nu."""
    if ext_dim(mu, nu) != 1:
        raise PartitionError(
            f"length-two decomposition needs ext_dim(mu, nu) = 1, "
            f"got {ext_dim(mu, nu)}"
        )
    return LengthTwoReport(generic_ext(mu, nu, fields=fields, cap=cap), mu + nu)


@_record
class HeadSocleBounds:
    head_interval: frozenset[KostantPartition]
    socle_interval: frozenset[KostantPartition]


def head_socle_bounds(
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int = linalg.DEFAULT_CAP,
) -> HeadSocleBounds:
    """Head class lies between nu*mu and the split class, socle class
    between mu*nu and the split class; both returned as explicit sets.
    Both intervals read the lower set of the split class, which is walked
    first, within ``cap`` nodes, before any generic extension."""
    split = mu + nu
    _lower_set(split, cap)
    head_low = generic_ext(nu, mu, fields=fields, cap=cap)
    socle_low = generic_ext(mu, nu, fields=fields, cap=cap)
    return HeadSocleBounds(
        frozenset(interval(head_low, split, cap=cap)),
        frozenset(interval(socle_low, split, cap=cap)),
    )


def semicuspidal_pairs(
    table: RootTable,
    alpha_root: Sequence[int],
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int = linalg.DEFAULT_CAP,
) -> frozenset[tuple[KostantPartition, KostantPartition]]:
    """Proper pairs (mu, nu) with generic extension the class of the
    given root, all parts of mu strictly earlier and all parts of nu
    strictly later than that root in the enumeration order.  The
    Kostant partitions of both sides of every split are walked, each
    within ``cap`` nodes, before any generic extension."""
    root = tuple(alpha_root)
    a_idx = table.index_of(root)
    target = kp_single(table, a_idx)
    rank = table.quiver.rank
    splits = []
    for split_vec in itertools.product(*(range(c + 1) for c in root)):
        gamma_mu = tuple(split_vec)
        gamma_nu = tuple(root[i] - gamma_mu[i] for i in range(rank))
        if sum(gamma_mu) == 0 or sum(gamma_nu) == 0:
            continue
        mus = [m for m in _kp_walk(table, gamma_mu, cap=cap) if all(i < a_idx for i in m.parts)]
        nus = [n for n in _kp_walk(table, gamma_nu, cap=cap) if all(i > a_idx for i in n.parts)]
        splits.append((mus, nus))
    out = set()
    for mus, nus in splits:
        for m in mus:
            for n in nus:
                if generic_ext(m, n, fields=fields, cap=cap) == target:
                    out.add((m, n))
    return frozenset(out)


@_record
class DegreeRow:
    lam: KostantPartition
    d: int
    e: int
    bound: int
    is_generic_pair: bool
    in_ext_ger: bool
    eps: int | None


@_record
class DegreeReport:
    mu: KostantPartition
    nu: KostantPartition
    rows: tuple[DegreeRow, ...]


def degree_report(
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = linalg.DEFAULT_FIELDS,
    cap: int = linalg.DEFAULT_CAP,
) -> DegreeReport:
    """One row per middle term: d, e, 2e + d, whether (mu, nu) is a
    generic pair / component label for that term
    (:func:`.extensions._generic_terms`, asked once over all the terms,
    and :func:`.extensions._hom_exact`), and on the
    split row the pairing exponent epsilon = [nu, mu] - [mu, nu]."""
    split = mu + nu
    classes = ext_set(mu, nu, fields=fields, cap=cap).classes
    eps_split = hom_dim(nu, mu) - hom_dim(mu, nu)
    lams = sorted(classes, key=lambda x: x.parts)
    generic = set(_generic_terms(mu, nu, lams, fields, cap))
    rows = []
    for lam in lams:
        d = d_lambda(lam, mu, nu)
        e = e_lambda(lam, mu, nu, fields=fields, cap=cap)
        rows.append(
            DegreeRow(
                lam,
                d,
                e,
                2 * e + d,
                lam in generic,
                lam in generic and _hom_exact(lam, mu, nu),
                eps_split if lam == split else None,
            )
        )
    return DegreeReport(mu, nu, tuple(rows))

"""Extension sets, generic extensions, and dimension bookkeeping.

``ext_set(mu, nu)`` computes every isomorphism class that occurs as the
middle term of a short exact sequence with sub class ``nu`` and quotient
class ``mu``.  Two independent routes are kept deliberately separate:

* u-enumeration: every middle term is a block representation
  ``[[y, u], [0, x]]`` with ``y = build(nu)``, ``x = build(mu)`` and
  ``u`` running over the full affine space of connecting maps
  (one ``beta_t x alpha_s`` block per arrow); identifying the class of
  each block representation and collecting the classes is exhaustive.
* subrep-filter: a candidate ``lam <= mu (+) nu`` belongs to the set iff
  the Grassmannian of ``build(lam)`` realizes the pair ``(mu, nu)``.

Both run over small prime fields; the result carries a stability flag
recording whether every field produced the same set.

The numerical bookkeeping for a triple ``(lam, mu, nu)`` — codimension
``d_lambda``, fiber dimension ``e_lambda``, and the degree bound
``2*e + d`` — is implemented from the closed hom/ext formulas, with the
two equivalent expressions for ``d_lambda`` both evaluated and compared.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

from . import grassmannian, linalg
from .homs import ext_dim, hom_dim
from .order import leq
from .quiver import (
    KostantPartition,
    PartitionError,
    QuiverError,
    dim_add,
    euler_form,
    kp_enumerate,
    kp_format,
)
from .reps import build, identify, Rep

__all__ = [
    "METHOD_FILTER",
    "METHOD_U",
    "ExtSetResult",
    "StratumDimReport",
    "d_lambda",
    "degree_bound",
    "e_lambda",
    "ext_min",
    "ext_set",
    "generic_ext",
    "hom_omega_dim",
    "orbit_dim",
    "pair_stratum_dim",
    "stratum_dim_report",
]

METHOD_U = "u-enumeration"
METHOD_FILTER = "subrep-filter"

Pair = tuple[KostantPartition, KostantPartition]


def _normalize_method(method: str) -> str:
    low = method.lower()
    if low in ("u", "u-enum", "u-enumeration"):
        return METHOD_U
    if low in ("subrep", "filter", "subrep-filter"):
        return METHOD_FILTER
    raise ValueError(f"unknown method {method!r}")


def hom_omega_dim(alpha: Sequence[int], beta: Sequence[int], quiver) -> int:
    """dim of the space of connecting maps: sum over arrows of
    alpha_source * beta_target."""
    return sum(alpha[s - 1] * beta[t - 1] for s, t in quiver.arrows)


@dataclass(frozen=True)
class ExtSetResult:
    mu: KostantPartition
    nu: KostantPartition
    classes: frozenset[KostantPartition]
    method: str
    fields: tuple[int, ...]
    stable: bool


@functools.cache
def _ext_set_u(mu: KostantPartition, nu: KostantPartition, q: int) -> frozenset:
    quiver = mu.table.quiver
    alpha, beta = mu.total, nu.total
    cells = [(beta[t - 1], alpha[s - 1]) for s, t in quiver.arrows]
    x = build(mu, q)
    y = build(nu, q)
    dims = dim_add(beta, alpha)
    # the rows [0, x] do not depend on u
    bottoms = [
        tuple((0,) * beta[s - 1] + row for row in x_k)
        for (s, _), x_k in zip(quiver.arrows, x.mats)
    ]
    classes = set()
    for flat in itertools.product(range(q), repeat=sum(r * c for r, c in cells)):
        mats = []
        pos = 0
        for (r, c), y_k, bottom in zip(cells, y.mats, bottoms):
            top = tuple(
                y_row + flat[pos + i * c : pos + (i + 1) * c] for i, y_row in enumerate(y_k)
            )
            pos += r * c
            mats.append(top + bottom)
        classes.add(identify(Rep(quiver, q, dims, tuple(mats)), mu.table))
    return frozenset(classes)


@functools.cache
def _ext_set_filter(mu: KostantPartition, nu: KostantPartition, q: int) -> frozenset:
    split = mu + nu
    return frozenset(
        lam
        for lam in kp_enumerate(mu.table, split.total)
        if leq(lam, split)
        and (mu, nu) in grassmannian.realized_pairs(lam, nu.total, q, None)
    )


def ext_set(
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = (2, 3),
    method: str = METHOD_U,
    cap: int = linalg.DEFAULT_CAP,
) -> ExtSetResult:
    """All middle-term classes of extensions of ``mu`` (quotient) by
    ``nu`` (sub), unioned over the given fields.  The cap is checked for
    every field before any enumeration starts."""
    method = _normalize_method(method)
    split = mu + nu
    for q in fields:
        if method == METHOD_U:
            needed = q ** hom_omega_dim(mu.total, nu.total, mu.table.quiver)
            what = "u-space enumeration (the subrep-filter method may be feasible)"
        else:
            needed = grassmannian.scan_states(split.total, nu.total, q)
            what = "subrepresentation scan"
        linalg.check_cap(needed, cap, what)
    runner = _ext_set_u if method == METHOD_U else _ext_set_filter
    per_field = [runner(mu, nu, q) for q in fields]
    classes = frozenset().union(*per_field)
    stable = all(s == per_field[0] for s in per_field)
    if split not in classes:
        raise QuiverError("split extension missing from ext_set — enumeration bug")
    for lam in classes:
        if lam.total != split.total or not leq(lam, split):
            raise QuiverError(
                f"ext_set member {kp_format(lam)} violates leq({kp_format(lam)}, split)"
            )
    return ExtSetResult(mu, nu, classes, method, tuple(fields), stable)


def generic_ext(
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = (2, 3),
    method: str = METHOD_U,
    cap: int = linalg.DEFAULT_CAP,
) -> KostantPartition:
    """The class in ext_set(mu, nu) with minimal self-extension; checked
    to be the unique minimum of the set in the degeneration order.  A
    tie aborts: the dense-orbit class is unique, so a tie means a bug or
    a field artifact."""
    classes = ext_set(mu, nu, fields=fields, method=method, cap=cap).classes
    by_self_ext = sorted(classes, key=lambda lam: (ext_dim(lam, lam), lam.parts))
    best = by_self_ext[0]
    ties = [lam for lam in by_self_ext if ext_dim(lam, lam) == ext_dim(best, best)]
    if len(ties) > 1:
        raise QuiverError(
            "generic extension not unique: "
            + ", ".join(kp_format(lam) for lam in ties)
            + f" all have self-ext {ext_dim(best, best)}"
        )
    for lam in classes:
        if not leq(best, lam):
            raise QuiverError(
                f"self-ext minimizer {kp_format(best)} is not below "
                f"{kp_format(lam)} in the degeneration order"
            )
    return best


def ext_min(
    lam: KostantPartition,
    alpha: Sequence[int],
    beta: Sequence[int],
    *,
    fields: Sequence[int] = (2, 3),
    cap: int = linalg.DEFAULT_CAP,
) -> frozenset[Pair]:
    """Pairs minimal under the product order: no other realized pair is
    <= in both coordinates."""
    pairs = grassmannian.ext_pairs(lam, alpha, beta, fields=fields, cap=cap)
    out = set()
    for mu, nu in pairs:
        dominated = any(
            (mu2, nu2) != (mu, nu) and leq(mu2, mu) and leq(nu2, nu)
            for mu2, nu2 in pairs
        )
        if not dominated:
            out.add((mu, nu))
    return frozenset(out)


def orbit_dim(lam: KostantPartition) -> int:
    """Dimension of the orbit of ``build(lam)`` in the representation
    space of its dimension vector: sum of squares minus End dimension."""
    gamma = lam.total
    return sum(g * g for g in gamma) - hom_dim(lam, lam)


def d_lambda(lam: KostantPartition, mu: KostantPartition, nu: KostantPartition) -> int:
    """Codimension bookkeeping for a middle term: orbit_dim(lam) minus
    the Euler pairing of the outer dimension vectors and the outer orbit
    dimensions.  The equivalent hom-side expression is evaluated too and
    the two are required to agree."""
    alpha, beta = mu.total, nu.total
    if dim_add(alpha, beta) != lam.total:
        raise PartitionError("dim lambda must equal dim mu + dim nu")
    quiver = lam.table.quiver
    pairing = euler_form(quiver, alpha, beta)
    via_orbits = orbit_dim(lam) - pairing - orbit_dim(mu) - orbit_dim(nu)
    dot = sum(a * b for a, b in zip(alpha, beta))
    via_homs = (
        2 * dot
        + hom_dim(mu, mu)
        + hom_dim(nu, nu)
        - hom_dim(lam, lam)
        - pairing
    )
    if via_orbits != via_homs:
        raise QuiverError(
            f"d_lambda formulas disagree: {via_orbits} vs {via_homs}"
        )
    return via_orbits


def e_lambda(
    lam: KostantPartition,
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = (2, 3),
    cap: int = linalg.DEFAULT_CAP,
) -> int:
    """Fiber dimension over the lam-stratum: dim of the connecting-map
    space plus ``[lam, mu*nu] - [lam, lam]``.  Requires
    ``mu*nu <= lam <= mu (+) nu``."""
    alpha, beta = mu.total, nu.total
    if dim_add(alpha, beta) != lam.total:
        raise PartitionError("dim lambda must equal dim mu + dim nu")
    gen = generic_ext(mu, nu, fields=fields, cap=cap)
    split = mu + nu
    if not (leq(gen, lam) and leq(lam, split)):
        raise PartitionError(
            f"{kp_format(lam)} is not between {kp_format(gen)} and the split class"
        )
    quiver = lam.table.quiver
    return (
        hom_omega_dim(alpha, beta, quiver)
        + hom_dim(lam, gen)
        - hom_dim(lam, lam)
    )


def degree_bound(
    lam: KostantPartition,
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = (2, 3),
    cap: int = linalg.DEFAULT_CAP,
) -> int:
    """Upper bound ``2*e_lambda + d_lambda`` for the degree attached to
    the lam-row of a pair (mu, nu)."""
    return 2 * e_lambda(lam, mu, nu, fields=fields, cap=cap) + d_lambda(lam, mu, nu)


def pair_stratum_dim(
    lam: KostantPartition,
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = (2, 3),
    cap: int = linalg.DEFAULT_CAP,
    check: bool = True,
) -> int:
    """Dimension ``[lam, mu*nu] - [mu, mu] - [nu, nu]`` attached to the
    locus of subspaces with sub class nu and quotient class mu."""
    if check:
        pairs = grassmannian.ext_pairs(lam, mu.total, nu.total, fields=fields, cap=cap)
        if (mu, nu) not in pairs:
            raise PartitionError(
                f"pair ({kp_format(mu)}, {kp_format(nu)}) is not realized in "
                f"the Grassmannian of {kp_format(lam)}"
            )
    gen = generic_ext(mu, nu, fields=fields, cap=cap)
    return hom_dim(lam, gen) - hom_dim(mu, mu) - hom_dim(nu, nu)


@dataclass(frozen=True)
class StratumDimReport:
    """Both available stratum-dimension formulas, side by side.

    ``via_pair`` is ``[lam, mu*nu] - [mu, mu] - [nu, nu]``; ``via_sub``
    is ``[nu, lam] - [nu, nu]``.  They do not always agree (the split A2
    stratum is the smallest case where they differ by one); the report
    carries both and a flag instead of silently preferring one.
    """

    lam: KostantPartition
    mu: KostantPartition
    nu: KostantPartition
    via_pair: int
    via_sub: int

    @property
    def agree(self) -> bool:
        return self.via_pair == self.via_sub


def stratum_dim_report(
    lam: KostantPartition,
    mu: KostantPartition,
    nu: KostantPartition,
    *,
    fields: Sequence[int] = (2, 3),
    cap: int = linalg.DEFAULT_CAP,
    check: bool = True,
) -> StratumDimReport:
    via_pair = pair_stratum_dim(lam, mu, nu, fields=fields, cap=cap, check=check)
    via_sub = grassmannian.stratum_dim(lam, nu, check=False)
    return StratumDimReport(lam, mu, nu, via_pair, via_sub)

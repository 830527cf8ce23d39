"""Repetition quiver, graded dimension vectors, and the pairing calculus.

The repetition quiver lives on ``I x Z`` with one copy of vertex ``i``
at every ``p`` of the parity of the height ``xi_i`` (heights satisfy
``xi_i = xi_j + 1`` along every arrow and are normalized to minimum 0).
Each vertex carries a label ``(positive root, winding m)``: the column
top ``(i, xi_i)`` is labeled by the root of the injective at ``i`` with
``m = 0``, and stepping down by 2 applies the Coxeter transformation
``tau`` (composite of simple reflections in source-first vertex order,
rightmost factor applied first), decrementing ``m`` whenever the sign
flips; stepping up applies ``tau^{-1}`` symmetrically.  The ``m = 0``
slice is in bijection with the positive roots.

Graded dimension vectors are finitely supported integer maps on
``I x Z``.  ``w_gamma`` puts mass ``gamma_i`` on the vertex labeled
``(alpha_i, 0)``.  ``v_lambda`` encodes a module class through its
projective presentations: for each root ``U`` with projective cover
``Q -> M_U`` the mass ``[Q, lam] - [U, lam]`` sits one step below the
``(root(U), 0)`` vertex (see V_COORDINATE_SHIFT).  ``[Q, lam]`` is read
off the top of M_U (``homs._top_and_socle``), so the mass is how far U
falls short of being forced for lam, and no resolution is built.

``cartan_q`` is the graded Cartan operator
``(C_q V)(i,p) = V(i,p-1) + V(i,p+1) - sum_{j ~ i} V(j,p)``; the shift
operators move support by +1 (for the q^{-1} twist) or -1 (for q), and
``d``/``epsilon`` combine them with the evaluation pairing.
"""

from __future__ import annotations

from operator import mul
from typing import Mapping, Sequence

from .homs import _top_and_socle, hom_ext_vectors
from .quiver import (
    DynkinQuiver,
    KostantPartition,
    QuiverError,
    _heights,
    _memo,
    _record,
    coxeter_number,
    injective_root,
    positive_roots,
    simple_reflection,
)

__all__ = [
    "GradedDimVector",
    "RepetitionError",
    "RepetitionQuiver",
    "V_COORDINATE_SHIFT",
    "build_repetition",
    "cartan_q",
    "coxeter_tau",
    "coxeter_tau_inv",
    "d_value",
    "epsilon",
    "pairing",
    "v_lambda",
    "w_gamma",
]

# Where the v-mass of a root sits relative to the vertex labeled
# (root, 0): one step down in p.  The labeled vertices themselves carry
# the w-masses; the v-masses interleave on the opposite parity.  With
# the literal placement (shift 0) the dominance inequality
# w - C_q(v) >= 0 fails already for the smallest non-split class, and
# the cross terms of epsilon vanish identically; the -1 placement makes
# both behave as documented and is the convention all golden values in
# the tests are recorded under.
V_COORDINATE_SHIFT = -1


class RepetitionError(QuiverError):
    pass


@_record
class GradedDimVector:
    """Finitely supported integer map on I x Z, stored as sorted
    (vertex, level, value) triples with zero values dropped."""

    entries: tuple[tuple[int, int, int], ...]

    @staticmethod
    def from_dict(data: Mapping[tuple[int, int], int]) -> "GradedDimVector":
        items = tuple(
            sorted((i, p, v) for (i, p), v in data.items() if v != 0)
        )
        return GradedDimVector(items)

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, p): v for i, p, v in self.entries}

    def __add__(self, other: "GradedDimVector") -> "GradedDimVector":
        out = self.as_dict()
        for (i, p), v in other.as_dict().items():
            out[(i, p)] = out.get((i, p), 0) + v
        return GradedDimVector.from_dict(out)

    def __sub__(self, other: "GradedDimVector") -> "GradedDimVector":
        return self + (-other)

    def __neg__(self) -> "GradedDimVector":
        return GradedDimVector(tuple((i, p, -v) for i, p, v in self.entries))

    def shift(self, dp: int) -> "GradedDimVector":
        """Translate support by ``dp`` in the level coordinate.  The
        twist q^{-1} is shift(+1); the twist q is shift(-1)."""
        return GradedDimVector(
            tuple(sorted((i, p + dp, v) for i, p, v in self.entries))
        )

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for _, _, v in self.entries)


def coxeter_tau(quiver: DynkinQuiver, v: Sequence[int]) -> tuple[int, ...]:
    """Coxeter transformation: s_1 .. s_n composed with s_n applied
    first (vertex numbering is source-first topological)."""
    out = tuple(v)
    for i in reversed(quiver.vertices):
        out = simple_reflection(quiver, i, out)
    return out


def coxeter_tau_inv(quiver: DynkinQuiver, v: Sequence[int]) -> tuple[int, ...]:
    out = tuple(v)
    for i in quiver.vertices:
        out = simple_reflection(quiver, i, out)
    return out


class RepetitionQuiver:
    """Finite window of the repetition quiver with its root labeling."""

    def __init__(
        self,
        quiver: DynkinQuiver,
        window: tuple[int, int],
        xi: tuple[int, ...],
        phi: dict[tuple[int, int], tuple[tuple[int, ...], int]],
    ):
        self.quiver = quiver
        self.window = window
        self.xi = xi
        self.phi = phi
        self.gamma_vertices = {
            root: v for v, (root, m) in phi.items() if m == 0
        }

    @property
    def vertices(self) -> list[tuple[int, int]]:
        return sorted(self.phi)

    def vertex_of_root(self, root: Sequence[int]) -> tuple[int, int]:
        key = tuple(root)
        try:
            return self.gamma_vertices[key]
        except KeyError:
            raise RepetitionError(f"no vertex labeled ({key}, 0) in window") from None

    def check_window(self, vec: GradedDimVector, what: str = "vector") -> None:
        lo, hi = self.window
        for _, p, _ in vec.entries:
            if not (lo <= p <= hi):
                raise RepetitionError(
                    f"{what} leaves the window [{lo}, {hi}] at level {p}"
                )

    def __repr__(self) -> str:
        return (
            f"RepetitionQuiver({self.quiver!r}, window={self.window}, "
            f"|vertices|={len(self.phi)})"
        )


# The widest window build_repetition accepts, in Coxeter numbers.  The
# default window is under three Coxeter numbers wide, and the labeling walk
# visits every level of the window, so an unbounded one could run for ever.
MAX_WINDOW_COXETER = 8


@_memo
def build_repetition(
    quiver: DynkinQuiver, window: tuple[int, int] | None = None
) -> RepetitionQuiver:
    xi = _heights(quiver)
    h = coxeter_number(quiver.diagram_type, quiver.rank)
    if window is None:
        window = (min(xi) - 2 * h, max(xi) + 2)
    lo, hi = window
    if hi - lo > MAX_WINDOW_COXETER * h:
        raise RepetitionError(
            f"window [{lo}, {hi}] spans {hi - lo} levels; at most "
            f"{MAX_WINDOW_COXETER} * h = {MAX_WINDOW_COXETER * h} are allowed"
        )
    table = positive_roots(quiver)
    all_roots = set(table.roots)

    def positive_or_flip(vec: tuple[int, ...]) -> tuple[tuple[int, ...], bool]:
        if all(c >= 0 for c in vec):
            if vec not in all_roots:
                raise RepetitionError(f"{vec} is not a root — labeling bug")
            return vec, False
        flipped = tuple(-c for c in vec)
        if flipped not in all_roots:
            raise RepetitionError(f"{vec} is not a signed root — labeling bug")
        return flipped, True

    phi: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}
    for i in quiver.vertices:
        top = xi[i - 1]
        if not (lo <= top <= hi):
            raise RepetitionError(
                f"window [{lo}, {hi}] misses the column top ({i}, {top})"
            )
        root = injective_root(quiver, i)
        phi[(i, top)] = (root, 0)
        for step, tau in ((-2, coxeter_tau), (2, coxeter_tau_inv)):
            beta, m, p = root, 0, top
            while lo <= p + step <= hi:
                beta, flipped = positive_or_flip(tau(quiver, beta))
                if flipped:
                    m += step // 2
                p += step
                phi[(i, p)] = (beta, m)

    labels = list(phi.values())
    if len(set(labels)) != len(labels):
        raise RepetitionError("labeling is not injective on the window")
    zero_slice = {root for root, m in labels if m == 0}
    if zero_slice != all_roots:
        missing = sorted(all_roots - zero_slice)
        raise RepetitionError(
            f"window too small: roots {missing} never appear with winding 0"
        )
    return RepetitionQuiver(quiver, window, xi, phi)


def cartan_q(rq: RepetitionQuiver, vec: GradedDimVector) -> GradedDimVector:
    """Graded Cartan operator
    ``(C_q V)(i,p) = V(i,p-1) + V(i,p+1) - sum_{j ~ i} V(j,p)``."""
    rq.check_window(vec, "cartan_q input")
    out: dict[tuple[int, int], int] = {}
    for i, p, v in vec.entries:
        for dp in (+1, -1):
            key = (i, p + dp)
            out[key] = out.get(key, 0) + v
        for j in rq.quiver.neighbours(i):
            key = (j, p)
            out[key] = out.get(key, 0) - v
    result = GradedDimVector.from_dict(out)
    rq.check_window(result, "cartan_q output")
    return result


def w_gamma(rq: RepetitionQuiver, gamma: Sequence[int]) -> GradedDimVector:
    """Mass ``gamma_i`` at the vertex labeled ``(alpha_i, 0)``."""
    if len(gamma) != rq.quiver.rank:
        raise RepetitionError("gamma length does not match the rank")
    data: dict[tuple[int, int], int] = {}
    for i in rq.quiver.vertices:
        if gamma[i - 1]:
            unit = tuple(1 if j == i else 0 for j in rq.quiver.vertices)
            data[rq.vertex_of_root(unit)] = gamma[i - 1]
    return GradedDimVector.from_dict(data)


@_memo
def v_lambda(rq: RepetitionQuiver, lam: KostantPartition) -> GradedDimVector:
    """For each root ``U`` with projective cover ``Q -> M_U``, mass
    ``[Q, lam] - [U, lam]`` one step below the ``(root(U), 0)`` vertex,
    where ``[Q, lam] = sum(top_U * dim lam)``.  Projective roots get zero
    (Q = M_U there).  Memoized per ``(rq, lam)``."""
    table = lam.table
    if table.quiver is not rq.quiver:
        raise RepetitionError("class and repetition quiver disagree on the base quiver")
    into = hom_ext_vectors(lam)[0]
    data: dict[tuple[int, int], int] = {}
    for idx, root in enumerate(table.roots):
        val = sum(map(mul, _top_and_socle(table, idx)[0], lam.total)) - into[idx]
        if val:
            i, p = rq.vertex_of_root(root)
            data[(i, p + V_COORDINATE_SHIFT)] = val
    return GradedDimVector.from_dict(data)


def pairing(a: GradedDimVector, b: GradedDimVector) -> int:
    """Evaluation pairing: sum of pointwise products."""
    bd = b.as_dict()
    return sum(v * bd.get((i, p), 0) for i, p, v in a.entries)


def d_value(
    rq: RepetitionQuiver,
    v1: GradedDimVector,
    w1: GradedDimVector,
    v2: GradedDimVector,
    w2: GradedDimVector,
) -> int:
    """``< v1, q^{-1}(w2 - C_q v2) > + < v2, q w1 >``."""
    for vec, name in ((v1, "v1"), (w1, "w1"), (v2, "v2"), (w2, "w2")):
        rq.check_window(vec, name)
    twisted = (w2 - cartan_q(rq, v2)).shift(+1)
    return pairing(v1, twisted) + pairing(v2, w1.shift(-1))


def epsilon(
    rq: RepetitionQuiver,
    v1: GradedDimVector,
    w1: GradedDimVector,
    v2: GradedDimVector,
    w2: GradedDimVector,
) -> int:
    """Antisymmetrized d: ``d(v1,w1; v2,w2) - d(v2,w2; v1,w1)``."""
    return d_value(rq, v1, w1, v2, w2) - d_value(rq, v2, w2, v1, w1)

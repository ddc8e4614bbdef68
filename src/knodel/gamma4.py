"""Closed-form domination numbers of W(4, n) and matching explicit sets.

For every even n >= 2**4, the orders that graphs.KnodelGraph admits at
degree 4, the domination number is 2 * floor(n/10) plus a small addend fixed
by n mod 10, with six small orders (16, 18, 26, 28, 36, 38) falling outside
the residue pattern.  construct_dominating_set() returns an optimal set
witnessing the value: stride-5 index progressions on both sides, each one
geometric-series mask, plus a few extras; the six irregular orders come from
a lookup table, and every result is re-verified before being returned.
"""

from __future__ import annotations

from .domination import VertexSet, undominated
from .graphs import KnodelGraph, Vertex, _Record, build_graph

__all__ = [
    "EXCEPTIONAL_ORDERS",
    "GammaFormulaResult",
    "ConstructionError",
    "gamma_formula",
    "construct_dominating_set",
]

# Optimal dominating sets (u-side indices, v-side indices) for the six
# orders whose value does not follow their residue class.
EXCEPTIONAL_ORDERS: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
    16: ((1, 2), (6, 7)),
    18: ((1, 2), (6, 7)),
    26: ((1, 4, 9, 10), (1, 2, 6)),
    28: ((1, 7, 11, 13), (3, 5, 9)),
    36: ((1, 2, 10, 11), (6, 7, 15, 16)),
    38: ((1, 6, 11, 16, 18), (3, 5, 10, 13, 15)),
}


class GammaFormulaResult(_Record):
    """Domination number of W(4, n) together with how it decomposes.

    value = 2 * t + addend where t = floor(n / 10); residue is n mod 10 and
    exceptional flags the six orders handled outside the residue pattern.
    """

    __slots__ = __match_args__ = ("n", "t", "residue", "addend", "value", "exceptional")

    def __init__(
        self, n: int, t: int, residue: int, addend: int, value: int, exceptional: bool
    ) -> None:
        self._set(n, t, residue, addend, value, exceptional)


def gamma_formula(n: int) -> GammaFormulaResult:
    """Domination number of W(4, n) by the piecewise residue formula.

    The addend on top of 2 * floor(n/10) is 0 for residue 0; 2 for residues
    2 and 4; 3 for residue 6; 4 for residue 8.  The six exceptional orders
    take the size of their EXCEPTIONAL_ORDERS set less 2 * floor(n/10).
    """
    build_graph(4, n)  # refuses n unless W(4, n) exists
    t, residue = divmod(n, 10)
    exceptional = n in EXCEPTIONAL_ORDERS
    if exceptional:
        u_indices, v_indices = EXCEPTIONAL_ORDERS[n]
        addend = len(u_indices) + len(v_indices) - 2 * t
    else:
        addend = {0: 0, 2: 2, 4: 2, 6: 3, 8: 4}[residue]
    return GammaFormulaResult(n, t, residue, addend, 2 * t + addend, exceptional)


class ConstructionError(RuntimeError):
    """A constructed set failed verification; carries the uncovered vertices."""

    def __init__(self, n: int, witnesses: tuple[Vertex, ...], message: str | None = None):
        self.n = n
        self.witnesses = witnesses
        if message is None:
            labels = " ".join(str(x) for x in witnesses)
            message = (
                f"constructed set for n={n} leaves "
                f"{len(witnesses)} vertices undominated: {labels}"
            )
        super().__init__(message)


def construct_dominating_set(n: int) -> VertexSet:
    """An optimal dominating set of W(4, n), verified before it is returned.

    Raises ConstructionError (with the uncovered vertices attached) if the
    built set ever failed to dominate or had the wrong size.
    """
    g = build_graph(4, n)
    if n in EXCEPTIONAL_ORDERS:
        ds = VertexSet.from_indices(g, *EXCEPTIONAL_ORDERS[n])
    else:
        # stride sets bits 0, 5, ..., 5t - 5 (u_1, u_6, ...; v_5, v_10, ... once
        # shifted by 4), the sum of 32**i for i < t; no v-side extra is a multiple of 5.
        t, residue = divmod(n, 10)
        stride = ((1 << 5 * t) - 1) // 31
        extras = {0: (), 2: (5 * t + 1,), 4: (3,), 6: (2, 3), 8: (3, 5 * t - 2, 5 * t + 3)}[residue]
        us = stride if residue == 0 else stride | 1 << 5 * t
        vs = stride << 4 | sum(1 << j - 1 for j in extras)
        ds = VertexSet(g, us | vs << g.half)
    _verify(g, ds, n)
    return ds


def _verify(g: KnodelGraph, ds: VertexSet, n: int) -> None:
    missed = undominated(g, ds)
    if len(missed) > 0:
        raise ConstructionError(n, tuple(missed))
    expected = gamma_formula(n).value
    if len(ds) != expected:
        raise ConstructionError(
            n, (), f"constructed set for n={n} has size {len(ds)}, expected {expected}"
        )

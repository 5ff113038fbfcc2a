"""Relevance analysis: standardized z-scores of between-sample counts.

Each z-score centers and scales a between-group edge count by its
permutation-null moments.  Large negative values mean the path crosses
between the two samples far less than chance — the samples differ;
values near zero (or positive) indicate mixing, i.e. the samples are
mutually relevant.  Unions of samples are compared by merging them into
two pseudo-groups and standardizing the between-union count with the
merged sizes.  :func:`relevance_report` counts the table once, with
:func:`~relevance_kit.counts.count_edges`, and scores the pairwise grid
and every union from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counts import GroupAssignment, count_edges, union_ids
from .moments import MomentContext

__all__ = ["RelevanceReport", "z_score", "combined_z_score", "relevance_report"]


def z_score(m: int, l: int, table, ctx: MomentContext) -> float:
    """Standardized between-count for groups m and l (1-based)."""
    k = ctx.n_groups
    if not (1 <= m <= k and 1 <= l <= k) or m == l:
        raise ValueError(f"need two distinct group ids in 1..{k}, got ({m}, {l})")
    table = np.asarray(table)
    if table.shape != (k, k):
        raise ValueError(f"count table shape {table.shape} does not match k={k}")
    var = ctx.var[m - 1, l - 1]
    if var <= 0.0:
        raise ValueError(f"null variance of pair ({m},{l}) is zero; z-score undefined")
    return float((table[m - 1, l - 1] - ctx.mean[m - 1, l - 1]) / np.sqrt(var))


def _union_z(table: np.ndarray, a1: list[int], a2: list[int], ctx: MomentContext) -> float:
    """Signed z of the count between two unions checked by ``union_ids``."""
    i1, i2 = [g - 1 for g in a1], [g - 1 for g in a2]
    count = int(table[np.ix_(i1, i2)].sum())
    na, nb = int(ctx.sizes[i1].sum()), int(ctx.sizes[i2].sum())
    rest = ctx.total - na - nb
    merged = MomentContext([na, nb, rest] if rest else [na, nb])
    var = merged.var[0, 1]
    if var <= 0.0:
        raise ValueError("null variance of the merged comparison is zero")
    return float((count - merged.mean[0, 1]) / np.sqrt(var))


def combined_z_score(A1, A2, path, groups: GroupAssignment, ctx: MomentContext) -> tuple[float, float]:
    """Standardized count between two unions of samples.

    The unions are merged into pseudo-groups whose sizes, with the rest
    of the groups as a third, give the null mean and variance, so the
    scaling reflects the merged comparison rather than a sum of pairwise
    terms.  Returns (signed z, |z|): the sign distinguishes fewer
    crossings than chance (negative, samples differ) from more
    (positive, samples mix).
    """
    a1, a2 = union_ids(A1, A2, ctx.n_groups)
    z = _union_z(count_edges(path, groups), a1, a2, ctx)
    return z, abs(z)


@dataclass(frozen=True)
class RelevanceReport:
    """Pairwise z grid plus any combined-union entries.

    ``z`` is symmetric with NaN on the diagonal (a group against itself
    carries no between-count).  ``combined`` maps (tuple(A1), tuple(A2))
    to the signed z of the union comparison.
    """

    z: np.ndarray
    combined: dict[tuple[tuple[int, ...], tuple[int, ...]], float]

    @property
    def k(self) -> int:
        return int(self.z.shape[0])

    def z_of(self, m: int, l: int) -> float:
        return float(self.z[m - 1, l - 1])


def relevance_report(path, groups: GroupAssignment, combined=None) -> RelevanceReport:
    """Full pairwise z grid for one path, with optional union entries.

    Parameters
    ----------
    combined : iterable of (A1, A2), optional
        Pairs of disjoint group-id collections to compare as unions.
    """
    ctx = MomentContext.from_assignment(groups)
    k = ctx.n_groups
    if k < 2:
        raise ValueError("relevance analysis needs at least 2 groups")
    table = count_edges(path, groups)
    iu, ju = np.triu_indices(k, 1)
    z = np.full((k, k), np.nan)
    sd = np.sqrt(ctx.pair_var("z-score undefined"))
    z[iu, ju] = z[ju, iu] = (table[iu, ju] - ctx.mean[iu, ju]) / sd
    entries: dict = {}
    for A1, A2 in combined or ():
        a1, a2 = union_ids(A1, A2, k)
        entries[(tuple(a1), tuple(a2))] = _union_z(table, a1, a2, ctx)
    z.setflags(write=False)
    return RelevanceReport(z=z, combined=entries)

"""Between-sample edge counts along a Hamiltonian path.

Given a path over the pooled observations and a group label per node,
the count table holds, for every pair of groups (m, l), the number of
consecutive path edges whose endpoints belong to groups m and l.
Diagonal entries count within-group edges.  The table is symmetric and
its entries over unordered pairs sum to N - 1, one per path edge.
This module is the one place that turns labels along a path into
counts: :func:`tabulate` counts a batch of labellings in one
``bincount``, and :func:`count_edges` is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .shp import check_path

__all__ = ["GroupAssignment", "tabulate", "count_edges", "union_ids", "count_between_unions"]


@dataclass(frozen=True)
class GroupAssignment:
    """Dense 1-based group labels for N pooled observations.

    Attributes
    ----------
    labels : ndarray, shape (N,)
        Group id per observation, values in 1..k.
    sizes : ndarray, shape (k,)
        Observations per group; all entries >= 1.
    """

    labels: np.ndarray
    sizes: np.ndarray = field(init=False)

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size < 2:
            raise ValueError("labels must be a 1-D sequence of at least 2 group ids")
        k = int(labels.max(initial=0))
        if labels.min(initial=1) < 1 or k < 1:
            raise ValueError("group ids must be integers >= 1")
        sizes = np.bincount(labels, minlength=k + 1)[1:]
        if (sizes == 0).any():
            missing = (np.flatnonzero(sizes == 0) + 1).tolist()
            raise ValueError(f"group ids must be dense 1..k; missing {missing}")
        labels.setflags(write=False)
        sizes.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "sizes", sizes)

    @classmethod
    def from_labels(cls, raw) -> "GroupAssignment":
        """Map arbitrary hashable labels to dense ids 1..k.

        Ids are assigned in order of first appearance, so the mapping is
        reproducible from the input ordering alone.
        """
        mapping: dict = {}
        return cls([mapping.setdefault(lab, len(mapping) + 1) for lab in raw])

    @property
    def n_groups(self) -> int:
        return int(self.sizes.size)

    @property
    def n_total(self) -> int:
        return int(self.labels.size)


def tabulate(on_path: np.ndarray, k: int) -> np.ndarray:
    """Edge-count tables of a batch of labellings read along one path.

    ``on_path`` has shape (n, N): row r holds the 1-based group ids of
    the nodes in path order under labelling r.  Returns the n tables
    that :func:`count_edges` defines, as one (n, k, k) int64 array.
    """
    n = on_path.shape[0]
    # Edge a -> b of row r lands in bin r k^2 + (a - 1) k + (b - 1).
    bins = on_path[:, :-1] * k + on_path[:, 1:] + (k * k * np.arange(n)[:, None] - k - 1)
    directed = np.bincount(bins.ravel(), minlength=n * k * k).reshape(n, k, k)
    tables = directed + directed.transpose(0, 2, 1)
    tables[:, range(k), range(k)] //= 2  # a within-group edge was added both ways
    return tables


def count_edges(path, assignment: GroupAssignment) -> np.ndarray:
    """Symmetric k x k table of path-edge counts by endpoint groups.

    Entry (m-1, l-1) is the number of path edges with one endpoint in
    group m and the other in group l; within-group edges land on the
    diagonal.  The table is int64 and read-only.
    """
    path = check_path(path, assignment.n_total)
    table = tabulate(assignment.labels[path][None], assignment.n_groups)[0]
    table.setflags(write=False)
    return table


def union_ids(groups_a, groups_b, k: int) -> tuple[list[int], list[int]]:
    """Sorted distinct 1-based ids of two non-empty, disjoint unions of groups 1..k."""
    a = sorted(set(int(g) for g in groups_a))
    b = sorted(set(int(g) for g in groups_b))
    if not a or not b:
        raise ValueError("both subsets must be non-empty")
    if set(a) & set(b):
        raise ValueError(f"subsets must be disjoint, got {a} and {b}")
    for g in a + b:
        if not (1 <= g <= k):
            raise ValueError(f"group id {g} outside 1..{k}")
    return a, b


def count_between_unions(table, groups_a, groups_b) -> int:
    """Edges joining the union of ``groups_a`` to the union of ``groups_b``."""
    table = np.asarray(table)
    a, b = union_ids(groups_a, groups_b, table.shape[0])
    return int(table[np.ix_([g - 1 for g in a], [g - 1 for g in b])].sum())

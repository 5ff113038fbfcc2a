"""Approximate shortest Hamiltonian path construction.

Finding the exact minimum-cost Hamiltonian path is NP-hard, so the main
entry point :func:`approximate_shp` uses a greedy sorted-edge heuristic:
edges are scanned in nondecreasing cost order and admitted whenever they
neither close a cycle nor push a vertex degree above 2, stopping once
N - 1 edges are in place.  :func:`brute_force_shp` solves small
instances exactly and serves as a quality oracle in the tests.

The full edge list is never sorted.  Following the candidate-list
greedy of Bentley ("Fast algorithms for geometric traveling salesman
problems", ORSA J. Comput., 1992), :func:`approximate_shp` works in
rounds: it sorts only the cheapest block of the edges that can still
be admitted (both endpoints of degree < 2, in different path
fragments), scans it, prunes to the nodes still live, and repeats.
Pruned edges could never be admitted later, and each block comes in
the global (cost, i, j) order, so the path is the one a full sort
gives, ties included.  On Gaussian data at N = 2000 the first block
holds 8000 of the 2M edges and seven rounds finish the path.  Each
round reads the live rows in strips of about 2**18 costs
(``cost._STRIP_CELLS``), the first round as views of the cost matrix,
so its extra memory is a few strips and the block (under 5 MB at
N = 2000, where the cost matrix is 32 MB).
"""

from __future__ import annotations

import itertools

import numpy as np

from .cost import _strip_rows, check_cost_matrix

__all__ = ["approximate_shp", "brute_force_shp", "path_cost", "check_path"]

_BRUTE_FORCE_MAX = 10
_EDGES_PER_NODE = 4  # candidate edges scanned per live node in each greedy round


def check_path(path, n: int) -> np.ndarray:
    """Validate that ``path`` is a permutation of 0..n-1."""
    p = np.asarray(path, dtype=np.int64)
    if p.ndim != 1 or p.size != n:
        raise ValueError(f"path must be a 1-D sequence of length {n}, got shape {p.shape}")
    if not np.array_equal(np.sort(p), np.arange(n)):
        raise ValueError("path must visit every node index 0..n-1 exactly once")
    return p


def approximate_shp(costs) -> np.ndarray:
    """Greedy sorted-edge approximation of the shortest Hamiltonian path.

    Edge (i, j), i < j, costs ``costs[i, j]``; only the upper triangle
    is read.  Edges are admitted in (cost, i, j) order, so equal-cost
    edges are broken lexicographically and the result is deterministic.
    Cycle detection uses a union-find structure; degrees are tracked
    per vertex.

    The edges are scanned in rounds rather than sorted all at once.
    Each round takes the live nodes (degree < 2) in ascending order,
    keeps the pairs of them that join two different fragments, and
    scans, sorted, every such pair at or below the cost of the
    ``_EDGES_PER_NODE * live``-th cheapest, ties included.  This
    admits exactly the edges of a full sort: a pruned pair would be
    rejected whenever the full scan reached it, since degree 2 stays
    degree 2 and fragments only merge, and any pair still joining two
    fragments costs more than the last block, whose scan would have
    admitted it.  Each round reads the live rows of ``costs`` in
    strips, the first round in place, so beyond ``costs`` it holds a
    few strips of ``cost._STRIP_CELLS`` costs and the block.

    Returns
    -------
    ndarray, shape (N,)
        Node order of the constructed path, oriented to start at the
        endpoint with the smaller index.
    """
    C = check_cost_matrix(costs)
    n = C.shape[0]

    # Python lists and ints: the scan below touches them once per candidate edge
    parent = list(range(n))
    degree = [0] * n
    adjacency: list[list[int]] = [[] for _ in range(n)]

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    selected = 0
    while selected < n - 1:
        live = np.flatnonzero(np.array(degree) < 2)
        us, vs = _candidate_block(C, live, np.array([find(x) for x in live.tolist()]))
        for u, v in zip(us.tolist(), vs.tolist()):
            if degree[u] >= 2 or degree[v] >= 2:
                continue
            ru, rv = find(u), find(v)
            if ru == rv:
                continue  # would close a cycle
            parent[ru] = rv
            degree[u] += 1
            degree[v] += 1
            adjacency[u].append(v)
            adjacency[v].append(u)
            selected += 1
            if selected == n - 1:
                break

    start = degree.index(1)  # the endpoint with the smaller index
    order = np.empty(n, dtype=np.int64)
    order[0] = start
    prev = -1
    node = start
    for i in range(1, n):
        nxt = adjacency[node][0] if adjacency[node][0] != prev else adjacency[node][1]
        order[i] = nxt
        prev, node = node, nxt
    order.setflags(write=False)
    return order


def _candidate_block(C: np.ndarray, live: np.ndarray, roots: np.ndarray):
    """One round's edges, in (cost, i, j) order.

    ``live`` lists the nodes of degree < 2 in ascending order and
    ``roots`` their fragments.  The block holds every pair of live nodes
    in different fragments costing at most the
    ``_EDGES_PER_NODE * live.size``-th cheapest such pair.

    The live rows are read in strips, with m = ``_EDGES_PER_NODE *
    live.size``.  A pool keeps every candidate seen so far at or below
    the running threshold, the m-th smallest of them; that threshold
    only falls, so the pool ends holding exactly the block.  Until the
    pool holds m candidates, a strip with more than m sets a first
    threshold from its own values before its indices are taken: the
    m-th smallest of any m candidates bounds the block's from above.
    """
    m = _EDGES_PER_NODE * live.size
    full = live.size == C.shape[0]
    rows = _strip_rows(live.size)
    thr = np.inf
    ii = jj = np.empty(0, dtype=np.int64)
    vv = np.empty(0)
    for a in range(0, live.size - 1, rows):
        e = min(a + rows, live.size - 1)
        # row i = a + r against column j = a + 1 + c; only j > i, i.e. c >= r, is a pair
        S = C[a:e, a + 1:] if full else C[np.ix_(live[a:e], live[a + 1:])]
        mask = roots[a:e, None] != roots[a + 1:]
        mask[:, : e - a] &= np.tri(e - a, dtype=bool).T
        if thr == np.inf and np.count_nonzero(mask) > m:
            # a first threshold from this strip alone, before taking its indices
            vals = S[mask]
            vals.partition(m - 1)
            thr = vals[m - 1]
            del vals
        if thr < np.inf:
            mask &= S <= thr
        r, c = np.nonzero(mask)
        if vv.size == 0:  # nothing pooled yet: no threshold, or one from this strip alone
            ii, jj, vv = r + a, c + (a + 1), S[r, c]
        elif r.size:
            ii = np.concatenate((ii, r + a))
            jj = np.concatenate((jj, c + (a + 1)))
            vv = np.concatenate((vv, S[r, c]))
            if vv.size > m:
                thr = np.partition(vv, m - 1)[m - 1]
                keep = vv <= thr
                ii, jj, vv = ii[keep], jj[keep], vv[keep]
    order = np.lexsort((jj, ii, vv))
    return live[ii[order]], live[jj[order]]


def _half_permutations(n: int) -> np.ndarray:
    """All orientations with first < last node, in lexicographic order.

    A path and its reversal carry the same cost, so only the
    canonically oriented half is enumerated.
    """
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    return perms[perms[:, 0] < perms[:, -1]]


# Permutation tables are expensive to build at N=9..10; keep them around.
_PERM_CACHE: dict[int, np.ndarray] = {}


def brute_force_shp(costs) -> np.ndarray:
    """Exact shortest Hamiltonian path by exhaustive enumeration.

    Guarded to N <= 10; cost ties are broken by the lexicographically
    smallest node order.
    """
    C = check_cost_matrix(costs)
    n = C.shape[0]
    if n > _BRUTE_FORCE_MAX:
        raise ValueError(f"brute_force_shp is limited to N <= {_BRUTE_FORCE_MAX}, got N={n}")
    if n == 2:
        return np.array([0, 1], dtype=np.int64)
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = _half_permutations(n)
    perms = _PERM_CACHE[n]
    totals = C[perms[:, :-1].astype(np.int64), perms[:, 1:].astype(np.int64)].sum(axis=1)
    best = int(np.argmin(totals))  # first occurrence = lexicographically smallest
    return perms[best].astype(np.int64)


def path_cost(path, costs) -> float:
    """Total cost along consecutive path edges."""
    C = check_cost_matrix(costs)
    p = check_path(path, C.shape[0])
    return float(C[p[:-1], p[1:]].sum())

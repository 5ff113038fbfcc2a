"""Approximate shortest Hamiltonian path construction.

Finding the exact minimum-cost Hamiltonian path is NP-hard, so the main
entry point :func:`approximate_shp` uses a greedy sorted-edge heuristic:
edges are scanned in nondecreasing cost order and admitted whenever they
neither close a cycle nor push a vertex degree above 2, stopping once
N - 1 edges are in place.  Every fragment built so far is itself a
path, so a node of degree < 2 need only know the other end of its
fragment: an edge between two such nodes closes a cycle exactly when
each is the other's end.  :func:`brute_force_shp` solves small
instances exactly and serves as a quality oracle in the tests.

The full edge list is never sorted.  Following the candidate-list
greedy of Bentley ("Fast algorithms for geometric traveling salesman
problems", ORSA J. Comput., 1992), :func:`approximate_shp` works in
rounds: it sorts only the cheapest block of the edges that can still
be admitted (both endpoints of degree < 2, in different path
fragments), scans it, prunes to the nodes still live, and repeats.
Pruned edges could never be admitted later, and each block is a prefix
of one global edge order, so the path is the one a full sort gives.
That order is by cost, and equal costs are ordered by a random rank of
the nodes, drawn from ``seed``: by node index, rows sorted by group
would put same-group edges first and the path would follow the labels.
On Gaussian data at N = 2000 the first block holds 8000 of the 2M
edges and seven rounds finish the path.  Each round reads the live
rows in strips of about 2**18 costs (``cost._STRIP_CELLS``), the first
round as views of the cost matrix, and merges every strip's candidates
into one pool by the same concatenate-and-prune step, so its extra
memory is a few strips and the block (under 5 MB at N = 2000, where
the cost matrix is 32 MB).
"""

from __future__ import annotations

import itertools

import numpy as np

from .cost import _strip_rows, check_cost_matrix

__all__ = ["approximate_shp", "brute_force_shp", "path_cost", "check_path"]

_BRUTE_FORCE_MAX = 10
_EDGES_PER_NODE = 4  # candidate edges scanned per live node in each greedy round
_TIE_STREAM = 1  # spawn key of the node rank's stream under a seed


def check_path(path, n: int) -> np.ndarray:
    """Validate that ``path`` is a permutation of 0..n-1."""
    p = np.asarray(path, dtype=np.int64)
    if p.ndim != 1 or p.size != n:
        raise ValueError(f"path must be a 1-D sequence of length {n}, got shape {p.shape}")
    if not np.array_equal(np.sort(p), np.arange(n)):
        raise ValueError("path must visit every node index 0..n-1 exactly once")
    return p


def _node_rank(n: int, seed=0) -> np.ndarray:
    """The random rank of each of ``n`` nodes that orders equal-cost edges.

    One 64-bit word per node from the child seed sequence of ``seed``
    with spawn key ``_TIE_STREAM``, scaled to [0, 1]; no
    ``np.random.default_rng(seed)`` draw, such as
    :func:`~relevance_kit.inference.permutation_pvalue`'s, shares that
    stream.  The words come from the seed sequence itself, not from a
    ``Generator``: building one inside the path moved the first use of
    its code before a command's memory peak (+0.06 MiB peak RSS on a
    k = 10, N = 500 ``test``, +0.11 MiB with ``Generator.permutation``).
    """
    words = np.random.SeedSequence(seed, spawn_key=(_TIE_STREAM,)).generate_state(n, np.uint64)
    return words * 2.0**-64


def approximate_shp(costs, seed=0) -> np.ndarray:
    """Greedy sorted-edge approximation of the shortest Hamiltonian path.

    Edge (i, j), i < j, costs ``costs[i, j]``; only the upper triangle
    is read.  Edges are admitted in order of cost; equal costs are
    ordered by the (smaller, larger) of their endpoints'
    :func:`_node_rank` under ``seed``, so the result is deterministic
    given ``seed`` (a non-negative int or a sequence of them), and tied
    data sorted by group does not make the path follow the groups.  On
    tie-free costs the rank orders nothing, so every seed gives the
    same path.  Degrees are tracked per vertex.  Each fragment is a
    path, so ``end[x]`` holds, for a node x of degree < 2, the other
    end of x's fragment (x itself for a lone node): edge (u, v) closes
    a cycle exactly when ``end[u] == v``, admitting it makes the two
    outer ends each other's ``end``, and the smaller end names the
    fragment in a round.

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
    strips, the first round in place, and merges every strip into one
    pool by the same concatenate-and-prune step, so beyond ``costs`` it
    holds a few strips of ``cost._STRIP_CELLS`` costs and the block.

    Returns
    -------
    ndarray, shape (N,)
        Node order of the constructed path, oriented to start at the
        endpoint with the smaller index.
    """
    C = check_cost_matrix(costs)
    n = C.shape[0]

    # Python lists and ints: the scan below touches them once per candidate edge.
    # For a node x of degree < 2, end[x] is the other end of its fragment.
    end = list(range(n))
    degree = [0] * n
    adjacency: list[list[int]] = [[] for _ in range(n)]
    rank = _node_rank(n, seed)

    selected = 0
    while selected < n - 1:
        live = np.flatnonzero(np.array(degree) < 2)
        us, vs = _candidate_block(C, live, np.minimum(live, np.array(end)[live]), rank)
        for u, v in zip(us.tolist(), vs.tolist()):
            if degree[u] >= 2 or degree[v] >= 2 or end[u] == v:
                continue  # a full vertex, or the edge would close a cycle
            a, b = end[u], end[v]
            end[a], end[b] = b, a
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


def _candidate_block(C: np.ndarray, live: np.ndarray, roots: np.ndarray, rank: np.ndarray):
    """One round's edges ``(us, vs)``, in order of cost and then node rank.

    ``live`` lists the nodes of degree < 2 in ascending order and
    ``roots`` their fragments.  The block holds every pair of live nodes
    in different fragments costing at most the
    ``_EDGES_PER_NODE * live.size``-th cheapest such pair.  It is sorted
    by cost, then by the smaller and the larger ``rank`` of its nodes.

    The live rows are read in strips, with m = ``_EDGES_PER_NODE *
    live.size``.  Every strip's candidates at or below the running
    threshold join one pool, which is pruned to the m-th smallest of
    it whenever it holds more than m; that threshold only falls, so the
    pool ends holding exactly the block.  The threshold starts at
    infinity, which every cost passes (``check_cost_matrix`` admits
    finite costs only).  Until it falls, a strip with more than m
    candidates sets it from its own values before its indices are
    taken: the m-th smallest of any m candidates bounds the block's
    from above.
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
        mask &= S <= thr
        r, c = np.nonzero(mask)
        ii = np.concatenate((ii, r + a))
        jj = np.concatenate((jj, c + (a + 1)))
        vv = np.concatenate((vv, S[r, c]))
        if vv.size > m:
            thr = np.partition(vv, m - 1)[m - 1]
            keep = vv <= thr
            ii, jj, vv = ii[keep], jj[keep], vv[keep]
    us, vs = live[ii], live[jj]
    ru, rv = rank[us], rank[vs]
    order = np.lexsort((np.maximum(ru, rv), np.minimum(ru, rv), vv))
    return us[order], vs[order]


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

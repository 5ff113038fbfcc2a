"""End-to-end three-sample comparison: costs, path, counts, and both tests.

Scenario: three groups of high-dimensional observations.  Groups 1 and 2
share a common distribution; group 3 is shifted in the first quarter of
the coordinates.  A distribution-free pipeline should flag the sample as
heterogeneous and the permutation check should agree with the closed-form
asymptotic p-values.

Run:  python3 demos/03_k_sample_tests.py
"""

import numpy as np

from relevance_kit import (
    GroupAssignment,
    MomentContext,
    WeightMatrix,
    approximate_shp,
    count_edges,
    gamma_cost,
    minimum_critical_value,
    minimum_test,
    permutation_pvalue,
    weighted_sum_test,
)

rng = np.random.default_rng(33)

# --- 1. data ---------------------------------------------------------------
sizes = (15, 20, 25)
d = 300
shift = 0.35  # applied to group 3 on the first d//4 coordinates

blocks = []
for g, n in enumerate(sizes, start=1):
    block = rng.standard_normal((n, d))
    if g == 3:
        block[:, : d // 4] += shift
    blocks.append(block)
data = np.vstack(blocks)
labels = np.repeat([1, 2, 3], sizes)
groups = GroupAssignment.from_labels(labels)
N = data.shape[0]

print(f"dataset: N={N} observations in k=3 groups {sizes}, d={d}")
print(f"group 3 mean-shifted by {shift} on {d // 4} of {d} coordinates")

# --- 2. edge costs and path ------------------------------------------------
C = gamma_cost(data, gamma=1.0)
path = approximate_shp(C)
print(f"\npath found: visits all {N} nodes, first five = {path[:5].tolist()}")

# --- 3. between/within edge counts ----------------------------------------
table = count_edges(path, groups)
print("\nedge-count table S[m, l] (path edges joining groups m and l):")
print("        g1   g2   g3")
for m in range(1, 4):
    row = "   ".join(f"{int(table[m - 1, l - 1]):3d}" for l in range(1, 4))
    print(f"   g{m}  {row}")
total = sum(
    int(table[m, l]) for m in range(3) for l in range(m, 3)
)
print(f"checks: edges over unordered pairs sum to N-1 = {total}")

# Under homogeneity, between-group edges are plentiful (groups interleave
# along the path).  Separation shows up as a deficit of between edges.
ctx = MomentContext(groups.sizes)
print("\nobserved vs null-expected between counts:")
for m, l in [(1, 2), (1, 3), (2, 3)]:
    s = table[m - 1, l - 1]
    mu = ctx.mean[m - 1, l - 1]
    print(f"   S({m},{l}) = {int(s):3d}   E = {mu:6.2f}   deficit = {mu - s:+.2f}")

# --- 4. the two asymptotic tests -------------------------------------------
w = WeightMatrix.default(ctx)
ws = weighted_sum_test(table, w, ctx, alpha=0.05)
mn = minimum_test(table, w, ctx, alpha=0.05)

print("\nweighted-sum test (variance-weighted aggregate deficit):")
print(f"   statistic = {ws.statistic:.4f}")
print(f"   null mean = {ws.null_mean:.4f}, null sd = {ws.null_sd:.4f}")
print(f"   p-value   = {ws.p_value:.6f}   reject at 5%? {ws.reject}")

print("minimum test (most-deficient standardized pair):")
print(f"   statistic = {mn.statistic:.4f}")
# Both tests decide by p <= alpha.  The minimum test's critical value, the
# statistic at which its p-value is alpha, is a root of its own, found on request.
print(f"   critical  = {minimum_critical_value(w, ctx, alpha=0.05):.4f}")
print(f"   p-value   = {mn.p_value:.6f}   reject at 5%? {mn.reject}")

# which pair drives the minimum?  w.vector() runs over the pairs in
# np.triu_indices order: (1,2), (1,3), (2,3).
iu, ju = np.triu_indices(3, 1)
dev = w.vector() * (table[iu, ju] - ctx.mean[iu, ju])
pairs = [f"({m + 1},{l + 1})" for m, l in zip(iu, ju)]
print(f"   driven by pair {pairs[int(np.argmin(dev))]} "
      f"(weighted deviations: "
      + ", ".join(f"{p}={v:+.3f}" for p, v in zip(pairs, dev)) + ")")

# --- 5. permutation cross-check --------------------------------------------
# Under the null the labels along the path are a uniform arrangement, so
# the reference needs only the design: one call draws B arrangements of the
# design's labels from one np.random.default_rng(seed) stream and scores
# each by both statistics against the observed table.  The same seed gives
# the same p-values; an arrangement whose statistic ties the observed one
# counts as "at or below" it.
B = 500
perm = permutation_pvalue(table, w, ctx, B=B, seed=101)
p_ws, p_mn = perm["weighted_sum"], perm["minimum"]
print(f"\npermutation reference (B={B} arrangements of the design's labels):")
print(f"   ws : asymptotic p = {ws.p_value:.4f}   permutation p = {p_ws:.4f}")
print(f"   min: asymptotic p = {mn.p_value:.4f}   permutation p = {p_mn:.4f}")

# --- 6. the same machinery on truly homogeneous data -----------------------
null_data = rng.standard_normal((N, d))
C0 = gamma_cost(null_data, gamma=1.0)
t0 = count_edges(approximate_shp(C0), groups)
ws0 = weighted_sum_test(t0, w, ctx)
mn0 = minimum_test(t0, w, ctx)
print("\nsame pipeline, all three groups drawn from one distribution:")
print(f"   ws : p = {ws0.p_value:.4f}   reject? {ws0.reject}")
print(f"   min: p = {mn0.p_value:.4f}   reject? {mn0.reject}")

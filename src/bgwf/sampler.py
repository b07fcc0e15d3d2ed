"""Exact sampling of branching-process trees conditioned on their size.

The pipeline is: draw the offspring multiset conditioned on total sum n-1,
arrange it uniformly, then apply the cycle lemma to obtain the unique
rotation that is a valid depth-first degree sequence.  The multiset comes
from a few attempts, after Devroye, "Simulating size-constrained
Galton-Watson trees" (SIAM J. Comput. 41, 2012): with j the smallest
positive support value, an attempt draws the number M of values outside
{0, j} from a tilted binomial law and those M values directly; the sum then
forces the number of j's, which is kept with a binomial probability ratio.
Annotation (parents, subtree sizes, subtree heights, depths) uses no
recursion, so sizes up to 10^6 are safe.  Trees below TREE_NUMPY_MIN = 120
vertices are rotated, annotated and checked as Python lists, by two loops,
and their rows built by one numpy call; larger trees go through numpy on
the Lukasiewicz path.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count
from math import lgamma

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .offspring import OffspringModel, normalizer, support_contains
from .theory import g0


class BudgetExhausted(RuntimeError):
    """Degree sampler ran out of attempts; carries the predicted rate."""

    def __init__(self, n: int, attempts: int, acceptance_rate: float):
        self.n = n
        self.attempts = attempts
        self.acceptance_rate = acceptance_rate
        super().__init__(
            f"degree-sequence sampler for n={n} exhausted {attempts} attempts "
            f"(predicted acceptance rate per attempt {acceptance_rate:.3g})"
        )


@dataclass(frozen=True)
class AnnotatedTree:
    """Size-n ordered rooted tree in depth-first order with per-vertex stats.

    ``parent[0]`` is the sentinel -1.  Heights count edges: leaves have
    subtree_height 0, and ``height`` is the maximal depth.
    """

    n: int
    parent: np.ndarray
    degree: np.ndarray
    subtree_size: np.ndarray
    subtree_height: np.ndarray
    depth: np.ndarray

    @property
    def height(self) -> int:
        return int(self.depth.max())

    @property
    def leaves(self) -> int:
        return int((self.degree == 0).sum())

    @property
    def internal(self) -> np.ndarray:
        return self.degree > 0

    @cached_property
    def internal_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """(subtree sizes, subtree heights) of the internal vertices, as floats.

        Built on first use and kept, read-only: every toll evaluated on the
        tree reads the same two arrays.
        """
        mask = self.internal
        sizes = self.subtree_size[mask].astype(float)
        heights = self.subtree_height[mask].astype(float)
        sizes.setflags(write=False)
        heights.setflags(write=False)
        return sizes, heights

    def validate(self) -> None:
        """Check all structural invariants; raises ValueError on violation.

        Trees below TREE_NUMPY_MIN are checked on Python lists (_check_rows),
        larger ones in numpy; both test the same invariants.
        """
        n = self.n
        if n < TREE_NUMPY_MIN:
            _check_rows(self.degree.tolist(), self.parent.tolist(), self.subtree_size.tolist(),
                        self.subtree_height.tolist(), self.depth.tolist())
            return
        children = self.parent[1:]
        # count_nonzero instead of .any(): the sampler validates every tree,
        # and near TREE_NUMPY_MIN the per-call overhead is much of the cost
        if self.degree.sum() != n - 1:
            raise ValueError("degree sum != n - 1")
        if self.parent[0] != -1 or np.count_nonzero(children < 0):
            raise ValueError("bad parent array")
        if self.subtree_size[0] != n:
            raise ValueError("root subtree size != n")
        child_sum = np.bincount(children, weights=self.subtree_size[1:], minlength=n)
        if np.count_nonzero(child_sum + 1 != self.subtree_size):
            raise ValueError("subtree sizes inconsistent")
        if np.count_nonzero(self.depth[1:] != self.depth[children] + 1):
            raise ValueError("depths inconsistent")
        hmax = np.zeros(n, dtype=np.int64)
        np.maximum.at(hmax, children, self.subtree_height[1:] + 1)
        if np.count_nonzero(hmax != self.subtree_height):
            raise ValueError("subtree heights inconsistent")
        if np.count_nonzero((self.degree > 0) != (self.subtree_size > 1)):
            raise ValueError("internal-vertex characterizations disagree")

    def to_csv(self, path_or_buf) -> None:
        """One line per vertex: index,parent,degree,depth,subtree_size,subtree_height."""
        buf = path_or_buf if hasattr(path_or_buf, "write") else io.StringIO()
        buf.write("index,parent,degree,depth,subtree_size,subtree_height\n")
        for i in range(self.n):
            buf.write(
                f"{i},{self.parent[i]},{self.degree[i]},{self.depth[i]},"
                f"{self.subtree_size[i]},{self.subtree_height[i]}\n"
            )
        if buf is not path_or_buf:
            with open(path_or_buf, "w") as fh:
                fh.write(buf.getvalue())


# The default attempt budget gives up fewer than this share of the trees.
DROP_SHARE = 1e-9
# The default attempt budget is never below this count.
MIN_ATTEMPTS = 1000


@lru_cache(maxsize=32)
def _tilt(n: int, rest: float, r: float) -> tuple[int, tuple, float]:
    """Law of M, the draws outside {0, j}, tilted by h(n - M); O(n), pure.

    The weight of M is Bin(n, rest)(M) h(n - M), with h(N) = max_k Bin(N, r)(k)
    reached at the mode k = floor((N + 1) r).  Returns the smallest M of
    positive weight, the CDF from there up to the largest such M, and the log
    of the normalizer, the sum of all weights.  The weights that underflow to
    zero, all but a band of O(sqrt(n)) values, would never be drawn.
    """
    m = np.arange(n + 1)
    big = n - m
    mode = np.minimum(np.floor((big + 1) * r), big)
    # log Bin(n, rest)(m) + log Bin(big, r)(mode); the two (big)! cancel
    log_w = (gammaln(n + 1.0) - gammaln(m + 1.0) + xlogy(m, rest) + xlog1py(big, -rest)
             - gammaln(mode + 1.0) - gammaln(big - mode + 1.0) + xlogy(mode, r) + xlog1py(big - mode, -r))
    top = log_w.max()
    w = np.exp(log_w - top)
    positive = np.flatnonzero(w)
    lo = int(positive[0])
    cdf = w[lo:positive[-1] + 1].cumsum()
    total = float(cdf[-1])
    return lo, tuple((cdf / total).tolist()), float(top) + math.log(total)


def predicted_acceptance_rate(model: OffspringModel, n: int) -> float:
    """Acceptance rate per attempt of sample_degree_sequence, predicted.

    Exactly P(S_n = n-1) / Z, where Z is the normalizer of the tilt of M;
    P(S_n = n-1) is taken from the local limit theorem, span*g(0)/b_n.
    """
    local = model.span * g0(model.gamma, model.kappa) / normalizer(model, n)
    split = model.split
    return min(1.0, local * math.exp(-_tilt(n, split.rest, split.r)[2]))


def default_attempt_budget(model: OffspringModel, n: int) -> int:
    """Attempts that drop fewer than DROP_SHARE of the trees at half the predicted rate.

    Against the exact rate (by convolution) for n < 400 under eight laws
    (geometric, a four-point law, stable gamma = 1.05-2) the prediction was
    within a factor 2, except at n <= 4, where it overstated the rate up to
    16-fold (gamma = 1.05, c = 0.05, n = 1).  The exact rate there was at
    least 0.05, and the floor of 1000 attempts keeps the drops below
    DROP_SHARE for any rate above 0.021.
    """
    rate = 0.5 * predicted_acceptance_rate(model, n)
    return max(MIN_ATTEMPTS, math.ceil(math.log(DROP_SHARE) / math.log1p(-rate)))


def sample_degree_sequence(
    model: OffspringModel, n: int, rng: np.random.Generator, max_attempts: int | None = None
) -> np.ndarray:
    """n iid offspring draws conditioned on summing to n-1, exact law.

    The counts of the multiset factor as Bin(n, rest)(M) for the M draws
    outside {0, j}, a multinomial over those M, and Bin(n - M, r)(N_j) for
    the split of the others between j and 0.  One attempt draws M from the
    tilted law of _tilt, then the tail count (one binomial) and the other
    counts (one multinomial), so that the sum fixes N_j; it keeps N_j with
    probability Bin(n - M, r)(N_j) / h(n - M).  Kept multisets have exactly
    the conditional law, and arranging one uniformly gives the conditional
    law of the iid sequence, by exchangeability.

    Without max_attempts the default budget is computed only once
    MIN_ATTEMPTS attempts have failed, since it is never smaller; a
    multinomial of zero draws is skipped, since it consumes no random state.
    """
    if not support_contains(model, n):
        raise ValueError(f"size {n} is not in the support of the conditioned tree")
    split = model.split
    j, r, values, probs = split.j, split.r, split.values, split.other_probs
    if not split.rest:
        # support {0, j}: the multiset is forced, only its order is random
        k = (n - 1) // j
        degrees = values.repeat([n - k, k])
        rng.shuffle(degrees)
        return degrees
    budget = max_attempts if max_attempts is not None else MIN_ATTEMPTS
    lo, cdf, _ = _tilt(n, split.rest, r)
    log_odds = math.log(r) - math.log1p(-r)
    tail_frac = split.tail_q / split.rest  # share of the M draws above the table
    for attempt in count():
        if attempt == MIN_ATTEMPTS and max_attempts is None:
            budget = default_attempt_budget(model, n)
        if attempt >= budget:
            raise BudgetExhausted(n, budget, predicted_acceptance_rate(model, n))
        m = lo + bisect_right(cdf, rng.random())
        t_count = int(rng.binomial(m, tail_frac)) if tail_frac and m else 0
        table_count = m - t_count  # draws from the table, by one multinomial
        rem = n - 1
        if table_count:
            counts = rng.multinomial(table_count, probs)
            rem -= int(counts.dot(values[2:]))
        if t_count:
            tail_vals = model.sample_above(split.tail_q, t_count, rng)
            rem -= int(tail_vals.sum())
        k, off = divmod(rem, j)
        big = n - m
        if off or not 0 <= k <= big:
            continue
        mode = min(int((big + 1) * r), big)
        if k != mode and rng.random() >= math.exp(
                lgamma(mode + 1) + lgamma(big - mode + 1) - lgamma(k + 1) - lgamma(big - k + 1)
                + (k - mode) * log_odds):
            continue
        if table_count:
            degrees = values.repeat(np.concatenate(([big - k, k], counts)))
        else:
            degrees = values[:2].repeat([big - k, k])
        if t_count:
            degrees = np.concatenate([degrees, tail_vals])
        rng.shuffle(degrees)
        return degrees


def cycle_rotate(degrees: np.ndarray) -> int:
    """Rotation index making the degree sequence a valid depth-first order.

    The walk increments are degree-1 and sum to -1; exactly one cyclic
    rotation keeps all partial sums nonnegative before the final step
    (Dvoretzky-Motzkin).  That rotation starts right after the first minimum.
    """
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    walk = (degrees - 1).cumsum()
    if walk[-1] != -1:
        raise ValueError("degree sequence does not sum to n - 1")
    return (int(walk.argmin()) + 1) % n


def _rotation(deg: list) -> int:
    """cycle_rotate on a list of Python ints."""
    low = walk = r = 0
    for i, d in enumerate(deg, 1):
        walk += d - 1
        if walk < low:  # the walk ends at -1, so strict < keeps its first minimum
            low, r = walk, i
    if walk != -1:
        raise ValueError("degree sequence does not sum to n - 1")
    return r % len(deg)


# Trees below this size are rotated, annotated and checked on Python lists,
# larger ones in numpy, whose per-call overhead is most of the cost of a
# small tree.  Time per sample_conditioned call, lists against numpy, on a
# 2-vCPU Intel Xeon VM (Catalan, geometric and stable gamma=1.5 trees,
# medians of nine runs): 0.55-0.62 at n=48, 0.88-0.94 at n=96, 0.93-1.05
# at n=112, 1.01-1.06 at n=128, 1.20-1.27 at n=160.
TREE_NUMPY_MIN = 120


def range_max(values: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """max(values[s:t]) for each pair (s, t) with s < t, from one sparse table.

    Row k of the table holds the maxima of all windows of length 2^k, so a
    query is the larger of two overlapping windows, each read with one
    gather: O(m log m) to build, O(1) per query.  The table has the dtype of
    ``values``, so a narrow dtype keeps it small.
    """
    m = len(values)
    table = np.empty((m.bit_length(), m), dtype=values.dtype)
    table[0] = values
    for k in range(1, len(table)):
        half = 1 << (k - 1)
        np.maximum(table[k - 1, :-half], table[k - 1, half:], out=table[k, :-half])
        table[k, -half:] = table[k - 1, -half:]
    k = np.frexp(stops - starts)[1] - 1  # floor(log2(t - s)), exact for integers
    row = k * np.intp(m)  # offset of row k in the flat table
    flat = table.ravel()
    top = flat[row + starts]
    np.maximum(top, flat[row + stops - (1 << k)], out=top)
    return top


def _annotate_loop(deg: list) -> tuple[list, list, list, list]:
    """Rows parent, subtree size, subtree height, depth, by two Python loops.

    One forward pass (explicit stack) fills parents and depths; one reverse
    pass accumulates subtree sizes and heights, children being visited before
    their parent in reversed depth-first order.  The sequence is valid iff
    the stack of open child slots never empties before the last vertex and
    has no open slot left after it.
    """
    n = len(deg)
    par = [-1] * n
    dep = [0] * n
    stack_v = [0]
    stack_r = [deg[0]]
    try:
        for i in range(1, n):
            while stack_r[-1] == 0:
                stack_v.pop()
                stack_r.pop()
            p = stack_v[-1]
            stack_r[-1] -= 1
            par[i] = p
            dep[i] = dep[p] + 1
            stack_v.append(i)
            stack_r.append(deg[i])
    except IndexError:
        raise ValueError("not a valid depth-first degree sequence") from None
    if any(stack_r):
        raise ValueError("not a valid depth-first degree sequence")

    size = [1] * n
    height = [0] * n
    for i in range(n - 1, 0, -1):
        p = par[i]
        size[p] += size[i]
        h = height[i] + 1
        if h > height[p]:
            height[p] = h
    return par, size, height, dep


def _check_rows(deg: list, par: list, size: list, height: list, dep: list) -> None:
    """The invariants of AnnotatedTree.validate, on Python lists."""
    n = len(deg)
    if sum(deg) != n - 1:
        raise ValueError("degree sum != n - 1")
    children = par[1:]
    if par[0] != -1 or (children and not 0 <= min(children) <= max(children) < n):
        raise ValueError("bad parent array")
    if size[0] != n:
        raise ValueError("root subtree size != n")
    child_sum = [1] * n
    hmax = [0] * n
    for i, p in enumerate(children, 1):
        child_sum[p] += size[i]
        h = height[i] + 1
        if h > hmax[p]:
            hmax[p] = h
    if child_sum != size:
        raise ValueError("subtree sizes inconsistent")
    if [dep[p] + 1 for p in children] != dep[1:]:
        raise ValueError("depths inconsistent")
    if hmax != height:
        raise ValueError("subtree heights inconsistent")
    if [d > 0 for d in deg] != [s > 1 for s in size]:
        raise ValueError("internal-vertex characterizations disagree")


def _annotate_lukasiewicz(degree: np.ndarray) -> np.ndarray:
    """The rows of _annotate_loop, from the Lukasiewicz path in numpy.

    The path is L_i = sum_{k<i} (d_k - 1); the sequence is valid iff the
    degrees are nonnegative, L_i >= 0 for i < n and L_n = -1.  Its down-steps
    are exactly -1, so vertex i's subtree ends at the first j > i with
    L_j = L_i - 1: among the keys L*(n+1) + index, sorted once, that is the
    key right after i's own key moved down one level.  Depth is the number of
    open subtrees [k+1, end_k) over a vertex.  Depth rises by at most 1 per
    step, so vertex j's parent is the last k < j with depth_k = depth_j - 1,
    found the same way among the keys depth*n + index.
    """
    n = degree.size
    walk = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree - 1, out=walk[1:])
    if walk[n] != -1 or walk[:n].min() < 0 or degree.min() < 0:
        raise ValueError("not a valid depth-first degree sequence")
    idx = np.arange(n + 1)
    stats = np.empty((4, n), dtype=np.int64)
    parent, size, height, depth = stats
    keys = np.sort(walk * (n + 1) + idx)  # the first is vertex n's, alone at level -1
    below = keys[1:] - (n + 1)
    size[below % (n + 1)] = keys[np.searchsorted(keys, below)] - below
    end = idx[:n] + size
    np.subtract(idx[:n], np.bincount(end, minlength=n + 1).cumsum()[:n], out=depth)
    # depths fit a narrow dtype (one or two bytes at n = 10^4), which shrinks
    # the range-max table built from them eight- or fourfold
    narrow = depth.astype(np.min_scalar_type(int(depth.max())))
    np.subtract(range_max(narrow, idx[:n], end), depth, out=height)
    keys = np.sort(depth * n + idx[:n])  # the first is the root's, alone at depth 0
    above = keys[1:] - n
    parent[0] = -1
    parent[above % n] = keys[np.searchsorted(keys, above) - 1] % n
    return stats


def _tree_from_rows(deg: list, rows: tuple[list, list, list, list]) -> AnnotatedTree:
    """AnnotatedTree whose five fields are the rows of one read-only block."""
    block = np.array((deg, *rows), dtype=np.int64)
    block.setflags(write=False)
    degree, parent, size, height, depth = block
    return AnnotatedTree(n=len(deg), parent=parent, degree=degree, subtree_size=size,
                         subtree_height=height, depth=depth)


def build_and_annotate(degrees: np.ndarray) -> AnnotatedTree:
    """Tree from a valid depth-first degree sequence, annotated in O(n log n).

    Trees below TREE_NUMPY_MIN go through Python loops on lists, larger
    ones through numpy on the Lukasiewicz path; both raise ValueError on an
    invalid sequence.
    """
    degree = np.ascontiguousarray(degrees, dtype=np.int64)
    if degree.size < TREE_NUMPY_MIN:
        deg = degree.tolist()
        return _tree_from_rows(deg, _annotate_loop(deg))
    # one read-only block; its rows are read-only views
    stats = _annotate_lukasiewicz(degree)
    stats.setflags(write=False)
    degree.setflags(write=False)
    return AnnotatedTree(n=degree.size, parent=stats[0], degree=degree, subtree_size=stats[1],
                         subtree_height=stats[2], depth=stats[3])


def sample_conditioned(
    model: OffspringModel, n: int, rng: np.random.Generator, max_attempts: int | None = None
) -> AnnotatedTree:
    """Exact sample of the BGW tree conditioned to have n vertices.

    Below TREE_NUMPY_MIN the sequence is rotated, annotated and checked as
    one Python list, and the tree's rows are built by one numpy call.
    """
    degrees = sample_degree_sequence(model, n, rng, max_attempts)
    if n < TREE_NUMPY_MIN:
        deg = degrees.tolist()
        r = _rotation(deg)
        deg = deg[r:] + deg[:r]
        rows = _annotate_loop(deg)
        if __debug__:
            _check_rows(deg, *rows)
        return _tree_from_rows(deg, rows)
    r = cycle_rotate(degrees)
    tree = build_and_annotate(np.concatenate((degrees[r:], degrees[:r])))
    if __debug__:
        tree.validate()
    return tree

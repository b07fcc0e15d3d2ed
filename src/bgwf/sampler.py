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

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count
from math import lgamma

import numpy as np

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
    subtree_height 0, and ``height``, the root's subtree height, is the
    maximal depth.
    """

    n: int
    parent: np.ndarray
    degree: np.ndarray
    subtree_size: np.ndarray
    subtree_height: np.ndarray
    depth: np.ndarray

    @property
    def height(self) -> int:
        return int(self.subtree_height[0])

    @property
    def leaves(self) -> int:
        return int((self.degree == 0).sum())

    @cached_property
    def internal_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """(subtree sizes, subtree heights) of the internal vertices, as floats.

        Built on first use and kept, read-only: every toll evaluated on the
        tree reads the same two arrays.
        """
        internal = np.flatnonzero(self.degree > 0)  # bools: 4x faster than the int64 row
        sizes = self.subtree_size.take(internal).astype(float)
        heights = self.subtree_height.take(internal).astype(float)
        sizes.setflags(write=False)
        heights.setflags(write=False)
        return sizes, heights

    def validate(self) -> None:
        """Check all structural invariants; raises ValueError on violation.

        _check_rows tests the same invariants on Python lists.
        """
        n = self.n
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

    def to_csv(self) -> str:
        """One line per vertex: index,parent,degree,depth,subtree_size,subtree_height."""
        return "index,parent,degree,depth,subtree_size,subtree_height\n" + "".join(
            f"{i},{self.parent[i]},{self.degree[i]},{self.depth[i]},"
            f"{self.subtree_size[i]},{self.subtree_height[i]}\n"
            for i in range(self.n)
        )


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
    mode = np.minimum(np.floor((big + 1) * r), big).astype(np.int64)
    log_fact = np.array([lgamma(k) for k in range(1, n + 2)])  # log k! for k = 0..n
    # m log(rest) with 0 log 0 = 0: rest = 0 (support {0, j}) leaves only M = 0
    m_log_rest = m * math.log(rest) if rest else np.where(m, -math.inf, 0.0)
    # log Bin(n, rest)(m) + log Bin(big, r)(mode); the two (big)! cancel
    log_w = (log_fact[n] - log_fact[m] + m_log_rest + big * math.log1p(-rest)
             - log_fact[mode] - log_fact[big - mode] + mode * math.log(r) + (big - mode) * math.log1p(-r))
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
# medians of nine runs of 300 trees): 0.59-0.66 at n=48, 0.94-0.96 at
# n=96, 1.02-1.07 at n=112, 1.08-1.22 at n=128, 1.07-1.30 at n=160.
TREE_NUMPY_MIN = 120


# The scratch memory of the array code: one byte buffer per name and thread,
# grown to the largest request under that name and reused after that.  A
# stream of equal-size calls then allocates no temporaries, which glibc would
# trim off the heap after each call and fault back in on the next one.  Three
# names live here: range_max.table (280 KB for a Catalan n = 10^4 tree, 1.1 MB
# for an m = 10^4 excursion) and a level decomposition's crossing rows,
# crossings.levels and crossings.edges (0.4 and 0.8 MB at m = 10^4 and 1024
# levels).  A stream of such excursions takes about 23 minor faults per
# excursion, against 15 with range_max's queries and toll_sum's terms here as
# well (8 names), a difference the benchmark does not see, and 128-163 with
# the crossing rows fresh too.  A buffer over 4 times the request and over
# 1 MiB is replaced by one of the request's size, so one large call pins
# nothing for the life of the thread.
_workspace = threading.local()


def workspace(name: str, dtype, *shape: int) -> np.ndarray:
    """An uninitialised array of ``shape`` and ``dtype`` over this thread's buffer ``name``.

    Views of one name share their bytes, so a view is valid only until the
    next request for its name; views of different names never overlap.  So
    each function takes names no caller of it holds, and returns no view to
    its caller.  A buffer over max(4 * request, 1 MiB) shrinks to the request.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buf = getattr(_workspace, name, None)
    if buf is None or not nbytes <= buf.size <= max(4 * nbytes, 1 << 20):
        buf = np.empty(nbytes, dtype=np.uint8)
        setattr(_workspace, name, buf)
    return buf[:nbytes].view(dtype).reshape(shape)


def range_max(values: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """max(values[s:t]) for each pair (s, t) with s < t, from one sparse table.

    Row k of the table holds the maxima of all windows of length 2^k, so a
    query is the larger of two overlapping windows, each read with one
    gather: O(m log m) to build, O(1) per query.  The table has the dtype of
    ``values``, so a narrow dtype keeps it small.  The table lives in the
    ``workspace``: 280 KB for the uint16 depths of a tree at n = 10^4, 1.1 MB
    for the float64 values of an excursion at m = 10^4, about 40 MB after a
    Catalan n = 10^6 tree.  The query temporaries are plain numpy arrays, and
    the result is a fresh array.
    """
    m = len(values)
    table = workspace("range_max.table", values.dtype, m.bit_length(), m)
    table[0] = values
    for k in range(1, len(table)):
        half = 1 << (k - 1)
        np.maximum(table[k - 1, :-half], table[k - 1, half:], out=table[k, :-half])
        table[k, -half:] = table[k - 1, -half:]
    # floor(log2(t - s)) is the float exponent of t - s, less one; float32
    # holds every length below 2^24 exactly
    k = np.frexp((stops - starts).astype(np.float32 if m < 1 << 24 else np.float64))[1] - 1
    row = k.astype(np.intp) * m  # offset of row k in the flat table, in intp so no m overflows it
    flat = table.ravel()
    top = flat[row + starts]  # the window of length 2^k that starts at s
    # and the one that ends at t, its index shifted in place: one more q-sized
    # intp array would take the call's temporaries past the table's size
    row += stops
    row -= 1 << k
    return np.maximum(top, flat[row], out=top)


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
    L_j = L_i - 1 (Le Gall, "Random trees and applications", Probab. Surveys
    2, 2005).  In (level, index) order, one stable sort of L_0..L_{n-1}, a
    non-leaf is followed by the next visit to its level, inside its subtree,
    and that visit's subtree ends where its own does; a leaf's ends right
    after it, and every level's last visit is a leaf.  So each vertex's end is
    that of the first leaf at or after it in this order, one running minimum
    over the order read backwards.  Depth is the number of open subtrees
    [k+1, end_k) over a vertex, and heights are range maxima of depth over
    each subtree.  In (depth, index) order, the second stable sort, the
    children of each vertex form one block that starts with its first child,
    the vertex right after it; a running maximum of block starts gives every
    parent.  Both sort keys take the narrowest unsigned dtype that holds
    them, so keys below 2^16 get numpy's O(n) radix sort.
    """
    n = degree.size
    walk = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree - 1, out=walk[1:])
    if walk[n] != -1 or walk[:n].min() < 0 or degree.min() < 0:
        raise ValueError("not a valid depth-first degree sequence")
    idx = np.arange(n)
    leaf = degree == 0
    stats = np.empty((4, n), dtype=np.int64)
    parent, size, height, depth = stats
    path = walk[:n]
    order = np.argsort(path.astype(np.min_scalar_type(int(path.max()))), kind="stable")
    # sorted position of the first leaf at or after each position
    first_leaf = np.where(leaf[order], idx, n)
    np.minimum.accumulate(first_leaf[::-1], out=first_leaf[::-1])
    np.add(order[first_leaf], 1, out=first_leaf)
    end = np.empty(n, dtype=np.int64)
    end[order] = first_leaf
    np.subtract(end, idx, out=size)
    np.subtract(idx, np.bincount(end, minlength=n + 1).cumsum()[:n], out=depth)
    # depths fit a narrow dtype (one or two bytes at n = 10^4), which shrinks
    # the range-max table built from them eight- or fourfold
    narrow = depth.astype(np.min_scalar_type(int(depth.max())))
    np.subtract(range_max(narrow, idx, end), depth, out=height)
    order = np.argsort(narrow, kind="stable")
    # a block starts at the root (its parent is then -1) or at a first child
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.logical_not(leaf[:-1], out=starts[1:])
    # sorted position of the last block start at or before each position
    block = idx * starts[order]
    np.maximum.accumulate(block, out=block)
    np.subtract(order[block], 1, out=block)
    parent[order] = block
    return stats


def _tree_from_rows(deg: list, rows: tuple[list, list, list, list]) -> AnnotatedTree:
    """AnnotatedTree whose five fields are the rows of one read-only block."""
    block = np.array((deg, *rows), dtype=np.int64)
    block.setflags(write=False)
    degree, parent, size, height, depth = block
    return AnnotatedTree(n=len(deg), parent=parent, degree=degree, subtree_size=size,
                         subtree_height=height, depth=depth)


def build_and_annotate(degrees: np.ndarray) -> AnnotatedTree:
    """Tree from a valid depth-first degree sequence, annotated in numpy.

    _annotate_lukasiewicz finds subtree sizes, depths and parents in O(n)
    passes around two stable sorts of narrow keys, and subtree heights from
    a sparse table in O(n log n); raises ValueError on an invalid sequence.
    The table lives in the per-thread ``workspace`` (280 KB at n = 10^4),
    so a stream of equal-size trees allocates no table.
    """
    degree = np.ascontiguousarray(degrees, dtype=np.int64)
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

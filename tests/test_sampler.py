import math
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from conftest import assert_not_in_workspace, enumerate_tree_law, rng_for

from bgwf.continuum import Excursion, level_decomposition
from bgwf.functionals import TollFunction
from bgwf.harness import _ExcursionTask, _TreeTask, exact_walk_law
from bgwf.offspring import catalan_model, geometric_model, make_stable_family
from bgwf import sampler
from bgwf.sampler import (
    DROP_SHARE,
    MIN_ATTEMPTS,
    TREE_NUMPY_MIN,
    BudgetExhausted,
    _annotate_loop,
    _annotate_lukasiewicz,
    _check_rows,
    _rotation,
    build_and_annotate,
    cycle_rotate,
    default_attempt_budget,
    predicted_acceptance_rate,
    range_max,
    sample_conditioned,
    sample_degree_sequence,
)


def test_degree_sequence_forced_multisets(rng):
    cat = catalan_model()
    # n=3: the only multiset with entries in {0,2} summing to 2
    for _ in range(20):
        d = sample_degree_sequence(cat, 3, rng)
        assert sorted(d) == [0, 0, 2]
    # n=5: unique multiset again
    for _ in range(20):
        d = sample_degree_sequence(cat, 5, rng)
        assert sorted(d) == [0, 0, 0, 2, 2]
    geo = geometric_model()
    for _ in range(20):
        assert sorted(sample_degree_sequence(geo, 2, rng)) == [0, 1]


def test_catalan5_acceptance_probability():
    # convolution oracle: P(S_5 = 4) = C(5,2)/2^5 = 5/16
    from bgwf.harness import exact_walk_point_probability

    assert exact_walk_point_probability(catalan_model(), 5, 4) == pytest.approx(5 / 16, abs=1e-15)


def brute_force_rotation(degrees):
    """Enumerate all rotations; return the unique valid one."""
    n = len(degrees)
    valid = []
    for r in range(n):
        rot = np.roll(degrees, -r)
        walk = np.cumsum(rot - 1)
        if walk[-1] == -1 and (walk[:-1] >= 0).all():
            valid.append(r)
    assert len(valid) == 1
    return valid[0]


def test_cycle_rotate_examples():
    assert cycle_rotate(np.array([0, 2, 0])) == 1
    assert cycle_rotate(np.array([2, 0, 0])) == 0
    assert cycle_rotate(np.array([0, 0, 2])) == 2
    for degrees in ([0, 2, 0], [2, 0, 0], [0, 0, 2]):
        assert cycle_rotate(np.array(degrees)) == brute_force_rotation(np.array(degrees))


def test_cycle_lemma_uniqueness(rng):
    # exactly one rotation validates, over random valid degree multisets
    geo = geometric_model()
    for _ in range(10_000):
        n = int(rng.integers(2, 12))
        d = sample_degree_sequence(geo, n, rng)
        r = cycle_rotate(d)
        assert r == brute_force_rotation(d)


def test_build_and_annotate_examples():
    cherry = build_and_annotate(np.array([2, 0, 0]))
    assert list(cherry.subtree_size) == [3, 1, 1]
    assert list(cherry.subtree_height) == [1, 0, 0]
    assert list(cherry.depth) == [0, 1, 1]
    path = build_and_annotate(np.array([1, 1, 0]))
    assert list(path.subtree_size) == [3, 2, 1]
    assert list(path.subtree_height) == [2, 1, 0]
    assert list(path.depth) == [0, 1, 2]
    single = build_and_annotate(np.array([0]))
    assert list(single.subtree_size) == [1]
    assert list(single.subtree_height) == [0]
    assert single.height == 0


@pytest.mark.parametrize("n", [4, TREE_NUMPY_MIN + 40], ids=["lists", "numpy"])
def test_validate_detects_each_broken_invariant(n):
    import dataclasses

    # a root with children 1 and 3; vertex 1 has the leaf 2, vertex 3 starts
    # a path down to the last vertex.  sample_conditioned checks trees below
    # TREE_NUMPY_MIN on lists (_check_rows), the others with validate.
    tree = build_and_annotate(np.array([2, 1, 0] + [1] * (n - 4) + [0]))

    def check(t):
        if n < TREE_NUMPY_MIN:
            _check_rows(*(getattr(t, f).tolist() for f in
                          ("degree", "parent", "subtree_size", "subtree_height", "depth")))
        else:
            t.validate()

    check(tree)
    assert list(tree.parent[:4]) == [-1, 0, 1, 0]
    broken = {  # field -> {vertex: wrong value}, one invariant broken each
        "degree sum": dict(degree={2: 1}),
        "bad parent": dict(parent={2: -1}),
        "root subtree size": dict(subtree_size={0: n + 1}),
        "subtree sizes": dict(subtree_size={1: 3}),
        "depths": dict(depth={2: 1}),
        "subtree heights": dict(subtree_height={1: 2}),
        "internal-vertex": dict(degree={0: 3, 1: 0}),
    }
    for message, fields in broken.items():
        changed = {}
        for field, edits in fields.items():
            row = getattr(tree, field).copy()
            for i, v in edits.items():
                row[i] = v
            changed[field] = row
        with pytest.raises(ValueError, match=message):
            check(dataclasses.replace(tree, **changed))


def test_build_rejects_invalid_sequences():
    with pytest.raises(ValueError):
        build_and_annotate(np.array([0, 2, 0]))  # hits -1 too early
    with pytest.raises(ValueError):
        build_and_annotate(np.array([1, 1, 1]))  # never closes


@pytest.mark.parametrize("annotate", [_annotate_loop, _annotate_lukasiewicz, build_and_annotate])
def test_both_annotation_paths_reject_invalid_sequences(annotate):
    invalid = [
        [0, 2, 0],  # hits -1 too early
        [1, 1, 1],  # never closes
        # degree sum n-1 and a path that stays >= 0, but one degree is negative
        [4, -1, 1, 0, 0],
    ]
    for n in (TREE_NUMPY_MIN - 1, TREE_NUMPY_MIN, TREE_NUMPY_MIN + 40):
        invalid += [[0, 2] + [1] * (n - 3) + [0], [1] * n, [n, -1] + [0] * (n - 2)]
    for degrees in invalid:
        with pytest.raises(ValueError):
            # _annotate_loop takes a list
            annotate(degrees if annotate is _annotate_loop else np.array(degrees, dtype=np.int64))


@st.composite
def valid_degree_sequences(draw):
    # every multiset of n nonnegative degrees summing to n-1 is the bincount
    # of n-1 choices among n vertices; the cycle lemma rotation makes it valid
    n = draw(st.integers(1, 400))
    slots = draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1))
    degrees = np.bincount(np.array(slots, dtype=np.int64), minlength=n)
    r = cycle_rotate(degrees)
    return np.concatenate((degrees[r:], degrees[:r]))


@settings(max_examples=300, deadline=None)
@given(valid_degree_sequences())
def test_lukasiewicz_annotation_equals_loop(degrees):
    # rows: parent, subtree size, subtree height, depth
    np.testing.assert_array_equal(_annotate_lukasiewicz(degrees), _annotate_loop(degrees.tolist()))


@pytest.mark.parametrize("model, sizes", [
    (make_stable_family(1.2, 0.5), (2000, 3001, 5000)),
    (make_stable_family(1.5, 0.5), (2000, 4001)),
    (geometric_model(), (2000, 5000)),
], ids=["stable-1.2", "stable-1.5", "geometric"])
def test_lukasiewicz_annotation_equals_loop_on_large_trees(model, sizes):
    # heavy-tailed trees have many vertices with middle children, whose
    # subtree ends are read off later visits to their path level
    for j, n in enumerate(sizes):
        degrees = sample_degree_sequence(model, n, rng_for(12, j))
        r = cycle_rotate(degrees)
        degrees = np.concatenate((degrees[r:], degrees[:r]))
        np.testing.assert_array_equal(_annotate_lukasiewicz(degrees), _annotate_loop(degrees.tolist()))


@pytest.mark.parametrize("shape", ["star", "path"])
def test_lukasiewicz_annotation_with_wide_sort_keys(shape):
    # the star's path reaches n - 2 and the path's depth n - 1, both above
    # 2^16 - 1, so one of the two sorts runs on 32-bit keys, not by radix
    n = 70_001
    degrees = np.zeros(n, dtype=np.int64)
    if shape == "star":
        degrees[0] = n - 1
    else:
        degrees[:-1] = 1
    np.testing.assert_array_equal(_annotate_lukasiewicz(degrees), _annotate_loop(degrees.tolist()))
    assert build_and_annotate(degrees).height == (1 if shape == "star" else n - 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_list_rotation_equals_cycle_rotate(data):
    # any nonnegative degrees summing to n-1, in any order
    n = data.draw(st.integers(1, 300))
    slots = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1))
    degrees = np.bincount(np.array(slots, dtype=np.int64), minlength=n)
    assert _rotation(degrees.tolist()) == cycle_rotate(degrees)
    for bad in ([0, 0], [2, 0, 1]):  # degree sum != n - 1
        with pytest.raises(ValueError):
            _rotation(bad)
        with pytest.raises(ValueError):
            cycle_rotate(np.array(bad))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_range_max_matches_brute_force(data):
    values = np.array(data.draw(st.lists(st.integers(-50, 50), min_size=1, max_size=300)))
    m = len(values)
    pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(1, m)).map(sorted)
                               .filter(lambda p: p[0] < p[1]), min_size=1, max_size=40))
    pairs += [(0, m), (m - 1, m), (0, 1)]  # whole array and length-1 windows
    starts, stops = np.array(pairs).T
    want = [values[s:t].max() for s, t in pairs]
    np.testing.assert_array_equal(range_max(values, starts, stops), want)
    floats = values + 0.5
    np.testing.assert_array_equal(range_max(floats, starts, stops), np.array(want) + 0.5)


def _windows(rng, m, q):
    """q random windows (s, t) with 0 <= s < t <= m."""
    a, b = rng.integers(0, m, q), rng.integers(0, m, q)
    return np.minimum(a, b), np.maximum(a, b) + 1


def _brute_range_max(values, starts, stops):
    return np.array([values[s:t].max() for s, t in zip(starts, stops)], dtype=values.dtype)


def _in_new_thread(fn):
    """fn() run in a thread of its own, whose workspace starts empty."""
    out = []
    thread = threading.Thread(target=lambda: out.append(fn()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert out, "the thread raised"
    return out[0]


def test_range_max_reuses_its_table():
    # a repeated call builds its table in the bytes the first call left, so
    # it allocates only its result and one gather, less than the table itself
    m = 10**4
    rng = np.random.default_rng(3)
    values = rng.integers(0, 2**16, m).astype(np.uint16)
    starts, stops = _windows(rng, m, m)
    want = range_max(values, starts, stops)
    tracemalloc.start()
    try:
        got = range_max(values, starts, stops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, want)
    assert peak < m.bit_length() * m * values.itemsize


def test_range_max_tables_are_per_thread():
    # two threads interleave calls of different sizes and dtypes; a table
    # shared between them would give one thread the other's maxima.  At these
    # sizes numpy releases the GIL inside each pass over the table, so the
    # threads' passes overlap; the answers are worked out beforehand, so the
    # threads do little else.  A table shared between the threads fails
    # every run
    def cases(seed):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(50):
            m = int(rng.integers(2000, 20_000))
            dtype = (np.uint8, np.uint16, np.int64, np.float64)[rng.integers(4)]
            values = rng.standard_normal(m) if dtype is np.float64 else rng.integers(0, 250, m).astype(dtype)
            starts, stops = _windows(rng, m, int(rng.integers(1, 50)))
            out.append((values, starts, stops, _brute_range_max(values, starts, stops)))
        return out

    def work(seed):
        for values, starts, stops, want in calls[seed] * 6:
            if not np.array_equal(range_max(values, starts, stops), want):
                failures.append((seed, len(values), values.dtype))
        finished.append(seed)

    calls = {seed: cases(seed) for seed in (1, 2)}
    failures, finished = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(finished) == [1, 2]
    assert failures == []


def test_range_max_after_its_table_grows():
    # small, then a larger float64 table that outgrows the buffer, then small
    # again in the grown buffer
    def calls():
        rng = np.random.default_rng(4)
        out = []
        for m, dtype in ((40, np.uint8), (3000, np.float64), (40, np.uint8)):
            values = rng.integers(0, 250, m).astype(dtype)
            starts, stops = _windows(rng, m, 300)
            out.append((range_max(values, starts, stops), _brute_range_max(values, starts, stops)))
        return out

    for got, want in _in_new_thread(calls):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_range_max_result_is_not_the_table():
    values = np.arange(64, dtype=np.uint16)[::-1].copy()
    starts = np.arange(63)
    stops = starts + 2
    first = range_max(values, starts, stops)
    want = first.copy()
    assert_not_in_workspace(first)
    first[:] = 0
    np.testing.assert_array_equal(range_max(values, starts, stops), want)


def test_workspace_views():
    # one name's views share their bytes, which grow to the largest request;
    # different names never overlap
    def views():
        a = sampler.workspace("test.a", np.float64, 2, 5)
        a[:] = 1.0
        small = sampler.workspace("test.a", np.uint8, 3)
        b = sampler.workspace("test.b", np.int32, 100)
        b[:] = 7
        grown = sampler.workspace("test.a", np.float64, 1000)
        return a, small, b, grown

    a, small, b, grown = _in_new_thread(views)
    assert (a.shape, a.dtype, small.shape, b.shape, grown.shape) == ((2, 5), np.float64, (3,), (100,), (1000,))
    assert np.shares_memory(a, small)
    assert not np.shares_memory(a, b) and not np.shares_memory(grown, b)
    assert not np.shares_memory(a, grown)  # it outgrew the first buffer
    assert (a == 1.0).all() and (b == 7).all()


def test_workspace_holds_three_buffers():
    # the range-max table and the crossing rows; every other temporary of the
    # tree and excursion paths is a plain numpy array
    def stream():
        tolls = (TollFunction.power(0, 0), TollFunction.power(0, 1), TollFunction.power_log(0.5))
        tree_task = _TreeTask(catalan_model(), 10_001, 3, tolls, None)
        excursion_task = _ExcursionTask(0.5, 10_000, 1024, 3, tolls)
        for j in range(20):
            tree_task(j)
        for j in range(20):
            excursion_task(j)
        return sorted(vars(sampler._workspace))

    assert _in_new_thread(stream) == ["crossings.edges", "crossings.levels", "range_max.table"]


def test_workspace_stays_near_a_stream_of_excursions():
    # after m = 10^4 excursions the workspace holds about 2.2 MiB: the range-max
    # table and the crossing rows.  One decomposition with 2^20 components
    # grows it past 32 MiB, the size of their crossing rows alone (two int64
    # levels and two intp edges, 32 bytes a component), and later excursions
    # shrink it back
    def held():
        return sum(buf.nbytes for buf in vars(sampler._workspace).values())

    def stream():
        task = _ExcursionTask(0.5, 10_000, 1024, 3, (TollFunction.power(0, 1),))
        for j in range(20):
            task(j)
        before = held()
        half = np.linspace(0.0, 0.5, 2**11 + 1)
        level_decomposition(Excursion(values=np.concatenate([half, half[::-1][1:]])), 2**20)
        peak = held()
        for j in range(20, 40):
            task(j)
        return before, peak, held()

    before, peak, after = _in_new_thread(stream)
    assert before < 5 * 2**20
    assert peak > 32 * 2**20
    assert after < 8 * 2**20


@pytest.mark.parametrize("shape", ["vertex", "path", "star", "catalan"])
def test_internal_stats_equal_mask_selection(shape):
    k = 2 * TREE_NUMPY_MIN
    if shape == "catalan":
        tree = sample_conditioned(catalan_model(), 10_001, rng_for(13))
    else:
        degrees = {"vertex": [0], "path": [1] * k + [0], "star": [k] + [0] * k}[shape]
        tree = build_and_annotate(np.array(degrees))
    internal = tree.degree > 0
    for got, row in zip(tree.internal_stats, (tree.subtree_size, tree.subtree_height)):
        want = row[internal].astype(float)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert not got.flags.writeable


def test_structural_invariants_on_samples(rng):
    for model in (catalan_model(), geometric_model(), make_stable_family(1.5, 0.5)):
        for _ in range(50):
            n = int(rng.choice([1, 2, 3, 9, 25, 101][:: 1 if model.span == 1 else 2]))
            if model.span == 2 and n % 2 == 0:
                n += 1
            from bgwf.offspring import support_contains

            if not support_contains(model, n):
                continue
            tree = sample_conditioned(model, n, rng)
            tree.validate()
            assert tree.degree.sum() == n - 1
            assert tree.subtree_size[0] == n


def test_exact_law_small_sizes(rng):
    # empirical tree-shape frequencies against brute-force enumeration; with
    # c = 1/gamma the stable law has pmf(1) = 0, so the split value j is 2
    cases = [(catalan_model(), 5), (geometric_model(), 3), (geometric_model(), 5),
             (geometric_model(), 7), (make_stable_family(1.5, 0.5), 5),
             (make_stable_family(1.5, 1.0 / 1.5), 7)]
    for model, n in cases:
        law = enumerate_tree_law(model, n)
        counts = Counter()
        R = 20_000
        for j in range(R):
            counts[tuple(sample_conditioned(model, n, rng).degree)] += 1
        assert set(counts) <= set(law)
        f_obs = np.array([counts.get(k, 0) for k in law])
        f_exp = np.array([law[k] * R for k in law])
        assert chisquare(f_obs, f_exp).pvalue > 0.001


def test_catalan3_always_cherry(rng):
    for _ in range(50):
        assert tuple(sample_conditioned(catalan_model(), 3, rng).degree) == (2, 0, 0)


def test_geometric3_split(rng):
    # brute force: path and cherry each carry weight 1/32, so 1/2 each
    law = enumerate_tree_law(geometric_model(), 3)
    assert law[(1, 1, 0)] == pytest.approx(0.5, abs=1e-12)
    assert law[(2, 0, 0)] == pytest.approx(0.5, abs=1e-12)
    geo = geometric_model()
    hits = sum(tuple(sample_conditioned(geo, 3, rng).degree) == (1, 1, 0) for _ in range(4000))
    assert abs(hits / 4000 - 0.5) < 0.03


def test_otter_dwass_small_n():
    # n P(|tau| = n) = P(S_n = n-1) by enumeration vs exact convolution
    from bgwf.harness import _enumerated_tree_probability, exact_walk_point_probability

    for model in (catalan_model(), geometric_model(), make_stable_family(1.5, 0.5)):
        for n in range(1, 10):
            lhs = n * _enumerated_tree_probability(model, n)
            rhs = exact_walk_point_probability(model, n, n - 1)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_unsupported_size_rejected(rng):
    with pytest.raises(ValueError):
        sample_degree_sequence(catalan_model(), 4, rng)


def test_budget_exhaustion_diagnostic(rng):
    # stable gamma=1.05 at n=10^4 accepts about 1 attempt in 2200
    model, n = make_stable_family(1.05, 0.9), 10_000
    with pytest.raises(BudgetExhausted) as err:
        sample_degree_sequence(model, n, rng, max_attempts=1)
    rate = predicted_acceptance_rate(model, n)
    assert err.value.acceptance_rate == rate < 1e-3
    assert f"acceptance rate per attempt {rate:.3g}" in str(err.value)


def _tilt_by_scipy(n, rest, r):
    """_tilt's law of M from scipy's log-gamma and xlogy, as a reference."""
    from scipy.special import gammaln, xlog1py, xlogy

    m = np.arange(n + 1)
    big = n - m
    mode = np.minimum(np.floor((big + 1) * r), big)
    log_w = (gammaln(n + 1.0) - gammaln(m + 1.0) + xlogy(m, rest) + xlog1py(big, -rest)
             - gammaln(mode + 1.0) - gammaln(big - mode + 1.0) + xlogy(mode, r) + xlog1py(big - mode, -r))
    w = np.exp(log_w - log_w.max())
    positive = np.flatnonzero(w)
    cdf = w[positive[0]:positive[-1] + 1].cumsum()
    return int(positive[0]), cdf / cdf[-1], log_w.max() + math.log(cdf[-1])


@pytest.mark.parametrize("model", [catalan_model(), geometric_model(), make_stable_family(1.5, 0.5),
                                   make_stable_family(1.2, 0.5)],
                         ids=["catalan", "geometric", "stable-1.5", "stable-1.2"])
@pytest.mark.parametrize("n", [3, 101, 10_000])
def test_tilt_equals_scipy_formula(model, n):
    # Catalan has rest = 0, so every M > 0 weighs 0 log 0.  At n = 10^4 both
    # routes are within 6e-13 of a 30-digit CDF and 1.2e-11 of its log
    # normalizer, since log 5000! alone has an ulp of 7e-12, so they may
    # differ by twice that.
    split = model.split
    lo, cdf, log_norm = sampler._tilt(n, split.rest, split.r)
    ref_lo, ref_cdf, ref_log_norm = _tilt_by_scipy(n, split.rest, split.r)
    assert lo == ref_lo
    assert len(cdf) == len(ref_cdf)
    assert np.max(np.abs(np.array(cdf) - ref_cdf)) <= 2e-12
    assert log_norm == pytest.approx(ref_log_norm, abs=3e-11)


def test_default_budget_covers_predicted_rate():
    # fewer than DROP_SHARE of the trees dropped at half the predicted rate
    for model, n in ((catalan_model(), 10_001), (geometric_model(), 501),
                     (make_stable_family(1.5, 0.5), 10_000), (make_stable_family(1.2, 0.5), 10_000)):
        rate = predicted_acceptance_rate(model, n)
        budget = default_attempt_budget(model, n)
        assert budget >= 1000
        assert (1.0 - rate / 2.0) ** budget < DROP_SHARE


def test_default_budget_is_at_least_the_floor():
    # sample_degree_sequence computes the default budget only once
    # MIN_ATTEMPTS attempts have failed; that is the same budget only if it
    # is never below the floor
    from bgwf.offspring import support_contains

    for model in (catalan_model(), geometric_model(), make_stable_family(1.5, 0.5),
                  make_stable_family(1.2, 0.5)):
        for n in range(1, 1002):
            if support_contains(model, n):
                assert default_attempt_budget(model, n) >= MIN_ATTEMPTS == 1000


def test_default_budget_is_computed_only_after_the_floor(monkeypatch):
    calls = []

    def budget(model, n):
        calls.append(n)
        return MIN_ATTEMPTS + 5

    monkeypatch.setattr(sampler, "default_attempt_budget", budget)
    geo = geometric_model()
    for j in range(200):
        sample_degree_sequence(geo, 5, rng_for(1, j))
    assert calls == []
    # stable gamma=1.05 at n=10^4 accepts about 1 attempt in 2200.  A run asks
    # for the budget once, after MIN_ATTEMPTS failed attempts, or not at all;
    # either way it ends as the call given that budget explicitly does
    model, n = make_stable_family(1.05, 0.9), 10_000
    asked = []
    for j in range(4):
        outcomes = []
        for max_attempts in (None, MIN_ATTEMPTS + 5):
            calls.clear()
            rng = rng_for(2, j)
            try:
                outcomes.append(sample_degree_sequence(model, n, rng, max_attempts).tolist())
            except BudgetExhausted as err:
                outcomes.append(err.attempts)
            outcomes.append(rng.bit_generator.state)
            if max_attempts is None:
                asked.append(calls == [n])
            else:
                assert calls == []
        assert outcomes[:2] == outcomes[2:]
    assert any(asked) and not all(asked)  # both branches ran


def test_multinomial_of_zero_draws_consumes_no_state():
    # sample_degree_sequence skips a multinomial with nothing to draw, which
    # leaves the stream unchanged only if such a call consumes no state
    rng = np.random.default_rng(5)
    rng.random()
    for model in (geometric_model(), make_stable_family(1.5, 0.5), make_stable_family(1.2, 0.5)):
        state = rng.bit_generator.state
        assert not rng.multinomial(0, model.split.other_probs).any()
        assert rng.bit_generator.state == state


def test_degree_counts_match_exact_finite_n_means():
    # E[#vertices of degree k] = n p_k P(S_{n-1} = n-1-k) / P(S_n = n-1).  The
    # class k >= 256 is drawn by the sampler's tail inversion, beyond the
    # multinomial, which enumeration at n <= 9 cannot reach.  Degrees beyond
    # b_n are rare in a conditioned tree: the class holds 3.4e-7 vertices per
    # tree at n = 1000 (b_n = 100), but 0.33 at n = 10^4 (b_n = 464).
    model, n, R = make_stable_family(1.5, 0.5), 10_000, 5000
    k = np.arange(n)
    weight = model.pmf(k) * exact_walk_law(model, n - 1, n - 1)[::-1]
    exact = n * weight / weight.sum()  # sum_k p_k P(S_{n-1} = n-1-k) = P(S_n = n-1)
    classes = {"0": k == 0, "1": k == 1, "2": k == 2, ">=256": k >= 256}
    counts = np.empty((R, len(classes)))
    for j in range(R):
        d = np.bincount(sample_degree_sequence(model, n, rng_for(20_260_501, j)), minlength=n)
        counts[j] = [d[mask].sum() for mask in classes.values()]
    for (label, mask), col in zip(classes.items(), counts.T):
        want = exact[mask].sum()
        z = (col.mean() - want) / (col.std(ddof=1) / math.sqrt(R))
        assert abs(z) < 4.0, f"degree class {label}: mean {col.mean():.5f}, exact {want:.5f}, z {z:+.2f}"


def test_tree_csv_dump(tmp_path):
    tree = build_and_annotate(np.array([2, 0, 0]))
    out = tmp_path / "tree.csv"
    out.write_text(tree.to_csv())
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,parent,degree,depth,subtree_size,subtree_height"
    assert lines[1] == "0,-1,2,0,3,1"
    assert lines[2] == "1,0,0,1,1,0"


def test_determinism_per_replicate():
    cat = catalan_model()
    t1 = sample_conditioned(cat, 51, rng_for(99, 3))
    t2 = sample_conditioned(cat, 51, rng_for(99, 3))
    t3 = sample_conditioned(cat, 51, rng_for(99, 4))
    assert np.array_equal(t1.degree, t2.degree)
    assert not np.array_equal(t1.degree, t3.degree)

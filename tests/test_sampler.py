import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from conftest import enumerate_tree_law, rng_for

from bgwf.harness import exact_walk_law
from bgwf.offspring import catalan_model, geometric_model, make_stable_family
from bgwf import sampler
from bgwf.sampler import (
    DROP_SHARE,
    MIN_ATTEMPTS,
    TREE_NUMPY_MIN,
    BudgetExhausted,
    _annotate_loop,
    _annotate_lukasiewicz,
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
    # a path down to the last vertex.  validate checks trees below
    # TREE_NUMPY_MIN on lists, the others in numpy.
    tree = build_and_annotate(np.array([2, 1, 0] + [1] * (n - 4) + [0]))
    tree.validate()
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
            dataclasses.replace(tree, **changed).validate()


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
    tree.to_csv(str(out))
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

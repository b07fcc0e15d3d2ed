import math

import numpy as np
import pytest

from conftest import a_measure_by_definition, b1_index, mass_bound_check, tv_gap_bound_check

from bgwf.functionals import TollFunction, a_measure, rescaled_theorem1_sum
from bgwf.offspring import catalan_model, geometric_model, normalizer
from bgwf.sampler import build_and_annotate, sample_conditioned

CHERRY = np.array([2, 0, 0])
PATH3 = np.array([1, 1, 0])


def test_a_measure_cherry():
    cat = catalan_model()
    cherry = build_and_annotate(CHERRY)
    one = TollFunction.power(0, 0)
    assert a_measure(cherry, cat, one) == pytest.approx(math.sqrt(3) / 3, abs=1e-14)
    # the sum runs over internal vertices only, so a toll that blows up at
    # height 0 (leaves) is finite there
    assert a_measure(cherry, cat, TollFunction.power(0, -1)) == pytest.approx(1.0, abs=1e-14)
    # the root's scaled height 1/sqrt(3) to the power -2000 overflows
    with pytest.raises(ValueError, match="not finite"):
        a_measure(cherry, cat, TollFunction.power(0, -2000))


def test_rescaled_sum_examples():
    cat = catalan_model()
    cherry = build_and_annotate(CHERRY)
    assert rescaled_theorem1_sum(cherry, cat, 1.0, 0.0) == pytest.approx(
        math.sqrt(3) / 3, abs=1e-14
    )
    path = build_and_annotate(PATH3)
    # internal sizes 3, 2 with heights 2, 1; b_3^2 = 3: (3/27)(3*2 + 2*1) = 8/9
    assert rescaled_theorem1_sum(path, cat, 1.0, 1.0) == pytest.approx(8 / 9, abs=1e-14)


def test_rescaled_sum_trivial_bound(rng):
    # alpha'=0, beta=0: value = (b_n/n) * #internal, at most b_n
    geo = geometric_model()
    for _ in range(10):
        tree = sample_conditioned(geo, 51, rng)
        v = rescaled_theorem1_sum(tree, geo, 0.0, 0.0)
        b = normalizer(geo, 51)
        assert v == pytest.approx((b / 51) * int((tree.degree > 0).sum()), rel=1e-12)
        assert v <= b + 1e-12


def test_rescaled_equals_a_measure_identity(rng):
    # the factored sums equal the a-measure's definition to 1e-12 relative
    # over random trees and exponents, for power and power-log tolls
    geo = geometric_model()
    for _ in range(100):
        n = int(rng.integers(2, 120))
        tree = sample_conditioned(geo, n, rng)
        for _ in range(20):
            aprime = float(rng.uniform(-1.0, 3.0))
            beta = float(rng.uniform(-2.0, 3.0))
            power = TollFunction.power(aprime - 1.0, beta)
            assert rescaled_theorem1_sum(tree, geo, aprime, beta) == pytest.approx(
                a_measure_by_definition(tree, geo, power), rel=1e-12)
            power_log = TollFunction.power_log(aprime - 1.0)
            assert a_measure(tree, geo, power_log) == pytest.approx(
                a_measure_by_definition(tree, geo, power_log), rel=1e-12)


@pytest.mark.parametrize("aprime, beta", [(100.0, 0.0), (95.0, -10.0), (-300.0, 0.0)],
                         ids=["prefactor-overflows", "sum-overflows", "prefactor-underflows"])
def test_rescaled_sum_outside_float_range_is_refused(aprime, beta):
    path = build_and_annotate(np.array([1] * 2000 + [0]))
    with pytest.raises(ValueError, match=r"x\^.*\*u\^.* not finite at n=2001"):
        rescaled_theorem1_sum(path, catalan_model(), aprime, beta)


def test_b1_examples():
    assert b1_index(build_and_annotate(CHERRY)) == 0.0
    assert b1_index(build_and_annotate(np.array([1, 1, 1, 0]))) == 1.5
    assert b1_index(build_and_annotate(np.array([1, 0]))) == 0.0


def test_tv_gap_examples():
    cat = catalan_model()
    cherry = build_and_annotate(CHERRY)
    gap, bound, ok = tv_gap_bound_check(cherry, cat)
    assert gap == pytest.approx(math.sqrt(3) / 9, abs=1e-14)
    assert bound == pytest.approx(math.sqrt(3) / 6, abs=1e-14)
    assert ok
    single = build_and_annotate(np.array([0]))
    gap, bound, ok = tv_gap_bound_check(single, cat)
    assert gap == pytest.approx(bound, abs=1e-15) and ok  # boundary case
    path = build_and_annotate(PATH3)
    gap, bound, ok = tv_gap_bound_check(path, cat)
    a = normalizer(cat, 3) / 3
    assert gap == pytest.approx(a / 6, abs=1e-14) and ok


def test_mass_bound_cherry_equality():
    cat = catalan_model()
    cherry = build_and_annotate(CHERRY)
    one = TollFunction.power(0, 0)
    lhs = a_measure(cherry, cat, one)
    a = normalizer(cat, 3) / 3
    assert lhs == pytest.approx(a * 1, abs=1e-14)  # equality at the cherry
    assert mass_bound_check(cherry, cat)
    assert mass_bound_check(build_and_annotate(PATH3), cat)


def test_mass_bounds_never_violated(rng):
    geo = geometric_model()
    cat = catalan_model()
    for _ in range(2000):
        n = int(rng.integers(2, 80))
        assert mass_bound_check(sample_conditioned(geo, n, rng), geo)
        m = n if n % 2 else n + 1
        assert mass_bound_check(sample_conditioned(cat, m, rng), cat)


def test_power_log_decomposition(rng):
    # |log x| x^a measure equals log(n) * (x^a measure) - raw log sum, to 1e-9
    geo = geometric_model()
    alpha = 0.5
    for _ in range(25):
        n = int(rng.integers(3, 200))
        tree = sample_conditioned(geo, n, rng)
        b = normalizer(geo, n)
        lhs = a_measure(tree, geo, TollFunction.power_log(alpha))
        power = a_measure(tree, geo, TollFunction.power(alpha, 0.0))
        sizes = tree.subtree_size[tree.degree > 0].astype(float)
        raw = (b / n ** (2 + alpha)) * math.fsum(sizes ** (1 + alpha) * np.log(sizes))
        assert lhs == pytest.approx(math.log(n) * power - raw, rel=1e-9, abs=1e-12)


def test_zero_zero_convention():
    toll = TollFunction.power(0.5, 0.0)
    assert float(toll(np.array([0.25]), np.array([0.0]))[0]) == pytest.approx(0.5)
    toll2 = TollFunction.power(0.0, 0.0)
    assert float(toll2(np.array([0.25]), np.array([0.0]))[0]) == 1.0

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pspinlab import (
    ExperimentConfig,
    InvalidParametersError,
    ModelParams,
    MomentPolynomial,
    PspinError,
    beta_p,
    clt_variance,
    covariance_numerator,
    d_coefficient,
    derive_seed,
    exact_covariance,
    exact_first_moment,
    expansion_approx,
    gaussian_field,
    gaussian_moment,
    hermite,
    hermite_scaling_gap,
    first_moment_mc,
    j_mgf,
    j_mgf_mc,
    j_term,
    limit_constants,
    mask_table,
    overlap_grid,
    overlap_pmf,
    overlap_pmf_gaussian,
    pair_moment_paths,
    pair_statistic_moment,
    run_experiment,
    sample_disorder,
    summarize,
    tabulate_covariance,
)
from pspinlab import covariance, errors
from pspinlab.errors import NumericalError, ResourceLimitError
from pspinlab.multiindex import check_seed
from pspinlab.theory import a_exponent

from _oracles import expansion_deviation, gaussian_pmf_error


def brute_force_covariance(N, p, k_disagree):
    """f as the exact average of sigma_A sigma'_A over p-subsets.

    The disagreement set is the first k sites; each subset contributes
    (-1)^(overlap with it).  Exact rational arithmetic.
    """
    total = 0
    for A in combinations(range(1, N + 1), p):
        hits = sum(1 for a in A if a <= k_disagree)
        total += -1 if hits % 2 else 1
    return Fraction(total, math.comb(N, p))


def test_d_coefficient_examples():
    assert d_coefficient(3, 0) == 1
    assert d_coefficient(3, 1) == -3
    assert d_coefficient(4, 0) == 1
    assert d_coefficient(4, 1) == -6
    assert d_coefficient(4, 2) == 3
    for p in range(0, 9):
        assert d_coefficient(p, 0) == 1


def test_d_coefficient_range_check():
    with pytest.raises(InvalidParametersError):
        d_coefficient(3, 2)
    with pytest.raises(InvalidParametersError):
        d_coefficient(3, -1)


def test_hermite_small_values():
    he1 = hermite(1)
    he3 = hermite(3)
    he4 = hermite(4)
    assert he1(0.37) == pytest.approx(0.37)
    assert he3(2.0) == pytest.approx(2.0)
    assert he4(1.0) == pytest.approx(1.0 - 6.0 + 3.0)


@given(st.integers(2, 12))
@settings(max_examples=24, deadline=None)
def test_hermite_recurrence(p):
    # He_{p+1}(x) = x He_p(x) - p He_{p-1}(x)
    lo, mid, hi = hermite(p - 1), hermite(p), hermite(p + 1)
    for x in np.linspace(-3, 3, 13):
        assert abs(hi(x) - (x * mid(x) - p * lo(x))) < 1e-12 * max(1.0, abs(hi(x)))


def test_hermite_parity():
    he5 = hermite(5)
    he6 = hermite(6)
    for x in (0.3, 1.1, 2.7):
        assert he5(-x) == pytest.approx(-he5(x))
        assert he6(-x) == pytest.approx(he6(x))


def test_moment_polynomial_trims_and_guards():
    poly = MomentPolynomial(coefficients=(1.0, 2.0, 0.0))
    assert poly.coefficients == (1.0, 2.0)
    with pytest.raises(InvalidParametersError):
        MomentPolynomial(coefficients=(0.0,) * 65 + (1.0,))


def test_exact_covariance_endpoints():
    for N, p in [(8, 3), (9, 4), (12, 5)]:
        assert exact_covariance(N, p, 0) == 1.0
        assert exact_covariance(N, p, N) == (-1.0) ** p


def test_exact_covariance_center_example():
    assert covariance_numerator(6, 3, 3) == 1 - 9 + 9 - 1
    assert exact_covariance(6, 3, 3) == 0.0


def test_exact_covariance_matches_brute_force():
    for N in range(2, 13):
        for p in (2, 3, 4, 5):
            if p > N:
                continue
            for k in range(N + 1):
                exact = Fraction(covariance_numerator(N, p, k), math.comb(N, p))
                assert exact == brute_force_covariance(N, p, k)


def test_expansion_zero_at_origin_for_odd_p():
    assert expansion_approx(20, 3, 0.0) == 0.0
    assert expansion_approx(20, 5, 0.0) == 0.0


def test_expansion_deviation_shrinks_with_n():
    devs = [expansion_deviation(N, 3, m_window=0.5) for N in (20, 40, 80)]
    assert devs[0] > devs[1] > devs[2]


def test_covariance_profile_approaches_mth_power():
    # sup over the grid of |f - m^p| -> 0
    def sup_gap(N, p):
        gap = 0.0
        for j in range(N + 1):
            m = -1.0 + 2.0 * j / N
            gap = max(gap, abs(exact_covariance(N, p, N - j) - m**p))
        return gap

    gaps = [sup_gap(N, 3) for N in (10, 40, 160)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.02


def test_hermite_scaling_gap_halves_with_doubling():
    for p in (3, 4):
        g20 = hermite_scaling_gap(20, p)
        g40 = hermite_scaling_gap(40, p)
        g80 = hermite_scaling_gap(80, p)
        assert g20 / g40 > 1.5
        assert g40 / g80 > 1.5


def test_n_p_range_refused_before_dividing():
    # N = 0 used to divide by zero in hermite_scaling_gap, N = 2.5 to fail in range()
    for N, p in ((0, 3), (2.5, 3), (3.5, 3), (5, 0), (3, 4)):
        for call in (lambda N, p, m: hermite_scaling_gap(N, p), expansion_approx):
            with pytest.raises(InvalidParametersError, match="1 <= p <= N"):
                call(N, p, 0.5)


def test_non_integer_sizes_orders_and_seeds_refused():
    # a float, a bool or 0 where an integer size, order, count or seed is due is
    # refused by errors.check_count or check_sizes, not met by a bare TypeError
    # from range() or answered with a value
    d = sample_disorder(ModelParams(N=8, p=3), 1)
    calls = (
        lambda: hermite_scaling_gap(3.5, 3),
        lambda: exact_covariance(12, 3.0, 1),
        lambda: covariance_numerator(12, 3, 1.5),
        lambda: overlap_grid(2.5),
        lambda: hermite(2.5),
        lambda: d_coefficient(3.5, 1),
        lambda: tabulate_covariance(8.5, 3),
        lambda: pair_moment_paths(12, 3.5, 2),
        lambda: pair_statistic_moment(8, 3, 2.0),
        lambda: gaussian_moment(hermite(3), 2.0),
        lambda: expansion_approx(12.5, 3, 0.1),
        lambda: overlap_pmf(0, 0.0),
        lambda: overlap_grid(True),
        lambda: mask_table(12, True),
        lambda: ModelParams(N=12.0, p=3),
        lambda: check_seed(2.0),
        lambda: gaussian_field(2.5, d),
    )
    for call in calls:
        with pytest.raises(InvalidParametersError):
            call()


@pytest.mark.filterwarnings("error")
def test_non_finite_arguments_refused():
    # a NaN or inf argument, a beta whose square overflows, an integer past
    # the largest double, or a non-finite result ends in a PspinError; each
    # call's old result is on its right
    d = sample_disorder(ModelParams(N=8, p=3), 1)
    calls = (
        lambda: overlap_pmf(10, math.nan),  # bare ValueError from round()
        lambda: overlap_pmf(10, math.inf),  # bare OverflowError from round()
        lambda: gaussian_moment(MomentPolynomial((math.inf, 1.0)), 2),  # bare OverflowError
        lambda: overlap_pmf_gaussian(10, math.nan),  # nan
        lambda: expansion_approx(12, 3, math.nan),  # nan
        lambda: j_mgf(8, 3, 0.5, math.nan),  # nan
        lambda: exact_first_moment(8, 3, 1e200),  # nan
        lambda: beta_p(10**400),  # bare OverflowError: int too large to convert to float
        lambda: exact_first_moment(2000, 1000, 0.1),  # the same
        lambda: j_mgf(2000, 1000, 0.1, 0.5),  # the same
        lambda: clt_variance(0.5, 171),  # the same
        lambda: expansion_approx(10**400, 3, 0.5),  # the same
        lambda: j_term(d, 1e200),  # inf
        lambda: first_moment_mc(8, 3, 1e200, 2, 0),  # [nan, nan]
        lambda: j_mgf_mc(8, 3, 1e200, -0.5, 2, 0),  # [inf, inf]
        lambda: summarize([math.nan, 1.0], 0.0, 1.0),  # NaN statistics
        lambda: summarize([1.0, 2.0], 0.0, math.inf),  # finite statistics
        lambda: summarize([1.0, 2.0], math.inf, 1.0),  # finite statistics
        lambda: overlap_grid(10**400),  # bare OverflowError: int too large to convert to float
        lambda: overlap_pmf(10**400, 0.0),  # the same
        lambda: overlap_pmf_gaussian(10**400, 0.0),  # the same
        lambda: d_coefficient(1000, 300),  # the same
        lambda: expansion_approx(2000, 1000, 0.5),  # the same
        lambda: hermite_scaling_gap(2000, 1000),  # the same
        lambda: gaussian_moment(MomentPolynomial((1e100, 1e100)), 4),  # bare OverflowError:
        # integer division result too large for a float
        lambda: gaussian_moment(MomentPolynomial((1e300, 1e300)), 4, method="quadrature"),  # inf,
        # with an "overflow encountered in power" warning
        lambda: j_mgf_mc(8, 3, 0.5, math.nan, 2, 0),  # [nan, nan]
        lambda: j_mgf_mc(8, 3, 0.5, -1e308, 2, 0),  # [inf, inf]
        lambda: summarize([1e160, -1e160, 0.0], 0.0, 1.0),  # variance inf, skewness nan,
        # with an "overflow encountered in power" warning
        lambda: ModelParams(N=10**5000, p=3),  # bare ValueError: the refusal message's own
        # str() of an integer past 4,300 digits
        lambda: ModelParams(N=-(10**5000), p=3),  # the same
        lambda: hermite(10**5000),  # the same
        lambda: derive_seed(10**5000),  # the same
        lambda: mask_table(10**5000, 3),  # the same
        lambda: expansion_approx(12, 10**5000, 0.5),  # the same
        lambda: run_experiment(ExperimentConfig(ModelParams(N=8, p=3, beta=0.3), 10**5000, 0,
                                                "jterm_clt")),  # the same, from the row budget
        lambda: first_moment_mc(8, 3, 0.5, 10**5000, 0),  # bare ValueError from np.empty
        lambda: j_mgf_mc(8, 3, 0.5, 0.5, 10**5000, 0),  # the same
        lambda: first_moment_mc(8, 3, 0.5, 2, 0, sigma_samples=10**5000),  # bare ValueError:
        # the budget message's own str()
        lambda: first_moment_mc(8, 3, 0.5, 10**12, 0),  # bare MemoryError: 7.28 TiB
        lambda: j_mgf_mc(8, 3, 0.5, 0.5, 10**12, 0),  # the same
        lambda: overlap_pmf(10**306, 0.0),  # bare OverflowError from lgamma
        lambda: overlap_pmf(10**18, 0.0),  # bare OverflowError from exp
        lambda: a_exponent(10**400),  # bare OverflowError: int too large to convert to float
        lambda: a_exponent(10**400 + 1),  # the same
        lambda: limit_constants(0.5, 10**400),  # the same
        lambda: hermite_scaling_gap(10**400, 3),  # the same
        lambda: tabulate_covariance(10**400, 3),  # the same
        lambda: hermite_scaling_gap(10**300, 3),  # bare OverflowError: N**1.5
        lambda: hermite_scaling_gap(10**5000, 3),  # bare OverflowError
        lambda: d_coefficient(10**20, 10**19),  # bare OverflowError from math.factorial
    )
    for call in calls:
        with pytest.raises(PspinError):
            call()


def test_overflow_and_non_finite_messages():
    with pytest.raises(NumericalError, match="numerical overflow"):
        overlap_pmf(10**400, 0.0)
    with pytest.raises(NumericalError, match="numerical overflow"):
        j_mgf_mc(8, 3, 0.5, -1e308, 2, 0)
    with pytest.raises(NumericalError, match="not finite"):
        summarize([1e160, -1e160, 0.0], 0.0, 1.0)


@pytest.mark.filterwarnings("error")
def test_d_coefficient_in_o_k_steps():
    # p! was formed: a bare OverflowError past p = 2^63 - 1, seconds at p = 10^7
    assert d_coefficient(10**20, 0) == 1.0
    start = time.perf_counter()
    assert d_coefficient(10**7, 0) == 1.0
    assert time.perf_counter() - start < 1.0
    assert d_coefficient(10**20, 1) == -float(math.comb(10**20, 2))
    assert d_coefficient(300, 150) == float(math.prod(range(1, 300, 2)))  # 299!!
    with pytest.raises(NumericalError):
        d_coefficient(302, 151)  # 301!! is past the largest double
    for p in range(31):
        for k in range(p // 2 + 1):
            exact = (-1) ** k * math.factorial(p) // (2**k * math.factorial(k) * math.factorial(p - 2 * k))
            assert d_coefficient(p, k) == float(exact)


def test_hermite_degree_refused_before_any_coefficient(monkeypatch):
    # He_200 was refused by MomentPolynomial only after its 101 coefficients were built
    def no_coefficient(p, k):
        raise AssertionError("a coefficient was built")

    monkeypatch.setattr(covariance, "d_coefficient", no_coefficient)
    with pytest.raises(InvalidParametersError, match="degree 200 exceeds 64"):
        hermite(200)


def test_overlap_grid_states_its_bytes(monkeypatch):
    # the (N + 1)-tuple of floats, about 33 B per value, was built unguarded
    monkeypatch.setattr(errors, "BYTE_BUDGET", 2**16)
    with pytest.raises(ResourceLimitError):
        overlap_grid(10_000)
    assert len(overlap_grid(1000).values) == 1001


def test_overlap_grid_shape():
    grid = overlap_grid(6)
    assert grid.values[0] == -1.0 and grid.values[-1] == 1.0
    assert len(grid.values) == 7
    assert grid.spacing == pytest.approx(2 / 6)


def test_overlap_pmf_n2_and_normalization():
    assert overlap_pmf(2, 0.0) == pytest.approx(0.5)
    assert overlap_pmf(2, 1.0) == pytest.approx(0.25)
    assert overlap_pmf(2, -1.0) == pytest.approx(0.25)
    for N in (5, 17, 40):
        total = sum(overlap_pmf(N, m) for m in overlap_grid(N).values)
        assert abs(total - 1.0) < 1e-12


def test_overlap_pmf_symmetry():
    for N in (7, 12):
        for m in overlap_grid(N).values:
            assert overlap_pmf(N, float(m)) == pytest.approx(
                overlap_pmf(N, float(-m)), rel=1e-13
            )


def test_overlap_pmf_rejects_off_grid():
    with pytest.raises(InvalidParametersError):
        overlap_pmf(10, 0.15)


def test_gaussian_pmf_normalizes_approximately():
    for N in (50, 200):
        total = sum(overlap_pmf_gaussian(N, float(m)) for m in overlap_grid(N).values)
        assert abs(total - 1.0) < 5.0 / N


def test_gaussian_pmf_error_small_at_center():
    # ratio at m=0 for N=100 within 2 percent
    assert abs(overlap_pmf_gaussian(100, 0.0) / overlap_pmf(100, 0.0) - 1.0) < 0.02
    errs = [gaussian_pmf_error(N) for N in (50, 100, 200)]
    assert errs[0] > errs[1] > errs[2]

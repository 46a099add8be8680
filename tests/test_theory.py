import math

import numpy as np
import pytest

from pspinlab import (
    REM_BETA,
    InvalidParametersError,
    ModelParams,
    beta_p,
    clt_variance,
    free_energy_and_moments,
    gaussian_moment,
    hermite,
    j_term,
    limit_constants,
    sample_disorder,
)
from pspinlab.errors import NumericalError
from pspinlab.theory import _bounded_brent, a_exponent, hermite_moment

from _oracles import beta_p_scalar_scan, critical_objective, hermite_fourth_integral, phi


def test_phi_values():
    assert phi(0.0) == 0.0
    assert phi(1.0) == pytest.approx(math.log(2))
    assert phi(-1.0) == pytest.approx(math.log(2))
    for m in (0.1, 0.5, 0.93):
        assert phi(m) == phi(-m)
        assert phi(m) > 0


def test_phi_domain():
    with pytest.raises(InvalidParametersError):
        phi(1.0001)


def test_phi_quadratic_near_zero():
    # phi(m) = m^2/2 + m^4/12 + ...
    for m in (1e-3, 1e-2):
        assert phi(m) == pytest.approx(m * m / 2, rel=1e-4)


def test_beta_2_convention():
    assert beta_p(2) == 1.0


def test_beta_p_grid_oracle():
    # independent dense-grid minimization of (1 + m^-p) phi(m)
    for p in (3, 5, 10):
        grid = np.linspace(1e-6, 1 - 1e-9, 200_001)
        vals = [critical_objective(float(m), p) for m in grid]
        oracle = math.sqrt(min(vals))
        assert beta_p(p) == pytest.approx(oracle, abs=1e-7)


def test_beta_p_vector_scan_keeps_bits():
    # the numpy grid scan must pick the scalar scan's cell, so the refined
    # value keeps every bit
    for p in range(3, 65):
        assert beta_p(p) == beta_p_scalar_scan(p), p


def test_beta_p_known_value_p3():
    # frozen from the grid oracle above
    assert beta_p(3) == pytest.approx(1.0290096154, abs=1e-9)


def test_beta_p_monotone_bounded():
    prev = beta_p(2)
    for p in range(3, 51):
        cur = beta_p(p)
        assert cur > prev
        assert cur <= REM_BETA + 1e-12
        prev = cur
    assert abs(beta_p(50) - REM_BETA) < 1e-3


def test_beta_p_never_above_rem_limit():
    # from p = 61 on the minimizer ~2^-p/e lies below the scan's 1e-16 floor;
    # the infimum is still never above 2 ln 2, so beta_p never passes REM_BETA
    values = [beta_p(p) for p in range(3, 201)]
    assert all(v <= REM_BETA for v in values)
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_clt_variance_examples():
    assert clt_variance(0.0, 3) == 0.0
    assert clt_variance(1.0, 3) == 3.0
    # ratio of the exact finite-N variance to the limit tends to 1
    for N in (50, 200):
        exact = N**3 / (2 * math.comb(N, 3))
        assert exact / clt_variance(1.0, 3) == pytest.approx(
            1.0, abs=12.0 / N
        )


def test_gaussian_moment_basics():
    x = hermite(1)
    assert gaussian_moment(x, 2) == 1.0
    assert gaussian_moment(x, 1) == 0.0
    assert gaussian_moment(hermite(3), 2) == 6.0


def test_gaussian_moment_hermite_squares():
    for p in range(1, 11):
        assert gaussian_moment(hermite(p), 2) == float(math.factorial(p))


def test_gaussian_moment_odd_cubes_vanish():
    for p in (3, 5, 7):
        assert gaussian_moment(hermite(p), 3) == 0.0


def test_gaussian_moment_paths_agree():
    for p in range(3, 11):
        for r in (3, 4):
            a = gaussian_moment(hermite(p), r, method="exact")
            b = gaussian_moment(hermite(p), r, method="quadrature")
            if a == 0.0:
                # odd-p cubes vanish by symmetry; quadrature cancels huge
                # node terms, so judge its residue against E[He_p^2]^{3/2}
                scale = math.factorial(p) ** 1.5
                assert abs(b) < 1e-12 * scale
            else:
                assert a == pytest.approx(b, rel=1e-9)


def test_gaussian_moment_guards():
    with pytest.raises(InvalidParametersError):
        gaussian_moment(hermite(3), 5)
    with pytest.raises(InvalidParametersError):
        gaussian_moment(hermite(30), 4)


def test_limit_constants_even_p():
    lim = limit_constants(1.0, 4)
    assert lim.mu == 0.0
    # E[He_4^3] = 1728 by the pairing formula
    assert lim.sigma2 == pytest.approx(1728.0 / 3.0)
    assert lim.a_exponent == pytest.approx(0.75 * 4 - 0.5)
    assert lim.alpha_exponent == pytest.approx(lim.a_exponent - 1.0)


def test_a_exponent_closed_form_past_the_moment_cap():
    # A_N = N^{3p/4 - 1/2} for even p and N^{p-1} for odd p, also past the
    # degree-64 cap of gaussian_moment (p * r > 64)
    assert [a_exponent(p) for p in (3, 4, 5, 6, 17, 22)] == [2.0, 2.5, 4.0, 4.0, 16.0, 16.0]
    for p in range(3, 9):
        assert limit_constants(0.3, p).a_exponent == a_exponent(p)
    with pytest.raises(InvalidParametersError):
        a_exponent(2)


def test_limit_constants_odd_p():
    lim = limit_constants(1.0, 3)
    assert lim.mu == pytest.approx(-1.5)
    # E[He_3^4] = 3348 so sigma^2 = 3348/12 - 36/8 = 274.5
    assert lim.sigma2 == pytest.approx(274.5)
    assert lim.a_exponent == 2.0
    assert gaussian_moment(hermite(3), 4) == 3348.0


def test_limit_constants_beta_scaling():
    base = limit_constants(1.0, 3)
    scaled = limit_constants(0.5, 3)
    assert scaled.mu == pytest.approx(base.mu * 0.5**4)
    assert scaled.sigma2 == pytest.approx(base.sigma2 * 0.5**8)


def test_limit_constants_guards():
    with pytest.raises(InvalidParametersError):
        limit_constants(1.0, 2)
    with pytest.raises(InvalidParametersError):
        limit_constants(-0.2, 3)
    # p must be an integer: a bool or a float is refused, not truncated
    calls = (beta_p, a_exponent, lambda p: clt_variance(1.0, p),
             lambda p: limit_constants(1.0, p), lambda p: hermite_moment(p, 4))
    for call in calls:
        for p in (2.5, 3.5, 4.0, True):
            with pytest.raises(InvalidParametersError, match="integer"):
                call(p)
    with pytest.raises(InvalidParametersError):
        hermite_moment(3, 2)


def test_limit_constants_moment_overflow_is_numerical_error():
    # float(E[He_81^4]) raised a bare OverflowError; p = 79 still fits a double
    assert math.isfinite(limit_constants(0.5, 79).sigma2)
    with pytest.raises(NumericalError, match="p=81"):
        limit_constants(0.5, 81)


def test_beta_power_overflow_is_numerical_error():
    # beta**k raised a bare OverflowError in each of these
    d = sample_disorder(ModelParams(N=8, p=3), 1)
    for call in (lambda: clt_variance(1e100, 3), lambda: limit_constants(1e80, 3),
                 lambda: limit_constants(1e80, 4), lambda: free_energy_and_moments(d, 1e80)):
        with pytest.raises(NumericalError, match="overflow"):
            call()


def test_closed_forms_refuse_beta_outside_model_rule():
    # the ModelParams rule, finite and >= 0: NaN gave nan, -1 gave 3.0, inf gave inf
    d = sample_disorder(ModelParams(N=8, p=3), 1)
    for beta in (math.nan, math.inf, -1.0):
        for call in (lambda: clt_variance(beta, 3), lambda: limit_constants(beta, 3),
                     lambda: limit_constants(beta, 4), lambda: j_term(d, beta)):
            with pytest.raises(InvalidParametersError, match="finite and >= 0"):
                call()


def test_hermite_moment_matches_the_moment_engine():
    # the closed forms against the exact rational expansion wherever it reaches
    # (degree p * r <= 64), and against quadrature to 1e-9
    for r, top in ((3, 21), (4, 16)):
        for p in range(1, top + 1):
            exact = hermite_moment(p, r)
            assert isinstance(exact, int)
            assert float(exact) == gaussian_moment(hermite(p), r, method="exact"), (p, r)
            if exact:
                quad = gaussian_moment(hermite(p), r, method="quadrature")
                assert quad == pytest.approx(exact, rel=1e-9), (p, r)
    assert [hermite_moment(p, 3) for p in (2, 3, 4)] == [8, 0, 1728]
    assert hermite_moment(3, 4) == 3348


def test_odd_p_sigma2_matches_trapezoid_integral():
    # sigma^2 at beta = 1 against (1/(12 sqrt(2 pi))) Int He_p^4 e^{-m^2/2} dm - p!^2/8
    for p in range(3, 16, 2):
        integral = hermite_fourth_integral(hermite(p))
        form = integral / (12.0 * math.sqrt(2.0 * math.pi)) - math.factorial(p) ** 2 / 8.0
        assert limit_constants(1.0, p).sigma2 == pytest.approx(form, rel=1e-8, abs=0.0), p


def test_limit_constants_all_small_p():
    # both closed forms give a positive fine-scale variance
    for p in range(3, 11):
        lim = limit_constants(0.7, p)
        assert lim.sigma2 > 0.0


def test_bounded_brent_matches_scipy_bit_for_bit():
    from scipy.optimize import minimize_scalar

    cases = [
        (lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-10),
        (lambda x: math.cos(x) + 0.1 * x, 1.0, 5.0, 1e-8),
        (lambda x: abs(x - 2.0), -3.0, 7.0, 1e-12),
        (lambda x: x, 0.0, 1.0, 1e-5),
    ]
    for func, lo, hi, xatol in cases:
        res = minimize_scalar(func, bounds=(lo, hi), method="bounded",
                              options={"xatol": xatol})
        assert _bounded_brent(func, lo, hi, xatol) == (res.x, res.fun)


def test_bounded_brent_refuses_nan_objective_and_maxiter():
    with pytest.raises(NumericalError):
        _bounded_brent(lambda x: math.nan, 0.0, 1.0, 1e-10)
    with pytest.raises(NumericalError):
        _bounded_brent(math.cos, 1.0, 5.0, 1e-10, maxiter=3)


def test_trapezoid_integral_matches_adaptive_quadrature():
    # the odd-p sigma^2 cross-check: the trapezoid grid against scipy's quad
    from scipy.integrate import quad

    for p in range(3, 16, 2):
        he = hermite(p)
        oracle, _ = quad(
            lambda m: he(m) ** 4 * math.exp(-m * m / 2.0),
            -np.inf, np.inf, epsabs=0.0, epsrel=1e-12, limit=200,
        )
        assert hermite_fourth_integral(he) == pytest.approx(oracle, rel=1e-12, abs=0.0), p

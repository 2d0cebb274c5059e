import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ive
from scipy.stats import ncx2

from oracle_utils import decoder_loglik
from tumaloc.specfun import binom_logpmf, marcum_q1


def marcum_quadrature(a: float, b: float, epsabs: float = 1e-13) -> float:
    """Independent oracle: adaptive quadrature of the defining integral.

    Q1(a,b) = int_b^inf x exp(-(x^2+a^2)/2) I0(ax) dx, written with the
    exponentially scaled Bessel function for stability.  ``epsabs=0``
    makes the tolerance purely relative, for small tails.
    """
    def integrand(x):
        return x * ive(0, a * x) * np.exp(-0.5 * (x - a) ** 2)

    upper = max(b, a) + 40.0
    points = [a] if b < a < upper else None
    val, err = integrate.quad(
        integrand, b, upper, limit=400, points=points, epsabs=epsabs, epsrel=1e-13
    )
    assert err < 1e-10
    return val


class TestMarcumQ:
    def test_b_zero_full_tail(self):
        for a in (0.0, 0.7, 3.0, 9.5):
            assert marcum_q1(a, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_central_case_closed_form(self):
        for b in (0.0, 0.5, 2.0, 6.0):
            assert marcum_q1(0.0, b) == pytest.approx(np.exp(-b * b / 2), rel=1e-12)

    def test_against_quadrature_oracle(self):
        # frozen spot value from the quadrature oracle, plus a live sweep
        assert marcum_q1(1.0, 2.0) == pytest.approx(0.2690120600359099, abs=1e-10)
        rng = np.random.default_rng(3)
        for _ in range(40):
            a, b = rng.uniform(0.0, 10.0, size=2)
            assert marcum_q1(a, b) == pytest.approx(marcum_quadrature(a, b), abs=1e-9)

    def test_relative_accuracy_near_false_alarm_floor(self):
        # the paper's threshold b^2 = 36.84, where Q1 falls to about 1e-8 at
        # a = 0; the relative-tolerance oracle agrees with mpmath to 5e-15 here
        b = np.sqrt(36.84)
        for a in np.linspace(0.0, 3.0, 31):
            want = marcum_quadrature(a, b, epsabs=0.0)
            assert marcum_q1(a, b) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_one_at_gap(self):
        # 1 - Q1(a, b) <= exp(-(a - b)^2 / 2) < 2^-54 for a - b >= 9: the
        # library itself gives exactly 1 there, so returning 1 without the
        # call changes no value
        b = np.linspace(0.0, 100.0, 101)[:, None]
        a = b + np.linspace(9.0, 500.0, 200)[None]
        b = np.broadcast_to(b, a.shape)
        np.testing.assert_array_equal(ncx2.sf(b**2, 2, a**2), 1.0)
        np.testing.assert_array_equal(marcum_q1(a, b), 1.0)
        # noncentralities where ncx2.sf returns NaN
        assert marcum_q1(1e150, 6.0) == 1.0

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 10, size=10_000)
        b = rng.uniform(0, 10, size=10_000)
        q = marcum_q1(a, b)
        assert np.all((0.0 <= q) & (q <= 1.0))
        # nonincreasing in b, nondecreasing in a
        assert np.all(np.diff(marcum_q1(3.0, np.linspace(0, 8, 50))) <= 1e-14)
        assert np.all(np.diff(marcum_q1(np.linspace(0, 8, 50), 3.0)) >= -1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            marcum_q1(-0.1, 1.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, np.inf)


class TestLogCGaussDiag:
    """The decoder's diagonal log-Gaussian likelihood (``denoise_rows`` at N = 1)."""

    def dense_oracle(self, r, v, A):
        """Dense-covariance log density with the expanded F x F diagonal."""
        cov = np.diag(np.repeat(v, A)).astype(complex)
        F = cov.shape[0]
        sign, logdet = np.linalg.slogdet(np.pi * cov)
        assert sign == pytest.approx(1.0)
        return float(-logdet - np.real(r.conj() @ np.linalg.solve(cov, r)))

    def test_single_antenna_zero(self):
        got = decoder_loglik(np.array([0.0 + 0.0j]), np.array([1.0]), np.zeros(1), 1.0, 1)
        assert got == pytest.approx(-np.log(np.pi))

    def test_zero_energy(self):
        v = np.array([0.5, 2.0, 1.3])
        got = decoder_loglik(np.zeros(6, dtype=complex), v, np.zeros(3), 1.0, 2)
        assert got == pytest.approx(-2 * np.sum(np.log(np.pi * v)))

    def test_matches_dense_oracle(self, rng):
        for _ in range(200):
            B = int(rng.integers(1, 5))
            A = int(rng.integers(1, 5))
            if A * B > 16:
                continue
            v = rng.uniform(0.1, 3.0, size=B)
            g = rng.uniform(0.0, 1.0, size=B)
            r = rng.normal(size=A * B) + 1j * rng.normal(size=A * B)
            got = decoder_loglik(r, v, g, 1.5, A)
            want = np.array([self.dense_oracle(r, v, A), self.dense_oracle(r, v + 1.5 * g, A)])
            assert got == pytest.approx(want, rel=1e-10)


class TestBinom:
    def test_trivial_values(self):
        assert np.exp(binom_logpmf(1, 2, 0.5)) == pytest.approx(0.5)
        assert np.exp(binom_logpmf(0, 7, 0.0)) == pytest.approx(1.0)
        assert np.exp(binom_logpmf(3, 2, 0.5)) == 0.0

    def test_exact_product_oracle(self):
        # Bin(3; 10, 0.3) by direct rational evaluation: C(10,3) 0.3^3 0.7^7
        want = 120 * 0.3**3 * 0.7**7
        assert np.exp(binom_logpmf(3, 10, 0.3)) == pytest.approx(want, rel=1e-14)

    @given(st.integers(0, 60), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one(self, n, p):
        ks = np.arange(n + 1)
        assert np.exp(binom_logpmf(ks, n, p)).sum() == pytest.approx(1.0, abs=1e-12)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            binom_logpmf(1, 2, 1.5)

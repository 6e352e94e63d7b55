"""Special-function kernel against series/quadrature oracles and exact identities."""

import math

import numpy as np
import pytest
from scipy.special import betainc, ndtri

from sqccqkd import special
from sqccqkd.errors import ConvergenceError, DomainError
from sqccqkd.special import (
    _erfc,
    beta_inv_cdf_symmetric,
    beta_quantile,
    beta_reg,
    erfc_inv,
    normal_quantile,
)

from oracles import erfc_oracle


class TestErfc:
    def test_zero(self):
        assert _erfc(0.0) == 1.0

    def test_against_series_oracle(self):
        """Relative error < 1e-14 against the independent series/CF oracle."""
        for x in np.linspace(-6.0, 6.0, 241):
            ref = erfc_oracle(float(x))
            assert abs(_erfc(float(x)) - ref) <= 1e-14 * abs(ref)

    def test_published_table_anchors(self):
        # erf(1.2) and erf(1.25) as tabulated to seven places
        assert abs((1.0 - _erfc(1.2)) - 0.9103140) < 5e-8
        assert abs((1.0 - _erfc(1.25)) - 0.9229001) < 5e-8

    def test_value_near_example_point(self):
        # oracle-frozen reference for the bit-error operating point
        assert _erfc(1.22347) == pytest.approx(0.08358599947451562, abs=1e-15)

    def test_reflection_sums_to_two(self):
        rng = np.random.default_rng(42)
        for x in rng.uniform(-5, 5, 200):
            assert abs(_erfc(float(x)) + _erfc(float(-x)) - 2.0) < 1e-15

    def test_strictly_decreasing(self):
        # |x| <= 5.5 keeps successive values distinguishable in float64
        xs = np.linspace(-5.5, 5.5, 400)
        vals = [_erfc(float(x)) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_non_finite_arguments(self):
        """libm's limits: NaN stays NaN and the infinities give 0 and 2."""
        assert math.isnan(_erfc(math.nan))
        assert (_erfc(math.inf), _erfc(-math.inf)) == (0.0, 2.0)


class TestErfcInv:
    def test_symmetry_point(self):
        assert erfc_inv(1.0) == 0.0

    def test_oracle_value(self):
        # bisection oracle on erfc froze this to 2.185124219133004
        assert erfc_inv(0.002) == pytest.approx(2.1851242191330043, abs=1e-12)

    def test_roundtrip_residual(self):
        """|erfc(erfc_inv(y)) - y| < 1e-12 across the domain."""
        rng = np.random.default_rng(7)
        ys = rng.uniform(1e-12, 2.0 - 1e-12, 10_000)
        worst = max(abs(_erfc(erfc_inv(float(y))) - float(y)) for y in ys)
        assert worst < 1e-12

    def test_roundtrip_half(self):
        assert abs(_erfc(erfc_inv(0.5)) - 0.5) < 1e-12

    def test_strictly_decreasing(self):
        ys = np.linspace(1e-6, 2.0 - 1e-6, 300)
        vals = [erfc_inv(float(y)) for y in ys]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_antisymmetry(self):
        # dyadic y makes 2 - y exact, so the mirror is bit-exact
        for y in (0.25, 0.5, 0.125):
            assert erfc_inv(y) == -erfc_inv(2.0 - y)
        for y in (0.002, 0.3, 0.77):
            assert erfc_inv(y) == pytest.approx(-erfc_inv(2.0 - y), abs=1e-14)

    def test_domain(self):
        for bad in (0.0, 2.0, -1.0, 2.5):
            with pytest.raises(DomainError):
                erfc_inv(bad)


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_known_value(self):
        assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-10)

    def test_exact_negation(self):
        # z on a coarse dyadic grid: 1 - z is then exactly representable
        rng = np.random.default_rng(3)
        for k in rng.integers(1, 2 ** 20, 500):
            z = float(k) / 2 ** 20
            assert normal_quantile(z) == -normal_quantile(1.0 - z)

    def test_negation_small_z(self):
        # rounding 1 - z loses ~ulp(1), amplified by 1/pdf at the quantile
        rng = np.random.default_rng(5)
        for z in rng.uniform(1e-9, 0.25, 500):
            lhs = normal_quantile(float(z))
            rhs = -normal_quantile(float(1.0 - z))
            pdf = math.exp(-0.5 * lhs * lhs) / math.sqrt(2 * math.pi)
            assert lhs == pytest.approx(rhs, abs=1e-15 / pdf + 1e-13)

    def test_roundtrip(self):
        rng = np.random.default_rng(4)
        for z in rng.uniform(1e-10, 1 - 1e-10, 2000):
            x = normal_quantile(float(z))
            assert abs(0.5 * math.erfc(-x / math.sqrt(2)) - z) < 1e-12

    def test_against_ndtri(self):
        """Within 2e-15 relative of scipy's ndtri, deep tail and near 1/2 included.

        The standard library's AS241 measured at most 8.3e-16 on 40,000 sampled z.
        """
        zs = [float(z) for z in np.logspace(-320, math.log10(0.5), 200)]
        zs += [0.5 + d for d in (1e-6, 1e-9, 1e-12, -1e-6, -1e-9, -1e-12)]
        zs += [1.0 - z for z in zs if 1.0 - z < 1.0]
        for z in zs:
            assert normal_quantile(z) == pytest.approx(ndtri(z), rel=2e-15, abs=0.0), z

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                normal_quantile(bad)


class TestBetaReg:
    def test_symmetric_median(self):
        # accuracy at large a is limited by lgamma cancellation (~1e-13)
        for a in (0.7, 1.0, 3.5, 50.0, 400.0):
            assert beta_reg(0.5, a, a) == pytest.approx(0.5, abs=5e-13)

    def test_closed_form_quadratic(self):
        # I_x(2, 2) = x^2 (3 - 2x)
        for x in (0.1, 0.3, 0.62, 0.9):
            assert beta_reg(x, 2.0, 2.0) == pytest.approx(x * x * (3 - 2 * x),
                                                          abs=1e-14)

    def test_uniform_is_identity(self):
        for x in (0.0, 0.25, 0.7, 1.0):
            assert beta_reg(x, 1.0, 1.0) == pytest.approx(x, abs=1e-15)

    def test_endpoints(self):
        assert beta_reg(0.0, 3.0, 4.0) == 0.0
        assert beta_reg(1.0, 3.0, 4.0) == 1.0

    def test_reflection_identity(self):
        """I_x(a,b) + I_{1-x}(b,a) = 1 on random parameter draws."""
        rng = np.random.default_rng(11)
        for _ in range(300):
            a = 10 ** rng.uniform(-1, 3)
            b = 10 ** rng.uniform(-1, 3)
            x = rng.uniform(0, 1)
            total = beta_reg(x, a, b) + beta_reg(1 - x, b, a)
            assert abs(total - 1.0) < 1e-12

    def test_monotone_in_x(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            a = 10 ** rng.uniform(-0.5, 2.5)
            b = 10 ** rng.uniform(-0.5, 2.5)
            xs = np.sort(rng.uniform(0, 1, 20))
            vals = [beta_reg(float(x), a, b) for x in xs]
            assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_large_symmetric_parameters(self):
        """At a = b = 1e5 the fraction needs ~sqrt(a) terms, past a 200-term budget."""
        assert abs(beta_reg(0.5, 1e5, 1e5) - betainc(1e5, 1e5, 0.5)) < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_reg(-0.1, 2.0, 2.0)
        with pytest.raises(DomainError):
            beta_reg(1.1, 2.0, 2.0)
        with pytest.raises(DomainError):
            beta_reg(0.5, 0.0, 2.0)

    def test_stalled_continued_fraction_carries_its_residual(self, monkeypatch):
        """A continued fraction that runs out of terms raises, naming its last step."""
        monkeypatch.setattr(special, "_CF_MAX_TERMS", 1)
        with pytest.raises(ConvergenceError, match="continued fraction stalled") as exc:
            beta_reg(0.5, 1e3, 1e3)
        assert exc.value.residual == pytest.approx(0.988, abs=5e-4)


class TestBetaInvSymmetric:
    def test_median(self):
        assert beta_inv_cdf_symmetric(0.5, 17.0) == 0.5
        assert beta_inv_cdf_symmetric(0.5, 1e9) == 0.5

    def test_oracle_value_and_roundtrip(self):
        x = beta_inv_cdf_symmetric(0.025, 50.0)
        assert x == pytest.approx(0.40269791659005755, abs=1e-10)
        assert abs(beta_reg(x, 50.0, 50.0) - 0.025) < 1e-10

    def test_roundtrip_random(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            z = rng.uniform(1e-6, 1 - 1e-6)
            half_n = 10 ** rng.uniform(0, 4)
            x = beta_inv_cdf_symmetric(float(z), float(half_n))
            assert abs(beta_reg(x, half_n, half_n) - z) < 1e-9

    def test_branch_agreement_at_threshold(self):
        """Bisection and normal approximation agree where the branch switches."""
        for z in (0.025, 0.1, 0.3, 8.333333e-12):
            bisect = beta_inv_cdf_symmetric(z, 1e6)
            normal = 0.5 + normal_quantile(z) / math.sqrt(8e6 + 4.0)
            assert abs(bisect - normal) < 1e-6

    def test_branch_agreement_moderate_z_tight(self):
        for z in (0.025, 0.2):
            bisect = beta_inv_cdf_symmetric(z, 1e6)
            normal = 0.5 + normal_quantile(z) / math.sqrt(8e6 + 4.0)
            assert abs(bisect - normal) < 1e-8

    def test_large_half_n_uses_normal_branch(self):
        z = 0.025
        value = beta_inv_cdf_symmetric(z, 5e7)
        expected = 0.5 + normal_quantile(z) / math.sqrt(8 * 5e7 + 4.0)
        assert value == expected

    @pytest.mark.parametrize("n", [1e4, 1e5, 1e6, 2e6])
    @pytest.mark.parametrize("z", [1e-10 / 12.0, 1e-20 / 1296.0], ids=["var", "cov"])
    def test_few_beta_reg_calls(self, monkeypatch, n, z):
        """A finite-key quantile takes at most 4 evaluations of I_x, none at the
        bracket ends 0 and 1/2, whose values its caller fixes exactly."""
        calls = []
        original = special.beta_reg

        def counted(x, a, b):
            calls.append(x)
            return original(x, a, b)

        monkeypatch.setattr(special, "beta_reg", counted)
        x = beta_inv_cdf_symmetric(z, n / 2.0)
        assert len(calls) <= 4
        assert not {0.0, 0.5} & set(calls)
        assert abs(original(x, n / 2.0, n / 2.0) - z) <= 1e-10 * z

    @pytest.mark.parametrize("half_n", [10.0, 1e3, 1e5])
    @pytest.mark.parametrize("z", [math.nextafter(0.5, 0.0), 0.5 - 1e-13, 0.5 - 1e-10])
    def test_z_just_below_half(self, half_n, z):
        """The computed I_1/2(h, h) misses 1/2 by rounding (-8.7e-13 at h = 1e3,
        -3.2e-10 at h = 1e5), so a z just below 1/2 can exceed it; its quantile
        is still within 1e-9 of 1/2, not an error."""
        x = beta_inv_cdf_symmetric(z, half_n)
        assert 0.5 - 1e-9 <= x <= 0.5

    def test_reflection(self):
        x_lo = beta_inv_cdf_symmetric(0.2, 30.0)
        x_hi = beta_inv_cdf_symmetric(0.8, 30.0)
        assert x_lo + x_hi == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_inv_cdf_symmetric(0.0, 10.0)
        with pytest.raises(DomainError):
            beta_inv_cdf_symmetric(0.3, 0.3)


class TestBetaQuantile:
    def test_zero_error_tail_matches_closed_form(self):
        # I_p(1, m) = 1 - (1-p)^m, so the quantile at 1 - eps is 1 - eps^(1/m)
        for m in (100, 1000, 50_000):
            p = beta_quantile(1 - 1e-10, 1.0, float(m))
            assert p == pytest.approx(1 - (1e-10) ** (1.0 / m), rel=1e-6)

    def test_roundtrip(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a = 10 ** rng.uniform(0, 3)
            b = 10 ** rng.uniform(0, 4)
            z = rng.uniform(0.01, 0.99)
            x = beta_quantile(float(z), float(a), float(b))
            assert abs(beta_reg(x, a, b) - z) < 1e-8


class TestInverseRoundtrips:
    """Forward-roundtrip residual < 1e-10 across all inverse functions."""

    def test_normal_quantile_ten_thousand(self):
        rng = np.random.default_rng(51)
        worst = max(abs(0.5 * math.erfc(-normal_quantile(float(z)) / math.sqrt(2))
                        - float(z))
                    for z in rng.uniform(1e-10, 1 - 1e-10, 10_000))
        assert worst < 1e-12

    def test_erfc_inv_ten_thousand(self):
        rng = np.random.default_rng(52)
        worst = max(abs(_erfc(erfc_inv(float(y))) - float(y))
                    for y in rng.uniform(1e-12, 2 - 1e-12, 10_000))
        assert worst < 1e-12

    def test_beta_inverse_sweep(self):
        rng = np.random.default_rng(53)
        worst = 0.0
        for _ in range(2000):
            z = rng.uniform(1e-6, 1 - 1e-6)
            half_n = 10 ** rng.uniform(-0.3, 3)
            x = beta_inv_cdf_symmetric(float(z), float(half_n))
            worst = max(worst, abs(beta_reg(x, half_n, half_n) - z))
        assert worst < 1e-10


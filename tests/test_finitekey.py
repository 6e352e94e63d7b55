"""Finite-size penalties, worst-case estimators, composable key length."""

import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import betaincinv

from sqccqkd.channel import ChannelParams, ProtocolParams
from sqccqkd.errors import DomainError
from sqccqkd.finitekey import SecurityParams, _confidence_shrink
from sqccqkd.keyrate import _holevo, optimise_v, rate_at
from sqccqkd.postprocess import required_displacement
from sqccqkd.special import _NORMAL_HALF_N

from helpers import on_triple, worst_case_estimators


def sec_at(n: float, **kwargs) -> SecurityParams:
    return SecurityParams(block_size=n, **kwargs)


def unscaled(sec: SecurityParams) -> SimpleNamespace:
    """The four penalties of ``sec._penalties`` before their N and p_f scaling."""
    n, p_f = sec.block_size, sec.frame_success
    aep, ent, s, h = sec._penalties
    return SimpleNamespace(aep=aep / math.sqrt(p_f / n),
                           ent=ent / math.sqrt(p_f * math.log2(p_f * n) / n),
                           s=s * n, h=h * n)


class TestDeltaTerms:
    def test_table_defaults_frozen(self):
        """Direct arithmetic on the four penalty formulas at the table defaults."""
        d = unscaled(sec_at(1e8))
        assert d.aep == pytest.approx(327.80031219592576, rel=1e-12)
        assert d.ent == pytest.approx(8.272760234513463, rel=1e-12)
        assert d.s == pytest.approx(-0.005203073308612840, rel=1e-10)
        assert d.h == pytest.approx(-65.43856189774725, rel=1e-12)

    def test_hash_penalty_vanishes_at_special_eps(self):
        d = unscaled(sec_at(1e8, eps_h=1.0 / math.sqrt(2.0)))
        assert d.h == pytest.approx(0.0, abs=1e-12)

    def test_epsilon_bounds_enforced(self):
        with pytest.raises(DomainError):
            sec_at(1e8, eps_ent=2.0)
        with pytest.raises(DomainError):
            sec_at(1e8, eps_s=0.0)

    @pytest.mark.parametrize("eps_s", [1e-78, 1e-200])
    def test_smoothing_penalty_underflow_is_domain_error(self, eps_s):
        """(p_f eps_s^2 / 3)^2 underflows below eps_s of about 1e-77: at 1e-78 the
        penalty was inf, at 1e-200 a ZeroDivisionError.  The margins do not need eps_s."""
        sec = sec_at(1e6, eps_s=eps_s)
        with pytest.raises(DomainError, match="smoothing penalty out of range"):
            sec._penalties
        assert all(map(math.isfinite, sec._estimator_margins))
        assert math.isfinite(unscaled(sec_at(1e6, eps_s=1e-76)).aep)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 1.0, -1e-300])
    @pytest.mark.parametrize("field", ["eps_qrng", "eps_ir", "eps_cal"])
    def test_budget_only_epsilons_in_range(self, field, value):
        """These enter only epsilon_total, which nan, inf or 1 once made nan,
        infinite or vacuous; 0 is allowed."""
        message = re.escape(f"{field} must be in [0, 1), got ")
        with pytest.raises(DomainError, match=message):
            sec_at(1e8, **{field: value})
        assert sec_at(1e8, **{field: 0.0}).epsilon_total() == pytest.approx(6e-10)

    def test_epsilon_total_below_one(self):
        """Terms each below 1 may still sum to a budget that secures nothing."""
        with pytest.raises(DomainError,
                           match="^epsilon_total must be < 1, got 1.4000000005$"):
            sec_at(1e8, eps_ir=0.7, eps_cal=0.7)
        assert sec_at(1e8, eps_ir=0.5, eps_cal=0.4).epsilon_total() < 1.0

    @pytest.mark.parametrize("bits", [0, 65, 99999999999999999999, 10**400],
                             ids=["0", "65", "1e20-1", "10**400"])
    def test_discretization_bits_bounded(self, bits):
        """4 (d + 1) in the smoothing penalty once overflowed at d = 10**400 and gave
        K_F = -4.7e18 at d = 1e20 - 1."""
        with pytest.raises(DomainError, match=f"^discretization_bits must be in 1..64, "
                                              f"got {bits}$"):
            sec_at(1e8, discretization_bits=bits)
        assert all(map(math.isfinite, sec_at(1e8, discretization_bits=64)._penalties))

    def test_entropy_penalty_overflow_is_domain_error(self):
        """2 / eps_ent overflows below eps_ent of about 1e-308: the penalty was inf."""
        sec = sec_at(1e6, eps_ent=5e-324)
        with pytest.raises(DomainError, match=r"^finite-size penalties out of range: "
                                              r"\(.*, inf, .*\) at eps_s = 1e-10, "
                                              r"eps_ent = 5e-324, eps_h = 1e-10$"):
            sec._penalties
        assert math.isfinite(unscaled(sec_at(1e6, eps_ent=1e-300)).ent)

    @pytest.mark.parametrize("eps_pe", [5e-324, 1e-200])
    def test_estimator_confidence_underflow_names_eps_pe(self, eps_pe):
        """eps_pe^2 / 1296 underflows to 0 below eps_pe of about 1e-160; the Beta
        quantile's own error named only its z."""
        with pytest.raises(DomainError, match=re.escape(
                f"eps_pe^2 / 1296 underflows at eps_pe = {eps_pe}")):
            sec_at(1e6, eps_pe=eps_pe)._estimator_margins
        assert all(map(math.isfinite, sec_at(1e6, eps_pe=1e-150)._estimator_margins))

    def test_block_size_floor(self):
        with pytest.raises(DomainError):
            sec_at(1.0)

    def test_frame_success_times_block_size_floor(self):
        """The entropy penalty takes log2(p_f N): p_f N < 1 is a package error."""
        with pytest.raises(DomainError, match=r"frame_success \* block_size"):
            sec_at(2.0, frame_success=0.1)
        assert sec_at(10.0, frame_success=0.1).frame_success == 0.1  # p_f N = 1


class TestWorstCaseEstimators:
    def test_infinite_sample_limit(self):
        # at astronomically large N the confidence interval collapses
        sigma_a, sigma_b, sigma_c = worst_case_estimators(
            5.0, 1.405, 1.5492, sec_at(1e30))
        assert sigma_a == pytest.approx(5.0, abs=1e-10)
        assert sigma_b == pytest.approx(1.405, abs=1e-10)
        assert sigma_c == pytest.approx(1.5492, abs=1e-9)

    def test_reference_block_frozen(self):
        sigma_a, sigma_b, sigma_c = worst_case_estimators(
            5.0, 1.405, 1.5492, sec_at(1e8))
        assert sigma_a == pytest.approx(5.003366296100311, rel=1e-10)
        assert sigma_b == pytest.approx(1.4059459292041874, rel=1e-10)
        assert sigma_c == pytest.approx(1.5421152608395363, rel=1e-10)

    @pytest.mark.parametrize("n, expected", [
        (1e4, (5.336256888833759, 1.4994881857622864, 0.8422325046686798)),
        (1e6, (5.033662588122922, 1.4144591872625412, 1.4783541172571322)),
    ])
    def test_bisection_blocks_frozen(self, n, expected):
        """Below N = 2e6 the Beta quantiles come from bisection, not the normal limit."""
        got = worst_case_estimators(5.0, 1.405, 1.5492, sec_at(n))
        assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("change", [{"block_size": 1e6}, {"eps_pe": 1e-6}])
    def test_replaced_params_recompute_margins(self, change):
        """A replaced SecurityParams carries no margins cached on its source."""
        sec = sec_at(1e4)
        worst_case_estimators(5.0, 1.405, 1.5492, sec)
        replaced = dataclasses.replace(sec, **change)
        fresh = SecurityParams(**{**dataclasses.asdict(sec), **change})
        assert (worst_case_estimators(5.0, 1.405, 1.5492, replaced)
                == worst_case_estimators(5.0, 1.405, 1.5492, fresh))
        assert (worst_case_estimators(5.0, 1.405, 1.5492, replaced)
                != worst_case_estimators(5.0, 1.405, 1.5492, sec))

    def test_normal_branch_cross_check(self):
        """delta_Var at N=1e8 equals the closed-form tail estimate."""
        from sqccqkd.special import normal_quantile
        n = 1e8
        sigma_a, _, _ = worst_case_estimators(1.0, 1.0, 1.0, sec_at(n))
        delta_var = sigma_a - 1.0
        expected = -2.0 * normal_quantile(1e-10 / 12.0) / math.sqrt(4.0 * n + 4.0)
        assert delta_var == pytest.approx(expected, rel=1e-12)
        assert delta_var == pytest.approx(6.7e-4, rel=0.1)

    @pytest.mark.parametrize("half_n", np.geomspace(
        math.nextafter(_NORMAL_HALF_N, math.inf), 5e8, 10).tolist())
    def test_normal_branch_never_narrower(self, half_n):
        """Above _NORMAL_HALF_N the shrink is Normal(1/2, 1/(8h + 4))'s, which is too
        wide, by 0.86/h to 24/h relative: conservative.  A higher-order expansion
        there must not turn it narrower than the exact Beta quantile's."""
        for eps_pe in np.geomspace(1e-20, 1e-2, 19).tolist():
            for z in (eps_pe / 12.0, eps_pe ** 2 / 1296.0):
                exact = 1.0 - 2.0 * betaincinv(half_n, half_n, z)
                assert _confidence_shrink(z, 2.0 * half_n) >= exact, (eps_pe, z)

    def test_strict_worst_direction(self):
        """Variances inflate, correlation deflates, for any finite block."""
        for n in (1e3, 1e5, 1e8, 1e12):
            sigma_a, sigma_b, sigma_c = worst_case_estimators(
                5.0, 1.405, 1.5492, sec_at(n))
            assert sigma_a > 5.0
            assert sigma_b > 1.405
            assert sigma_c < 1.5492

    def test_holevo_ordering(self):
        """The eavesdropper bound at worst case dominates the mean-value bound."""
        chi_mean = on_triple(_holevo, 5.0, 1.405, 1.5)
        for n in (1e6, 1e8, 1e12):
            sa, sb, sc = worst_case_estimators(5.0, 1.405, 1.5, sec_at(n))
            chi_worst = on_triple(_holevo, sa, sb, sc)
            assert chi_worst >= chi_mean

    def test_zero_correlation_rejected(self):
        with pytest.raises(DomainError):
            worst_case_estimators(5.0, 1.405, 0.0, sec_at(1e8))

    @pytest.mark.parametrize("triple, name", [
        ((math.nan, 2.0, 2.0), "a"), ((math.inf, 2.0, 1.0), "a"), ((-1.0, 2.0, 1.0), "c"),
    ], ids=["nan", "inf", "negative"])
    def test_non_finite_extremes_rejected(self, triple, name):
        """A non-finite extreme raises, as the rate's worst-case state does."""
        with pytest.raises(DomainError, match=f"^{name} must be finite$"):
            worst_case_estimators(*triple, sec_at(1e8))


class TestFiniteRate:
    CHAN = ChannelParams(0.9, 0.05)

    def proto(self):
        d = required_displacement(3.0, self.CHAN, 1e-3)
        return ProtocolParams(3.0, d, 0.95)

    def test_epsilon_budget_sum(self):
        assert sec_at(1e8).epsilon_total() == pytest.approx(7e-10, rel=1e-12)

    def test_key_length_consistency(self):
        res = rate_at(self.proto(), self.CHAN, sec=sec_at(1e8))
        assert res["ell"] == pytest.approx(res["K_F"] * 1e8, rel=1e-12)

    def test_monotone_in_block_size(self):
        rates = [rate_at(self.proto(), self.CHAN, sec=sec_at(n))["K_F"]
                 for n in (1e3, 1e6, 1e7, 1e8, 1e10, 1e14)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_small_block_is_negative(self):
        for t in (0.2, 0.5, 0.9):
            chan = ChannelParams(t, 0.05)
            d = required_displacement(3.0, chan, 1e-3)
            res = rate_at(ProtocolParams(3.0, d, 0.95), chan, sec=sec_at(1e3))
            assert res["K_F"] < 0.0

    def test_asymptotic_consistency(self):
        """At N = 1e16 the finite rate reaches p_f times the PE-asymptotic rate."""
        res = rate_at(self.proto(), self.CHAN, sec=sec_at(1e16))
        assert abs(res["K_F"] - 0.9964 * res["K_PE"]) / abs(res["K_F"]) < 1e-3
        asym = rate_at(self.proto(), self.CHAN)
        assert res["K_PE"] == pytest.approx(asym["K"], rel=1e-3)

    def test_positive_at_reference_block(self):
        res = rate_at(self.proto(), self.CHAN, sec=sec_at(1e8))
        assert res["K_F"] > 0.0
        assert res["feasible"]


class TestOptimiseVFinite:
    def test_limit_matches_asymptotic_optimum(self):
        chan = ChannelParams(0.4, 0.05)
        fin = optimise_v(chan, 0.5, sec=sec_at(1e16))
        asym = optimise_v(chan, 0.5)
        assert fin.k_star == pytest.approx(0.9964 * asym.k_star, rel=1e-3)

    def test_never_exceeds_scaled_asymptotic(self):
        for t, w in ((0.3, 0.5), (0.7, 1e-3), (0.9, 1e-6)):
            chan = ChannelParams(t, 0.05)
            fin = optimise_v(chan, w, sec=sec_at(1e8))
            asym = optimise_v(chan, w)
            assert fin.k_star <= 0.9964 * asym.k_star + 1e-9

    # on this channel the baseline has no key at W = 1e-3, so it is checked at 1e-6
    @pytest.mark.parametrize("model, w", [("sqcc", 1e-3), ("baseline", 1e-6)],
                             ids=["sqcc", "baseline"])
    def test_brute_force_oracle(self, model, w):
        from oracles import brute_force_optimum
        chan = ChannelParams(0.75, 0.03)
        sec = sec_at(1e8)
        opt = optimise_v(chan, w, model=model, sec=sec)

        def objective(v):
            proto = ProtocolParams(v, required_displacement(v, chan, w), 0.95)
            return rate_at(proto, chan, model=model, sec=sec)["K_F"]

        ref = brute_force_optimum(objective, n_points=3000)
        assert opt.k_star == pytest.approx(ref, rel=1e-5)

    def test_positive_fraction_at_reference_block_both_qos(self):
        """The reference block size yields key at both QoS settings somewhere."""
        sec = sec_at(1e8)
        for w in (0.5, 1e-3):
            rates = [optimise_v(ChannelParams(t, 0.05), w, sec=sec).k_star
                     for t in (0.3, 0.9)]
            assert any(k > 0.0 for k in rates)

"""Analytic strong-drive theory: phase profile, harmonics, splitting sums."""

import numpy as np
import pytest

from qbsim import LatticeEnvironment, ProtocolSchedule, SystemParams
from qbsim.errors import ResonantDenominatorError
from qbsim.floquet import circular_distance, compute_spectrum
from qbsim.perturbation import (
    NonresonantPair,
    asymptotic_energy_closed_form,
    nonresonant_zeroth_order,
    phase_fourier_coeff,
    phase_profile,
    second_order_corrections,
    splitting_large_coupling,
)

from oracles import splitting_main_sum


def equal_schedule(kappa: float) -> ProtocolSchedule:
    tau = 0.5 * np.pi / kappa
    return ProtocolSchedule(tau_c=tau, tau_s=tau, tau_d=tau)


def phase_fourier_coeff_quadrature(kappa, schedule, n, profile=None, nodes=200):
    """Gauss-Legendre oracle for f_n, segment by segment.

    ``profile`` substitutes an arbitrary T-periodic function of reduced
    time tau in [0, 1] (profile = 1 recovers f_n = delta_n0), which makes
    the oracle testable on its own.
    """
    if profile is None:
        def profile(tau):
            return phase_profile(kappa, schedule, tau * schedule.period)

    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0 + 0.0j
    for lo, hi in ((0.0, 1.0 / 3.0), (1.0 / 3.0, 2.0 / 3.0), (2.0 / 3.0, 1.0)):
        tau = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        vals = np.asarray(profile(tau), dtype=complex) * np.exp(-2j * np.pi * n * tau)
        total += 0.5 * (hi - lo) * np.sum(w * vals)
    return complex(total)


class TestPhaseProfile:
    KAPPA = 8.0
    SCH = equal_schedule(8.0)

    def test_unit_modulus_and_periodicity(self):
        T = self.SCH.period
        ts = np.linspace(0.0, 3 * T, 301)
        y = phase_profile(self.KAPPA, self.SCH, ts)
        np.testing.assert_allclose(np.abs(y), 1.0, atol=1e-14)
        np.testing.assert_allclose(
            phase_profile(self.KAPPA, self.SCH, ts + T), y, atol=1e-12
        )

    def test_continuity_at_segment_edges(self):
        T = self.SCH.period
        for edge in (T / 3, 2 * T / 3, T):
            left = phase_profile(self.KAPPA, self.SCH, edge - 1e-10)
            right = phase_profile(self.KAPPA, self.SCH, edge + 1e-10)
            at = phase_profile(self.KAPPA, self.SCH, edge)
            assert abs(left - at) < 1e-8
            assert abs(right - at) < 1e-8

    def test_anchor_values(self):
        T = self.SCH.period
        assert phase_profile(self.KAPPA, self.SCH, 0.0) == 1.0 + 0.0j
        assert phase_profile(self.KAPPA, self.SCH, T) == pytest.approx(1.0 + 0.0j)
        # end of the charge segment: accumulated phase -kappa T/9 = -pi/6
        assert phase_profile(self.KAPPA, self.SCH, T / 3) == pytest.approx(
            np.exp(-1j * np.pi / 6), abs=1e-12
        )

    def test_protocol_guards(self):
        tau = 0.5 * np.pi / self.KAPPA
        uneven = ProtocolSchedule(tau_c=tau, tau_s=tau, tau_d=2 * tau)
        with pytest.raises(ValueError):
            phase_profile(self.KAPPA, uneven, 0.1)
        with pytest.raises(ValueError):
            phase_profile(self.KAPPA + 0.5, self.SCH, 0.1)
        # a NaN coupling or splitting fails the checks instead of passing them
        with pytest.raises(ValueError):
            phase_profile(float("nan"), self.SCH, 0.1)
        with pytest.raises(ValueError):
            phase_fourier_coeff(float("nan"), self.SCH, 0)
        with pytest.raises(ValueError):
            asymptotic_energy_closed_form(0.1, float("nan"), self.SCH, 0.1)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                asymptotic_energy_closed_form(bad, self.KAPPA, self.SCH, 0.1)


class TestFourierCoefficients:
    KAPPA = 8.0
    SCH = equal_schedule(8.0)

    def test_closed_form_vs_quadrature(self):
        for n in range(-4, 5):
            closed = phase_fourier_coeff(self.KAPPA, self.SCH, n)
            quad = phase_fourier_coeff_quadrature(self.KAPPA, self.SCH, n)
            assert abs(closed - quad) < 1e-10

    def test_dc_coefficient(self):
        f0 = phase_fourier_coeff(self.KAPPA, self.SCH, 0)
        assert f0 == pytest.approx(3.0 / np.pi, abs=1e-14)
        assert abs(f0.imag) < 1e-14

    def test_kappa_independent(self):
        # the reduced-time profile is universal on the constrained protocol
        for n in (0, 1, -2, 5):
            a = phase_fourier_coeff(5.0, equal_schedule(5.0), n)
            b = phase_fourier_coeff(12.0, equal_schedule(12.0), n)
            assert abs(a - b) < 1e-12

    def test_parseval(self):
        total = sum(
            abs(phase_fourier_coeff(self.KAPPA, self.SCH, n)) ** 2
            for n in range(-50, 51)
        )
        assert 0.0 < 1.0 - total < 1e-6

    def test_flat_profile_recovers_delta(self):
        for n in (0, 1, 3):
            c = phase_fourier_coeff_quadrature(
                self.KAPPA, self.SCH, n, profile=lambda tau: np.ones_like(tau)
            )
            assert abs(c - (1.0 if n == 0 else 0.0)) < 1e-12


class TestSecondOrder:
    ENV = LatticeEnvironment(n_side=10, varpi=1.0, q=0.5, g=0.5)

    def test_matches_exact_splitting(self):
        # the second-order sum should land within a percent-level band of the
        # stroboscopic splitting, tightening as kappa grows
        for kappa, tol in ((8.0, 0.03), (15.0, 0.01)):
            params = SystemParams.from_center(2.0, 0.0, kappa)
            sch = equal_schedule(kappa)
            res = second_order_corrections(params, self.ENV, sch)
            spec = compute_spectrum(params, self.ENV, sch)
            eps = spec.quasienergies[spec.fbs_indices]
            assert len(eps) == 2
            exact = circular_distance(eps[0], eps[1], spec.omega_T)
            assert res.splitting == pytest.approx(exact, rel=tol)

    def test_combined_sum_identity(self):
        params = SystemParams.from_center(2.0, 0.0, 8.0)
        sch = equal_schedule(8.0)
        res = second_order_corrections(params, self.ENV, sch)
        main = splitting_main_sum(params, self.ENV, sch, n_max=res.n_max)
        assert main == pytest.approx(res.splitting, rel=1e-10)

    def test_zeroth_order_and_tail(self):
        params = SystemParams.from_center(2.0, 0.0, 8.0)
        sch = equal_schedule(8.0)
        res = second_order_corrections(params, self.ENV, sch)
        assert res.eps0 == pytest.approx(2.0 - 0.5 * sch.omega_T, rel=1e-15)
        assert res.tail_bound < 1e-8
        assert res.n_max >= 8

    def test_requires_resonance(self):
        detuned = SystemParams.from_center(2.0, 0.5, 8.0)
        with pytest.raises(ValueError):
            second_order_corrections(detuned, self.ENV, equal_schedule(8.0))

    def test_resonant_denominator(self):
        # kappa = 1.5 puts (n - 1/2) omega_T exactly on a lattice detuning
        env = LatticeEnvironment(n_side=2, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(2.0, 0.0, 1.5)
        with pytest.raises(ResonantDenominatorError) as exc:
            second_order_corrections(params, env, equal_schedule(1.5))
        assert 0 <= exc.value.mode_index < 4
        assert isinstance(exc.value.harmonic, int)


class TestLargeCoupling:
    def test_closed_coefficient(self):
        env = LatticeEnvironment(n_side=30, varpi=1.0, q=0.5, g=0.5)
        expected = 3.0 * 0.25 * (9.0 / np.pi**2) / 15.0
        assert splitting_large_coupling(env, 15.0) == pytest.approx(expected, rel=1e-12)

    def test_approaches_second_order(self):
        env = LatticeEnvironment(n_side=30, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(2.0, 0.0, 15.0)
        res = second_order_corrections(params, env, equal_schedule(15.0))
        assert splitting_large_coupling(env, 15.0) == pytest.approx(
            res.splitting, rel=0.02
        )

    def test_validation(self):
        env = LatticeEnvironment(n_side=30, varpi=1.0, q=0.5, g=0.5)
        with pytest.raises(ValueError):
            splitting_large_coupling(env, 0.0)

    @pytest.mark.parametrize("kappa", [-1.0, np.nan, np.inf, -np.inf])
    def test_rejects_negative_and_non_finite(self, kappa):
        env = LatticeEnvironment(n_side=2, varpi=1.0, q=0.5, g=0.5)
        with pytest.raises(ValueError):
            splitting_large_coupling(env, kappa)

    def test_equals_harmonic_on_sm_s1_grid(self):
        # the closed |f_0|^2 = 9/pi^2 is the harmonic's value to the bit,
        # so the closed form gives what 3 g^2 |f_0|^2 / kappa gives
        env = LatticeEnvironment(n_side=2, varpi=1.0, q=0.5, g=0.5)
        for kappa in (5.0 + 0.5 * np.arange(21)).tolist():
            f0 = abs(phase_fourier_coeff(kappa, equal_schedule(kappa), 0))**2
            assert splitting_large_coupling(env, kappa) \
                == 3.0 * env.g**2 * f0 / kappa


class TestClosedFormEnergy:
    KAPPA = 15.0
    SCH = equal_schedule(15.0)

    def test_bounds_and_start(self):
        ts = np.linspace(0.0, 40 * self.SCH.period, 2001)
        e = asymptotic_energy_closed_form(0.045, self.KAPPA, self.SCH, ts)
        assert np.all(e >= -1e-12)
        assert np.all(e <= 1.0 + 1e-12)
        assert asymptotic_energy_closed_form(0.045, self.KAPPA, self.SCH, 0.0) == 0.0

    def test_stroboscopic_envelope(self):
        # at whole periods y = 1 and the fast factor drops out
        d_eps = 0.045
        T = self.SCH.period
        for k in (1, 5, 23):
            e = asymptotic_energy_closed_form(d_eps, self.KAPPA, self.SCH, k * T)
            assert e == pytest.approx(0.5 * (1 - np.cos(d_eps * k * T)), abs=1e-12)

    def test_periodic_when_splitting_closes(self):
        T = self.SCH.period
        ts = np.linspace(0.0, T, 97)
        a = asymptotic_energy_closed_form(0.0, self.KAPPA, self.SCH, ts)
        b = asymptotic_energy_closed_form(0.0, self.KAPPA, self.SCH, ts + 7 * T)
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestNonresonant:
    def test_zeroth_order_pair(self):
        params = SystemParams.from_center(2.0, 0.5, 15.0)
        sch = equal_schedule(15.0)
        pair = nonresonant_zeroth_order(params, sch)
        assert isinstance(pair, NonresonantPair)
        eps0 = 2.0 - 0.5 * sch.omega_T
        assert pair.eps_battery == pytest.approx(eps0 + 0.5, rel=1e-12)
        assert pair.eps_charger == pytest.approx(eps0 - 0.5, rel=1e-12)
        assert pair.splitting == pytest.approx(1.0, rel=1e-12)

    def test_protocol_guard(self):
        params = SystemParams.from_center(2.0, 0.5, 15.0)
        with pytest.raises(ValueError):
            nonresonant_zeroth_order(params, equal_schedule(10.0))

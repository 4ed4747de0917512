"""Weak-coupling limit: golden-rule rate, principal-value shift, envelope."""

import numpy as np
import pytest
from scipy import integrate

from qbsim import LatticeEnvironment, ProtocolSchedule, SystemParams
from qbsim.ideal import ideal_evolve
from qbsim.markovian import MarkovRates, markov_energy, markov_rates
from qbsim.environment import spectral_density

ENV = LatticeEnvironment(n_side=30, varpi=1.0, q=0.5, g=0.5)

_RATES_CACHE: dict[float, MarkovRates] = {}


def rates_at(w0: float) -> MarkovRates:
    if w0 not in _RATES_CACHE:
        _RATES_CACHE[w0] = markov_rates(ENV, w0)
    return _RATES_CACHE[w0]


def principal_value_oracle(env, omega_0):
    """P int J(w)/(omega_0 - w) dw via Cauchy-weight quadrature.

    The pole segment is kept clear of the divergent band center by cutting
    at the midpoint between the center and omega_0.
    """
    lo, hi = env.band_edges
    J = lambda w: spectral_density(env, w)
    mid = 0.5 * (env.varpi + omega_0)
    if omega_0 > env.varpi:
        cuts = [(lo, env.varpi, False), (env.varpi, mid, False), (mid, hi, True)]
    else:
        cuts = [(lo, mid, True), (mid, env.varpi, False), (env.varpi, hi, False)]
    total = 0.0
    for a, b, has_pole in cuts:
        if has_pole:
            total -= integrate.quad(J, a, b, weight="cauchy", wvar=omega_0, limit=300)[0]
        else:
            total += integrate.quad(lambda w: J(w) / (omega_0 - w), a, b, limit=300)[0]
    return total


class TestMarkovRates:
    def test_gamma_is_pi_times_density(self):
        for w0 in (2.0, 1.4, 0.5, 2.7):
            assert rates_at(w0).gamma == pytest.approx(
                np.pi * spectral_density(ENV, w0), rel=1e-14
            )

    def test_shift_against_cauchy_oracle(self):
        for w0 in (2.0, 1.4, 0.5, 2.7):
            assert rates_at(w0).lamb_shift == pytest.approx(
                principal_value_oracle(ENV, w0), abs=1e-9
            )

    def test_reference_point(self):
        rates = rates_at(2.0)
        assert rates.gamma == pytest.approx(0.1716100626, abs=1e-9)
        assert rates.lamb_shift == pytest.approx(0.1341477, abs=2e-6)

    def test_band_center_rejected(self):
        with pytest.raises(ValueError):
            markov_rates(ENV, ENV.varpi)

    @pytest.mark.parametrize("w0", [np.nan, np.inf, -np.inf])
    def test_non_finite_frequency_rejected(self, w0):
        # these used to return gamma = 0 with a NaN shift
        with pytest.raises(ValueError, match="omega_0 must be finite"):
            markov_rates(ENV, w0)

    def test_outside_band(self):
        lo, hi = ENV.band_edges
        for w0 in (hi + 0.5, lo - 0.5):
            rates = markov_rates(ENV, w0)
            assert rates.gamma == 0.0
            J = lambda w: spectral_density(ENV, w) / (w0 - w)
            direct = (
                integrate.quad(J, lo, ENV.varpi, limit=300)[0]
                + integrate.quad(J, ENV.varpi, hi, limit=300)[0]
            )
            assert rates.lamb_shift == pytest.approx(direct, rel=1e-8)
        # above the band every denominator is positive, below negative
        assert markov_rates(ENV, hi + 0.5).lamb_shift > 0
        assert markov_rates(ENV, lo - 0.5).lamb_shift < 0

    def test_band_edge(self):
        # J stays finite on the edge so Gamma = g^2/(4q); the principal value
        # diverges logarithmically there and is reported as signed infinity
        lo, hi = ENV.band_edges
        rates = markov_rates(ENV, hi)
        assert rates.gamma == pytest.approx(ENV.g**2 / (4 * ENV.q), rel=1e-12)
        assert rates.lamb_shift == np.inf
        assert markov_rates(ENV, lo).lamb_shift == -np.inf

    def test_result_type(self):
        assert isinstance(rates_at(2.0), MarkovRates)


class TestMarkovEnergy:
    SCHEDULE = ProtocolSchedule(tau_c=0.7, tau_s=1.1, tau_d=0.5)

    def test_zero_rate_matches_resonant_pair(self):
        # without decay the envelope reduces to the closed two-level result
        params = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=0.8)
        ts = np.linspace(0.0, 3 * self.SCHEDULE.period, 97)
        ideal = np.array(
            [
                params.omega_b * abs(ideal_evolve(params, self.SCHEDULE, t)[0]) ** 2
                for t in ts
            ]
        )
        np.testing.assert_allclose(
            markov_energy(params, self.SCHEDULE, 0.0, ts), ideal, rtol=0, atol=1e-12
        )

    def test_decaying_envelope(self):
        params = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=0.8)
        gamma = 0.3
        ts = np.linspace(0.0, 10.0, 201)
        e = markov_energy(params, self.SCHEDULE, gamma, ts)
        assert np.all(e <= params.omega_0 * np.exp(-2 * gamma * ts) + 1e-15)
        assert np.all(e >= 0.0)

    def test_storage_plateau(self):
        # during the free segment the population is frozen up to the decay factor
        params = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=0.8)
        gamma = 0.25
        t0, t1 = self.SCHEDULE.tau_c, self.SCHEDULE.tau_c + self.SCHEDULE.tau_s
        e0 = markov_energy(params, self.SCHEDULE, gamma, t0)
        e1 = markov_energy(params, self.SCHEDULE, gamma, t1)
        assert e1 == pytest.approx(e0 * np.exp(-2 * gamma * (t1 - t0)), rel=1e-12)

    def test_accepts_rates_object(self):
        params = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=0.8)
        rates = MarkovRates(gamma=0.3, lamb_shift=0.1)
        assert markov_energy(params, self.SCHEDULE, rates, 1.3) == markov_energy(
            params, self.SCHEDULE, 0.3, 1.3
        )

    def test_scalar_and_validation(self):
        params = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=0.8)
        out = markov_energy(params, self.SCHEDULE, 0.1, 1.3)
        assert isinstance(out, float)
        with pytest.raises(ValueError):
            markov_energy(params, self.SCHEDULE, -0.1, 1.0)
        with pytest.raises(ValueError):
            markov_energy(params, self.SCHEDULE, np.nan, 1.0)
        with pytest.raises(ValueError):
            markov_energy(params, self.SCHEDULE, 0.1, -1.0)

    def test_detuned_pair_rejected(self):
        # sin^2(kappa F) is the resonant population; it does not hold at delta != 0
        params = SystemParams.from_center(omega_0=2.0, delta=0.5, kappa=0.8)
        with pytest.raises(ValueError):
            markov_energy(params, self.SCHEDULE, 0.1, 1.0)

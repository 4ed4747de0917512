import math

import numpy as np
import pytest
import scipy.linalg as sla

from qbsim import (
    ProtocolSchedule,
    SystemParams,
    ideal_energy,
    ideal_evolve,
    ideal_peak_energy,
    ideal_propagator,
    optimal_schedule,
)

from oracles import drive_pieces


def _expm_oracle(params, schedule, t1, t0=0.0):
    """Brute-force piecewise matrix exponential of the 2x2 Hamiltonian."""
    u = np.eye(2, dtype=complex)
    t = t0
    for dur, f in drive_pieces(schedule, t0, t1):
        h = np.array([[params.omega_b, params.kappa * f],
                      [params.kappa * f, params.omega_c]])
        u = sla.expm(-1j * h * dur) @ u
        t += dur
    return u


@pytest.mark.parametrize("t", [0.37, 1.3, 5.87, 12.0])
def test_propagator_matches_matrix_exponential(t):
    params = SystemParams(omega_b=0.8, omega_c=1.2, kappa=0.37)
    schedule = ProtocolSchedule(tau_c=1.3, tau_s=0.7, tau_d=2.1)
    u = ideal_propagator(params, schedule, t)
    assert np.abs(u - _expm_oracle(params, schedule, t)).max() < 1e-12


def test_propagator_is_unitary_and_composes():
    params = SystemParams(omega_b=1.0, omega_c=1.6, kappa=0.9)
    schedule = ProtocolSchedule(tau_c=0.4, tau_s=1.1, tau_d=0.6)
    u = ideal_propagator(params, schedule, 7.3)
    assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-12
    u_ab = ideal_propagator(params, schedule, 7.3, t0=2.5)
    u_a = ideal_propagator(params, schedule, 2.5)
    assert np.abs(u_ab @ u_a - u).max() < 1e-12


def test_resonant_half_swap_fills_battery():
    params = SystemParams.from_center(omega_0=1.0, delta=0.0, kappa=15.0)
    schedule = optimal_schedule(15.0, 0.0, tau_s=2 * math.pi / 10)
    state = ideal_evolve(params, schedule, schedule.tau_c)
    assert abs(state[0]) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(state) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_cycle_closure_on_optimal_schedule():
    # every full cycle returns the pair to the charger-excited start
    params = SystemParams.from_center(omega_0=1.0, delta=0.3, kappa=1.0)
    schedule = optimal_schedule(1.0, 0.3)
    for n in (1, 2, 5):
        state = ideal_evolve(params, schedule, n * schedule.period)
        assert abs(state[0]) ** 2 == pytest.approx(0.0, abs=1e-12)


def test_detuned_peak_value_and_formula():
    params = SystemParams.from_center(omega_0=1.0, delta=0.3, kappa=1.0)
    schedule = optimal_schedule(1.0, 0.3)
    peak = ideal_energy(params, schedule, schedule.tau_c)
    expected = params.omega_b * 1.0 / (1.0 + 0.09)
    assert peak == pytest.approx(expected, abs=1e-12)
    assert ideal_peak_energy(params) == pytest.approx(expected, rel=1e-15)


def test_peak_energy_hand_value():
    # kappa = 15, delta = 10 in units of omega_b: peak population 225/325
    params = SystemParams(omega_b=1.0, omega_c=21.0, kappa=15.0)
    assert ideal_peak_energy(params) == pytest.approx(225.0 / 325.0, rel=1e-15)


def test_energy_array_matches_scalar_and_unsorted_times():
    params = SystemParams(omega_b=0.9, omega_c=1.1, kappa=0.8)
    schedule = ProtocolSchedule(tau_c=0.8, tau_s=0.5, tau_d=0.7)
    ts = np.array([3.1, 0.2, 1.7, 1.7, 0.0, 4.9])
    arr = ideal_energy(params, schedule, ts)
    scal = np.array([ideal_energy(params, schedule, float(t)) for t in ts])
    assert np.abs(arr - scal).max() < 1e-12


@pytest.mark.parametrize("taus", [(0.7, 1.1, 0.5), (0.31, 0.05, 1.27),
                                  (0.96, 0.64, 0.59)])
@pytest.mark.parametrize("kappa", [0.8, 3.0])
def test_resonant_energy_is_sin2_of_drive_integral(taus, kappa):
    # at delta = 0 the free segments only add the common phase, so
    # E(t) = omega_b sin^2(kappa F(t)) exactly; checked over 200 periods
    params = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=kappa)
    schedule = ProtocolSchedule(*taus)
    ts = np.linspace(0.0, 200 * schedule.period, 2001)
    exact = params.omega_b * np.sin(kappa * schedule.drive_integral(ts)) ** 2
    assert np.abs(ideal_energy(params, schedule, ts) - exact).max() < 1e-12


def test_common_phase_retained():
    # free evolution keeps the charger amplitude on exp(-i omega_c t)
    params = SystemParams(omega_b=1.0, omega_c=1.5, kappa=0.4)
    schedule = ProtocolSchedule(tau_c=1.0, tau_s=2.0, tau_d=1.0)
    state = ideal_evolve(params, schedule, 1.8, t0=1.2)
    assert state[1] == pytest.approx(np.exp(-1.5j * 0.6), abs=1e-12)

"""Propagation-route tests: exact spectral, memory-kernel Volterra, +/- split."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from qbsim import (
    LatticeEnvironment,
    ProtocolSchedule,
    SystemParams,
    default_time_step,
    propagate_exact,
    solve_volterra,
    solve_volterra_pm,
)
from qbsim import dynamics
from qbsim.dynamics import (
    SegmentPropagators,
    build_hamiltonian,
    build_sector_hamiltonian,
)
from qbsim.errors import ConvergenceError, MemoryCapError
from qbsim.floquet import compute_spectrum, floquet_mode
from qbsim.ideal import ideal_evolve

from oracles import bright_isometry

# shared small-lattice instance for cross-route checks
ENV10 = LatticeEnvironment(n_side=10, varpi=1.0, q=0.5, g=0.5)
PARAMS = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=3.0)
TAU = 0.5 * np.pi / 3.0
SCHEDULE = ProtocolSchedule(tau_c=TAU, tau_s=TAU, tau_d=TAU)


def _closed_pair_error(solve, delta):
    """Largest amplitude error of a memory route against the closed pair.

    g = 0 closes the pair, so the route must reproduce the closed-form
    amplitudes of the charger-excited start, phases included.
    """
    env = LatticeEnvironment(n_side=3, varpi=1.0, q=0.5, g=0.0)
    params = SystemParams.from_center(omega_0=2.0, delta=delta, kappa=0.8)
    schedule = ProtocolSchedule(tau_c=0.5, tau_s=0.75, tau_d=0.5)
    h0 = default_time_step(params, env, schedule)
    trace = solve(params, env, schedule, t_max=1.5 * schedule.period, dt=h0 / 8)
    err = 0.0
    for i in np.linspace(0, len(trace.times) - 1, 25, dtype=int):
        c_b, c_c = ideal_evolve(params, schedule, trace.times[i])
        err = max(err, abs(trace.u_b[i] - c_b), abs(trace.u_c[i] - c_c))
    return err


class TestHamiltonian:
    def test_two_site_layout(self):
        env = LatticeEnvironment(n_side=2, varpi=0.9, q=0.35, g=0.6)
        params = SystemParams(omega_b=1.2, omega_c=2.1, kappa=0.7)
        w = env.mode_frequencies()
        gk = env.coupling_per_mode
        expected = np.zeros((10, 10))
        expected[0, 0] = 1.2
        expected[1, 1] = 2.1
        expected[0, 1] = expected[1, 0] = 0.7
        for j in range(4):
            expected[2 + j, 2 + j] = w[j]
            expected[6 + j, 6 + j] = w[j]
            expected[0, 2 + j] = expected[2 + j, 0] = gk
            expected[1, 6 + j] = expected[6 + j, 1] = gk
        np.testing.assert_allclose(build_hamiltonian(params, env, 1.0), expected, atol=0)

    def test_drive_off_decouples_pair(self):
        env = LatticeEnvironment(n_side=2, varpi=0.9, q=0.35, g=0.6)
        params = SystemParams(omega_b=1.2, omega_c=2.1, kappa=0.7)
        h = build_hamiltonian(params, env, 0.0)
        assert h[0, 1] == 0.0
        np.testing.assert_array_equal(h, h.T)

    def test_sector_blocks_reproduce_full_spectrum(self):
        env = LatticeEnvironment(n_side=3, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=0.8)
        for f in (1.0, 0.0):
            full = np.linalg.eigvalsh(build_hamiltonian(params, env, f))
            plus = np.linalg.eigvalsh(build_sector_hamiltonian(params, env, f, +1))
            minus = np.linalg.eigvalsh(build_sector_hamiltonian(params, env, f, -1))
            np.testing.assert_allclose(
                np.sort(np.concatenate([plus, minus])), full, atol=1e-10
            )

    def test_sector_system_level(self):
        env = LatticeEnvironment(n_side=3, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=0.8)
        assert build_sector_hamiltonian(params, env, 1.0, +1)[0, 0] == 2.8
        assert build_sector_hamiltonian(params, env, 1.0, -1)[0, 0] == 1.2

    def test_sector_validation(self):
        env = LatticeEnvironment(n_side=3, varpi=1.0, q=0.5, g=0.5)
        detuned = SystemParams.from_center(omega_0=2.0, delta=0.3, kappa=0.8)
        with pytest.raises(ValueError):
            build_sector_hamiltonian(detuned, env, 1.0, +1)
        resonant = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=0.8)
        with pytest.raises(ValueError):
            build_sector_hamiltonian(resonant, env, 1.0, 0)


class TestSegmentPropagators:
    ENV = LatticeEnvironment(n_side=2, varpi=0.9, q=0.35, g=0.6)
    PARAMS = SystemParams(omega_b=1.2, omega_c=2.1, kappa=0.7)

    def test_materialize_matches_expm(self):
        # the shell unitary, materialized column by column through apply:
        # expm(-i H dt) P = P U_shell, so the full-basis unitary keeps the
        # bright subspace to itself (the 2 x 2 lattice has a two-mode shell)
        props = SegmentPropagators(self.PARAMS, self.ENV)
        p = bright_isometry(self.ENV)
        assert p.shape == (10, 8)
        for f, dt in ((1.0, 0.83), (0.0, 1.7)):
            expected = sla.expm(-1j * build_hamiltonian(self.PARAMS, self.ENV, f) * dt) @ p
            dense = np.stack([props.apply(e, f, dt)
                              for e in np.eye(p.shape[1])], axis=1)
            np.testing.assert_allclose(p @ dense, expected, atol=1e-12)

    def test_advance_matches_expm_product(self):
        # unequal segments on a T/23 grid, over two periods and part of a
        # third: the pair rows and the final shell vector against dense
        # full-basis exponentials of each step
        schedule = ProtocolSchedule(tau_c=0.7, tau_s=1.1, tau_d=0.5)
        props = SegmentPropagators(self.PARAMS, self.ENV)
        p = bright_isometry(self.ENV)
        rng = np.random.default_rng(7)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        h, n_steps, f_step = dynamics._build_grid(
            schedule, 2 * schedule.period + 0.9, 0.1)
        assert n_steps == 55 and len(set(f_step)) == 2
        pair, end = props.march(state, h, f_step)
        steps = {f: sla.expm(-1j * build_hamiltonian(self.PARAMS, self.ENV, f) * h)
                 for f in (1.0, 0.0)}
        expected = [p @ state]
        for f in f_step:
            expected.append(steps[f] @ expected[-1])
        expected = np.array(expected)
        assert pair.shape == (n_steps + 1, 2)
        np.testing.assert_allclose(pair, expected[:, :2], rtol=0, atol=1e-11)
        np.testing.assert_allclose(p @ end, expected[-1], rtol=0, atol=1e-11)

    def test_memory_cap(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MEMORY_CAP", 1000)
        with pytest.raises(MemoryCapError):
            SegmentPropagators(PARAMS, ENV10)


class TestExactPropagation:
    def test_decoupled_matches_two_level(self):
        # g = 0 leaves the pair closed: full-lattice route must reproduce
        # the closed-form amplitudes including all phases
        env = LatticeEnvironment(n_side=3, varpi=1.0, q=0.5, g=0.0)
        params = SystemParams(omega_b=1.3, omega_c=2.7, kappa=0.9)
        schedule = ProtocolSchedule(tau_c=0.7, tau_s=1.1, tau_d=0.5)
        trace = propagate_exact(params, env, schedule, t_max=3 * schedule.period,
                                sample_dt=0.05)
        for i in np.linspace(0, len(trace.times) - 1, 40, dtype=int):
            c_b, c_c = ideal_evolve(params, schedule, trace.times[i])
            assert abs(trace.u_b[i] - c_b) < 1e-10
            assert abs(trace.u_c[i] - c_c) < 1e-10

    def test_norm_conserved(self):
        trace = propagate_exact(PARAMS, ENV10, SCHEDULE, t_max=2 * SCHEDULE.period,
                                sample_dt=0.05)
        assert trace.metadata["final_norm"] == pytest.approx(1.0, abs=1e-12)

    def test_grid_contains_switch_times(self):
        schedule = ProtocolSchedule(tau_c=0.7, tau_s=1.1, tau_d=0.5)
        env = LatticeEnvironment(n_side=3, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=0.8)
        trace = propagate_exact(params, env, schedule, t_max=2 * schedule.period,
                                sample_dt=0.05)
        for edge in (0.7, 1.8, 2.3, 3.0, 4.6):
            assert np.min(np.abs(trace.times - edge)) < 1e-9

    def test_energy_column_identity(self):
        trace = propagate_exact(PARAMS, ENV10, SCHEDULE, t_max=1.0, sample_dt=0.05)
        np.testing.assert_allclose(trace.energies,
                                   PARAMS.omega_b * np.abs(trace.u_b) ** 2, atol=0)


class TestEigenbasisStepping:
    """``propagate_exact`` against the direct ``apply`` loop it replaced."""

    @pytest.mark.parametrize("n_side, delta, taus", [
        (12, 0.0, None),
        (12, 0.5, None),
        (8, 0.5, (0.3, 0.45, 0.15)),
        (8, 0.0, (0.3, 0.0, 0.45)),  # tau_s = 0: the drive never switches
    ], ids=["equal-resonant", "equal-detuned", "unequal", "no-switch"])
    def test_trace_matches_apply_loop(self, n_side, delta, taus):
        env = LatticeEnvironment(n_side=n_side, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(omega_0=2.0, delta=delta, kappa=4.8)
        if taus is None:
            tau = 0.5 * np.pi / 4.8
            schedule = ProtocolSchedule(tau_c=tau, tau_s=tau, tau_d=tau)
            sample_dt = schedule.period / 24
        else:
            schedule = ProtocolSchedule(*taus)
            sample_dt = 0.05
        props = SegmentPropagators(params, env)
        trace = propagate_exact(params, env, schedule,
                                t_max=20 * schedule.period,
                                sample_dt=sample_dt, props=props)
        h = trace.metadata["dt"]
        state = np.zeros(2 + 2 * env.shells().frequencies.size, dtype=complex)
        state[1] = 1.0
        u_b, u_c = [state[0]], [state[1]]
        for t in trace.times[1:]:
            state = props.apply(state, schedule.evaluate(t - 0.5 * h), h)
            u_b.append(state[0])
            u_c.append(state[1])
        np.testing.assert_allclose(trace.u_b, u_b, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.u_c, u_c, rtol=0, atol=1e-12)
        assert trace.metadata["final_norm"] == pytest.approx(
            np.linalg.norm(state), abs=1e-12)


def _shell_case(n_side, delta, taus):
    """Lattice, params, schedule and sample step of a shell-propagator check:
    half-swap segments sampled at T/24, or the given segments at 0.05."""
    env = LatticeEnvironment(n_side=n_side, varpi=1.0, q=0.5, g=0.5)
    params = SystemParams.from_center(omega_0=2.0, delta=delta, kappa=4.8)
    if taus is None:
        tau = 0.5 * np.pi / 4.8
        schedule = ProtocolSchedule(tau_c=tau, tau_s=tau, tau_d=tau)
        return env, params, schedule, schedule.period / 24
    return env, params, ProtocolSchedule(*taus), 0.05


def _expm_pieces(params, env, pieces, state, cache=None):
    """state stepped through (duration, f) pieces by dense full-basis expm,
    the exponentials kept in ``cache`` by (f, duration)."""
    cache = {} if cache is None else cache
    for dur, f in pieces:
        key = (f, round(dur, 12))
        if key not in cache:
            cache[key] = sla.expm(-1j * build_hamiltonian(params, env, f) * dur)
        state = cache[key] @ state
    return state


class TestShellPropagators:
    """The bright-shell propagators against dense full-basis expm steps."""

    @pytest.mark.parametrize("n_side", [6, 12])
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    @pytest.mark.parametrize("taus", [None, (0.3, 0.45, 0.15)],
                             ids=["equal", "unequal"])
    def test_trace_matches_expm(self, n_side, delta, taus):
        env, params, schedule, sample_dt = _shell_case(n_side, delta, taus)
        trace = propagate_exact(params, env, schedule,
                                t_max=4 * schedule.period, sample_dt=sample_dt)
        h = trace.metadata["dt"]
        state = np.zeros(2 + 2 * env.n_modes, dtype=complex)
        state[1] = 1.0
        pair, cache = [state[:2]], {}
        for t in trace.times[1:]:
            f = schedule.evaluate(t - 0.5 * h)
            state = _expm_pieces(params, env, [(h, f)], state, cache)
            pair.append(state[:2])
        u_b, u_c = np.array(pair).T
        np.testing.assert_allclose(trace.u_b, u_b, rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.u_c, u_c, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    @pytest.mark.parametrize("taus", [None, (0.3, 0.45, 0.15)],
                             ids=["equal", "unequal"])
    def test_final_norm_matches_expm(self, delta, taus):
        # final_norm is the norm of the shell coefficients; the oracle steps
        # the full-basis start by dense exponentials over the same horizon
        env, params, schedule, sample_dt = _shell_case(6, delta, taus)
        trace = propagate_exact(params, env, schedule,
                                t_max=4 * schedule.period, sample_dt=sample_dt)
        state = np.zeros(2 + 2 * env.n_modes, dtype=complex)
        state[1] = 1.0
        state = _expm_pieces(params, env,
                             schedule.pieces(0.0, trace.times[-1]), state)
        assert trace.metadata["final_norm"] == pytest.approx(
            np.linalg.norm(state), abs=1e-12)

    def test_allocates_no_dense_matrix(self):
        # one real d x d array at d = 3202 alone takes 8 d^2 = 82 MB
        env, params, schedule, sample_dt = _shell_case(40, 0.5, None)
        spec = compute_spectrum(params, env, schedule)
        j = int(np.argmax(spec.system_weights))
        tracemalloc.start()
        try:
            trace = propagate_exact(params, env, schedule,
                                    t_max=2 * schedule.period,
                                    sample_dt=sample_dt)
            mode = floquet_mode(params, env, schedule,
                                spec.vectors[:, spec.columns[j]],
                                spec.quasienergies[j], n_samples=24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.metadata["final_norm"] == pytest.approx(1.0, abs=1e-12)
        assert mode.closure_error < 1e-10
        assert peak < (2 + 2 * env.n_modes) ** 2


class TestVolterraRoute:
    @pytest.mark.parametrize("delta", [0.0, 0.3])
    def test_decoupled_matches_two_level(self, delta):
        # the only memory route off resonance; at dt = h0/8 the error
        # measures 5.2e-6 resonant and 6.7e-6 at delta = 0.3
        assert _closed_pair_error(solve_volterra, delta) < 1e-5

    def test_matches_exact_route(self):
        # the memory-kernel route and the full-lattice route solve the same
        # model through entirely different discretizations
        h0 = default_time_step(PARAMS, ENV10, SCHEDULE)
        t_max = 2 * SCHEDULE.period
        volt = solve_volterra(PARAMS, ENV10, SCHEDULE, t_max, dt=h0 / 8)
        exact = propagate_exact(PARAMS, ENV10, SCHEDULE, t_max,
                                sample_dt=volt.metadata["dt"])
        np.testing.assert_allclose(volt.times, exact.times, atol=1e-12)
        err = np.max(np.abs(volt.u_b - exact.u_b))
        assert err < 3e-4

    def test_second_order_convergence(self):
        h0 = default_time_step(PARAMS, ENV10, SCHEDULE)
        t_max = 2 * SCHEDULE.period
        errs = []
        for div in (2, 4, 8):
            volt = solve_volterra(PARAMS, ENV10, SCHEDULE, t_max, dt=h0 / div)
            exact = propagate_exact(PARAMS, ENV10, SCHEDULE, t_max,
                                    sample_dt=volt.metadata["dt"])
            errs.append(np.max(np.abs(volt.u_b - exact.u_b)))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert 1.6 < order1 < 2.4
        assert 1.6 < order2 < 2.4

    def test_detuned_second_order_convergence(self):
        # off resonance the memory route and the lattice route still solve
        # one model: max |u_b| gaps measure 4.5e-4, 1.1e-4 and 2.8e-5
        params = SystemParams.from_center(omega_0=2.0, delta=0.5, kappa=3.0)
        h0 = default_time_step(params, ENV10, SCHEDULE)
        t_max = 2 * SCHEDULE.period
        errs = []
        for div in (2, 4, 8):
            volt = solve_volterra(params, ENV10, SCHEDULE, t_max, dt=h0 / div)
            exact = propagate_exact(params, ENV10, SCHEDULE, t_max,
                                    sample_dt=volt.metadata["dt"])
            errs.append(np.max(np.abs(volt.u_b - exact.u_b)))
        assert errs[2] < 5e-5
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.7 < np.log2(coarse / fine) < 2.3

    def test_system_norm_bounded(self):
        volt = solve_volterra(PARAMS, ENV10, SCHEDULE, 2 * SCHEDULE.period)
        pop = np.abs(volt.u_b) ** 2 + np.abs(volt.u_c) ** 2
        assert pop.max() <= 1.0 + 1e-9
        # coupling to the lattice actually drains the pair
        assert pop[-1] < 0.9

    def test_step_halving_estimate(self):
        env = LatticeEnvironment(n_side=3, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=0.8)
        schedule = ProtocolSchedule(tau_c=0.5, tau_s=0.5, tau_d=0.5)
        trace = solve_volterra(params, env, schedule, t_max=1.5, dt=0.01, tol=1e-2)
        assert trace.metadata["richardson_estimate"] < 1e-2
        with pytest.raises(ConvergenceError):
            solve_volterra(params, env, schedule, t_max=1.5, dt=0.01, tol=1e-14)

    def test_grid_validation(self):
        schedule = ProtocolSchedule(tau_c=0.7, tau_s=1.1, tau_d=0.5)
        env = LatticeEnvironment(n_side=3, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=0.8)
        with pytest.raises(ValueError):
            solve_volterra(params, env, schedule, t_max=2.0, dt=0.3)
        with pytest.raises(ValueError):
            solve_volterra(params, env, schedule, t_max=-1.0, dt=0.01)
        with pytest.raises(ValueError):
            solve_volterra(params, env, schedule, t_max=1.0, dt=-0.01)
        with pytest.raises(ValueError):
            solve_volterra(params, env, schedule, t_max=1.0, dt=0.01, kernel="bogus")


class TestPlusMinusRoute:
    def test_requires_resonance(self):
        detuned = SystemParams.from_center(omega_0=2.0, delta=0.3, kappa=3.0)
        with pytest.raises(ValueError):
            solve_volterra_pm(detuned, ENV10, SCHEDULE, t_max=1.0)

    def test_decoupled_matches_two_level(self):
        # measures 1.5e-7 at dt = h0/8
        assert _closed_pair_error(solve_volterra_pm, 0.0) < 1e-6

    def test_matches_standard_volterra(self):
        h0 = default_time_step(PARAMS, ENV10, SCHEDULE)
        t_max = SCHEDULE.period
        pm = solve_volterra_pm(PARAMS, ENV10, SCHEDULE, t_max, dt=h0 / 64)
        std = solve_volterra(PARAMS, ENV10, SCHEDULE, t_max, dt=h0 / 64)
        assert np.max(np.abs(pm.u_b - std.u_b)) < 1e-6
        assert np.max(np.abs(pm.u_c - std.u_c)) < 1e-6

    def test_carries_split_components(self):
        trace = solve_volterra_pm(PARAMS, ENV10, SCHEDULE, t_max=1.0)
        v_p = trace.metadata["v_plus"]
        v_m = trace.metadata["v_minus"]
        rot = np.exp(-1j * PARAMS.omega_0 * trace.times)
        np.testing.assert_allclose(0.5 * (v_p - v_m) * rot, trace.u_b, atol=1e-13)


class TestDefaultTimeStep:
    def test_resolves_fastest_scale(self):
        h = default_time_step(PARAMS, ENV10, SCHEDULE)
        fastest = 2 * np.pi / (1.0 + 2.0 + 2.0 + 6.0)
        assert h == pytest.approx(min(TAU, fastest) / 40.0, rel=1e-15)

    def test_short_segment_dominates(self):
        schedule = ProtocolSchedule(tau_c=0.01, tau_s=2.0, tau_d=1.0)
        assert default_time_step(PARAMS, ENV10, schedule) == pytest.approx(
            0.01 / 40.0, rel=1e-15
        )

"""Stroboscopic-analysis tests: folding, spectra, bound states, asymptotics."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from qbsim import LatticeEnvironment, ProtocolSchedule, SystemParams, dynamics
from qbsim.dynamics import SegmentPropagators, build_hamiltonian
from qbsim.errors import MemoryCapError, NotAnEigenpairError
from qbsim.floquet import (
    BandSupport,
    QuasienergySpectrum,
    asymptotic_energy,
    circular_distance,
    compute_spectrum,
    decompose_energy_terms,
    fbs_floquet_modes,
    floquet_mode,
    fold_quasienergy,
    identify_fbs,
    one_period_operator,
    quasienergy_spectrum,
    resonant_spectrum,
)

from oracles import bright_isometry

# cheap two-bound-state instance shared across the asymptotic tests
ENV4 = LatticeEnvironment(n_side=4, varpi=1.0, q=0.5, g=0.5)
KAPPA = 8.0
PARAMS = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=KAPPA)
TAU = 0.5 * np.pi / KAPPA
SCHEDULE = ProtocolSchedule(tau_c=TAU, tau_s=TAU, tau_d=TAU)


def _shell_vector(spec, j):
    """The stored eigenvector of mode j, on the bright shells."""
    return spec.vectors[:, spec.columns[j]]


def _coupled_modes(spec):
    """Indices of the modes with stored vectors, and those vectors stacked
    as full-basis columns."""
    idx = np.flatnonzero(spec.columns >= 0)
    return idx, np.stack([spec.mode(j) for j in idx], axis=1)


@pytest.fixture(scope="module")
def spectrum4():
    return compute_spectrum(PARAMS, ENV4, SCHEDULE)


@pytest.fixture(scope="module")
def modes4(spectrum4):
    return fbs_floquet_modes(PARAMS, ENV4, SCHEDULE, spectrum4, n_samples=24)


class TestFolding:
    def test_fold_range_and_periodicity(self):
        w = 2.0
        eps = np.linspace(-7.3, 7.3, 401)
        folded = fold_quasienergy(eps, w)
        assert np.all(folded > -w / 2)
        assert np.all(folded <= w / 2)
        np.testing.assert_allclose(fold_quasienergy(eps + 3 * w, w), folded, atol=1e-12)

    def test_fold_boundary(self):
        # the zone is half-open: both edges map to +omega_T/2
        assert fold_quasienergy(1.0, 2.0) == 1.0
        assert fold_quasienergy(-1.0, 2.0) == 1.0
        assert fold_quasienergy(0.3, 2.0) == pytest.approx(0.3, abs=1e-15)

    def test_circular_distance(self):
        w = 2.0
        assert circular_distance(0.3, 0.3, w) == 0.0
        # shortest arc wraps across the zone edge
        assert circular_distance(-0.9, 0.9, w) == pytest.approx(0.2, abs=1e-12)
        assert circular_distance(0.0, 0.5, w) == pytest.approx(0.5, abs=1e-12)
        e = np.linspace(-1.0, 1.0, 17)
        np.testing.assert_allclose(circular_distance(e, e + w, w), 0.0, atol=1e-12)
        assert np.max(circular_distance(e, e + 0.77, w)) <= w / 2 + 1e-12


class TestBandSupport:
    def test_distance_inside_and_out(self):
        band = BandSupport(lo=-0.2, hi=0.3, omega_T=2.0)
        assert band.width == pytest.approx(0.5)
        assert not band.covers_zone
        assert band.distance(0.1) == 0.0
        assert band.distance(-0.2) == 0.0
        assert band.distance(0.35) == pytest.approx(0.05, abs=1e-12)
        # wrap-around side: from -0.5 the nearest band point is lo at -0.2
        assert band.distance(-0.5) == pytest.approx(0.3, abs=1e-12)

    def test_covering_band(self):
        band = BandSupport(lo=-1.0, hi=3.0, omega_T=2.0)
        assert band.covers_zone
        np.testing.assert_array_equal(band.distance(np.array([-0.9, 0.0, 0.9])), 0.0)


class TestOnePeriodOperator:
    ENV = LatticeEnvironment(n_side=2, varpi=0.9, q=0.35, g=0.6)
    PAR = SystemParams(omega_b=1.2, omega_c=2.1, kappa=0.7)
    SCH = ProtocolSchedule(tau_c=0.7, tau_s=1.1, tau_d=0.5)

    def test_matches_expm_product(self):
        h1 = build_hamiltonian(self.PAR, self.ENV, 1.0)
        h0 = build_hamiltonian(self.PAR, self.ENV, 0.0)
        expected = (
            sla.expm(-1j * h1 * 0.5) @ sla.expm(-1j * h0 * 1.1) @ sla.expm(-1j * h1 * 0.7)
        )
        np.testing.assert_allclose(
            one_period_operator(self.PAR, self.ENV, self.SCH), expected, atol=1e-12
        )

    def test_unitary(self):
        u = one_period_operator(PARAMS, ENV4, SCHEDULE)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(34), atol=1e-12)


class TestSpectrum:
    def test_decoupled_quasienergies(self):
        # g = 0: system levels omega_0 -+ kappa (tau_c + tau_d)/T, bath at omega_k
        env = LatticeEnvironment(n_side=2, varpi=1.0, q=0.5, g=0.0)
        params = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=0.9)
        sch = ProtocolSchedule(tau_c=0.7, tau_s=0.7, tau_d=0.7)
        spec = compute_spectrum(params, env, sch)
        shift = params.kappa * (sch.tau_c + sch.tau_d) / sch.period
        expected = np.concatenate(
            [
                [2.0 - shift, 2.0 + shift],
                np.repeat(env.mode_frequencies(), 2),
            ]
        )
        expected = np.sort(fold_quasienergy(expected, sch.omega_T))
        np.testing.assert_allclose(spec.quasienergies, expected, atol=1e-10)
        # the two dressed-pair modes carry full system weight
        sys_w = np.sort(spec.system_weights)[-2:]
        np.testing.assert_allclose(sys_w, 1.0, atol=1e-10)

    def test_sector_route_matches_generic(self, spectrum4):
        generic = quasienergy_spectrum(
            one_period_operator(PARAMS, ENV4, SCHEDULE), SCHEDULE, ENV4
        )
        np.testing.assert_allclose(
            spectrum4.quasienergies, generic.quasienergies, atol=1e-10
        )
        # bound states are isolated, so their weights must agree across routes
        idx_g = identify_fbs(generic)
        np.testing.assert_allclose(
            spectrum4.system_weights[spectrum4.fbs_indices],
            generic.system_weights[idx_g],
            atol=1e-9,
        )

    def test_modes_orthonormal(self, spectrum4):
        _, v = _coupled_modes(spectrum4)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(v.shape[1]), atol=1e-12)

    def test_modes_are_eigenvectors(self, spectrum4):
        u = one_period_operator(PARAMS, ENV4, SCHEDULE)
        idx, v = _coupled_modes(spectrum4)
        lam = np.exp(-1j * spectrum4.quasienergies[idx] * SCHEDULE.period)
        resid = u @ v - lam[None, :] * v
        assert np.abs(resid).max() < 1e-10

    def test_dark_modes_have_no_vector(self, spectrum4):
        shells = ENV4.shells()
        idx, _ = _coupled_modes(spectrum4)
        assert idx.size == 2 + 2 * shells.frequencies.size
        dark = np.flatnonzero(spectrum4.columns < 0)
        assert dark.size == 2 * np.sum(shells.multiplicities - 1) > 0
        np.testing.assert_array_equal(spectrum4.system_weights[dark], 0.0)
        with pytest.raises(ValueError, match="dark"):
            spectrum4.mode(dark[0])

    def test_system_weight_completeness(self, spectrum4):
        assert spectrum4.system_weights.sum() == pytest.approx(2.0, abs=1e-12)

    def test_detuning_guard(self):
        detuned = SystemParams.from_center(omega_0=2.0, delta=0.3, kappa=1.0)
        with pytest.raises(ValueError):
            resonant_spectrum(detuned, ENV4, SCHEDULE)

    def test_two_bound_states(self, spectrum4):
        idx = spectrum4.fbs_indices
        assert len(idx) == 2
        assert np.all(spectrum4.system_weights[idx] > 0.9)
        # splitting between the dressed doublet
        eps = spectrum4.quasienergies[idx]
        assert circular_distance(eps[0], eps[1], SCHEDULE.omega_T) == pytest.approx(
            0.0893, abs=0.002
        )


class TestShellSpectrum:
    """The shell path against the full-basis U_T and its Schur vectors."""

    @pytest.mark.parametrize("n_side", [4, 7, 12])
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    @pytest.mark.parametrize("kappa, taus", [
        (15.0, None), (6.0, (0.3, 0.45, 0.15))], ids=["equal", "unequal"])
    def test_matches_full_basis(self, n_side, delta, kappa, taus):
        env = LatticeEnvironment(n_side=n_side, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(omega_0=2.0, delta=delta, kappa=kappa)
        tau = 0.5 * np.pi / params.rabi
        sch = ProtocolSchedule(*(taus or (tau, tau, tau)))
        spec = compute_spectrum(params, env, sch)
        u = one_period_operator(params, env, sch)
        ref = quasienergy_spectrum(u, sch, env)
        ref_idx = identify_fbs(ref)
        assert spec.dimension == ref.dimension == 2 + 2 * n_side**2
        np.testing.assert_allclose(spec.quasienergies, ref.quasienergies,
                                   rtol=0, atol=1e-10)
        assert len(ref_idx) >= 1
        np.testing.assert_array_equal(spec.fbs_indices, ref_idx)
        np.testing.assert_allclose(spec.system_weights[spec.fbs_indices],
                                   ref.system_weights[ref_idx], rtol=0, atol=1e-9)
        idx, v = _coupled_modes(spec)
        assert np.abs(v.conj().T @ v - np.eye(idx.size)).max() < 1e-10
        lam = np.exp(-1j * spec.quasienergies[idx] * sch.period)
        assert np.abs(u @ v - lam * v).max() < 1e-10
        if delta == 0.0:
            # every bound state lies in one sector: charger side = s * battery side
            nm = env.n_modes
            for j in spec.fbs_indices:
                phi = spec.mode(j)
                phi_b = np.concatenate([phi[:1], phi[2:2 + nm]])
                phi_c = np.concatenate([phi[1:2], phi[2 + nm:]])
                s = np.sign(np.real(phi_c[0] / phi_b[0]))
                assert np.abs(phi_c - s * phi_b).max() < 1e-12

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_allocates_no_dense_modes(self, delta):
        # a d x d complex array at d = 3202 alone takes 16 d^2 = 164 MB
        env = LatticeEnvironment(n_side=40, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(omega_0=2.0, delta=delta, kappa=15.0)
        tau = 0.5 * np.pi / params.rabi
        sch = ProtocolSchedule(tau_c=tau, tau_s=tau, tau_d=tau)
        tracemalloc.start()
        try:
            spec = compute_spectrum(params, env, sch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d = spec.dimension
        assert d == 3202
        assert len(spec.fbs_indices) == 2
        assert peak < 16 * d**2 / 4

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_memory_cap(self, monkeypatch, delta):
        env = LatticeEnvironment(n_side=6, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(omega_0=2.0, delta=delta, kappa=4.8)
        tau = 0.5 * np.pi / 4.8
        sch = ProtocolSchedule(tau_c=tau, tau_s=tau, tau_d=tau)
        monkeypatch.setattr(dynamics, "MEMORY_CAP", 1e4)
        with pytest.raises(MemoryCapError):
            compute_spectrum(params, env, sch)


class TestIdentifyFbs:
    def _make(self, eps, weights, lo=-0.2, hi=0.3, omega_T=2.0):
        eps = np.asarray(eps, dtype=float)
        d = eps.size
        return QuasienergySpectrum(
            quasienergies=eps,
            system_weights=np.asarray(weights, dtype=float),
            omega_T=omega_T,
            band=BandSupport(lo=lo, hi=hi, omega_T=omega_T),
            vectors=np.eye(d, dtype=complex),
            columns=np.arange(d),
        )

    def test_explicit_tolerance(self):
        spec = self._make([0.8, 0.25, 0.9], [0.5, 0.9, 0.01])
        idx = identify_fbs(spec, weight_threshold=0.05, gap_tolerance=0.05)
        np.testing.assert_array_equal(idx, [0])

    def test_default_tolerance_scales_with_spacing(self):
        # 12 modes -> 10 bath levels -> tol = 3 * 0.5 / 10 = 0.15
        eps = [0.25, 0.43, 0.7] + [0.0] * 9
        weights = [0.5, 0.5, 0.5] + [0.0] * 9
        spec = self._make(eps, weights)
        idx = identify_fbs(spec)  # gaps: inside band, 0.13, 0.40
        np.testing.assert_array_equal(idx, [2])

    def test_weight_threshold(self):
        spec = self._make([0.9, 0.9], [0.04, 0.06])
        idx = identify_fbs(spec, weight_threshold=0.05, gap_tolerance=0.1)
        np.testing.assert_array_equal(idx, [1])

    @pytest.mark.parametrize("keys", [
        dict(weight_threshold=0.0), dict(weight_threshold=1.5),
        dict(weight_threshold=float("nan")), dict(gap_tolerance=-1.0),
        dict(gap_tolerance=float("nan"))])
    def test_rejects_ranges_that_flag_uncoupled_modes(self, keys):
        # a zero threshold flags weight-0 modes, a negative tolerance in-band ones
        spec = self._make([0.8, 0.25, 0.9], [0.5, 0.0, 0.0])
        with pytest.raises(ValueError):
            identify_fbs(spec, **keys)
        assert identify_fbs(spec, weight_threshold=1.0, gap_tolerance=0.0).size == 0


class TestFloquetMode:
    def test_sampled_states_match_expm(self):
        env = LatticeEnvironment(n_side=2, varpi=0.9, q=0.35, g=0.6)
        par = SystemParams.from_center(omega_0=1.7, delta=0.0, kappa=0.7)
        sch = ProtocolSchedule(tau_c=0.5, tau_s=1.0, tau_d=0.5)
        spec = compute_spectrum(par, env, sch)
        j = int(np.argmax(spec.system_weights))
        mode = floquet_mode(env=env, params=par, schedule=sch,
                            phi0=_shell_vector(spec, j),
                            epsilon=spec.quasienergies[j], n_samples=4)
        h1 = build_hamiltonian(par, env, 1.0)
        h0 = build_hamiltonian(par, env, 0.0)
        u_half = sla.expm(-1j * h0 * 0.5) @ sla.expm(-1j * h1 * 0.5)  # to t = T/2 = 1.0
        phi0 = bright_isometry(env) @ mode.phi0
        expected = np.exp(1j * mode.epsilon * 1.0) * (u_half @ phi0)
        np.testing.assert_allclose(mode.pair[2], expected[:2], atol=1e-10)
        np.testing.assert_allclose(mode.pair[0], mode.phi0[:2], atol=0)
        assert mode.closure_error < 1e-6

    def test_rejects_non_eigenvector(self):
        n = 2 + 2 * ENV4.shells().frequencies.size
        rng = np.random.default_rng(3)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        with pytest.raises(NotAnEigenpairError):
            floquet_mode(PARAMS, ENV4, SCHEDULE, v, 0.1)

    def test_rejects_full_basis_vector(self, spectrum4):
        # phi(0) is a shell vector; the full-basis expansion of the same
        # eigenvector has the lattice size d = 34 instead of 2 + 2S
        j = spectrum4.fbs_indices[0]
        n = 2 + 2 * ENV4.shells().frequencies.size
        assert spectrum4.mode(j).size == 34 != n
        with pytest.raises(ValueError, match=rf"size 2 \+ 2S = {n}\b"):
            floquet_mode(PARAMS, ENV4, SCHEDULE, spectrum4.mode(j),
                         spectrum4.quasienergies[j])

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_samples_match_apply_path(self, delta):
        # twelve offsets of T = 0.9: T/12 divides the unequal segments
        env = LatticeEnvironment(n_side=6, varpi=1.0, q=0.5, g=0.5)
        par = SystemParams.from_center(omega_0=2.0, delta=delta, kappa=4.8)
        sch = ProtocolSchedule(tau_c=0.3, tau_s=0.45, tau_d=0.15)
        spec = compute_spectrum(par, env, sch)
        j = int(np.argmax(spec.system_weights))
        props = SegmentPropagators(par, env)
        mode = floquet_mode(par, env, sch, _shell_vector(spec, j),
                            spec.quasienergies[j], n_samples=12, props=props)
        raw, prev = mode.phi0, 0.0
        for k, s in enumerate(mode.offsets):
            for dur, f in sch.pieces(prev, s):
                raw = props.apply(raw, f, dur)
            prev = s
            np.testing.assert_allclose(
                mode.pair[k], np.exp(1j * mode.epsilon * s) * raw[:2],
                rtol=0, atol=1e-12)
        for dur, f in sch.pieces(prev, sch.period):
            raw = props.apply(raw, f, dur)
        lam = np.exp(-1j * mode.epsilon * sch.period)
        assert mode.closure_error == pytest.approx(
            np.linalg.norm(raw - lam * mode.phi0), abs=1e-12)
        assert mode.closure_error < 1e-10

    @pytest.mark.parametrize("n_side", [6, 12])
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    @pytest.mark.parametrize("taus", [None, (0.3, 0.45, 0.15)],
                             ids=["equal", "unequal"])
    def test_samples_match_expm_steps(self, n_side, delta, taus):
        # the shell-reduced sampling against dense full-basis exponentials,
        # at twelve offsets, which T/12 steps reach on either schedule
        env = LatticeEnvironment(n_side=n_side, varpi=1.0, q=0.5, g=0.5)
        par = SystemParams.from_center(omega_0=2.0, delta=delta, kappa=4.8)
        tau = 0.5 * np.pi / 4.8
        sch = ProtocolSchedule(*(taus or (tau, tau, tau)))
        spec = compute_spectrum(par, env, sch)
        j = int(np.argmax(spec.system_weights))
        mode = floquet_mode(par, env, sch, _shell_vector(spec, j),
                            spec.quasienergies[j], n_samples=12)
        cache, raw, prev = {}, bright_isometry(env) @ mode.phi0, 0.0
        for k, s in enumerate(mode.offsets):
            for dur, f in sch.pieces(prev, s):
                key = (f, round(dur, 12))
                if key not in cache:
                    cache[key] = sla.expm(
                        -1j * build_hamiltonian(par, env, f) * dur)
                raw = cache[key] @ raw
            prev = s
            np.testing.assert_allclose(
                mode.pair[k], np.exp(1j * mode.epsilon * s) * raw[:2],
                rtol=0, atol=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    @pytest.mark.parametrize("taus", [None, (0.3, 0.45, 0.15)],
                             ids=["equal", "unequal"])
    def test_closure_error_matches_full_basis(self, delta, taus):
        # the shell residual ||phi(T) - lambda phi(0)|| against the full-basis
        # U_T on the expanded mode, for the eigenvalue and for one moved by
        # 1e-8 / T, whose residual of about 1e-8 the two must agree on
        env = LatticeEnvironment(n_side=6, varpi=1.0, q=0.5, g=0.5)
        par = SystemParams.from_center(omega_0=2.0, delta=delta, kappa=4.8)
        tau = 0.5 * np.pi / 4.8
        sch = ProtocolSchedule(*(taus or (tau, tau, tau)))
        spec = compute_spectrum(par, env, sch)
        j = int(np.argmax(spec.system_weights))
        u = one_period_operator(par, env, sch)
        phi0 = bright_isometry(env) @ _shell_vector(spec, j)
        for shift in (0.0, 1e-8 / sch.period):
            eps = spec.quasienergies[j] + shift
            mode = floquet_mode(par, env, sch, _shell_vector(spec, j), eps,
                                n_samples=12)
            lam = np.exp(-1j * eps * sch.period)
            expected = np.linalg.norm(u @ phi0 - lam * phi0)
            assert mode.closure_error == pytest.approx(expected, abs=1e-12)
        assert 0.9e-8 < mode.closure_error < 1.1e-8

    @pytest.mark.parametrize("taus", [None, (0.3, 0.45, 0.15)],
                             ids=["equal", "unequal"])
    def test_rejects_unaligned_samples(self, taus):
        # T/7 fits neither schedule: the grid would snap to T/6 on both
        env = LatticeEnvironment(n_side=6, varpi=1.0, q=0.5, g=0.5)
        par = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=4.8)
        tau = 0.5 * np.pi / 4.8
        sch = ProtocolSchedule(*(taus or (tau, tau, tau)))
        spec = compute_spectrum(par, env, sch)
        j = int(np.argmax(spec.system_weights))
        with pytest.raises(ValueError, match="grid has 6 steps"):
            floquet_mode(par, env, sch, _shell_vector(spec, j),
                         spec.quasienergies[j], n_samples=7)

    def test_sampling_memory_does_not_grow_with_samples(self):
        # 960 full-basis samples at d = 3202 alone would take 49 MB
        env = LatticeEnvironment(n_side=40, varpi=1.0, q=0.5, g=0.5)
        par = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=4.8)
        tau = 0.5 * np.pi / 4.8
        sch = ProtocolSchedule(tau_c=tau, tau_s=tau, tau_d=tau)
        spec = compute_spectrum(par, env, sch)
        j = spec.fbs_indices[0]
        phi0 = _shell_vector(spec, j)
        n_samples, d = 960, spec.dimension
        tracemalloc.start()
        try:
            mode = floquet_mode(par, env, sch, phi0, spec.quasienergies[j],
                                n_samples=n_samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mode.pair.shape == (n_samples, 2)
        assert mode.closure_error < 1e-10
        assert peak < n_samples * d * 16 / 4

    def test_rejects_perturbed_eigenvector(self, spectrum4):
        j = spectrum4.fbs_indices[0]
        phi0 = _shell_vector(spectrum4, j).copy()
        phi0[2] += 1e-3
        phi0 /= np.linalg.norm(phi0)
        with pytest.raises(NotAnEigenpairError):
            floquet_mode(PARAMS, ENV4, SCHEDULE, phi0,
                         spectrum4.quasienergies[j])

    def test_offset_index(self, modes4):
        mode = modes4[0]
        T = SCHEDULE.period
        np.testing.assert_array_equal(
            mode.offset_index(np.array([0.0, T / 24, 5 * T + 18 * T / 24])),
            [0, 1, 18],
        )
        with pytest.raises(ValueError):
            mode.offset_index(0.37 * T / 24)


class TestAsymptoticEnergy:
    def test_bound_state_count_and_closure(self, spectrum4, modes4):
        assert len(modes4) == 2
        for mode, j in zip(modes4, spectrum4.fbs_indices):
            assert mode.epsilon == spectrum4.quasienergies[j]
            assert mode.closure_error < 1e-8

    def test_requires_classification(self):
        spec = quasienergy_spectrum(
            one_period_operator(PARAMS, ENV4, SCHEDULE), SCHEDULE, ENV4
        )
        with pytest.raises(ValueError):
            fbs_floquet_modes(PARAMS, ENV4, SCHEDULE, spec)

    def test_empty_modes_discharge(self):
        assert asymptotic_energy([], 3.7) == 0.0
        out = asymptotic_energy([], np.array([0.0, 1.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_zone_shift_invariance(self, spectrum4, modes4):
        # representing a quasienergy in the next zone must not change the
        # predicted energy at any aligned sample time
        j = spectrum4.fbs_indices[0]
        shifted = floquet_mode(
            PARAMS, ENV4, SCHEDULE, _shell_vector(spectrum4, j),
            spectrum4.quasienergies[j] + SCHEDULE.omega_T, n_samples=24,
        )
        ts = np.arange(0, 24 * 8) * (SCHEDULE.period / 24)
        np.testing.assert_allclose(
            asymptotic_energy([modes4[0]], ts),
            asymptotic_energy([shifted], ts),
            atol=1e-10,
        )

    def test_beat_period_set_by_splitting(self, spectrum4, modes4):
        # two bound states: the envelope oscillates at the quasienergy splitting
        eps = spectrum4.quasienergies[spectrum4.fbs_indices]
        t_beat = 2 * np.pi / abs(eps[1] - eps[0])
        n_per = round(t_beat / SCHEDULE.period)
        ts = np.arange(0, 24 * (n_per + 1)) * (SCHEDULE.period / 24)
        e = asymptotic_energy(modes4, ts)
        # energy returns near its initial value after one beat
        k = 24 * n_per
        assert abs(e[k] - e[0]) < 0.05 * e.max()
        assert e.max() > 0.5 * PARAMS.omega_0  # deep exchange at strong drive

    def test_matches_exact_propagation_late(self, modes4):
        # with ~99% bound-state weight the band residue is tiny, so the
        # asymptotic formula should track the true dynamics closely
        from qbsim import propagate_exact

        t_max = 30 * SCHEDULE.period
        trace = propagate_exact(PARAMS, ENV4, SCHEDULE, t_max,
                                sample_dt=SCHEDULE.period / 24)
        sel = trace.times >= 20 * SCHEDULE.period
        asym = asymptotic_energy(modes4, trace.times[sel])
        err = np.mean(np.abs(asym - trace.energies[sel])) / PARAMS.omega_0
        assert err < 0.02

    def test_detuned_matches_exact_propagation(self):
        # both routes price the battery population at omega_b; at delta = 0.5
        # an omega_0 price overstates the bound-state energy by 4/3
        from qbsim import propagate_exact

        kappa = 15.0
        env = LatticeEnvironment(n_side=12, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(omega_0=2.0, delta=0.5, kappa=kappa)
        tau = 0.5 * np.pi / kappa
        schedule = ProtocolSchedule(tau_c=tau, tau_s=tau, tau_d=tau)
        T = schedule.period
        trace = propagate_exact(params, env, schedule, 40 * T, sample_dt=T / 24)
        spec = compute_spectrum(params, env, schedule)
        modes = fbs_floquet_modes(params, env, schedule, spec)
        sel = trace.times >= 30 * T - 1e-9 * T
        asym = asymptotic_energy(modes, trace.times[sel])
        assert np.mean(np.abs(asym - trace.energies[sel])) < 1e-3


class TestDecomposition:
    def test_identity_and_elements(self, modes4):
        ts = np.arange(0, 24 * 5) * (SCHEDULE.period / 24)
        dec = decompose_energy_terms(modes4, ts)
        np.testing.assert_allclose(
            dec.diagonal.sum(axis=0) + dec.interference, dec.total, atol=1e-12
        )
        np.testing.assert_allclose(
            dec.total, asymptotic_energy(modes4, ts), atol=1e-12
        )
        # diagonal terms are |c_j|^2-weighted periodic elements
        for j in range(2):
            np.testing.assert_allclose(
                dec.diagonal[j],
                PARAMS.omega_0 * np.abs(dec.coefficients[j]) ** 2 * dec.elements[j],
                atol=1e-12,
            )
        assert np.sum(np.abs(dec.coefficients) ** 2) <= 1.0 + 1e-12

    def test_empty(self):
        dec = decompose_energy_terms([], np.array([0.0, 1.0]))
        assert dec.diagonal.shape == (0, 2)
        np.testing.assert_array_equal(dec.total, [0.0, 0.0])

"""Stroboscopic-analysis tests: folding, spectra, bound states, asymptotics."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

from qbsim import (LatticeEnvironment, ProtocolSchedule, SystemParams,
                   dynamics, floquet)
from qbsim.dynamics import SegmentPropagators, build_hamiltonian
from qbsim.errors import MemoryCapError, NotAnEigenpairError
from qbsim.floquet import (
    BandSupport,
    QuasienergySpectrum,
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

from oracles import bright_isometry, drive_pieces

# cheap two-bound-state instance shared across the asymptotic tests
ENV4 = LatticeEnvironment(n_side=4, varpi=1.0, q=0.5, g=0.5)
KAPPA = 8.0
PARAMS = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=KAPPA)
TAU = 0.5 * np.pi / KAPPA
SCHEDULE = ProtocolSchedule(tau_c=TAU, tau_s=TAU, tau_d=TAU)
PROPS4 = SegmentPropagators(PARAMS, ENV4)


def _shell_vector(spec, j):
    """The stored eigenvector of mode j, on the bright shells."""
    return spec.vectors[:, spec.columns[j]]


def _coupled_modes(spec, env):
    """Indices of the modes with stored vectors, and those vectors stacked
    as full-basis columns."""
    idx = np.flatnonzero(spec.columns >= 0)
    return idx, bright_isometry(env) @ spec.vectors[:, spec.columns[idx]]


def _all_modes(params, env, schedule):
    """The shell spectrum with the vector of every coupled mode stored."""
    return floquet._shell_spectrum(params, env, schedule, None, keep=0.0)


@pytest.fixture(scope="module")
def spectrum4():
    return compute_spectrum(PARAMS, ENV4, SCHEDULE, props=PROPS4)


@pytest.fixture(scope="module")
def all_modes4():
    return _all_modes(PARAMS, ENV4, SCHEDULE)


@pytest.fixture(scope="module")
def modes4(spectrum4):
    return fbs_floquet_modes(PROPS4, SCHEDULE, spectrum4, n_samples=24)


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
        assert band.distance(0.1) == 0.0
        assert band.distance(-0.2) == 0.0
        assert band.distance(0.35) == pytest.approx(0.05, abs=1e-12)
        # wrap-around side: from -0.5 the nearest band point is lo at -0.2
        assert band.distance(-0.5) == pytest.approx(0.3, abs=1e-12)

    def test_covering_band(self):
        band = BandSupport(lo=-1.0, hi=3.0, omega_T=2.0)
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

    def test_modes_orthonormal(self, all_modes4):
        _, v = _coupled_modes(all_modes4, ENV4)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(v.shape[1]), atol=1e-12)

    def test_modes_are_eigenvectors(self, all_modes4):
        u = one_period_operator(PARAMS, ENV4, SCHEDULE)
        idx, v = _coupled_modes(all_modes4, ENV4)
        lam = np.exp(-1j * all_modes4.quasienergies[idx] * SCHEDULE.period)
        resid = u @ v - lam[None, :] * v
        assert np.abs(resid).max() < 1e-10

    def test_dark_modes_have_no_vector(self, all_modes4):
        shells = ENV4.shells()
        idx, _ = _coupled_modes(all_modes4, ENV4)
        assert idx.size == 2 + 2 * shells.frequencies.size
        dark = np.flatnonzero(all_modes4.columns < 0)
        assert dark.size == 2 * np.sum(shells.multiplicities - 1) > 0
        np.testing.assert_array_equal(all_modes4.system_weights[dark], 0.0)
        # one stored shell vector per coupled mode, none for a dark one
        assert all_modes4.vectors.shape == (idx.size, idx.size)

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_stores_the_vectors_at_or_above_threshold(self, delta):
        # compute_spectrum keeps the columns of the keep = 0 spectrum whose
        # pair-row weight reaches the threshold, and those weights are the
        # battery and charger norms of the vectors
        env = LatticeEnvironment(n_side=12, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(omega_0=2.0, delta=delta,
                                          kappa=4.8)
        tau = 0.5 * np.pi / params.rabi
        sch = ProtocolSchedule(tau_c=tau, tau_s=tau, tau_d=tau)
        spec = compute_spectrum(params, env, sch, weight_threshold=0.01)
        full = _all_modes(params, env, sch)
        np.testing.assert_array_equal(spec.quasienergies, full.quasienergies)
        np.testing.assert_array_equal(spec.system_weights,
                                      full.system_weights)
        idx, v = _coupled_modes(full, env)
        np.testing.assert_allclose(
            full.system_weights[idx],
            np.abs(v[0]) ** 2 + np.abs(v[1]) ** 2, rtol=0, atol=1e-14)
        stored = np.flatnonzero(spec.columns >= 0)
        assert spec.vectors.shape[1] == stored.size == np.count_nonzero(
            spec.system_weights >= 0.01)
        assert 0 < stored.size < idx.size
        np.testing.assert_allclose(
            spec.vectors[:, spec.columns[stored]],
            full.vectors[:, full.columns[stored]], rtol=0, atol=1e-14)

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
        full = _all_modes(params, env, sch)
        assert spec.dimension == ref.dimension == 2 + 2 * n_side**2
        np.testing.assert_allclose(spec.quasienergies, ref.quasienergies,
                                   rtol=0, atol=1e-10)
        assert len(ref_idx) >= 1
        np.testing.assert_array_equal(spec.fbs_indices, ref_idx)
        np.testing.assert_allclose(spec.system_weights[spec.fbs_indices],
                                   ref.system_weights[ref_idx], rtol=0, atol=1e-9)
        idx, v = _coupled_modes(full, env)
        assert idx.size == 2 + 2 * env.shells().frequencies.size
        assert np.abs(v.conj().T @ v - np.eye(idx.size)).max() < 1e-10
        lam = np.exp(-1j * full.quasienergies[idx] * sch.period)
        assert np.abs(u @ v - lam * v).max() < 1e-10
        if delta == 0.0:
            # every bound state lies in one sector: charger side = s * battery side
            nm, iso = env.n_modes, bright_isometry(env)
            for j in spec.fbs_indices:
                phi = iso @ _shell_vector(spec, j)
                phi_b = np.concatenate([phi[:1], phi[2:2 + nm]])
                phi_c = np.concatenate([phi[1:2], phi[2 + nm:]])
                s = np.sign(np.real(phi_c[0] / phi_b[0]))
                assert np.abs(phi_c - s * phi_b).max() < 1e-12

    @pytest.mark.parametrize("kappa", [3.0, 3.75])
    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_zone_edge_matches_full_basis(self, kappa, delta):
        # at n_side 12 these drives put lattice frequencies on the zone
        # edge; the Schur form puts their eigenphases a few ulps to either
        # side of it, and the full-basis reference used to keep the ones
        # at -omega_T/2 there, up to 1.12 away in the sorted spectrum
        env = LatticeEnvironment(n_side=12, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(omega_0=2.0, delta=delta,
                                          kappa=kappa)
        tau = 0.5 * np.pi / kappa
        sch = ProtocolSchedule(tau_c=tau, tau_s=tau, tau_d=tau)
        ref = quasienergy_spectrum(one_period_operator(params, env, sch),
                                   sch, env)
        spec = compute_spectrum(params, env, sch)
        assert np.sum(np.isclose(ref.quasienergies, 0.5 * sch.omega_T,
                                 rtol=0, atol=1e-12)) >= 6
        np.testing.assert_allclose(ref.quasienergies, spec.quasienergies,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_allocates_no_dense_modes(self, delta):
        # a d x d complex array at d = 3202 alone takes 16 d^2 = 164 MB; the
        # shell spectrum (n = 444), propagators included, peaks at 2.35 n^2
        # floats at delta = 0 and 6.10 detuned (n^2 floats = 1.6 MB): U'' is
        # freed once split into X and Y, and each of those once multiplied.
        # Keeping U'' through the products with the eigenvectors raised the
        # peaks to 2.56 and 7.06; storing the vectors of all n coupled
        # modes, a complex n x n array, raised them to 4.6 and 8.0 and
        # breaks either bound
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
        n = 2 + 2 * env.shells().frequencies.size
        assert spec.dimension == 3202 and n == 444
        assert len(spec.fbs_indices) == 2
        assert peak < (7.5 if delta else 3.0) * 8 * n**2

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_memory_cap(self, monkeypatch, delta):
        # the estimate, 3.5 n^2 floats resonant and 10 detuned, lies above
        # the RSS peaks measured at n_side 100 (3.13 and 9.19 n^2 floats)
        # and 140 (2.81 and 8.09), and above the detuned 9.03 at n_side 60;
        # the resonant 3.55 there exceeds it (heap reuse, see check_memory)
        env = LatticeEnvironment(n_side=6, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(omega_0=2.0, delta=delta, kappa=4.8)
        tau = 0.5 * np.pi / 4.8
        sch = ProtocolSchedule(tau_c=tau, tau_s=tau, tau_d=tau)
        n = 2 + 2 * env.shells().frequencies.size
        estimate = (80 if delta else 28) * n * n
        monkeypatch.setattr(dynamics, "MEMORY_CAP", estimate - 1)
        with pytest.raises(MemoryCapError):
            compute_spectrum(params, env, sch)
        monkeypatch.setattr(dynamics, "MEMORY_CAP", estimate)
        compute_spectrum(params, env, sch)  # admitted at its estimate

    def test_resonant_memory_cap(self, monkeypatch):
        # 40 000 bytes lies between the propagators' own estimate, 20 n^2 =
        # 32 000 at n = 40, and the spectrum's 28 n^2 = 44 800
        env = LatticeEnvironment(n_side=10, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=4.8)
        tau = 0.5 * np.pi / 4.8
        sch = ProtocolSchedule(tau_c=tau, tau_s=tau, tau_d=tau)
        assert 2 + 2 * env.shells().frequencies.size == 40
        monkeypatch.setattr(dynamics, "MEMORY_CAP", 40_000)
        with pytest.raises(MemoryCapError):
            resonant_spectrum(params, env, sch)

    @pytest.mark.parametrize("other", ["params", "env"])
    def test_rejects_props_of_another_system(self, other):
        # a props built for kappa 15 gives one bound state at kappa 4.8
        # instead of two, with quasienergies off by up to 0.30
        env = LatticeEnvironment(n_side=10, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=4.8)
        tau = 0.5 * np.pi / 4.8
        sch = ProtocolSchedule(tau_c=tau, tau_s=tau, tau_d=tau)
        props = SegmentPropagators(
            replace(params, kappa=15.0) if other == "params" else params,
            replace(env, g=0.6) if other == "env" else env)
        with pytest.raises(ValueError, match="another params or env"):
            compute_spectrum(params, env, sch, props=props)


def _schur_block(w1, w0, ovl, schedule, readout, keep):
    """Quasienergies, weights and kept Schur vectors of a shell block's
    U_T, on its f = 1 eigenvectors: U_T = D_1(tau_d) W^T D_0(tau_s) W
    D_1(tau_c) with D_f(t) = exp(-i w_f t) and the overlap W."""
    u = ((np.exp(-1j * w1 * schedule.tau_d)[:, None] * ovl.T)
         @ (np.exp(-1j * w0 * schedule.tau_s)[:, None] * ovl)
         * np.exp(-1j * w1 * schedule.tau_c))
    eps, q = floquet._folded_schur(u, schedule)
    weights = np.sum(np.abs(readout @ q) ** 2, axis=0)
    kept = weights >= keep
    return eps, weights, kept, q[:, kept]


class TestCayleySpectrum:
    """The real-eigh spectrum against the complex Schur form of the same
    shell blocks and against the full-basis U_T, in the cases where the
    eigh of Re(U'') could go wrong."""

    @pytest.mark.parametrize("g, omega_0, delta, kappa, taus", [
        # the zone edge +-omega_T/2 sits on a lattice frequency (n_side 12)
        (0.5, 2.0, 0.0, 3.0, None), (0.5, 2.0, 0.5, 3.0, None),
        (0.5, 2.0, 0.0, 3.75, None), (0.5, 2.0, 0.5, 3.75, None),
        # no storage segment: P = I
        (0.5, 2.0, 0.0, 8.0, (0.3, 0.0, 0.2)),
        (0.5, 2.0, 0.5, 8.0, (0.3, 0.0, 0.2)),
        # unequal segments, detuned
        (0.5, 2.0, 0.5, 6.0, (0.3, 0.45, 0.15)),
        # two bound states 1.1e-2 apart in a zone of width 60
        (0.2, 2.0, 0.5, 30.0, (np.pi / 60, 0.0, np.pi / 60)),
        # a weakly coupled pair level halfway round the zone from the band:
        # a shift from the shells alone would put the pole on it
        (0.01, 1.0, 0.0, 15.0, None),
    ], ids=["edge3", "edge3-detuned", "edge3.75", "edge3.75-detuned",
            "no-storage", "no-storage-detuned", "unequal-detuned",
            "near-degenerate", "pair-level-opposite-band"])
    def test_matches_schur(self, monkeypatch, g, omega_0, delta, kappa,
                           taus):
        env = LatticeEnvironment(n_side=12, varpi=1.0, q=0.5, g=g)
        params = SystemParams.from_center(omega_0=omega_0, delta=delta,
                                          kappa=kappa)
        tau = 0.5 * np.pi / kappa
        sch = ProtocolSchedule(*(taus or (tau, tau, tau)))
        spec = compute_spectrum(params, env, sch)
        with monkeypatch.context() as m:
            # the same shell blocks through U_T and its complex Schur form;
            # the dark modes at the zone edge fold as in the spectrum
            m.setattr(floquet, "_block_spectrum", _schur_block)
            ref = compute_spectrum(params, env, sch)
        np.testing.assert_allclose(spec.quasienergies, ref.quasienergies,
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(spec.fbs_indices, ref.fbs_indices)
        np.testing.assert_allclose(spec.system_weights[spec.fbs_indices],
                                   ref.system_weights[ref.fbs_indices],
                                   rtol=0, atol=1e-10)
        u = one_period_operator(params, env, sch)
        full = _all_modes(params, env, sch)
        idx, v = _coupled_modes(full, env)
        assert idx.size == 2 + 2 * env.shells().frequencies.size
        assert np.abs(v.conj().T @ v - np.eye(idx.size)).max() < 1e-12
        lam = np.exp(-1j * full.quasienergies[idx] * sch.period)
        assert np.abs(u @ v - lam * v).max() < 1e-12

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_residual_check_raises(self, monkeypatch, delta):
        params = SystemParams.from_center(omega_0=2.0, delta=delta,
                                          kappa=KAPPA)
        monkeypatch.setattr(floquet, "_CLOSURE_TOL", 0.0)
        with pytest.raises(NotAnEigenpairError):
            compute_spectrum(params, ENV4, SCHEDULE)


class TestUnitaryEigh:
    """The block eigen-step on a symmetric unitary U = Q diag(e^{i phi})
    Q^T whose spectrum mirrors about the real axis: exact +-phi pairs,
    phi = 0 and pi, and a +-1e-7 pair at the fold phi = 0, where the
    eigenvalues cos(phi) of Re(U) coincide."""

    PHI = np.concatenate([[0.0, np.pi, 1e-7, -1e-7],
                          np.linspace(0.1, 3.0, 28), -np.linspace(0.1, 3.0, 28)])
    # pi/2 +- 1e-4 share Im(e^{i phi}), so a split on Im(U) alone mixes them
    NEAR_IM = np.concatenate([[np.pi / 2 + 1e-4, np.pi / 2 - 1e-4],
                              np.linspace(-1.5, -0.1, 6)])

    @staticmethod
    def _eigh(phi, seed=7):
        """``_unitary_eigh`` of U = H W D W^T H with W = Q, D = diag(e^{i
        phi}) and H = I."""
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
            (phi.size, phi.size)))
        return floquet._unitary_eigh(q, np.exp(1j * phi), np.ones(phi.size)), q

    def test_matches_eigvals(self):
        (lam, o, residual), q = self._eigh(self.PHI)
        ref = np.linalg.eigvals((q * np.exp(1j * self.PHI)) @ q.T)
        gap = np.abs(lam[:, None] - ref[None, :])
        assert gap.min(axis=0).max() < 1e-13
        assert gap.min(axis=1).max() < 1e-13
        assert residual < 1e-12
        assert np.abs(o.T @ o - np.eye(60)).max() < 1e-13

    def test_split_is_needed(self, monkeypatch):
        # without the split on Im(U) the mirrored pairs stay mixed
        monkeypatch.setattr(floquet, "_SPLIT_FLAG", np.inf)
        assert self._eigh(self.PHI)[0][2] > 1e-3

    def test_keeps_eigh_where_split_fails(self, monkeypatch):
        # the split of a run that holds pi/2 +- 1e-4 mixes them (residual
        # 5e-5), where the eigh of Re(U) had not
        monkeypatch.setattr(floquet, "_SPLIT_FLAG", 0.0)  # one run of all
        assert self._eigh(self.NEAR_IM)[0][2] < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_rotated_run_eigenvalues(self, monkeypatch, seed):
        # a run rotated by the split is judged by its residual, which needs
        # both the Re(U) and the Im(U) part of U o; the eigenvalues it
        # keeps must be the exact ones
        monkeypatch.setattr(floquet, "_SPLIT_FLAG", 0.0)  # one run of all
        lam, _, residual = self._eigh(self.NEAR_IM, seed)[0]
        ref = np.exp(1j * self.NEAR_IM)
        gap = np.abs(lam[:, None] - ref[None, :])
        assert gap.min(axis=0).max() < 1e-10
        assert gap.min(axis=1).max() < 1e-10
        assert residual < 1e-12


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

    @pytest.mark.parametrize("keys", [
        dict(weight_threshold=-1.0), dict(weight_threshold=1.5),
        dict(weight_threshold=float("nan")), dict(gap_tolerance=-1.0)])
    def test_compute_spectrum_rejects_before_work(self, monkeypatch, keys):
        # these used to be rejected only after the whole eigen-step, which
        # at a threshold of -1 stored the vectors of all coupled modes
        def eigen_step(*args):
            raise AssertionError("the eigen-step ran")
        monkeypatch.setattr(floquet, "_block_spectrum", eigen_step)
        monkeypatch.setattr(dynamics, "MEMORY_CAP", 0)  # before the cap too
        with pytest.raises(ValueError, match=f"{next(iter(keys))} must"):
            compute_spectrum(PARAMS, ENV4, SCHEDULE, **keys)


class TestFloquetMode:
    def test_sampled_states_match_expm(self):
        env = LatticeEnvironment(n_side=2, varpi=0.9, q=0.35, g=0.6)
        par = SystemParams.from_center(omega_0=1.7, delta=0.0, kappa=0.7)
        sch = ProtocolSchedule(tau_c=0.5, tau_s=1.0, tau_d=0.5)
        spec = compute_spectrum(par, env, sch)
        j = int(np.argmax(spec.system_weights))
        mode = floquet_mode(props=SegmentPropagators(par, env), schedule=sch,
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
            floquet_mode(PROPS4, SCHEDULE, v, 0.1)

    def test_rejects_full_basis_vector(self, spectrum4):
        # phi(0) is a shell vector; the full-basis expansion of the same
        # eigenvector has the lattice size d = 34 instead of 2 + 2S
        j = spectrum4.fbs_indices[0]
        n = 2 + 2 * ENV4.shells().frequencies.size
        phi = bright_isometry(ENV4) @ _shell_vector(spectrum4, j)
        assert phi.size == 34 != n
        with pytest.raises(ValueError, match=rf"size 2 \+ 2S = {n}\b"):
            floquet_mode(PROPS4, SCHEDULE, phi, spectrum4.quasienergies[j])

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_samples_match_apply_path(self, delta):
        # twelve offsets of T = 0.9: T/12 divides the unequal segments
        env = LatticeEnvironment(n_side=6, varpi=1.0, q=0.5, g=0.5)
        par = SystemParams.from_center(omega_0=2.0, delta=delta, kappa=4.8)
        sch = ProtocolSchedule(tau_c=0.3, tau_s=0.45, tau_d=0.15)
        spec = compute_spectrum(par, env, sch)
        j = int(np.argmax(spec.system_weights))
        props = SegmentPropagators(par, env)
        mode = floquet_mode(props, sch, _shell_vector(spec, j),
                            spec.quasienergies[j], n_samples=12)
        raw, prev = mode.phi0, 0.0
        for k, s in enumerate(mode.offsets):
            for dur, f in drive_pieces(sch, prev, s):
                raw = props.apply(raw, f, dur)
            prev = s
            np.testing.assert_allclose(
                mode.pair[k], np.exp(1j * mode.epsilon * s) * raw[:2],
                rtol=0, atol=1e-12)
        for dur, f in drive_pieces(sch, prev, sch.period):
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
        mode = floquet_mode(SegmentPropagators(par, env), sch,
                            _shell_vector(spec, j), spec.quasienergies[j],
                            n_samples=12)
        cache, raw, prev = {}, bright_isometry(env) @ mode.phi0, 0.0
        for k, s in enumerate(mode.offsets):
            for dur, f in drive_pieces(sch, prev, s):
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
            mode = floquet_mode(SegmentPropagators(par, env), sch,
                                _shell_vector(spec, j), eps, n_samples=12)
            lam = np.exp(-1j * eps * sch.period)
            expected = np.linalg.norm(u @ phi0 - lam * phi0)
            assert mode.closure_error == pytest.approx(expected, abs=1e-12)
        assert 0.9e-8 < mode.closure_error < 1.1e-8

    @pytest.mark.parametrize("taus", [None, (0.3, 0.45, 0.15)],
                             ids=["equal", "unequal"])
    def test_rejects_unaligned_samples(self, taus):
        # T/7 divides neither schedule's segments into whole steps
        env = LatticeEnvironment(n_side=6, varpi=1.0, q=0.5, g=0.5)
        par = SystemParams.from_center(omega_0=2.0, delta=0.0, kappa=4.8)
        tau = 0.5 * np.pi / 4.8
        sch = ProtocolSchedule(*(taus or (tau, tau, tau)))
        props = SegmentPropagators(par, env)
        spec = compute_spectrum(par, env, sch, props=props)
        j = int(np.argmax(spec.system_weights))
        with pytest.raises(ValueError, match="not aligned"):
            floquet_mode(props, sch, _shell_vector(spec, j),
                         spec.quasienergies[j], n_samples=7)

    def test_rejects_no_samples(self, spectrum4):
        j = spectrum4.fbs_indices[0]
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            floquet_mode(PROPS4, SCHEDULE, _shell_vector(spectrum4, j),
                         spectrum4.quasienergies[j], n_samples=0)

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
            mode = floquet_mode(SegmentPropagators(par, env), sch, phi0,
                                spec.quasienergies[j], n_samples=n_samples)
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
            floquet_mode(PROPS4, SCHEDULE, phi0, spectrum4.quasienergies[j])

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
            fbs_floquet_modes(PROPS4, SCHEDULE, spec)

    def test_requires_stored_vectors(self):
        # built at threshold 1, the spectrum stores no vector for the two
        # bound states that identify_fbs flags at its default 0.05
        spec = compute_spectrum(PARAMS, ENV4, SCHEDULE, weight_threshold=1.0)
        low = identify_fbs(spec)
        assert spec.vectors.shape[1] == 0 and low.size == 2
        with pytest.raises(ValueError, match="no stored vector"):
            fbs_floquet_modes(PROPS4, SCHEDULE,
                              replace(spec, fbs_indices=low))

    def test_empty_modes_discharge(self):
        np.testing.assert_array_equal(
            decompose_energy_terms([], 3.7).total, [0.0])
        out = decompose_energy_terms([], np.array([0.0, 1.0])).total
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_zone_shift_invariance(self, spectrum4, modes4):
        # representing a quasienergy in the next zone must not change the
        # predicted energy at any aligned sample time
        j = spectrum4.fbs_indices[0]
        shifted = floquet_mode(
            PROPS4, SCHEDULE, _shell_vector(spectrum4, j),
            spectrum4.quasienergies[j] + SCHEDULE.omega_T, n_samples=24,
        )
        ts = np.arange(0, 24 * 8) * (SCHEDULE.period / 24)
        np.testing.assert_allclose(
            decompose_energy_terms([modes4[0]], ts).total,
            decompose_energy_terms([shifted], ts).total,
            atol=1e-10,
        )

    def test_beat_period_set_by_splitting(self, spectrum4, modes4):
        # two bound states: the envelope oscillates at the quasienergy splitting
        eps = spectrum4.quasienergies[spectrum4.fbs_indices]
        t_beat = 2 * np.pi / abs(eps[1] - eps[0])
        n_per = round(t_beat / SCHEDULE.period)
        ts = np.arange(0, 24 * (n_per + 1)) * (SCHEDULE.period / 24)
        e = decompose_energy_terms(modes4, ts).total
        # energy returns near its initial value after one beat
        k = 24 * n_per
        assert abs(e[k] - e[0]) < 0.05 * e.max()
        assert e.max() > 0.5 * PARAMS.omega_0  # deep exchange at strong drive

    def test_matches_exact_propagation_late(self, modes4):
        # with ~99% bound-state weight the band residue is tiny, so the
        # asymptotic formula should track the true dynamics closely
        from qbsim import propagate_exact

        t_max = 30 * SCHEDULE.period
        trace = propagate_exact(PROPS4, SCHEDULE, t_max,
                                sample_dt=SCHEDULE.period / 24)
        sel = trace.times >= 20 * SCHEDULE.period
        asym = decompose_energy_terms(modes4, trace.times[sel]).total
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
        props = SegmentPropagators(params, env)
        trace = propagate_exact(props, schedule, 40 * T, sample_dt=T / 24)
        spec = compute_spectrum(params, env, schedule, props=props)
        modes = fbs_floquet_modes(props, schedule, spec)
        sel = trace.times >= 30 * T - 1e-9 * T
        asym = decompose_energy_terms(modes, trace.times[sel]).total
        assert np.mean(np.abs(asym - trace.energies[sel])) < 1e-3


class TestDecomposition:
    def test_identity_and_elements(self, modes4):
        ts = np.arange(0, 24 * 5) * (SCHEDULE.period / 24)
        dec = decompose_energy_terms(modes4, ts)
        np.testing.assert_allclose(
            dec.diagonal.sum(axis=0) + dec.interference, dec.total, atol=1e-12
        )
        # total = omega_b |sum_j c_j e^{-i eps_j t} <battery|phi_j(t)>|^2
        amp = sum(np.conj(m.phi0[1]) * np.exp(-1j * m.epsilon * ts)
                  * m.battery_amplitudes[m.offset_index(ts)] for m in modes4)
        np.testing.assert_allclose(
            dec.total, PARAMS.omega_0 * np.abs(amp) ** 2, atol=1e-12
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

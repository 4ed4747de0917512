"""Lattice-bath tests: dispersion, spectral density, memory kernels."""

import numpy as np
import pytest
from scipy import integrate

from qbsim import LatticeEnvironment, SystemParams
from qbsim.dynamics import _bath_arrays, _pair_hamiltonian, build_hamiltonian
from qbsim.environment import (
    SHELL_TOLERANCE,
    memory_kernel_continuum,
    memory_kernel_discrete,
    spectral_density,
)

ENV = LatticeEnvironment(n_side=30, varpi=1.0, q=0.5, g=0.5)


class TestLatticeEnvironment:
    def test_mode_count_and_coupling(self):
        assert ENV.n_modes == 900
        assert ENV.coupling_per_mode == pytest.approx(0.5 / 30)

    def test_band_edges(self):
        assert ENV.band_edges == (-1.0, 3.0)

    def test_mode_frequencies_two_site(self):
        # cos(2 pi m / 2) = {1, -1}: frequencies varpi - 2q(c_x + c_y)
        env = LatticeEnvironment(n_side=2, varpi=1.0, q=0.5, g=0.5)
        np.testing.assert_allclose(
            np.sort(env.mode_frequencies()), [-1.0, 1.0, 1.0, 3.0], atol=1e-15
        )

    def test_mode_frequencies_span_band(self):
        w = ENV.mode_frequencies()
        assert w.shape == (900,)
        lo, hi = ENV.band_edges
        assert w.min() == pytest.approx(lo, abs=1e-12)
        assert w.max() == pytest.approx(hi, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeEnvironment(n_side=0, varpi=1.0, q=0.5, g=0.5)
        with pytest.raises(ValueError):
            LatticeEnvironment(n_side=4, varpi=1.0, q=0.0, g=0.5)
        with pytest.raises(ValueError):
            LatticeEnvironment(n_side=4, varpi=1.0, q=0.5, g=-0.1)
        # a float, even a whole one, would make n_modes a float
        for n_side in (2.5, 2.0):
            with pytest.raises(ValueError, match="integer"):
                LatticeEnvironment(n_side=n_side, varpi=1.0, q=0.5, g=0.5)

    @pytest.mark.parametrize("keys", [
        dict(q=np.nan), dict(g=np.nan), dict(varpi=np.nan),
        dict(q=np.inf), dict(g=np.inf),
    ], ids=["q-nan", "g-nan", "varpi-nan", "q-inf", "g-inf"])
    def test_rejects_nan_and_inf(self, keys):
        # a NaN hopping used to construct and then fail inside shells()
        with pytest.raises(ValueError, match="finite"):
            LatticeEnvironment(**{"n_side": 4, "varpi": 1.0, "q": 0.5,
                                  "g": 0.5, **keys})


class TestShells:
    @pytest.mark.parametrize("n_side, count", [(10, 19), (12, 21), (20, 61),
                                               (30, 111), (100, 1301)])
    def test_counts_and_members(self, n_side, count):
        env = LatticeEnvironment(n_side=n_side, varpi=1.0, q=0.5, g=0.5)
        shells = env.shells()
        assert shells.frequencies.size == shells.multiplicities.size == count
        assert shells.multiplicities.sum() == n_side**2
        np.testing.assert_array_equal(
            np.bincount(shells.index), shells.multiplicities)
        assert np.all(np.diff(shells.frequencies) > 0)
        tol = SHELL_TOLERANCE * (abs(env.varpi) + 4.0 * env.q)
        w = env.mode_frequencies()
        assert np.abs(w - shells.frequencies[shells.index]).max() <= tol

    def test_grouped_once_per_environment(self):
        # a run asks for the shells many times; they are grouped once and
        # shared read-only, and equality and hash, by which the benchmark
        # counts distinct (params, env) pairs, ignore the held result
        env = LatticeEnvironment(n_side=6, varpi=1.0, q=0.5, g=0.5)
        twin = LatticeEnvironment(n_side=6, varpi=1.0, q=0.5, g=0.5)
        before = hash(env)
        shells = env.shells()
        assert env.shells() is shells
        for array in shells:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        assert env == twin and hash(env) == hash(twin) == before
        assert twin.shells() is not shells
        np.testing.assert_array_equal(twin.shells().index, shells.index)

    @pytest.mark.parametrize("n_side", [4, 7, 12])
    def test_bright_and_dark_reproduce_full_spectrum(self, n_side):
        # bright shells carry (g/N) sqrt(m_s); each shell leaves m_s - 1
        # uncoupled modes at omega_s in either bath
        env = LatticeEnvironment(n_side=n_side, varpi=1.0, q=0.5, g=0.5)
        params = SystemParams.from_center(omega_0=2.0, delta=0.3, kappa=4.8)
        shells = env.shells()
        dark = np.repeat(shells.frequencies, shells.multiplicities - 1)
        for f in (1.0, 0.0):
            bright = np.linalg.eigvalsh(
                _pair_hamiltonian(params, _bath_arrays(env, shells), f))
            np.testing.assert_allclose(
                np.sort(np.concatenate([bright, dark, dark])),
                np.linalg.eigvalsh(build_hamiltonian(params, env, f)),
                rtol=0, atol=1e-12)


class TestSpectralDensity:
    def test_band_edge_value(self):
        # K(0) = pi/2 puts the edge plateau at g^2/(4 pi q)
        edge = ENV.g**2 / (4.0 * np.pi * ENV.q)
        lo, hi = ENV.band_edges
        assert spectral_density(ENV, lo) == pytest.approx(edge, rel=1e-14)
        assert spectral_density(ENV, hi) == pytest.approx(edge, rel=1e-14)

    def test_zero_outside_band(self):
        assert spectral_density(ENV, -1.5) == 0.0
        assert spectral_density(ENV, 3.2) == 0.0

    def test_divergent_center(self):
        assert spectral_density(ENV, ENV.varpi) == np.inf
        # immediately adjacent points stay finite
        assert np.isfinite(spectral_density(ENV, np.nextafter(ENV.varpi, 2.0)))
        assert np.isfinite(spectral_density(ENV, ENV.varpi + 1e-12))

    def test_symmetry_about_center(self):
        u = np.array([0.3, 1.1, 1.9, 1.9999])
        np.testing.assert_allclose(
            spectral_density(ENV, ENV.varpi + u),
            spectral_density(ENV, ENV.varpi - u),
            rtol=1e-14,
        )

    def test_total_weight_is_g_squared(self):
        f = lambda w: spectral_density(ENV, w)
        lo, hi = ENV.band_edges
        total = (
            integrate.quad(f, lo, ENV.varpi, limit=300)[0]
            + integrate.quad(f, ENV.varpi, hi, limit=300)[0]
        )
        assert total == pytest.approx(ENV.g**2, rel=1e-10)

    def test_matches_mode_density_histogram(self):
        # J(omega) ~ (g/N)^2 [counts in bin] / [bin width] for a large lattice
        big = LatticeEnvironment(n_side=600, varpi=1.0, q=0.5, g=0.5)
        w = big.mode_frequencies()
        half = 0.05
        for w0 in (0.2, 1.5, 2.0, 2.9):
            count = np.count_nonzero(np.abs(w - w0) <= half)
            est = big.coupling_per_mode**2 * count / (2 * half)
            assert est == pytest.approx(spectral_density(ENV, w0), rel=0.02)

    def test_array_input(self):
        w = np.array([-2.0, -1.0, 0.5, 1.0, 3.0, 4.0])
        out = spectral_density(ENV, w)
        assert out.shape == w.shape
        assert out[0] == 0.0 and out[-1] == 0.0
        assert out[3] == np.inf

    def test_nan_frequency(self):
        # a NaN frequency used to read as outside the band, J = 0
        assert np.isnan(spectral_density(ENV, np.nan))
        out = spectral_density(ENV, np.array([np.nan, 1.5, 3.2]))
        assert np.isnan(out[0])
        assert out[1] == spectral_density(ENV, 1.5) and out[2] == 0.0


class TestDiscreteKernel:
    def test_brute_force_small_lattices(self):
        xs = np.array([-2.3, -0.4, 0.0, 0.7, 1.9, 6.1])
        for n in (1, 3, 7):
            env = LatticeEnvironment(n_side=n, varpi=0.9, q=0.35, g=0.6)
            w = env.mode_frequencies()
            brute = (env.g / n) ** 2 * np.exp(-1j * w[None, :] * xs[:, None]).sum(axis=1)
            np.testing.assert_allclose(
                memory_kernel_discrete(env, xs), brute, rtol=0, atol=1e-12
            )

    def test_at_zero_delay(self):
        assert memory_kernel_discrete(ENV, 0.0) == pytest.approx(ENV.g**2, rel=1e-14)

    def test_conjugate_symmetry(self):
        xs = np.linspace(0.1, 8.0, 17)
        np.testing.assert_allclose(
            memory_kernel_discrete(ENV, -xs),
            np.conj(memory_kernel_discrete(ENV, xs)),
            rtol=0,
            atol=1e-14,
        )

    def test_bounded_by_total_coupling(self):
        xs = np.linspace(0.0, 40.0, 801)
        assert np.abs(memory_kernel_discrete(ENV, xs)).max() <= ENV.g**2 + 1e-12

    def test_scalar_return(self):
        out = memory_kernel_discrete(ENV, 1.3)
        assert isinstance(out, complex)


class TestContinuumKernel:
    def test_against_direct_transform(self):
        # independent evaluation: nu(x) = int J(omega) e^{-i omega x} domega
        lo, hi = ENV.band_edges
        for x in (0.0, 0.3, 1.7, 6.0):
            fr = lambda w: spectral_density(ENV, w) * np.cos(w * x)
            fi = lambda w: spectral_density(ENV, w) * np.sin(w * x)
            direct = sum(
                integrate.quad(f, a, b, limit=400)[0] * s
                for f, s in ((fr, 1.0), (fi, -1j))
                for a, b in ((lo, ENV.varpi), (ENV.varpi, hi))
            )
            assert memory_kernel_continuum(ENV, x) == pytest.approx(direct, abs=1e-10)

    def test_at_zero_delay(self):
        assert memory_kernel_continuum(ENV, 0.0) == pytest.approx(ENV.g**2, rel=1e-10)

    def test_matches_discrete_kernel(self):
        # the N=100 lattice reproduces the J0^2 closed form to rounding
        xs = np.linspace(0.0, 40.0, 801)
        env = LatticeEnvironment(n_side=100, varpi=1.0, q=0.5, g=0.5)
        np.testing.assert_allclose(
            memory_kernel_continuum(ENV, xs), memory_kernel_discrete(env, xs),
            rtol=0, atol=1e-12,
        )

    def test_conjugate_symmetry_and_bound(self):
        xs = np.linspace(0.0, 10.0, 41)
        nu = memory_kernel_continuum(ENV, xs)
        np.testing.assert_allclose(
            memory_kernel_continuum(ENV, -xs), np.conj(nu), rtol=0, atol=1e-12
        )
        assert np.abs(nu).max() <= ENV.g**2 + 1e-10

    def test_discrete_converges_with_lattice_size(self):
        xs = np.linspace(0.0, 5.0 / ENV.q, 64)
        ref = memory_kernel_continuum(ENV, xs)
        errs = []
        for n in (25, 50, 100, 200):
            env = LatticeEnvironment(n_side=n, varpi=1.0, q=0.5, g=0.5)
            errs.append(np.abs(memory_kernel_discrete(env, xs) - ref).max())
        # decreases until both kernels agree to rounding (the finite-lattice
        # error is of the order of J_N(2 q x), tiny for N >= 100 at x <= 10)
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-15
        assert errs[0] > 1e-10
        assert errs[-1] < 1e-10

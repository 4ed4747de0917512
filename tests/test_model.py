import math

import numpy as np
import pytest

from qbsim import (
    ProtocolSchedule,
    SystemParams,
    optimal_schedule,
)


class TestSystemParams:
    def test_center_detuning_and_rabi(self):
        p = SystemParams(omega_b=0.8, omega_c=1.2, kappa=0.37)
        assert p.omega_0 == pytest.approx(1.0)
        assert p.delta == pytest.approx(0.2)
        assert p.rabi == pytest.approx(math.hypot(0.37, 0.2))

    def test_from_center_round_trip(self):
        p = SystemParams.from_center(omega_0=2.0, delta=0.5, kappa=3.0)
        assert p.omega_b == pytest.approx(1.5)
        assert p.omega_c == pytest.approx(2.5)
        assert p.delta == pytest.approx(0.5)

    def test_rejects_nonpositive_splitting(self):
        with pytest.raises(ValueError):
            SystemParams(omega_b=0.0, omega_c=1.0, kappa=1.0)
        with pytest.raises(ValueError):
            SystemParams(omega_b=1.0, omega_c=1.0, kappa=-0.1)

    @pytest.mark.parametrize("keys", [
        dict(omega_b=math.nan), dict(omega_c=math.nan), dict(kappa=math.nan),
        dict(omega_b=math.inf), dict(kappa=math.inf),
    ], ids=["omega_b-nan", "omega_c-nan", "kappa-nan", "omega_b-inf",
            "kappa-inf"])
    def test_rejects_nan_and_inf(self, keys):
        with pytest.raises(ValueError, match="finite"):
            SystemParams(**{"omega_b": 1.0, "omega_c": 1.0, "kappa": 1.0,
                            **keys})


class TestProtocolSchedule:
    def test_period_and_frequency(self):
        s = ProtocolSchedule(tau_c=1.3, tau_s=0.7, tau_d=2.1)
        assert s.period == pytest.approx(4.1)
        assert s.omega_T == pytest.approx(2 * math.pi / 4.1)

    def test_drive_values_and_boundaries(self):
        s = ProtocolSchedule(tau_c=1.0, tau_s=2.0, tau_d=0.5)
        T = s.period
        # segment-closing endpoints belong to the segment on their left
        assert s.evaluate(0.0) == 1
        assert s.evaluate(0.5) == 1
        assert s.evaluate(1.0) == 1
        assert s.evaluate(1.0 + 1e-12) == 0
        assert s.evaluate(3.0) == 0
        assert s.evaluate(3.2) == 1
        assert s.evaluate(T) == 1
        for n in range(4):
            assert s.evaluate(n * T) == 1
            assert s.evaluate(n * T + 1.5) == 0

    def test_zero_storage_always_on(self):
        s = ProtocolSchedule(tau_c=1.0, tau_s=0.0, tau_d=1.0)
        ts = np.linspace(0.001, 3 * s.period, 211)
        assert all(s.evaluate(t) == 1 for t in ts)
        assert s.segments() == [(1.0, 1.0), (1.0, 1.0)]

    def test_negative_time_rejected(self):
        s = ProtocolSchedule(tau_c=1.0, tau_s=1.0, tau_d=1.0)
        with pytest.raises(ValueError):
            s.evaluate(-0.1)

    def test_pieces_cover_interval_and_match_evaluate(self):
        s = ProtocolSchedule(tau_c=0.9, tau_s=1.4, tau_d=0.3)
        t0, t1 = 0.35, 7.77
        pieces = s.pieces(t0, t1)
        assert sum(d for d, _ in pieces) == pytest.approx(t1 - t0, abs=1e-12)
        t = t0
        for dur, f in pieces:
            assert f == s.evaluate(t + 0.5 * dur)
            t += dur

    def test_drive_integral_matches_piecewise_sum(self):
        s = ProtocolSchedule(tau_c=0.9, tau_s=1.4, tau_d=0.3)
        for t in (0.0, 0.4, 0.9, 1.7, 2.3, 2.6, 5.2, 3 * s.period):
            expected = sum(d * f for d, f in s.pieces(0.0, t)) if t else 0.0
            assert s.drive_integral(t) == pytest.approx(expected, abs=1e-12)

    def test_drive_integral_full_cycles(self):
        s = ProtocolSchedule(tau_c=0.9, tau_s=1.4, tau_d=0.3)
        assert s.drive_integral(3 * s.period) == pytest.approx(3 * 1.2)

    def test_requires_positive_active_segments(self):
        with pytest.raises(ValueError):
            ProtocolSchedule(tau_c=0.0, tau_s=1.0, tau_d=1.0)
        with pytest.raises(ValueError):
            ProtocolSchedule(tau_c=1.0, tau_s=-0.5, tau_d=1.0)

    @pytest.mark.parametrize("keys", [
        dict(tau_c=math.nan), dict(tau_s=math.nan), dict(tau_d=math.nan),
        dict(tau_c=math.inf), dict(tau_s=math.inf),
    ], ids=["tau_c-nan", "tau_s-nan", "tau_d-nan", "tau_c-inf", "tau_s-inf"])
    def test_rejects_nan_and_inf(self, keys):
        with pytest.raises(ValueError, match="finite"):
            ProtocolSchedule(**{"tau_c": 1.0, "tau_s": 1.0, "tau_d": 1.0,
                                **keys})


class TestOptimalSchedule:
    def test_half_swap_condition(self):
        s = optimal_schedule(kappa=1.0, delta=0.3)
        omega = math.hypot(1.0, 0.3)
        assert omega * s.tau_c == pytest.approx(math.pi / 2)
        assert omega * s.tau_d == pytest.approx(math.pi / 2)
        assert abs(0.3) * s.tau_s == pytest.approx(math.pi)

    def test_higher_windings(self):
        s = optimal_schedule(kappa=2.0, delta=0.5, n1=1, n2=3, n3=2)
        omega = math.hypot(2.0, 0.5)
        assert omega * s.tau_c == pytest.approx(1.5 * math.pi)
        assert omega * s.tau_d == pytest.approx(2.5 * math.pi)
        assert 0.5 * s.tau_s == pytest.approx(3 * math.pi)

    def test_resonant_needs_explicit_storage(self):
        with pytest.raises(ValueError):
            optimal_schedule(kappa=1.5, delta=0.0)
        s = optimal_schedule(kappa=1.5, delta=0.0, tau_s=2.0)
        assert s.tau_s == 2.0

    def test_explicit_storage_overrides_winding(self):
        s = optimal_schedule(kappa=1.0, delta=0.5, tau_s=0.123)
        assert s.tau_s == 0.123

"""Device model: square-law parameters, PVT adjustment, mismatch sampling."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dyncomp import devices
from dyncomp.devices import (ABETA_DEFAULT, AVT_DEFAULT, CORNERS, DEFAULT_NMOS,
                             DEFAULT_PMOS, DeviceParams, MismatchSample,
                             TransistorGeom, ZERO_MISMATCH, apply_corner,
                             apply_temperature, beta, default_geometry, draw_mismatch,
                             gate_cap, mismatch_scales, sample_mismatch, threshold)
from dyncomp.errors import BodyBiasError, ConfigError

MIN_GEOM = TransistorGeom("dut", 0.22e-6, 0.18e-6, "nmos")


def rel_err(a, b):
    return abs(a - b) / abs(b)


class TestBeta:
    def test_min_size_value(self):
        p = DeviceParams("nmos", mu_cox=300e-6, vth0=0.45)
        assert rel_err(beta(MIN_GEOM, p), 300e-6 * 0.22e-6 / 0.18e-6) < 1e-12

    def test_unit_aspect_ratio(self):
        g = TransistorGeom("dut", 0.5e-6, 0.5e-6, "nmos")
        assert beta(g, DEFAULT_NMOS) == DEFAULT_NMOS.mu_cox

    @given(w=st.floats(0.22e-6, 50e-6), l=st.floats(0.18e-6, 10e-6),
           mu=st.floats(1e-6, 1e-2))
    def test_linear_in_w_inverse_in_l(self, w, l, mu):
        p = DeviceParams("nmos", mu_cox=mu, vth0=0.45)
        g = TransistorGeom("dut", w, l, "nmos")
        g2w = TransistorGeom("dut", 2 * w, l, "nmos")
        g2l = TransistorGeom("dut", w, 2 * l, "nmos")
        # scaling by 2 is exact in binary floating point
        assert beta(g2w, p) == 2 * beta(g, p)
        assert beta(g2l, p) == beta(g, p) / 2


class TestGateCap:
    def test_min_size_value(self):
        assert rel_err(gate_cap(MIN_GEOM, DEFAULT_NMOS),
                       8.5e-3 * 0.22e-6 * 0.18e-6) < 1e-12

    def test_linear_in_cox(self):
        p2 = DeviceParams("nmos", mu_cox=300e-6, vth0=0.45, cox_area=2 * 8.5e-3)
        assert gate_cap(MIN_GEOM, p2) == 2 * gate_cap(MIN_GEOM, DEFAULT_NMOS)

    def test_min_device_is_smallest_in_default_set(self):
        geoms = default_geometry()
        caps = {n: gate_cap(g, DEFAULT_NMOS) for n, g in geoms.items()}
        assert min(caps, key=caps.get) in ("Mpi1", "Mpi2", "Mpi3", "Mpi4",
                                           "Mni1", "Mni2", "Mni3", "Mni4")


class TestThreshold:
    def test_zero_bias(self):
        assert threshold(DEFAULT_NMOS, vsb=0.0) == DEFAULT_NMOS.vth0

    def test_body_effect_value(self):
        p = DeviceParams("pmos", mu_cox=150e-6, vth0=0.45, gamma=0.4, phi2f=0.7)
        expected = 0.45 + 0.4 * (math.sqrt(0.7 + 0.3) - math.sqrt(0.7))
        assert rel_err(threshold(p, vsb=0.3), expected) < 1e-12

    def test_additive_mismatch(self):
        assert threshold(DEFAULT_NMOS, 0.0, 0.010) == DEFAULT_NMOS.vth0 + 0.010

    @given(vsb1=st.floats(-0.6, 2.0), vsb2=st.floats(-0.6, 2.0))
    def test_monotone_nondecreasing_in_vsb(self, vsb1, vsb2):
        lo, hi = sorted((vsb1, vsb2))
        assert threshold(DEFAULT_PMOS, lo) <= threshold(DEFAULT_PMOS, hi)

    def test_continuous_at_zero(self):
        eps = 1e-9
        v0 = threshold(DEFAULT_NMOS, 0.0)
        assert abs(threshold(DEFAULT_NMOS, eps) - v0) < 1e-9
        assert abs(threshold(DEFAULT_NMOS, -eps) - v0) < 1e-9

    def test_domain_error(self):
        with pytest.raises(BodyBiasError):
            threshold(DEFAULT_NMOS, vsb=-0.7)


class TestCorners:
    def test_tt_is_identity(self):
        out = apply_corner(DEFAULT_NMOS, CORNERS["TT"])
        assert out == DEFAULT_NMOS

    def test_ff_values(self):
        out = apply_corner(DEFAULT_NMOS, CORNERS["FF"])
        assert out.mu_cox == DEFAULT_NMOS.mu_cox * 1.1
        assert abs(out.vth0 - 0.42) < 1e-15

    def test_fs_slows_pmos(self):
        out = apply_corner(DEFAULT_PMOS, CORNERS["FS"])
        assert out.mu_cox < DEFAULT_PMOS.mu_cox
        assert out.vth0 > DEFAULT_PMOS.vth0
        assert apply_corner(DEFAULT_NMOS, CORNERS["FS"]).mu_cox > DEFAULT_NMOS.mu_cox

    def test_beta_decreases_at_fs_for_pmos(self):
        g = TransistorGeom("Mp4", 1.2e-6, 0.18e-6, "pmos")
        assert beta(g, apply_corner(DEFAULT_PMOS, CORNERS["FS"])) < beta(g, DEFAULT_PMOS)


class TestTemperature:
    def test_reference_is_identity(self):
        assert apply_temperature(DEFAULT_NMOS, 300.0) == DEFAULT_NMOS

    def test_hot_values(self):
        out = apply_temperature(DEFAULT_NMOS, 373.0)
        assert rel_err(out.mu_cox, 300e-6 * (373.0 / 300.0) ** -1.5) < 1e-12
        assert abs(out.vth0 - (0.45 - 2e-3 * 73.0)) < 1e-15

    def test_mobility_strictly_decreasing(self):
        temps = [253.15, 300.0, 330.0, 373.15]
        mus = [apply_temperature(DEFAULT_NMOS, t).mu_cox for t in temps]
        assert all(a > b for a, b in zip(mus, mus[1:]))


class TestMismatch:
    def test_zero_coefficients(self):
        geoms = default_geometry().values()
        sample = sample_mismatch(1, 0, geoms, avt=0.0, abeta=0.0)
        assert all(d == (0.0, 0.0) for d in sample.deltas.values())

    def test_deterministic(self):
        geoms = default_geometry().values()
        a = sample_mismatch(42, 7, geoms)
        b = sample_mismatch(42, 7, geoms)
        assert a.deltas == b.deltas
        c = sample_mismatch(42, 8, geoms)
        assert a.deltas != c.deltas

    def test_order_independent(self):
        geoms = list(default_geometry().values())
        a = sample_mismatch(3, 5, geoms)
        b = sample_mismatch(3, 5, list(reversed(geoms)))
        assert a.deltas == b.deltas

    def test_empirical_sigma(self):
        # input device 1.2 x 0.18 um: sigma_vth = avt / sqrt(W*L)
        g = TransistorGeom("Mp4", 1.2e-6, 0.18e-6, "pmos")
        expected = AVT_DEFAULT / math.sqrt(1.2e-6 * 0.18e-6)
        n = 100_000
        draws = np.fromiter(
            (sample_mismatch(11, t, [g]).delta_vth("Mp4") for t in range(n)),
            dtype=float, count=n)
        sigma = draws.std(ddof=1)
        assert rel_err(sigma, expected) < 0.02
        # and within 3 standard errors of the estimator
        se = expected / math.sqrt(2 * n)
        assert abs(sigma - expected) < 3 * se
        assert abs(draws.mean()) < 5 * expected / math.sqrt(n)

    def test_zero_sample_exists(self):
        assert ZERO_MISMATCH.delta_vth("Mp4") == 0.0
        assert ZERO_MISMATCH.delta_beta("anything") == 0.0

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ConfigError):
            sample_mismatch(1, 0, [MIN_GEOM], avt=-1e-9)


def per_device_draw(seed, trial, geoms, avt=AVT_DEFAULT, abeta=ABETA_DEFAULT):
    """Oracle: one rng.normal(0, s) per deviation, device by device in name order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
    deltas = {}
    for geom in sorted(geoms, key=lambda g: g.name):
        root_area = math.sqrt(geom.w * geom.l)
        deltas[geom.name] = (float(rng.normal(0.0, avt / root_area)),
                             float(rng.normal(0.0, abeta / root_area)))
    return deltas


def bits(deltas):
    """The deviations as bytes, so that -0.0 and 0.0 differ."""
    return [(name, np.float64(v).tobytes(), np.float64(b).tobytes())
            for name, (v, b) in deltas.items()]


class TestMismatchDraw:
    GEOMS = list(default_geometry().values())

    @pytest.mark.parametrize("seed", [0, 1, 7, 9001])
    def test_bitwise_equal_to_per_device_draws(self, seed):
        for trial in range(80):
            assert bits(sample_mismatch(seed, trial, self.GEOMS).deltas) \
                == bits(per_device_draw(seed, trial, self.GEOMS))

    @pytest.mark.parametrize("avt, abeta", [(0.0, ABETA_DEFAULT), (AVT_DEFAULT, 0.0), (0.0, 0.0)])
    def test_zero_coefficient_keeps_positive_zeros(self, avt, abeta):
        for trial in range(20):
            sample = sample_mismatch(3, trial, self.GEOMS, avt=avt, abeta=abeta)
            assert bits(sample.deltas) == bits(per_device_draw(3, trial, self.GEOMS, avt, abeta))

    def test_batch_rows_equal_single_draws(self):
        names, scales = mismatch_scales(self.GEOMS)
        # The last set is the Monte Carlo kernel's (Mn3, Mn4, Mp1, Mp4, Mp5):
        # it ends at column 29 of 46, so each trial draws 30 normals.
        for cols in [0, 7, 30, 31], [45, 3], [], [20, 21, 26, 27, 28, 29, 4, 5, 6, 7]:
            batch = draw_mismatch(5, range(3, 40), scales, cols)
            for row, trial in enumerate(range(3, 40)):
                assert batch[row].tobytes() == draw_mismatch(5, [trial], scales)[0, cols].tobytes()
        assert names == sorted(g.name for g in self.GEOMS)

    def test_one_seed_sequence_per_call(self, monkeypatch):
        # The first trial's stream is seeded by numpy, the others by the replica.
        made = []
        seed_sequence = np.random.SeedSequence

        def counting(*args, **kwargs):
            made.append(args)
            return seed_sequence(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        draw_mismatch(1001, range(500), mismatch_scales(self.GEOMS)[1])
        assert len(made) <= 1
        made.clear()
        sample_mismatch(1001, 7, self.GEOMS)
        assert len(made) == 1


class TestStreamSeeding:
    """Trials after the first are seeded by a replica of numpy's SeedSequence
    hash and PCG64 seeding; every stream must be numpy's own."""

    # 2**100 + 9 gives 5 entropy words, more than the 4-word pool.
    SEEDS = [0, 1, 1001, 9001, 2**32 - 1, 2**32, 2**70 + 3, 2**100 + 9]
    # The first row is seeded by numpy; 499 recurs so the replica seeds it too.
    TRIALS = [499, 0, 1, 499, 2**32 - 1]

    @pytest.mark.parametrize("columns", [None, [29, 4, 5, 0]])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rows_equal_numpy_streams(self, seed, columns):
        # With unit scales a row is the standard normals themselves.
        picked = slice(None) if columns is None else columns
        rows = draw_mismatch(seed, self.TRIALS, np.ones(46), columns)
        for row, trial in enumerate(self.TRIALS):
            rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
            assert rows[row].tobytes() == rng.standard_normal(46)[picked].tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_states_equal_pcg64_seeding(self, seed):
        words = devices._pcg64_seeds(seed, self.TRIALS)
        for row, trial in enumerate(self.TRIALS):
            sequence = np.random.SeedSequence([seed, trial])
            assert words[row].tolist() == sequence.generate_state(4, np.uint64).tolist()
            assert devices._pcg64_state(words[row].tolist()) == np.random.PCG64(sequence).state

    @pytest.mark.parametrize("trials", [[0, 2**32], [2**70, 1], [-1, 0], [3, -2]])
    def test_batch_rejects_trials_past_one_word(self, trials):
        with pytest.raises(ConfigError, match="trials"):
            draw_mismatch(1, trials, np.ones(4))

    def test_single_trial_past_one_word(self):
        geoms = TestMismatchDraw.GEOMS
        assert bits(sample_mismatch(3, 2**32, geoms).deltas) \
            == bits(per_device_draw(3, 2**32, geoms))

    def test_raises_when_numpy_seeds_differently(self, monkeypatch):
        replica = devices._pcg64_seeds
        monkeypatch.setattr(devices, "_pcg64_seeds", lambda seed, trials: replica(seed + 1, trials))
        with pytest.raises(RuntimeError, match="seeds PCG64"):
            draw_mismatch(1, [0, 1], np.ones(4))


class TestGeometry:
    def test_default_set_names(self):
        geoms = default_geometry()
        assert len(geoms) == 23
        assert geoms["Mp1"].w == 2e-6
        assert geoms["Mp2"].w == geoms["Mp3"].w == 0.35e-6
        assert geoms["Mn3"].w == 1e-6
        assert all(g.l == 0.18e-6 for g in geoms.values())

    def test_minimum_size_enforced(self):
        with pytest.raises(ConfigError):
            TransistorGeom("tiny", 0.1e-6, 0.18e-6, "nmos")
        with pytest.raises(ConfigError):
            TransistorGeom("short", 0.22e-6, 0.1e-6, "nmos")

    def test_param_invariants(self):
        with pytest.raises(ConfigError):
            DeviceParams("nmos", mu_cox=-1.0, vth0=0.45)
        with pytest.raises(ConfigError):
            DeviceParams("nmos", mu_cox=300e-6, vth0=0.0)
        with pytest.raises(ConfigError):
            DeviceParams("weird", mu_cox=300e-6, vth0=0.45)

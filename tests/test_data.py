"""Simulators, dataset containers, noise handling, CSV round trips."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import greybox as gb
from greybox.data import EXAMPLE1, EXAMPLE2, get_system


def manual_example1(u, n):
    # w(k) = 0.75 w(k-2) + 0.25 u(k-1) - 0.2 w(k-2) u(k-1), zero initial rest
    w = [0.0, 0.0]
    for k in range(2, n):
        w.append(0.75 * w[k - 2] + 0.25 * u[k - 1] - 0.2 * w[k - 2] * u[k - 1])
    return np.array(w)


def manual_example2(u, n):
    w = [0.0, 0.0]
    for k in range(2, n):
        z = 1.7826 * w[k - 1] - 0.8187 * w[k - 2] + 0.01867 * u[k - 1] + 0.01746 * u[k - 2]
        w.append(math.atan(z))
    return np.array(w)


class TestSimulators:
    def test_example1_matches_hand_recurrence(self):
        rng = np.random.default_rng(11)
        u = rng.uniform(-1.0, 3.0, 60)
        zd = gb.simulate_system(EXAMPLE1, u)
        assert np.allclose(zd.output, manual_example1(u, 60), atol=1e-14)
        assert np.array_equal(zd.inputs[0], u)

    def test_example2_matches_hand_recurrence(self):
        rng = np.random.default_rng(12)
        u = rng.uniform(-5.0, 5.0, 60)
        zd = gb.simulate_system(EXAMPLE2, u)
        assert np.allclose(zd.output, manual_example2(u, 60), atol=1e-14)

    def test_get_system_names(self):
        assert get_system("example1") is EXAMPLE1
        assert get_system("example2") is EXAMPLE2
        with pytest.raises(ValueError):
            get_system("example3")

    def test_simulation_divergence_reports_sample_index(self):
        # unstable regime from a huge initial state overflows within a few steps
        with np.errstate(over="ignore"), pytest.raises(gb.DivergenceError) as exc:
            gb.simulate_system(
                EXAMPLE1, np.full(200, -2.0), init=[1e307, 1e307]
            )
        assert exc.value.index is not None
        assert 0 < exc.value.index < 200

    def test_noise_changes_output_not_input(self):
        u = np.linspace(-0.5, 0.5, 50)
        clean = gb.simulate_system(EXAMPLE1, u)
        noisy = gb.simulate_system(
            EXAMPLE1, u, gb.NoiseSpec(scale=0.05, seed=4)
        )
        assert np.array_equal(noisy.inputs[0], clean.inputs[0])
        assert not np.array_equal(noisy.output, clean.output)
        # noise is additive on the measurement, not fed back into the state
        renoised = clean.output + (noisy.output - clean.output)
        assert np.array_equal(renoised, noisy.output)


class TestStaticCurves:
    def test_example1_closed_form_points(self):
        # y(0.25 + 0.2 u) = 0.25 u, solved by hand at three inputs
        zs = gb.steady_curve_of_system(EXAMPLE1, [1.0, 3.0, -1.0])
        assert zs.y_bar[0] == pytest.approx(5.0 / 9.0, abs=1e-14)
        assert zs.y_bar[1] == pytest.approx(15.0 / 17.0, abs=1e-14)
        assert zs.y_bar[2] == pytest.approx(-5.0, abs=1e-12)

    def test_example1_singular_input_raises(self):
        with pytest.raises(gb.SingularityError):
            gb.steady_curve_of_system(EXAMPLE1, [-1.25])

    def test_example2_defining_equation(self):
        zs = gb.steady_curve_of_system(EXAMPLE2, np.linspace(-20, 20, 25))
        for u, y in zip(zs.u_bar[:, 0], zs.y_bar):
            z = (1.7826 - 0.8187) * y + (0.01867 + 0.01746) * u
            assert abs(y - math.atan(z)) < 1e-12

    def test_example2_matches_long_constant_simulation(self):
        for u_bar in (-12.0, 0.5, 7.0):
            zs = gb.steady_curve_of_system(EXAMPLE2, [u_bar])
            sim = gb.simulate_system(EXAMPLE2, np.full(1500, u_bar))
            assert abs(sim.output[-1] - zs.y_bar[0]) < 1e-10

    def test_static_noise_is_output_only(self):
        grid = np.linspace(-1, 3, 10)
        clean = gb.steady_curve_of_system(EXAMPLE1, grid)
        noisy = gb.steady_curve_of_system(
            EXAMPLE1, grid, gb.NoiseSpec(scale=0.02, seed=9)
        )
        assert np.array_equal(clean.u_bar, noisy.u_bar)
        assert not np.array_equal(clean.y_bar, noisy.y_bar)

    @given(st.floats(min_value=-1.0, max_value=3.0))
    def test_example1_curve_satisfies_recurrence_fixed_point(self, u_bar):
        zs = gb.steady_curve_of_system(EXAMPLE1, [u_bar])
        y = zs.y_bar[0]
        residual = y - (0.75 * y + 0.25 * u_bar - 0.2 * y * u_bar)
        assert abs(residual) < 1e-12


class TestContainers:
    def test_dyn_dataset_validation(self):
        with pytest.raises(ValueError):
            gb.DynDataset(inputs=(np.arange(3.0),), output=np.arange(4.0))
        with pytest.raises(ValueError, match="finite"):
            gb.DynDataset(inputs=(np.array([0.0, np.nan]),), output=np.zeros(2))
        with pytest.raises(ValueError, match="finite"):
            gb.DynDataset(inputs=(np.zeros(2),), output=np.array([-np.inf, 0.0]))

    def test_steady_dataset_rejects_non_finite(self):
        with pytest.raises(ValueError):
            gb.SteadyDataset(u_bar=np.array([[np.nan]]), y_bar=np.array([1.0]))
        with pytest.raises(ValueError):
            gb.SteadyDataset(u_bar=np.array([[1.0]]), y_bar=np.array([np.inf]))

    def test_counts(self):
        zd = gb.DynDataset(inputs=(np.zeros(7), np.zeros(7)), output=np.zeros(7))
        assert zd.sample_count == 7
        assert zd.n_inputs == 2
        zs = gb.SteadyDataset(u_bar=np.zeros((4, 2)), y_bar=np.zeros(4))
        assert zs.n_pairs == 4
        assert zs.n_inputs == 2


class TestNoiseSpec:
    def test_deterministic_given_seed(self):
        a = gb.NoiseSpec(scale=0.3, seed=5).realize(100)
        b = gb.NoiseSpec(scale=0.3, seed=5).realize(100)
        assert np.array_equal(a, b)
        c = gb.NoiseSpec(scale=0.3, seed=6).realize(100)
        assert not np.array_equal(a, c)

    def test_variance_mode_scales_by_square_root(self):
        n = 200_000
        samples = gb.NoiseSpec(scale=4.0, scale_mode="variance", seed=1).realize(n)
        assert np.std(samples) == pytest.approx(2.0, rel=0.02)

    def test_std_mode(self):
        samples = gb.NoiseSpec(mean=1.5, scale=0.5, seed=2).realize(200_000)
        assert np.mean(samples) == pytest.approx(1.5, abs=0.01)
        assert np.std(samples) == pytest.approx(0.5, rel=0.02)

    def test_fraction_mode_tracks_signal_spread(self):
        signal = np.sin(np.linspace(0, 20, 50_000)) * 3.0
        noise = gb.NoiseSpec(
            scale=0.1, scale_mode="fraction-of-signal-std", seed=3
        ).realize(signal.size, signal)
        assert np.std(noise) == pytest.approx(0.1 * np.std(signal), rel=0.05)

    def test_fraction_mode_needs_signal(self):
        with pytest.raises(ValueError):
            gb.NoiseSpec(scale=0.1, scale_mode="fraction-of-signal-std").realize(10)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            gb.NoiseSpec(scale=0.1, scale_mode="sigma")


class TestGenerators:
    def test_example1_shapes(self, ex1_data):
        zd, zt, zs, zv = ex1_data
        assert zd.sample_count == 100
        assert zt.sample_count == 400
        assert zs.n_pairs == 50
        assert zv.sample_count == 2000
        assert zs.u_bar[0, 0] == -1.0 and zs.u_bar[-1, 0] == 3.0

    def test_example2_shapes(self, ex2_data):
        zd, zt, zs, zv = ex2_data
        assert zd.sample_count == 1700
        assert zt.sample_count == 300
        assert zs.n_pairs == 50
        assert zv.sample_count == 2000

    def test_same_seed_bit_identical(self, ex1_data):
        again = gb.make_example1_datasets(0)
        for left, right in zip(ex1_data, again):
            if isinstance(left, gb.SteadyDataset):
                assert np.array_equal(left.u_bar, right.u_bar)
                assert np.array_equal(left.y_bar, right.y_bar)
            else:
                assert np.array_equal(left.output, right.output)
                assert np.array_equal(left.inputs[0], right.inputs[0])

    def test_different_seeds_differ(self, ex1_data):
        other = gb.make_example1_datasets(1)
        assert not np.array_equal(ex1_data[0].output, other[0].output)

    def test_input_variance_knob(self):
        zd, _, _, _ = gb.make_example1_datasets(0, input_variance=0.04)
        assert np.std(zd.inputs[0]) == pytest.approx(0.2, rel=0.3)

    def test_splits_use_independent_noise_streams(self, ex1_data):
        zd, zt, _, _ = ex1_data
        assert not np.array_equal(zd.inputs[0], zt.inputs[0][: zd.sample_count])

    def test_validation_record_is_noise_free_staircase(self, ex2_data):
        _, _, _, zv = ex2_data
        # replaying the stored input through the simulator reproduces the output
        replay = gb.simulate_system(EXAMPLE2, zv.inputs[0])
        assert np.array_equal(replay.output, zv.output)


class TestCsv:
    def test_dyn_round_trip_exact(self, tmp_path):
        ds = gb.DynDataset(
            inputs=(np.array([0.1, -0.2, 1 / 3]), np.array([5.0, -3.1e-17, 2.0])),
            output=np.array([1.0, 2.5, -7.25]),
        )
        path = tmp_path / "dyn.csv"
        gb.write_csv(path, ds)
        back = gb.read_csv(path)
        assert isinstance(back, gb.DynDataset)
        assert all(np.array_equal(a, b) for a, b in zip(back.inputs, ds.inputs))
        assert np.array_equal(back.output, ds.output)

    def test_steady_round_trip_exact(self, tmp_path):
        ds = gb.SteadyDataset(
            u_bar=np.array([[1.0, 0.5], [2.0, -0.25]]), y_bar=np.array([3.0, 4.0])
        )
        path = tmp_path / "steady.csv"
        gb.write_csv(path, ds)
        back = gb.read_csv(path)
        assert isinstance(back, gb.SteadyDataset)
        assert np.array_equal(back.u_bar, ds.u_bar)
        assert np.array_equal(back.y_bar, ds.y_bar)

    def test_header_decides_dataset_kind(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("u1_bar,y_bar\n1.0,2.0\n")
        assert isinstance(gb.read_csv(path), gb.SteadyDataset)
        path.write_text("u1,y\n1.0,2.0\n")
        assert isinstance(gb.read_csv(path), gb.DynDataset)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("u1,y\n1.0,2.0\nx,3.0\n", "non-numeric cell 'x', row 3, column u1"),
            ("u1,z\n1.0,2.0\n", "unrecognized header"),
            ("u1,y\n1.0\n", "expected 2 cells, found 1, row 2"),
            ("", "no header"),
            ("u1,y\n", "no rows"),
            ("u1,y\n1.0,2.0\n0.5,nan\n", "non-finite cell 'nan', row 3, column y"),
            ("u1_bar,y_bar\n-inf,2.0\n", "non-finite cell '-inf', row 2, column u1_bar"),
        ],
    )
    def test_malformed_csv_names_the_problem(self, tmp_path, text, fragment):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(gb.CsvFormatError) as exc:
            gb.read_csv(path)
        assert fragment in str(exc.value)

    @given(
        values=st.lists(
            st.floats(
                allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_round_trip_is_lossless(self, values):
        arr = np.array(values)
        ds = gb.DynDataset(inputs=(arr,), output=arr[::-1].copy())
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "d.csv")
            gb.write_csv(path, ds)
            back = gb.read_csv(path)
        assert np.array_equal(back.inputs[0], ds.inputs[0])
        assert np.array_equal(back.output, ds.output)

"""Built-in system records, dataset generators, containers, CSV round trips."""

import csv
import hashlib
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import greybox as gb
from greybox.cli import main
from greybox.data import (
    EXAMPLE1,
    EXAMPLE2,
    SYSTEMS,
    _classify_header,
    get_system,
    simulate_system,
    steady_curve_of_system,
    write_table,
)


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


# (split, rows, [(sum, first, last) of the input column, then of the output])
RECORDED_SEED0 = {
    "example1": [
        ("zd", 100, [(-4.960044969887559, 0.13056454346897142, 0.1931896050944749),
                     (-5.404838812398572, 0.0011677104847284273, -0.04971187049657477)]),
        ("zt", 400, [(-6.717184313802117, 0.12050499762032461, -0.2049897012561054),
                     (-6.6554810145296965, 0.0013359696334434648, -0.030584335779908895)]),
        ("zs", 50, [(49.99999999999999, -1.0, 3.0),
                    (4.620905090010433, -4.998680873329496, 0.8797749788203629)]),
        ("zv", 2000, [(1999.8769340136523, -1.0474233380897797, 3.0155351789109917),
                      (130.38912710945556, 0.0, 0.8816421429891741)]),
    ],
    "example2": [
        ("zd", 1700, [(-0.34585236073019443, 0.10646520969316639, 0.0625543759518832),
                      (-0.5971238356716819, 0.0007359673632166128, -0.017349875192148357)]),
        ("zt", 300, [(-0.5621059968502353, 0.09935203660793127, -0.1288042114231385),
                     (-0.12956751531017519, 0.0008545704186529427, -0.04498106110646415)]),
        ("zs", 50, [(1.4210854715202004e-14, -20.0, 20.0),
                    (-0.7348288540728927, -1.0415772118922808, 1.036231695907702)]),
        ("zv", 2000, [(-1.2306598634750117, -20.474233380897797, 20.15535178910992),
                      (-3.5535206257247864, 0.0, 1.046196429047597)]),
    ],
}


# sha256 of each CSV that `greybox generate --seed 0` writes, recorded before
# the built-in systems became one record each
GENERATED_SHA256_SEED0 = {
    "example1": {
        "zd": "d09d12ed37ffdcda233ee5efd1d316e30bb809d515e1e7e16be319a69c64a3cf",
        "zt": "fef65e97024270ce63048ad6e9d164ce22b42b5e1da393d358ec657064f05c1c",
        "zs": "c0425b5fcb432af1a974c6bb32c84a9fc7a08d85e694a7cab0e4c62476272dad",
        "zv": "0b366027a55e58895691f5a3ad1fed2b67dabb39ffecc8876488d2ffe700eaa4",
    },
    "example2": {
        "zd": "86e9c8cde1058c564074522e19d408dac86c3f0654ca8bdc603c3a9be68a06a3",
        "zt": "b306f13c1f29027b0076e9cc98f873c336c57ec5025c595dd79b2ada44b0879a",
        "zs": "0a7b05e39757bb1dac55f4655b9f82cf3db4e1630e503e2aa0e2edbab02e98de",
        "zv": "bf5e9cfd5a3921a58afb432f0d734cd911b947bc6e1e73297e6100079b7ab761",
    },
}


class TestSimulators:
    def test_example1_matches_hand_recurrence(self):
        rng = np.random.default_rng(11)
        u = rng.uniform(-1.0, 3.0, 60)
        zd = simulate_system(EXAMPLE1, u)
        assert np.allclose(zd.output, manual_example1(u, 60), atol=1e-14)
        assert np.array_equal(zd.inputs[0], u)

    def test_example2_matches_hand_recurrence(self):
        rng = np.random.default_rng(12)
        u = rng.uniform(-5.0, 5.0, 60)
        zd = simulate_system(EXAMPLE2, u)
        assert np.allclose(zd.output, manual_example2(u, 60), atol=1e-14)

    def test_get_system_names(self):
        assert get_system("example1") is EXAMPLE1
        assert get_system("example2") is EXAMPLE2
        with pytest.raises(ValueError):
            get_system("example3")

    def test_simulation_divergence_reports_sample_index(self):
        # unstable regime from a huge initial state overflows within a few steps
        with np.errstate(over="ignore"), pytest.raises(gb.DivergenceError) as exc:
            simulate_system(
                EXAMPLE1, np.full(200, -2.0), init=[1e307, 1e307]
            )
        assert exc.value.index is not None
        assert 0 < exc.value.index < 200


class TestStaticCurves:
    def test_example1_closed_form_points(self):
        # y(0.25 + 0.2 u) = 0.25 u, solved by hand at three inputs
        zs = steady_curve_of_system(EXAMPLE1, [1.0, 3.0, -1.0])
        assert zs.y_bar[0] == pytest.approx(5.0 / 9.0, abs=1e-14)
        assert zs.y_bar[1] == pytest.approx(15.0 / 17.0, abs=1e-14)
        assert zs.y_bar[2] == pytest.approx(-5.0, abs=1e-12)

    def test_example1_singular_input_raises(self):
        with pytest.raises(gb.SingularityError):
            steady_curve_of_system(EXAMPLE1, [-1.25])

    def test_example2_defining_equation(self):
        zs = steady_curve_of_system(EXAMPLE2, np.linspace(-20, 20, 25))
        for u, y in zip(zs.u_bar[:, 0], zs.y_bar):
            z = (1.7826 - 0.8187) * y + (0.01867 + 0.01746) * u
            assert abs(y - math.atan(z)) < 1e-12

    def test_example2_matches_long_constant_simulation(self):
        # every table entry: each record's curve against its own step held
        # at a constant input; example1's levels stay clear of its pole at -1.25
        levels = {"example1": (-0.5, 1.0, 3.0), "example2": (-12.0, 0.5, 7.0)}
        assert set(levels) == set(SYSTEMS)
        for name, system in SYSTEMS.items():
            zs = steady_curve_of_system(system, levels[name])
            for u_bar, y_bar in zip(levels[name], zs.y_bar):
                sim = simulate_system(system, np.full(1500, u_bar))
                assert abs(sim.output[-1] - y_bar) < 1e-10, (name, u_bar)

    @given(st.floats(min_value=-1.0, max_value=3.0))
    def test_example1_curve_satisfies_recurrence_fixed_point(self, u_bar):
        zs = steady_curve_of_system(EXAMPLE1, [u_bar])
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


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda _: gb.DynDataset(inputs=(), output=np.zeros((2, 2))), ValueError,
         "output must be one-dimensional"),
        (lambda _: gb.DynDataset(inputs=(), output=np.zeros(0)), ValueError,
         "at least one sample"),
        (lambda _: gb.SteadyDataset(u_bar=np.zeros((1, 1, 1)), y_bar=[0.0]), ValueError,
         "u_bar must be 1-D or 2-D"),
        (lambda _: gb.SteadyDataset(u_bar=np.zeros((0, 1)), y_bar=[]), ValueError,
         "at least one pair"),
        (lambda _: gb.SteadyDataset(u_bar=[0.0, 1.0], y_bar=[0.0]), ValueError,
         "u_bar has 2 rows, y_bar has 1 entries"),
        (lambda _: gb.SteadyDataset(u_bar=np.zeros((1, 0)), y_bar=[0.0]), ValueError,
         "at least one input channel"),
        (lambda _: simulate_system(EXAMPLE1, [0.0, 0.0]), ValueError,
         "need more than 2 samples, got 2"),
        (lambda _: simulate_system(EXAMPLE1, np.zeros(5), init=[0.0]), ValueError,
         "init must supply 2 values, got 1"),
        (lambda _: steady_curve_of_system(EXAMPLE1, []), ValueError,
         "at least one level"),
        (lambda _: steady_curve_of_system(EXAMPLE1, [0.0, np.inf]), ValueError,
         "u_bar_grid must be finite"),
        (lambda d: write_table(d / "t.csv", ["a", "b"], [[1.0]]), ValueError,
         "2 header names for 1 columns"),
        (lambda d: gb.write_csv(d / "t.csv", [1.0, 2.0]), TypeError,
         "cannot serialize list"),
    ],
    ids=["dyn-2d-output", "dyn-empty", "steady-3d-u_bar", "steady-empty", "steady-row-count",
         "steady-no-channel", "simulate-short", "simulate-bad-init", "curve-empty",
         "curve-non-finite", "table-header", "csv-not-a-dataset"],
)
def test_data_refusals_name_the_problem(call, error, message, tmp_path):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)
    assert not (tmp_path / "t.csv").exists()


class TestGenerators:
    def test_example1_shapes(self, ex1_data):
        zd, zt, zs, zv = ex1_data
        assert zd.sample_count == 100
        assert zt.sample_count == 400
        assert zs.n_pairs == 50
        assert zv.sample_count == 2000
        assert zs.u_bar[0, 0] == -1.0 and zs.u_bar[-1, 0] == 3.0

    def test_input_variance_knob(self, ex1_data):
        # the fixed recipe's narrow excitation: mean -0.02, variance 0.04
        zd, zt, _, _ = ex1_data
        u = np.concatenate([zd.inputs[0], zt.inputs[0]])
        assert np.mean(u) == pytest.approx(-0.02, abs=0.03)
        assert np.std(u) == pytest.approx(0.2, rel=0.15)

    def test_example2_shapes(self, ex2_data):
        zd, zt, zs, zv = ex2_data
        assert zd.sample_count == 1700
        assert zt.sample_count == 300
        assert zs.n_pairs == 50
        assert zv.sample_count == 2000

    def test_same_seed_bit_identical(self, ex1_data):
        again = gb.make_datasets("example1", 0)
        for left, right in zip(ex1_data, again):
            if isinstance(left, gb.SteadyDataset):
                assert np.array_equal(left.u_bar, right.u_bar)
                assert np.array_equal(left.y_bar, right.y_bar)
            else:
                assert np.array_equal(left.output, right.output)
                assert np.array_equal(left.inputs[0], right.inputs[0])

    def test_different_seeds_differ(self, ex1_data):
        other = gb.make_datasets("example1", 1)
        assert not np.array_equal(ex1_data[0].output, other[0].output)

    @pytest.mark.parametrize("example", sorted(RECORDED_SEED0))
    def test_seed_zero_splits_match_recorded_values(self, example):
        # shapes and per-column (sum, first, last) of both seed-0 splits, as
        # generated before the two recipes were folded into one; sums get an
        # absolute tolerance for the near-zero sum of example2's zs levels
        splits = gb.make_datasets(example, 0)
        for ds, (name, n, columns) in zip(splits, RECORDED_SEED0[example]):
            if isinstance(ds, gb.SteadyDataset):
                assert name == "zs" and ds.u_bar.shape == (n, 1)
                got = [ds.u_bar[:, 0], ds.y_bar]
            else:
                assert name != "zs" and ds.n_inputs == 1
                got = [ds.inputs[0], ds.output]
            assert got[1].shape == (n,)
            for column, (total, first, last) in zip(got, columns):
                assert float(np.sum(column)) == pytest.approx(total, rel=1e-12, abs=1e-12), name
                assert (column[0], column[-1]) == pytest.approx((first, last), rel=1e-12, abs=0)

    @pytest.mark.parametrize("example", sorted(GENERATED_SHA256_SEED0))
    def test_generated_csvs_match_recorded_bytes(self, example, tmp_path):
        # every bit of every split, where its noise lands included
        argv = ["generate", "--example", example, "--seed", "0", "--out", str(tmp_path)]
        assert main(argv) == 0
        for name, digest in GENERATED_SHA256_SEED0[example].items():
            got = hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
            assert got == digest, name

    def test_splits_use_independent_noise_streams(self, ex1_data):
        zd, zt, _, _ = ex1_data
        assert not np.array_equal(zd.inputs[0], zt.inputs[0][: zd.sample_count])

    def test_validation_record_is_noise_free_staircase(self, ex2_data):
        _, _, _, zv = ex2_data
        # replaying the stored input through the simulator reproduces the output
        replay = simulate_system(EXAMPLE2, zv.inputs[0])
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
        path.write_text("u1 , y\n1.0,2.0\n")  # names are stripped, then matched exactly
        assert isinstance(gb.read_csv(path), gb.DynDataset)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("u1,y\n1.0,2.0\nx,3.0\n", "non-numeric cell 'x', row 3, column u1"),
            ("u1,z\n1.0,2.0\n", "unrecognized header"),
            ("u01,y\n1.0,2.0\n", "unrecognized header"),
            ("u\u0661,y\n1.0,2.0\n", "unrecognized header"),
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

    @pytest.mark.parametrize(
        "content, fragment",
        [
            (b"u1,y\n1.0,2.0\n\xff\xfe,3\n", "bad.csv: undecodable bytes"),
            (b"\xef\xbb\xbfu1,y\n1.0,2.0\n\xff\xfe,3\n", "bad.csv: undecodable bytes"),
            (b"u1,y\n1.0,2.0\n" + b"1" * 200_000 + b",3\n",
             "bad.csv: field larger than field limit (131072), row 3"),
            (b"u1," + b"y" * 200_000 + b"\n1.0,2.0\n",
             "bad.csv: field larger than field limit (131072), row 1"),
        ],
        ids=["not-utf8", "bom-then-not-utf8", "over-long-cell", "over-long-header"],
    )
    def test_unreadable_bytes_name_the_file(self, tmp_path, content, fragment):
        # csv and the text decoder raise their own errors, which read_csv
        # must turn into CsvFormatError; text written as UTF-8 never reaches them
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
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

    def test_every_cell_kind_has_one_rule(self, tmp_path):
        columns = {
            "none": [None, None],
            "str": ["x", "a,b"],
            "bool": [True, False],
            "np_bool": np.array([True, False]),
            "int": [3, -12],
            "float": [3.0, 0.1],
            "np_float64": np.array([math.nan, 1 / 3]),
        }
        path = tmp_path / "t.csv"
        write_table(path, list(columns), list(columns.values()))
        assert path.read_text().splitlines() == [
            "none,str,bool,np_bool,int,float,np_float64",
            ",x,true,true,3,3.0,nan",
            ',"a,b",false,false,-12,0.1,0.3333333333333333',
        ]


def reference_read_csv(path):
    """:func:`greybox.read_csv` as it read every cell one by one before it
    read the rows with numpy's C reader, kept to check that the two agree."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0]:
        raise gb.CsvFormatError(f"{path.name}: no header")
    header = [name.strip() for name in rows[0]]
    kind = _classify_header(header)
    if kind is None:
        raise gb.CsvFormatError(f"{path.name}: unrecognized header {','.join(header)!r}")
    width = len(header)
    data = np.empty((0, width))
    parsed = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != width:
            raise gb.CsvFormatError(
                f"{path.name}: expected {width} cells, found {len(row)}", row=line_no
            )
        values = []
        for name, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                raise gb.CsvFormatError(
                    f"{path.name}: non-numeric cell {cell!r}", row=line_no, column=name
                ) from None
            if not math.isfinite(value):
                raise gb.CsvFormatError(
                    f"{path.name}: non-finite cell {cell!r}", row=line_no, column=name
                )
            values.append(value)
        parsed.append(values)
    if parsed:
        data = np.array(parsed)
    if data.shape[0] < 1:
        raise gb.CsvFormatError(f"{path.name}: dataset has no rows")
    if kind == "dyn":
        return gb.DynDataset(
            inputs=tuple(data[:, i] for i in range(width - 1)), output=data[:, -1]
        )
    return gb.SteadyDataset(u_bar=data[:, : width - 1], y_bar=data[:, -1])


def dataset_arrays(ds):
    if isinstance(ds, gb.DynDataset):
        return [*ds.inputs, ds.output]
    return [ds.u_bar, ds.y_bar]


# cells as they appear in the file: numbers as write_csv writes them and
# other text that float() reads, then text it refuses or reads as non-finite;
# some cells are read by float() but refused by numpy's C reader (1_0, Arabic
# digits), and some hold characters one reader might take for a line break,
# a comment or whitespace and the other not (\x0c, #, a no-break space)
good_cells = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f'"{v!r}"'),
    st.sampled_from(
        ["1_0", " 1.5 ", '"2.5"', '" -3e-2"', "-0.0", "7", "+1.5", "1E+3", "\t2.5",
         "\xa01.5", "\u0661\u0662", "1.5\x0c"]
    ),
)
bad_cells = st.sampled_from(
    ["nan", "-nan", "inf", "-Infinity", "infinity", "1e400", "", '""', "x", '"1,5"',
     "0x10", "1__0", "1.5#2", "2\x0c3"]
)


@st.composite
def csv_files(draw):
    """Dataset CSV text, in some files after a byte-order mark: a dynamical
    or steady header, then rows of its width, blank and whitespace-only
    lines, ended by \\n, \\r\\n or a bare \\r; in some files, bad cells
    and ragged rows."""
    channels = draw(st.integers(1, 2))
    if draw(st.booleans()):
        header = [f"u{i + 1}" for i in range(channels)] + ["y"]
    else:
        header = [f"u{i + 1}_bar" for i in range(channels)] + ["y_bar"]
    cells = draw(st.sampled_from([good_cells, st.one_of(good_cells, bad_cells)]))
    widths = draw(st.sampled_from([st.just(len(header)), st.integers(1, len(header) + 1)]))
    line = widths.flatmap(lambda w: st.lists(cells, min_size=w, max_size=w).map(",".join))
    blank = st.sampled_from(["", "", " ", "\t", "  "])
    rows = draw(st.lists(st.one_of(line, blank), max_size=12))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + end.join([",".join(header), *rows]) + end * draw(st.integers(0, 2))


class TestOnePassCsv:
    @given(text=csv_files())
    @example(text="u1,y")
    @example(text="u1_bar,y_bar\r\n\r\n")
    @example(text="y\r")
    @example(text="u1,y\n1_0,\u0661\u0662\n")
    @example(text="u1,y\n1,1.5#2\n")
    @example(text="\ufeffu1,y\n1_0,2\n")
    def test_same_arrays_or_same_error_as_the_cell_loop(self, text):
        with tempfile.TemporaryDirectory() as workdir:
            path = os.path.join(workdir, "d.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            try:
                want = reference_read_csv(path)
            except gb.CsvFormatError as exc:
                with pytest.raises(gb.CsvFormatError) as got:
                    gb.read_csv(path)
                assert str(got.value) == str(exc)
                return
            got = gb.read_csv(path)
        assert type(got) is type(want)
        for a, b in zip(dataset_arrays(got), dataset_arrays(want), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

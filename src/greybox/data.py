"""Dataset containers, the built-in benchmark systems, and CSV round-tripping.

Each built-in system is one :class:`SimSystem` record in :data:`SYSTEMS`:
its step, its exact static curve and the constants of its dataset recipe.
``example1`` is a bilinear second-order difference equation with a
closed-form static curve, and ``example2`` an arctan-saturated oscillator
whose static curve is solved by bisection.  :func:`make_datasets` turns
either into a noisy identification record, a test record, noisy
steady-state pairs and a long noise-free validation record, so the
estimation stack can run end to end without external data.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, CsvFormatError, DivergenceError, SingularityError


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class DynDataset:
    """Sampled dynamical record: one or more input channels plus an output.

    All channels share the same length and hold finite values.  Inputs are a
    tuple of 1-D arrays so multi-input systems and the single-input
    benchmarks use the same container.
    """

    inputs: tuple[np.ndarray, ...]
    output: np.ndarray

    def __post_init__(self):
        channels = tuple(
            _as_float_vector(u, f"input channel {i + 1}") for i, u in enumerate(self.inputs)
        )
        output = _as_float_vector(self.output, "output")
        if output.size < 1:
            raise ValueError("dataset must contain at least one sample")
        for i, u in enumerate(channels):
            if u.size != output.size:
                raise ValueError(
                    f"input channel {i + 1} has {u.size} samples, output has {output.size}"
                )
        if not all(np.all(np.isfinite(c)) for c in (*channels, output)):
            raise ValueError("dynamical record must be finite")
        object.__setattr__(self, "inputs", channels)
        object.__setattr__(self, "output", output)

    @property
    def sample_count(self) -> int:
        return self.output.size

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class SteadyDataset:
    """Steady-state operating points: (u_bar, y_bar) pairs.

    ``u_bar`` has one row per pair and one column per input channel; all
    values must be finite.
    """

    u_bar: np.ndarray
    y_bar: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u_bar, dtype=float)
        if u.ndim == 1:
            u = u.reshape(-1, 1)
        if u.ndim != 2:
            raise ValueError(f"u_bar must be 1-D or 2-D, got shape {u.shape}")
        y = _as_float_vector(self.y_bar, "y_bar")
        if y.size < 1:
            raise ValueError("steady-state dataset must contain at least one pair")
        if u.shape[0] != y.size:
            raise ValueError(f"u_bar has {u.shape[0]} rows, y_bar has {y.size} entries")
        if u.shape[1] < 1:
            raise ValueError("steady-state dataset needs at least one input channel")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
            raise ValueError("steady-state pairs must be finite")
        object.__setattr__(self, "u_bar", u)
        object.__setattr__(self, "y_bar", y)

    @property
    def n_pairs(self) -> int:
        return self.y_bar.size

    @property
    def n_inputs(self) -> int:
        return self.u_bar.shape[1]


@dataclass(frozen=True)
class SimSystem:
    """A built-in benchmark system and the constants of its dataset recipe.

    ``step(w1, w2, u1, u2)`` is the next trajectory value from w(k-1),
    w(k-2), u(k-1) and u(k-2); ``curve`` maps a finite 1-D array of
    constant input levels to the exact steady-state outputs.
    """

    id: str
    step: Callable[[float, float, float, float], float]
    curve: Callable[[np.ndarray], np.ndarray]
    n_d: int  # Z_d samples
    n_t: int  # Z_t samples
    input_mean: float  # of the white Gaussian input driving Z_d and Z_t
    input_std: float
    zs_range: tuple[float, float]  # Z_s levels and the Z_v staircase span this
    zs_noise: float  # Z_s noise std; with zs_noise_relative, times the clean y_bar's std
    zs_noise_relative: bool
    zv_dither_std: float

    max_lag = 2


def _example1_step(w1, w2, u1, u2):
    return 0.75 * w2 + 0.25 * u1 - 0.2 * w2 * u1


def _example1_curve(grid):
    # y = 0.75 y + 0.25 u - 0.2 y u, singular where 0.25 + 0.2 u vanishes
    den = (1.0 - 0.75) + 0.2 * grid
    near = np.abs(den) < 1e-12
    if np.any(near):
        bad = float(grid[np.argmax(near)])
        raise SingularityError(f"static curve singular at u_bar = {bad}")
    return 0.25 * grid / den


def _example2_step(w1, w2, u1, u2):
    return math.atan(1.7826 * w1 - 0.8187 * w2 + 0.01867 * u1 + 0.01746 * u2)


def _example2_curve(grid):
    a = 1.7826 - 0.8187
    b = 0.01867 + 0.01746
    # g(v) = atan(a*v + b*u) - v falls strictly because a < 1, and
    # |atan| < pi/2 puts its root inside (-2, 2); 64 halvings shrink
    # that bracket to 4 / 2**64 ~ 2e-19.  A fixed count, because halving
    # until the midpoint stalls takes ~1000 steps at a root of 0.
    lo = np.full(grid.size, -2.0)
    hi = np.full(grid.size, 2.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        right = np.arctan(a * mid + b * grid) > mid
        lo = np.where(right, mid, lo)
        hi = np.where(right, hi, mid)
    return 0.5 * (lo + hi)


EXAMPLE1 = SimSystem(
    id="example1",
    step=_example1_step,
    curve=_example1_curve,
    n_d=100,
    n_t=400,
    input_mean=-0.02,
    input_std=0.2,
    zs_range=(-1.0, 3.0),
    zs_noise=0.02,
    zs_noise_relative=False,
    zv_dither_std=0.02,
)
EXAMPLE2 = SimSystem(
    id="example2",
    step=_example2_step,
    curve=_example2_curve,
    n_d=1700,
    n_t=300,
    input_mean=0.0,
    input_std=math.sqrt(0.02),
    zs_range=(-20.0, 20.0),
    zs_noise=0.1,
    zs_noise_relative=True,
    zv_dither_std=0.2,
)
SYSTEMS = {s.id: s for s in (EXAMPLE1, EXAMPLE2)}


def get_system(system_id: str) -> SimSystem:
    try:
        return SYSTEMS[system_id]
    except KeyError:
        raise ValueError(
            f"unknown system id {system_id!r}, expected one of {sorted(SYSTEMS)}"
        ) from None


def simulate_system(
    system: SimSystem, inputs: Sequence[float], init: Sequence[float] | None = None
) -> DynDataset:
    """Noise-free trajectory of a benchmark system driven by ``inputs``.

    ``init`` supplies the first ``max_lag`` trajectory values (defaults to
    zeros).  Raises DivergenceError, naming the sample index, if the
    trajectory leaves the finite range.
    """
    u = _as_float_vector(inputs, "inputs")
    n = u.size
    if n <= SimSystem.max_lag:
        raise ValueError(f"need more than {SimSystem.max_lag} samples, got {n}")
    w = np.zeros(n)
    if init is not None:
        head = _as_float_vector(init, "init")
        if head.size != SimSystem.max_lag:
            raise ValueError(f"init must supply {SimSystem.max_lag} values, got {head.size}")
        w[: SimSystem.max_lag] = head
    step = system.step
    for k in range(SimSystem.max_lag, n):
        value = step(w[k - 1], w[k - 2], u[k - 1], u[k - 2])
        if not math.isfinite(value):
            raise DivergenceError(f"trajectory diverged at sample {k}", index=k)
        w[k] = value
    return DynDataset(inputs=(u,), output=w)


def steady_curve_of_system(system: SimSystem, u_bar_grid: Sequence[float]) -> SteadyDataset:
    """Noise-free steady-state output for each constant input level.

    example1's closed form is singular at u_bar = -1.25, where it raises
    SingularityError; example2's root is bracketed to within 2e-19.
    """
    grid = _as_float_vector(u_bar_grid, "u_bar_grid")
    if grid.size < 1:
        raise ValueError("u_bar_grid must contain at least one level")
    if not np.all(np.isfinite(grid)):
        raise ValueError("u_bar_grid must be finite")
    return SteadyDataset(u_bar=grid.reshape(-1, 1), y_bar=system.curve(grid))


def _child_seeds(seed: int, n: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)
    return [int(s) for s in state]


def _staircase(levels: np.ndarray, total: int) -> np.ndarray:
    reps = -(-total // levels.size)  # ceil division
    return np.repeat(levels, reps)[:total]


def _noisy(clean: np.ndarray, std: float, seed: int) -> np.ndarray:
    return clean + std * np.random.default_rng(seed).standard_normal(clean.size)


def make_datasets(
    example: str, seed: int
) -> tuple[DynDataset, DynDataset, SteadyDataset, DynDataset]:
    """Benchmark datasets (Z_d, Z_t, Z_s, Z_v) of the built-in system ``example``.

    The recipe is shared; the constants named here are the fields of the
    system's :class:`SimSystem` record.  Z_d (``n_d`` samples) and Z_t
    (``n_t``) are driven by white Gaussian input of ``input_mean`` and
    ``input_std``, which excites a narrow sliver of the operating range,
    and their outputs carry white noise at one tenth of the clean
    trajectory's standard deviation.  Z_s holds 50 equally spaced levels
    across ``zs_range`` with white noise of standard deviation ``zs_noise``,
    or ``zs_noise`` times the clean y_bar's when ``zs_noise_relative``.
    Z_v is a 2000-sample noise-free record driven by a 20-level staircase
    across ``zs_range`` plus white dither of ``zv_dither_std``.  All
    randomness derives from ``seed``, so a repeated call is bit-identical.
    """
    system = get_system(example)
    cs = _child_seeds(seed, 6)

    def noisy_record(n, input_seed, noise_seed):
        rng = np.random.default_rng(input_seed)
        u = system.input_mean + system.input_std * rng.standard_normal(n)
        w = simulate_system(system, u).output
        return DynDataset(inputs=(u,), output=_noisy(w, 0.1 * float(np.std(w)), noise_seed))

    zd = noisy_record(system.n_d, cs[0], cs[1])
    zt = noisy_record(system.n_t, cs[2], cs[3])
    lo, hi = system.zs_range
    clean = steady_curve_of_system(system, np.linspace(lo, hi, 50))
    std = system.zs_noise
    if system.zs_noise_relative:
        std *= float(np.std(clean.y_bar))
    zs = SteadyDataset(u_bar=clean.u_bar, y_bar=_noisy(clean.y_bar, std, cs[4]))
    dither = system.zv_dither_std * np.random.default_rng(cs[5]).standard_normal(2000)
    zv = simulate_system(system, _staircase(np.linspace(lo, hi, 20), 2000) + dither)
    return zd, zt, zs, zv


# ---------------------------------------------------------------------------
# CSV serialization
#
# Dynamical records:   u1,...,um,y         (m may be zero)
# Steady-state pairs:  u1_bar,...,um_bar,y_bar
# Floats are written with repr(), the shortest digit string that round-trips,
# so write/read is an exact identity on values.

def _cell(value) -> str:
    """The one rule for a CSV cell.  A float (numpy float64 included) is the
    repr of its float, and is tested first since most cells are floats; None
    is empty, a string itself, a bool (numpy's too) ``true``/``false`` and a
    Python int its digits.  Anything else is taken as a float."""
    if isinstance(value, float):
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def write_table(path, header: Sequence[str], columns: Sequence[Iterable]) -> None:
    """Write named columns as RFC-4180-style CSV (shared report writer),
    every cell by :func:`_cell`."""
    cols = [list(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError(f"{len(header)} header names for {len(cols)} columns")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*cols):
            writer.writerow([_cell(cell) for cell in row])


def write_json(path, doc) -> None:
    """Write ``doc`` as indented JSON with sorted keys and a final newline,
    encoded whole and written at once: ``json.dump`` would stream it through
    many small writes."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path):
    """The document in a JSON file.  Raises ConfigError naming the file for
    text that is not strict JSON, also for the ``NaN``, ``Infinity`` and
    ``-Infinity`` that Python's ``json`` reads by default."""
    with open(path) as fh:
        try:
            return json.load(fh, parse_constant=_refuse_constant)
        except ValueError as exc:  # also undecodable bytes and over-long integers
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc


def write_csv(path, dataset: DynDataset | SteadyDataset) -> None:
    """Serialize a dataset; the header encodes which kind it is."""
    if isinstance(dataset, DynDataset):
        header = [f"u{i + 1}" for i in range(dataset.n_inputs)] + ["y"]
        columns = list(dataset.inputs) + [dataset.output]
    elif isinstance(dataset, SteadyDataset):
        header = [f"u{i + 1}_bar" for i in range(dataset.n_inputs)] + ["y_bar"]
        columns = [dataset.u_bar[:, i] for i in range(dataset.n_inputs)] + [dataset.y_bar]
    else:
        raise TypeError(f"cannot serialize {type(dataset).__name__}")
    write_table(path, header, columns)


def _classify_header(header: list[str]):
    """The kind of record a header names, "dyn" or "steady", or None when
    :func:`write_csv` writes no such header; names must match exactly."""
    inputs = [f"u{i + 1}" for i in range(len(header) - 1)]
    if header == [*inputs, "y"]:
        return "dyn"
    if len(header) >= 2 and header == [f"{name}_bar" for name in inputs] + ["y_bar"]:
        return "steady"
    return None


def _read_cells(fh, header: list[str], file_name: str) -> np.ndarray:
    """The rows after the header of the CSV ``fh``, every cell read by
    ``float`` one by one, as a (rows, width) array.  Raises CsvFormatError
    naming the first ragged row, non-numeric or non-finite cell, or row
    that ``csv`` cannot split (such as a cell beyond its field limit)."""
    width = len(header)
    values = []
    reader = csv.reader(fh)
    next(reader)
    line_no = 1
    try:
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue  # blank line
            if len(row) != width:
                raise CsvFormatError(
                    f"{file_name}: expected {width} cells, found {len(row)}", row=line_no
                )
            for name, cell in zip(header, row):
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"{file_name}: non-numeric cell {cell!r}", row=line_no, column=name
                    ) from None
                if not math.isfinite(value):
                    raise CsvFormatError(
                        f"{file_name}: non-finite cell {cell!r}", row=line_no, column=name
                    )
                values.append(value)
    except csv.Error as exc:  # raised while reading the row after the last one read
        raise CsvFormatError(f"{file_name}: {exc}", row=line_no + 1) from None
    return np.array(values).reshape(-1, width)


def read_csv(path) -> DynDataset | SteadyDataset:
    """Parse a dataset CSV written by :func:`write_csv`, UTF-8 with or
    without a leading byte-order mark.

    Raises CsvFormatError for bytes that do not decode, a missing header, an
    unrecognized header, a ragged row, a non-numeric or non-finite cell, or
    a cell beyond ``csv``'s field limit, naming its location where known.
    Blank lines are skipped and each cell is read as ``float`` reads it.
    The header is read by ``csv``, the rows by numpy's C reader; when that
    reader refuses the rows, or returns another width or a non-finite value,
    the cells are read again one by one, which either names the first bad
    one or builds the array itself (``float`` also reads ``1_0`` and
    non-ASCII digits, which the C reader refuses).
    """
    path = Path(path)
    try:
        # utf-8-sig also reads the byte-order mark that spreadsheets write
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            if not header:
                raise CsvFormatError(f"{path.name}: no header")
            header = [name.strip() for name in header]
            kind = _classify_header(header)
            if kind is None:
                raise CsvFormatError(f"{path.name}: unrecognized header {','.join(header)!r}")
            width = len(header)
            try:
                with warnings.catch_warnings():
                    # a file without rows is reported below, not as loadtxt's warning
                    warnings.simplefilter("ignore", UserWarning)
                    data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
            except ValueError:  # UnicodeDecodeError too, which the cells raise again
                data = None
            if data is None or data.shape[1] != width or not np.isfinite(data).all():
                fh.seek(0)
                data = _read_cells(fh, header, path.name)
    except UnicodeDecodeError as exc:  # decoded a block at a time, so no row is known
        raise CsvFormatError(
            f"{path.name}: undecodable bytes ({exc.encoding}: {exc.reason})"
        ) from None
    except csv.Error as exc:  # only the header's; _read_cells names a later row
        raise CsvFormatError(f"{path.name}: {exc}", row=1) from None
    if data.shape[0] < 1:
        raise CsvFormatError(f"{path.name}: dataset has no rows")
    if kind == "dyn":
        return DynDataset(
            inputs=tuple(data[:, i] for i in range(width - 1)), output=data[:, -1]
        )
    return SteadyDataset(u_bar=data[:, : width - 1], y_bar=data[:, -1])

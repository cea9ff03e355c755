"""Dataset containers, benchmark simulators, and CSV round-tripping.

Two discrete-time benchmark systems are built in: ``example1``, a bilinear
second-order difference equation with a closed-form static curve, and
``example2``, an arctan-saturated oscillator whose static curve is solved
numerically.  Both come with dataset recipes producing a noisy identification
record, a test record, noisy steady-state pairs, and a long noise-free
validation record, so the estimation stack can run end to end without
external data.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import CsvFormatError, DivergenceError, SingularityError

SCALE_MODES = ("std-dev", "variance", "fraction-of-signal-std")

# example1 difference equation coefficients:
#   w(k) = A*w(k-2) + B*u(k-1) + C*w(k-2)*u(k-1)
_EX1_A = 0.75
_EX1_B = 0.25
_EX1_C = -0.2

# example2 difference equation coefficients:
#   w(k) = atan(A1*w(k-1) + A2*w(k-2) + B1*u(k-1) + B2*u(k-2))
_EX2_A1 = 1.7826
_EX2_A2 = -0.8187
_EX2_B1 = 0.01867
_EX2_B2 = 0.01746


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
class NoiseSpec:
    """White Gaussian noise description.

    ``scale`` is interpreted according to ``scale_mode``: a standard
    deviation, a variance, or a fraction of the standard deviation of the
    signal the noise is added to.  ``scale = 0`` yields a constant ``mean``
    sequence, so noise-free variants need no special casing.
    """

    mean: float = 0.0
    scale: float = 0.0
    scale_mode: str = "std-dev"
    seed: int = 0

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError(f"noise scale must be nonnegative, got {self.scale}")
        if self.scale_mode not in SCALE_MODES:
            raise ValueError(
                f"unknown scale_mode {self.scale_mode!r}, expected one of {SCALE_MODES}"
            )

    def realize(self, n: int, signal: np.ndarray | None = None) -> np.ndarray:
        """Draw ``n`` samples. ``signal`` is required for the fractional mode."""
        if self.scale_mode == "std-dev":
            std = self.scale
        elif self.scale_mode == "variance":
            std = math.sqrt(self.scale)
        else:
            if signal is None:
                raise ValueError("fraction-of-signal-std noise needs the reference signal")
            std = self.scale * float(np.std(np.asarray(signal, dtype=float)))
        rng = np.random.default_rng(self.seed)
        return self.mean + std * rng.standard_normal(n)


_ZERO_NOISE = NoiseSpec()


@dataclass(frozen=True)
class SimSystem:
    """One of the built-in benchmark difference equations."""

    id: str

    max_lag = 2

    def step(self, w1: float, w2: float, u1: float, u2: float) -> float:
        """Next trajectory value from lagged states w(k-1), w(k-2), u(k-1), u(k-2)."""
        if self.id == "example1":
            return _EX1_A * w2 + _EX1_B * u1 + _EX1_C * w2 * u1
        return math.atan(_EX2_A1 * w1 + _EX2_A2 * w2 + _EX2_B1 * u1 + _EX2_B2 * u2)


EXAMPLE1 = SimSystem("example1")
EXAMPLE2 = SimSystem("example2")
_SYSTEMS = {"example1": EXAMPLE1, "example2": EXAMPLE2}


def get_system(system_id: str) -> SimSystem:
    try:
        return _SYSTEMS[system_id]
    except KeyError:
        raise ValueError(
            f"unknown system id {system_id!r}, expected one of {sorted(_SYSTEMS)}"
        ) from None


def simulate_system(
    system: SimSystem,
    inputs: Sequence[float],
    noise: NoiseSpec | None = None,
    init: Sequence[float] | None = None,
) -> DynDataset:
    """Simulate a benchmark system driven by ``inputs``.

    ``init`` supplies the first ``max_lag`` trajectory values (defaults to
    zeros).  Output noise is added to the clean trajectory after simulation;
    fractional noise scales use the clean trajectory's standard deviation.

    Raises DivergenceError, naming the sample index, if the trajectory
    leaves the finite range.
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
    for k in range(SimSystem.max_lag, n):
        value = system.step(w[k - 1], w[k - 2], u[k - 1], u[k - 2])
        if not math.isfinite(value):
            raise DivergenceError(f"trajectory diverged at sample {k}", index=k)
        w[k] = value
    noise = noise or _ZERO_NOISE
    e = noise.realize(n, signal=w)
    return DynDataset(inputs=(u,), output=w + e)


def steady_curve_of_system(
    system: SimSystem,
    u_bar_grid: Sequence[float],
    noise: NoiseSpec | None = None,
) -> SteadyDataset:
    """Steady-state output for each constant input level in ``u_bar_grid``.

    example1 has the closed form y_bar = B*u_bar / (1 - A - C*u_bar), which
    is singular where the denominator vanishes (u_bar = -1.25 with the
    built-in coefficients); hitting that level raises SingularityError.
    example2's curve is the unique root of y = atan((A1+A2)*y + (B1+B2)*u),
    found by vectorized bisection to within 2e-19.
    """
    grid = _as_float_vector(u_bar_grid, "u_bar_grid")
    if grid.size < 1:
        raise ValueError("u_bar_grid must contain at least one level")
    if not np.all(np.isfinite(grid)):
        raise ValueError("u_bar_grid must be finite")
    if system.id == "example1":
        den = (1.0 - _EX1_A) - _EX1_C * grid
        near = np.abs(den) < 1e-12
        if np.any(near):
            bad = float(grid[np.argmax(near)])
            raise SingularityError(f"static curve singular at u_bar = {bad}")
        y = _EX1_B * grid / den
    else:
        a = _EX2_A1 + _EX2_A2
        b = _EX2_B1 + _EX2_B2
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
        y = 0.5 * (lo + hi)
    noise = noise or _ZERO_NOISE
    e = noise.realize(grid.size, signal=y)
    return SteadyDataset(u_bar=grid.reshape(-1, 1), y_bar=y + e)


def _child_seeds(seed: int, n: int) -> list[int]:
    state = np.random.SeedSequence(seed).generate_state(n, dtype=np.uint64)
    return [int(s) for s in state]


def _staircase(levels: np.ndarray, total: int) -> np.ndarray:
    reps = -(-total // levels.size)  # ceil division
    return np.repeat(levels, reps)[:total]


def make_example1_datasets(
    seed: int,
    *,
    n_d: int = 100,
    n_t: int = 400,
    n_s: int = 50,
    n_v: int = 2000,
    zs_range: tuple[float, float] = (-1.0, 3.0),
    zs_noise_std: float = 0.02,
    input_mean: float = -0.02,
    input_variance: float = 0.04,
    output_noise_fraction: float = 0.1,
    zv_segments: int = 20,
    zv_dither_std: float = 0.02,
) -> tuple[DynDataset, DynDataset, SteadyDataset, DynDataset]:
    """Benchmark datasets (Z_d, Z_t, Z_s, Z_v) for example1.

    Z_d and Z_t are driven by white Gaussian input with mean ``input_mean``
    and variance ``input_variance``; their outputs carry white noise at one
    tenth of the clean trajectory's spread.  Z_s holds ``n_s`` equally spaced
    static levels across ``zs_range`` with additive noise of standard
    deviation ``zs_noise_std``.  Z_v is a long noise-free record driven by a
    dithered staircase sweeping the same operating range, used for free-run
    checks.  All randomness derives from ``seed``, so a repeated call is
    bit-identical.
    """
    cs = _child_seeds(seed, 6)
    input_std = math.sqrt(input_variance)
    rng_d = np.random.default_rng(cs[0])
    u_d = input_mean + input_std * rng_d.standard_normal(n_d)
    zd = simulate_system(
        EXAMPLE1,
        u_d,
        NoiseSpec(scale=output_noise_fraction, scale_mode="fraction-of-signal-std", seed=cs[1]),
    )
    rng_t = np.random.default_rng(cs[2])
    u_t = input_mean + input_std * rng_t.standard_normal(n_t)
    zt = simulate_system(
        EXAMPLE1,
        u_t,
        NoiseSpec(scale=output_noise_fraction, scale_mode="fraction-of-signal-std", seed=cs[3]),
    )
    grid = np.linspace(zs_range[0], zs_range[1], n_s)
    zs = steady_curve_of_system(EXAMPLE1, grid, NoiseSpec(scale=zs_noise_std, seed=cs[4]))
    rng_v = np.random.default_rng(cs[5])
    levels = np.linspace(zs_range[0], zs_range[1], zv_segments)
    u_v = _staircase(levels, n_v) + zv_dither_std * rng_v.standard_normal(n_v)
    zv = simulate_system(EXAMPLE1, u_v)
    return zd, zt, zs, zv


def make_example2_datasets(
    seed: int,
    *,
    n_d: int = 1700,
    n_t: int = 300,
    n_s: int = 50,
    n_v: int = 2000,
    zs_range: tuple[float, float] = (-20.0, 20.0),
    input_variance: float = 0.02,
    output_noise_fraction: float = 0.1,
    zs_noise_fraction: float = 0.1,
    zv_segments: int = 20,
    zv_dither_std: float = 0.2,
) -> tuple[DynDataset, DynDataset, SteadyDataset, DynDataset]:
    """Benchmark datasets (Z_d, Z_t, Z_s, Z_v) for example2.

    The dynamical records use zero-mean white Gaussian input with variance
    ``input_variance``, which only excites a narrow sliver of the operating
    range; Z_s spans the full ``zs_range`` so the static pairs carry
    genuinely new information.  Static noise is a fraction of the spread of
    the clean curve values.  Z_v is a noise-free dithered staircase across
    ``zs_range``.
    """
    cs = _child_seeds(seed, 6)
    input_std = math.sqrt(input_variance)
    rng_d = np.random.default_rng(cs[0])
    u_d = input_std * rng_d.standard_normal(n_d)
    zd = simulate_system(
        EXAMPLE2,
        u_d,
        NoiseSpec(scale=output_noise_fraction, scale_mode="fraction-of-signal-std", seed=cs[1]),
    )
    rng_t = np.random.default_rng(cs[2])
    u_t = input_std * rng_t.standard_normal(n_t)
    zt = simulate_system(
        EXAMPLE2,
        u_t,
        NoiseSpec(scale=output_noise_fraction, scale_mode="fraction-of-signal-std", seed=cs[3]),
    )
    grid = np.linspace(zs_range[0], zs_range[1], n_s)
    zs = steady_curve_of_system(
        EXAMPLE2,
        grid,
        NoiseSpec(scale=zs_noise_fraction, scale_mode="fraction-of-signal-std", seed=cs[4]),
    )
    rng_v = np.random.default_rng(cs[5])
    levels = np.linspace(zs_range[0], zs_range[1], zv_segments)
    u_v = _staircase(levels, n_v) + zv_dither_std * rng_v.standard_normal(n_v)
    zv = simulate_system(EXAMPLE2, u_v)
    return zd, zt, zs, zv


# ---------------------------------------------------------------------------
# CSV serialization
#
# Dynamical records:   u1,...,um,y         (m may be zero)
# Steady-state pairs:  u1_bar,...,um_bar,y_bar
# Floats are written with repr(), the shortest digit string that round-trips,
# so write/read is an exact identity on values.

_STEADY_COL = re.compile(r"^u(\d+)_bar$")
_DYN_COL = re.compile(r"^u(\d+)$")


def _fmt(value) -> str:
    return repr(float(value))


def write_table(path, header: Sequence[str], columns: Sequence[Iterable]) -> None:
    """Write named columns as RFC-4180-style CSV (shared report writer)."""
    cols = [list(c) for c in columns]
    if len(cols) != len(header):
        raise ValueError(f"{len(header)} header names for {len(cols)} columns")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*cols):
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])


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
    if header[-1] == "y" and all(
        _DYN_COL.fullmatch(name) and int(_DYN_COL.fullmatch(name).group(1)) == i + 1
        for i, name in enumerate(header[:-1])
    ):
        return "dyn"
    if (
        header[-1] == "y_bar"
        and len(header) >= 2
        and all(
            _STEADY_COL.fullmatch(name) and int(_STEADY_COL.fullmatch(name).group(1)) == i + 1
            for i, name in enumerate(header[:-1])
        )
    ):
        return "steady"
    return None


def read_csv(path) -> DynDataset | SteadyDataset:
    """Parse a dataset CSV written by :func:`write_csv`.

    Raises CsvFormatError for a missing header, an unrecognized header, a
    ragged row, or a non-numeric or non-finite cell, naming its location.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0]:
        raise CsvFormatError(f"{path.name}: no header")
    header = [name.strip() for name in rows[0]]
    kind = _classify_header(header)
    if kind is None:
        raise CsvFormatError(f"{path.name}: unrecognized header {','.join(header)!r}")
    width = len(header)
    data = np.empty((0, width))
    parsed: list[list[float]] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue  # trailing blank line
        if len(row) != width:
            raise CsvFormatError(
                f"{path.name}: expected {width} cells, found {len(row)}", row=line_no
            )
        values = []
        for name, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"{path.name}: non-numeric cell {cell!r}", row=line_no, column=name
                ) from None
            if not math.isfinite(value):
                raise CsvFormatError(
                    f"{path.name}: non-finite cell {cell!r}", row=line_no, column=name
                )
            values.append(value)
        parsed.append(values)
    if parsed:
        data = np.array(parsed)
    if kind == "dyn":
        if data.shape[0] < 1:
            raise CsvFormatError(f"{path.name}: dataset has no rows")
        return DynDataset(
            inputs=tuple(data[:, i] for i in range(width - 1)), output=data[:, -1]
        )
    if data.shape[0] < 1:
        raise CsvFormatError(f"{path.name}: dataset has no rows")
    return SteadyDataset(u_bar=data[:, : width - 1], y_bar=data[:, -1])

"""Host-speed reference: a fixed kernel timed between sessions.

The shared host this benchmark was written on switches between speed
regimes that last from under a second to minutes, and a session's wall time
moves with them by up to 1.8x.  The kernel below is a frozen copy of the
loops greybox spends its time in (polynomial and tanh-MLP one-step
predictors driven sample by sample, CSV parsing, and the column-wise model
and Jacobian products of a Levenberg-Marquardt step), so it slows down with
the host much as a session does, but never with a change to greybox itself.
Timing it right before and after each session and scaling the session's
wall time by ``(NOMINAL_S / reference time) ** SENSITIVITY`` gives the
session's duration at one fixed host speed.
"""

from __future__ import annotations

import csv
import io
import statistics
import time

import numpy as np

NOMINAL_S = 0.005  # reference unit time that defines the nominal host speed
# Sessions slow down less than the reference: over 20 runs per workload,
# with the reference at 0.6-1.3 times its nominal speed, log(session wall
# time) against log(reference time) had slopes 0.88 (ex1_wls), 0.73 (ex2_lm)
# and 0.77 (ex2_ga).
SENSITIVITY = 0.8

_TERMS = ((2,), (3,), (2, 3), (1, 3), (1, 4))
_POLY = np.array([0.74, 0.26, -0.19, 0.01, -0.01])
_MLP = np.array([0.0, 1.2, 0.01, 0.8, -0.3, 0.05, 0.04])  # b0, w_out, b_h, w_h
_GATHER = ((1, -1, 1), (2, -1, 2), (3, 0, 1), (4, 0, 2))  # (slot, channel, lag)
_U = 0.2 * np.random.default_rng(5).standard_normal(400)
_CSV = "u1,y\n" + "".join(f"{u!r},{0.5 * u!r}\n" for u in _U.tolist())
_ROWS = np.column_stack([np.ones(1700), np.resize(_U, (4, 1700)).T])


def _poly_step(psi) -> float:
    acc = 0.0
    for weight, term in zip(_POLY, _TERMS):
        p = weight
        for i in term:
            p *= psi[i]
        acc += p
    return float(acc)


def _mlp_step(psi) -> float:
    blocks = _MLP[2:].reshape(1, 5)
    b0, w_out, b_h, w_h = _MLP[0], _MLP[1:2], blocks[:, 0], blocks[:, 1:]
    return float(b0 + w_out @ np.tanh(w_h @ psi[1:] + b_h))


def _free_run(step) -> None:
    y = np.zeros(_U.size)
    psi = np.empty(5)
    psi[0] = 1.0
    for k in range(2, _U.size):
        for pos, ch, lag in _GATHER:
            psi[pos] = y[k - lag] if ch < 0 else _U[k - lag]
        y[k] = step(psi)


def _parse() -> None:
    rows = list(csv.reader(io.StringIO(_CSV)))
    np.array([[float(cell) for cell in row] for row in rows[1:]])


def _lm_block() -> None:
    for _ in range(5):
        t = np.tanh(_ROWS[:, 1:] @ _MLP[3:] + _MLP[2])
        jac = np.column_stack([np.ones_like(t), t, 1.0 - t**2, _ROWS[:, 1:] * (1.0 - t**2)[:, None]])
        np.linalg.solve(jac.T @ jac + 1e-3 * np.eye(jac.shape[1]), jac.T @ t)


def unit() -> float:
    """Wall time of one pass over the reference kernel."""
    t0 = time.perf_counter()
    _free_run(_poly_step)
    _free_run(_mlp_step)
    _parse()
    _lm_block()
    return time.perf_counter() - t0


def block(budget_s: float) -> list[float]:
    """Unit times for at least ``budget_s`` seconds (at least one unit)."""
    times = []
    t0 = time.perf_counter()
    while not times or time.perf_counter() - t0 < budget_s:
        times.append(unit())
    return times


class Clock:
    """Wall times scaled to the nominal host speed.

    Reference units run before the first item and after every item; an
    item's scale factor comes from the units timed on both sides of it.
    """

    SHARE = 0.1  # reference time spent per second of measured time

    def __init__(self):
        self.walls: list[float] = []
        self.blocks: list[list[float]] = [block(0.0)]

    def record(self, wall_s: float) -> int:
        """Note one item's wall time; returns its index."""
        self.walls.append(wall_s)
        self.blocks.append(block(self.SHARE * wall_s))
        return len(self.walls) - 1

    def factor(self, i: int) -> float:
        unit = statistics.median(self.blocks[i] + self.blocks[i + 1])
        return (NOMINAL_S / unit) ** SENSITIVITY

    def scaled(self, i: int) -> float:
        return self.walls[i] * self.factor(i)

    def run_factor(self) -> float:
        unit = statistics.median(t for b in self.blocks for t in b)
        return (NOMINAL_S / unit) ** SENSITIVITY

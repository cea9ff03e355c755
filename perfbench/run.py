#!/usr/bin/env python3
"""greybox benchmark: closed-loop CLI sweep sessions, end to end and per layer.

Run from the repository root, with numpy and scipy importable:

    python3 perfbench/run.py --workload ex1_wls --seed 0 --seconds 30 --trace 0

A session is ``greybox sweep`` over the workload's lambda grid followed by
``greybox eval --mode static-curve`` on the ``model_min_rmse_zt.json`` pick
over zs, both run in-process through ``greybox.cli.main`` on dataset CSVs
written during set-up.  One client runs sessions back to back (closed loop)
for ``--seconds``; the benchmark starts no threads, and no processes beyond
the fresh interpreters that time set-up.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
wraps each layer's public functions (see ``tracer.py``), runs every dataset
once untraced and once traced, checks that both write the same artefacts,
and reports per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Working files go to ``.perfbench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import Clock
from tracer import TraceError, Tracer, exact_counts, install_greybox, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5  # fresh `greybox generate` interpreters timed per run
IMPORT_REPEATS = 3  # fresh `-X importtime` interpreters per traced run
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def timed_generate(example: str, seed: int, out: Path) -> float:
    """Wall time of one fresh-interpreter `greybox generate`, import included."""
    cmd = [sys.executable, "-m", "greybox.cli", "generate", "--example", example,
           "--seed", str(seed), "--out", str(out)]
    t0 = time.perf_counter()
    subprocess.run(cmd, env=child_env(), check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def import_times() -> tuple[float, float]:
    """Seconds to import greybox in a fresh interpreter, and the share of it
    spent in the outermost scipy imports, from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import greybox"],
                          env=child_env(), check=True, capture_output=True, text=True)
    entries = []  # (level, name, cumulative us); children are listed before parents
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        level = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((level, name.strip(), int(parts[1])))
    total = scipy = 0
    ancestors: list[tuple[int, str]] = []
    for level, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        if name == "greybox" and level == 0:
            total = cumulative
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for _, a in ancestors):
            scipy += cumulative
        ancestors.append((level, name))
    if not total:
        raise RuntimeError("-X importtime reported no greybox import")
    return total / 1e6, scipy / 1e6


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "greybox").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "GREYBOX_THREADS": os.environ.get("GREYBOX_THREADS"),
    }


class Session:
    """Paths and argument lists of one pool dataset's session."""

    def __init__(self, wl, index: int, data_dir: Path, out_dir: Path):
        self.index = index
        self.data_dir = data_dir
        self.out_dir = out_dir
        config = {
            "structure": {"builtin": wl.example},
            "datasets": {k: str(data_dir / f"{k}.csv") for k in ("zd", "zt", "zs", "zv")},
            **wl.train,
        }
        (data_dir / "sweep.json").write_text(json.dumps(config, indent=2))
        self.sweep_argv = ["sweep", "--config", str(data_dir / "sweep.json"),
                           "--grid", wl.grid, "--out", str(out_dir / "sweep")]
        self.eval_argv = ["eval", "--mode", "static-curve",
                          "--model", str(out_dir / "sweep" / "model_min_rmse_zt.json"),
                          "--data", str(data_dir / "zs.csv"), "--out", str(out_dir / "eval")]


def run_session(cli, session: Session, tracer: Tracer | None = None):
    """Time one session; returns (seconds, sweep exit code, eval exit code,
    console output)."""
    shutil.rmtree(session.out_dir, ignore_errors=True)
    span = tracer.span if tracer else (lambda _name: contextlib.nullcontext())
    gc.collect()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        with span("cli.main"):
            rc_sweep = cli.main(session.sweep_argv)
        with span("cli.main"):
            rc_eval = cli.main(session.eval_argv)
        elapsed = time.perf_counter() - t0
    return elapsed, rc_sweep, rc_eval, sink.getvalue()


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_session(wl, session: Session, rc_sweep: int, rc_eval: int, console: str,
                  true_curve):
    """Output checks of one session.

    Returns (failed attempts, problems, (rmse_zv, static_rmse) or None).
    The attempts are the grid's lambda points plus the two commands; a
    command fails on a non-zero exit code or a failed check of its output.
    """
    problems = []
    failed_points = wl.n_points
    sweep_ok = rc_sweep == 0
    eval_ok = rc_eval == 0
    quality = None
    out = session.out_dir
    if not sweep_ok:
        problems.append(f"sweep exited {rc_sweep}: {console.strip()}")
    if not eval_ok:
        problems.append(f"eval exited {rc_eval}: {console.strip()}")
    try:
        rows = read_rows(out / "sweep" / "sweep.csv")
        failed_points = wl.n_points - len(rows) + sum(1 for r in rows if r["error"])
        if len(rows) != wl.n_points:
            sweep_ok = False
            problems.append(f"sweep.csv has {len(rows)} rows for {wl.n_points} lambdas")
        for r in rows:
            if r["error"]:
                problems.append(f"lambda {r['lambda']} failed: {r['error']}")
        theta = json.loads((out / "sweep" / "model_min_rmse_zt.json").read_text())["theta"]
        if not theta or not all(math.isfinite(v) for v in theta):
            sweep_ok = False
            problems.append("model_min_rmse_zt.json has a non-finite theta")
        manifest = json.loads((out / "sweep" / "manifest.json").read_text())
        lam = manifest["selections"]["min_rmse_zt"]["lambda"]
        rmse_zv = float(next(r for r in rows if float(r["lambda"]) == lam)["rmse_zv"])
        json.loads((out / "eval" / "metrics.json").read_text())
        curve = read_rows(out / "eval" / "static_curve.csv")
        converged = [r for r in curve if r["converged"] == "true"]
        if not converged:
            eval_ok = False
            problems.append("static curve has no converged level")
        else:
            truth = true_curve([float(r["u1_bar"]) for r in converged])
            static_rmse = math.sqrt(statistics.fmean(
                (float(r["y_bar"]) - y) ** 2 for r, y in zip(converged, truth)))
            quality = (rmse_zv, static_rmse)
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        problems.append(f"missing or malformed output: {type(exc).__name__}: {exc}")
        sweep_ok = sweep_ok and (out / "sweep" / "model_min_rmse_zt.json").exists()
        eval_ok = eval_ok and (out / "eval" / "metrics.json").exists()
    failed = failed_points + (not sweep_ok) + (not eval_ok)
    return failed, problems, quality if failed == 0 else None


def snapshot(out: Path) -> dict:
    """Artefacts a rerun must reproduce; sweep.csv and pareto.csv without
    their wall-time column."""
    snap = {}
    for name in ("sweep/sweep.csv", "sweep/pareto.csv"):
        path = out / name
        if path.exists():
            rows = read_rows(path)
            snap[name] = [{k: v for k, v in r.items() if k != "train_time_ms"} for r in rows]
    for name in ("sweep/model_min_rmse_zt.json", "sweep/model_min_corr.json",
                 "eval/static_curve.csv", "eval/metrics.json"):
        path = out / name
        snap[name] = path.read_text() if path.exists() else None
    return snap


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten sessions beyond it, and that
    percentile; with fewer than 20 sessions, the slowest session (p100)."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def prepare_pool(cli, wl, seeds: list[int], run_dir: Path, timed: int):
    """Write the pool's dataset CSVs: the first ``timed`` generations run in
    fresh interpreters and are timed, the rest run in-process.  Returns the
    sessions and the set-up wall times."""
    sessions = []
    setup_times = []
    for r in range(timed):
        j = r % len(seeds)
        setup_times.append(timed_generate(wl.example, seeds[j], run_dir / "data" / str(j)))
    for j, seed in enumerate(seeds):
        data_dir = run_dir / "data" / str(j)
        if not (data_dir / "zs.csv").exists():
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["generate", "--example", wl.example, "--seed", str(seed),
                               "--out", str(data_dir)])
            if rc != 0:
                raise RuntimeError(f"generate {wl.example} seed {seed} exited {rc}")
        sessions.append(Session(wl, j, data_dir, run_dir / "out" / str(j)))
    return sessions, setup_times


def end_to_end(args, wl, cli, true_curve, run_dir: Path):
    seeds = wl.dataset_seeds(args.seed, wl.pool)
    pool, setup_times = prepare_pool(cli, wl, seeds, run_dir, SETUP_REPEATS)
    timed, problems, quality, first = [], [], {}, {}
    attempted = failed = 0
    clock = Clock()
    deadline = time.perf_counter() + args.seconds
    i = last = 0
    while i < len(pool) or time.perf_counter() + last < deadline:
        t_loop = time.perf_counter()
        session = pool[i % len(pool)]
        elapsed, rc_sweep, rc_eval, console = run_session(cli, session)
        k = clock.record(elapsed)
        n_failed, found, q = check_session(wl, session, rc_sweep, rc_eval, console, true_curve)
        if n_failed == 0:
            snap = snapshot(session.out_dir)
            if first.setdefault(session.index, snap) != snap:
                n_failed = 1
                found.append("artefacts differ from the first passing session on its dataset")
        attempted += wl.n_points + 2
        failed += n_failed
        problems += [f"session {i} (dataset seed {seeds[session.index]}): {p}" for p in found]
        if n_failed == 0:
            timed.append(k)
            if q is not None:
                quality.setdefault(session.index, q)
        i += 1
        last = time.perf_counter() - t_loop
    if not timed:
        raise RuntimeError("no session passed its output checks:\n" + "\n".join(problems))
    times = [clock.scaled(k) for k in timed]
    wall = [clock.walls[k] for k in timed]
    tail_s, tail_pct = tail(times)
    # Set-up runs in other processes, so it gets the run's host-speed factor.
    run_factor = clock.run_factor()
    metrics = {
        "setup_s": (run_factor * statistics.median(setup_times), "s"),
        "sweep_s_p50": (statistics.median(times), "s"),
        "sweep_s_tail": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_ratio": (1.0 - failed / attempted, "ratio"),
        "rmse_zv": (statistics.median(q[0] for q in quality.values()), "y"),
        "static_rmse": (statistics.median(q[1] for q in quality.values()), "y"),
    }
    notes = [
        f"sessions {i} ({len(times)} timed) over {len(pool)} datasets, seeds {seeds}",
        f"sweep_s_tail is p{tail_pct:.1f} of {len(times)} sessions",
        f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} attempts)",
        f"wall-clock session median {statistics.median(wall):.6g} s; "
        f"host speed factor {run_factor:.4g}",
        f"wall-clock set-up samples (s): {' '.join(f'{t:.4f}' for t in setup_times)}",
    ]
    detail = {"session_s": times, "session_wall_s": wall, "setup_wall_s": setup_times,
              "dataset_seeds": seeds,
              "quality": {seeds[j]: q for j, q in sorted(quality.items())}}
    return attempted, failed, problems, metrics, notes, detail


def check_counts(wl, args, counts_by_pass: list[dict]) -> list[str]:
    """Exact counters must repeat between passes of this run and between
    runs of the same seed and workload on the same sources."""
    problems = [f"exact counters of pass {k} differ from pass 0"
                for k, c in enumerate(counts_by_pass) if c != counts_by_pass[0]]
    key = hashlib.sha256(f"{src_digest()} {wl!r}".encode()).hexdigest()[:16]
    record = WORK / "counters" / f"{wl.name}-seed{args.seed}-{key}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    if record.exists():
        if json.loads(record.read_text()) != counts_by_pass[0]:
            problems.append(f"exact counters differ from an earlier run recorded in {record}")
    else:
        record.write_text(json.dumps(counts_by_pass[0], indent=1, sort_keys=True))
    return problems


def traced(args, wl, cli, true_curve, run_dir: Path):
    import greybox

    imports = [import_times() for _ in range(IMPORT_REPEATS)]
    clock = Clock()
    tracer = Tracer()
    required = install_greybox(tracer, wl.example, wl.fits)
    tracer.install()
    seeds = wl.dataset_seeds(args.seed, wl.trace_pool)
    pool, _ = prepare_pool(cli, wl, seeds, run_dir, 0)
    untraced_times, traced_times, problems, counts_by_pass = [], [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    n_pass = 0
    last = 0.0
    while n_pass == 0 or time.perf_counter() + last < deadline:
        t_pass = time.perf_counter()
        sids = []
        for session in pool:
            sid = f"{n_pass}.{session.index}"
            snaps = []
            for on in (False, True):
                tracer.session = sid if on else None
                (tracer.install if on else tracer.uninstall)()
                elapsed, rc_sweep, rc_eval, console = run_session(
                    cli, session, tracer if on else None)
                k = clock.record(elapsed)
                n_failed, found, _ = check_session(
                    wl, session, rc_sweep, rc_eval, console, true_curve)
                attempted += wl.n_points + 2
                failed += n_failed
                problems += [f"{'traced' if on else 'untraced'} session {sid}: {p}" for p in found]
                (traced_times if on else untraced_times).append(clock.scaled(k))
                snaps.append(snapshot(session.out_dir))
            if snaps[0] != snaps[1]:
                failed += 1
                problems.append(f"session {sid}: traced artefacts differ from untraced ones")
            sids.append(sid)
        counts_by_pass.append(exact_counts(tracer.spans, sids))
        n_pass += 1
        last = time.perf_counter() - t_pass
    tracer.uninstall()
    recorded = {s["name"] for s in tracer.spans}
    missing = [name for name in required if name not in recorded]
    if missing:
        raise TraceError(f"no {', '.join(missing)} span recorded: a layer went unmeasured")
    problems += check_counts(wl, args, counts_by_pass)
    counts = counts_by_pass[0]

    ratio = 0.0
    if wl.train["algorithm"] == "ga_legacy":
        # criterion 3's comparison: LM evaluations on the same grid and data
        zd, zt, zs, zv = (cli.read_csv(pool[0].data_dir / f"{k}.csv")
                          for k in ("zd", "zt", "zs", "zv"))
        lm_points = greybox.run_sweep(
            greybox.example_structure(wl.example), zd, zt, zs,
            greybox.LambdaGrid.parse(wl.grid),
            greybox.TrainConfig(algorithm="weighted_lm",
                                lm=greybox.LmConfig(max_iterations=60, n_starts=3)),
            zv=zv)
        ratio = counts["estimation.fit_ga.evals"] / sum(p.eval_count for p in lm_points)

    run_factor = clock.run_factor()
    metrics = {
        "setup.import_s": (run_factor * statistics.median(t for t, _ in imports), "s"),
        "setup.import_scipy_s": (run_factor * statistics.median(s for _, s in imports), "s"),
        **layer_metrics(tracer.spans, run_factor, len(traced_times), counts, len(pool)),
        "estimation.ga_lm_eval_ratio": (ratio, "count"),
        "trace.overhead_ratio": (
            statistics.median(traced_times) / statistics.median(untraced_times), "ratio"),
    }
    notes = [f"passes {n_pass} over {len(pool)} datasets, seeds {seeds}",
             f"untraced session median {statistics.median(untraced_times):.6g} s, "
             f"traced {statistics.median(traced_times):.6g} s; "
             f"host speed factor {run_factor:.4g}"]
    detail = {"untraced_s": untraced_times, "traced_s": traced_times, "dataset_seeds": seeds,
              "exact_counts": counts, "spans": tracer.spans}
    return attempted, failed, problems, metrics, notes, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "greybox" / "__init__.py").is_file():
        print(f"error: no greybox sources at {SRC}", file=sys.stderr)
        return 2
    # sweep._resolve_jobs would switch run_sweep to a thread pool
    os.environ.pop("GREYBOX_THREADS", None)
    sys.path.insert(0, str(SRC))
    import greybox
    import greybox.cli as cli
    from greybox.data import get_system, steady_curve_of_system

    if not Path(greybox.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported greybox from {greybox.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    system = get_system(wl.example)

    def true_curve(u_levels):
        return steady_curve_of_system(system, u_levels).y_bar

    env = environment(args)
    run_dir = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = traced if args.trace else end_to_end
    attempted, failed, problems, metrics, notes, detail = run(args, wl, cli, true_curve, run_dir)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(
        {"environment": env, "notes": notes, "problems": problems, "result": result,
         "detail": detail}, indent=1))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

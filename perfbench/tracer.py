"""Spans around greybox's public functions, recorded from outside the package.

Each function is wrapped at the name its calling module binds (for example
``greybox.sweep.fit_wls``, which ``run_sweep`` calls), so nothing under
``src/`` changes.  A span holds its name, start, end, parent span and
session id, plus the counts read off the call's arguments and result.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time


class TraceError(RuntimeError):
    """A wrapped name is missing or was never called: a layer would go unmeasured."""


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.session = None
        self._open: list[int] = []
        self._patches: list[tuple] = []  # (owner, key, original, wrapper)

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None,
             "parent": parent, "session": self.session, "counts": None}
        )
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def wrap(self, owner, key: str, name: str, count=None, counter_cls=None):
        """Replace ``owner.key`` (or ``owner[key]``) by a spanning wrapper.

        ``count(arguments, result, evals)`` returns the counts kept on the
        span.  With ``counter_cls`` the call gets an evaluation counter when
        the caller passed none, and ``evals`` is what the call added to it.
        """
        is_dict = isinstance(owner, dict)
        where = f"[{key!r}]" if is_dict else f"{owner.__name__}.{key}"
        original = owner.get(key) if is_dict else getattr(owner, key, None)
        if not callable(original):
            raise TraceError(f"{where} is missing, so the {name} span cannot be recorded")
        sig = inspect.signature(original)
        if counter_cls is not None and "counter" not in sig.parameters:
            raise TraceError(f"{where} takes no counter, so {name} cannot be counted")

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            before = 0
            if counter_cls is not None:
                if bound.arguments["counter"] is None:
                    bound.arguments["counter"] = counter_cls()
                before = bound.arguments["counter"].count
            idx = self.begin(name)
            try:
                result = original(*bound.args, **bound.kwargs)
            finally:
                self.end(idx)
            if count is not None:
                evals = bound.arguments["counter"].count - before if counter_cls else None
                self.spans[idx]["counts"] = count(bound.arguments, result, evals)
            return result

        self._patches.append((owner, key, original, wrapper))

    def _set(self, use_wrapper: bool) -> None:
        for owner, key, original, wrapper in self._patches:
            fn = wrapper if use_wrapper else original
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)

    def install(self) -> None:
        self._set(True)

    def uninstall(self) -> None:
        self._set(False)


def _rows(dataset) -> int:
    return int(getattr(dataset, "sample_count", None) or dataset.n_pairs)


def _free_run_counts(a, result, _):
    stop = result.diverged_at if result.diverged else a["data"].sample_count
    return {"samples": stop - a["model"].spec.max_lag, "diverged": int(result.diverged)}


def _lm_counts(a, result, evals):
    zs = a["zs"]
    rows_per_eval = a["zd"].sample_count - a["model"].spec.max_lag + (zs.n_pairs if zs else 0)
    starts = 1 if a["theta0"] is not None else (a["config"].n_starts if a["config"] else 1)
    _, trace = result
    return {"evals": evals, "accepted": len(trace) - 1, "trials": evals // rows_per_eval - starts}


def install_greybox(tracer: Tracer, example: str, fits: tuple[str, ...]) -> list[str]:
    """Wrap the layers a session goes through; returns the span names that
    must be recorded at least once for every layer to be measured."""
    import greybox.cli as cli
    import greybox.data as data
    import greybox.estimation as estimation
    import greybox.sweep as sweep
    from greybox.models import EvalCounter

    def rows_out(a, result, _):
        return {"rows": len(a["columns"][0]) if a["columns"] else 0}

    tracer.wrap(cli.GENERATORS, example, "data.generate")
    tracer.wrap(cli, "read_csv", "data.read_csv", lambda a, r, _: {"rows": _rows(r)})
    tracer.wrap(data, "write_table", "data.write_table", rows_out)
    tracer.wrap(sweep, "write_table", "data.write_table", rows_out)
    tracer.wrap(cli, "run_sweep", "sweep.run_sweep",
                lambda a, r, _: {"points": len(r), "failed": sum(p.error is not None for p in r)})
    for key in ("decide_min_corr", "decide_min_rmse_zt", "pareto_front"):
        tracer.wrap(cli, key, "sweep.select")
    tracer.wrap(sweep, "free_run_on_dataset", "models.free_run", _free_run_counts)
    tracer.wrap(sweep, "cost_jd", "steady_state.cost")
    tracer.wrap(sweep, "cost_js_hat", "steady_state.cost")
    tracer.wrap(cli, "model_static_curve", "steady_state.static_curve",
                lambda a, r, evals: {"steps": evals, "unconverged": int((~r.converged).sum())},
                counter_cls=EvalCounter)
    required = ["data.generate", "data.read_csv", "data.write_table", "sweep.run_sweep",
                "sweep.select", "models.free_run", "steady_state.cost",
                "steady_state.static_curve"]
    if "fit_wls" in fits:
        tracer.wrap(sweep, "fit_wls", "estimation.fit_wls")
        required.append("estimation.fit_wls")
    if "fit_weighted_lm" in fits:
        tracer.wrap(sweep, "fit_weighted_lm", "estimation.fit_lm", _lm_counts,
                    counter_cls=EvalCounter)
        required.append("estimation.fit_lm")
    if "fit_ga_legacy" in fits:
        tracer.wrap(sweep, "fit_ga_legacy", "estimation.fit_ga",
                    lambda a, r, evals: {"evals": evals}, counter_cls=EvalCounter)
        tracer.wrap(estimation, "cost_js_legacy", "steady_state.legacy",
                    lambda a, r, evals: {"steps": evals}, counter_cls=EvalCounter)
        required += ["estimation.fit_ga", "steady_state.legacy"]
    return required


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def exact_counts(spans: list[dict], sessions) -> dict[str, int]:
    """Counts summed over ``sessions``; they must repeat exactly per dataset."""
    sessions = set(sessions)
    totals: dict[str, int] = {}
    for s in spans:
        if s["session"] in sessions and s["counts"]:
            for key, value in s["counts"].items():
                name = f"{s['name']}.{key}"
                totals[name] = totals.get(name, 0) + int(value)
            name = f"{s['name']}.calls"
            totals[name] = totals.get(name, 0) + 1
    return totals


def layer_metrics(spans, scale, n_sessions, counts, n_count_sessions):
    """Per-layer metrics as {name: (value, unit)}: timings from all spans of
    the run (``n_sessions`` traced sessions plus the set-up that generated
    their datasets) multiplied by ``scale``, counts from the exact counts of
    ``n_count_sessions`` sessions."""
    own = [scale * t for t in self_times(spans)]
    n = n_sessions
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    amount: dict[str, int] = {}
    self_total: dict[str, float] = {}
    for s, own_s in zip(spans, own):
        name = s["name"]
        total[name] = total.get(name, 0.0) + scale * (s["end"] - s["start"])
        calls[name] = calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + own_s
        for key in ("rows", "samples", "steps"):
            if s["counts"] and key in s["counts"]:
                amount[name] = amount.get(name, 0) + s["counts"][key]

    def per_call(name, unit):
        return unit * total[name] / calls[name] if calls.get(name) else 0.0

    def per_unit(name, unit):
        return unit * total[name] / amount[name] if amount.get(name) else 0.0

    def per_session(value):
        return value / n_count_sessions

    def count(key):
        return counts.get(key, 0)

    lm_calls = count("estimation.fit_lm.calls")
    ga_calls = count("estimation.fit_ga.calls")
    runs = count("models.free_run.calls")
    return {
        "data.generate_ms": (per_call("data.generate", 1e3), "ms"),
        "data.read_csv_us_per_row": (per_unit("data.read_csv", 1e6), "us/row"),
        "data.rows_read": (per_session(count("data.read_csv.rows")), "count"),
        "data.write_us_per_row": (per_unit("data.write_table", 1e6), "us/row"),
        "models.free_run_us_per_sample": (per_unit("models.free_run", 1e6), "us/sample"),
        "models.free_run_samples": (per_session(count("models.free_run.samples")), "count"),
        "models.free_run_diverged_ratio": (
            count("models.free_run.diverged") / runs if runs else 0.0, "ratio"),
        "estimation.fit_wls_ms": (per_call("estimation.fit_wls", 1e3), "ms"),
        "estimation.fit_lm_ms": (per_call("estimation.fit_lm", 1e3), "ms"),
        "estimation.lm_evals": (
            count("estimation.fit_lm.evals") / lm_calls if lm_calls else 0.0, "count"),
        "estimation.lm_accept_ratio": (
            count("estimation.fit_lm.accepted") / count("estimation.fit_lm.trials")
            if count("estimation.fit_lm.trials") else 0.0, "ratio"),
        "estimation.fit_ga_s": (per_call("estimation.fit_ga", 1.0), "s"),
        "estimation.ga_evals": (
            count("estimation.fit_ga.evals") / ga_calls if ga_calls else 0.0, "count"),
        "steady_state.legacy_us_per_step": (per_unit("steady_state.legacy", 1e6), "us/step"),
        "steady_state.static_curve_ms": (per_call("steady_state.static_curve", 1e3), "ms"),
        "steady_state.fixed_point_steps": (
            per_session(count("steady_state.static_curve.steps")), "count"),
        "steady_state.fixed_point_unconverged": (
            per_session(count("steady_state.static_curve.unconverged")), "count"),
        # one cost_jd and one cost_js_hat per trained point
        "steady_state.cost_ms": (
            2e3 * total.get("steady_state.cost", 0.0) / calls["steady_state.cost"]
            if calls.get("steady_state.cost") else 0.0, "ms"),
        "sweep.self_ms": (1e3 * self_total.get("sweep.run_sweep", 0.0) / n, "ms"),
        "sweep.select_ms": (1e3 * total.get("sweep.select", 0.0) / n, "ms"),
        "sweep.points_failed": (float(count("sweep.run_sweep.failed")), "count"),
        "cli.self_ms": (1e3 * self_total.get("cli.main", 0.0) / n, "ms"),
    }

"""The benchmark's tracer still finds every layer it wraps.

``perfbench/tracer.py`` wraps functions at the module attribute their caller
binds (``cli.decide_min_corr``, ``sweep.write_table``, ``sweep.fit_wls`` and
others).  A call that skips such a name leaves a layer unmeasured, so one
session of each benchmark workload runs here under the wrappers.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from greybox import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """A perfbench module by file path; perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their class's module
    spec.loader.exec_module(module)
    return module


tracer_mod = _load("tracer")
WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_session_records_every_required_span(name, tmp_path):
    wl = WORKLOADS[name]
    data, out = tmp_path / "data", tmp_path / "out"
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "structure": {"builtin": wl.example},
        "datasets": {k: str(data / f"{k}.csv") for k in ("zd", "zt", "zs", "zv")},
        **wl.train,
    }))
    tracer = tracer_mod.Tracer()
    required = tracer_mod.install_greybox(tracer, wl.example, wl.fits)
    tracer.install()
    try:
        seed = wl.dataset_seeds(0, 1)[0]
        codes = [
            cli.main(["generate", "--example", wl.example, "--seed", str(seed),
                      "--out", str(data)]),
            cli.main(["sweep", "--config", str(config), "--grid", wl.grid,
                      "--out", str(out / "sweep")]),
            cli.main(["eval", "--mode", "static-curve",
                      "--model", str(out / "sweep" / "model_min_rmse_zt.json"),
                      "--data", str(data / "zs.csv"), "--out", str(out / "eval")]),
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    recorded = [span["name"] for span in tracer.spans]
    assert [n for n in required if n not in recorded] == []
    # two decision makers plus pareto_front
    assert recorded.count("sweep.select") >= 3

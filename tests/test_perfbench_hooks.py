"""The benchmark's tracer (perfbench/tracer.py) still finds what it wraps.

The tracer wraps sheetcalc's functions by name and counts model callback
evaluations through `model_from_config`; a refactor that renames or drops
one of them would silently remove a per-layer metric.
"""

import importlib.util
import json
import sys

import sheetcalc.cli
from test_golden import ROOT

# perfbench/tracer.py still lists functions the package has deleted: the
# first went with the move to numpy's Philox generator, the next four with
# the library surface that only tests reached, and the last two with the
# whole-line Malliavin mode.  The first five have no work count; the last
# two counted step·paths, which read 0 since no run called them, so no
# per-layer metric moves.
KNOWN_ABSENT = {
    "sheetcalc.philox.philox4x64",
    "sheetcalc.lattice.sample_cell_increments",
    "sheetcalc.stochcalc.t_line",
    "sheetcalc.stochcalc.s_line",
    "sheetcalc.stochcalc.bdg_moment_check",
    "sheetcalc.malliavin.solve_state_line",
    "sheetcalc.malliavin.compute_malliavin_line",
}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_traced_function(tmp_path, monkeypatch):
    monkeypatch.delenv("OUTPUT_DIR", raising=False)
    tracing = _tracer_module()
    cfg = {
        "grid": {"n_s": 8, "n_t": 1, "ds": 0.125, "dt": 1.0},
        "model": {"preset": "linear1d"},
        "mc": {"n_paths": 64, "seed": 3},
        "run": {"command": "run-ibp"},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sheetcalc.cli.run(str(path)) == 0
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= KNOWN_ABSENT
    spans = tracer.take()
    assert {"run", "expand_config", "model_from_config", "payoff_from_config"} <= {
        s.name for s in spans}
    assert tracing.summarize(spans)["counts"]["models.evals"] > 0

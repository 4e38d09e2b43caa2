"""Experiment configuration: validation, preset expansion, the digest.

A config is a JSON tree with sections grid / model / mc / run / output.
Before execution every preset is expanded to its fully explicit form; the
expanded tree is written next to the outputs, and re-running that file
reproduces the run byte for byte (for the same worker count).

`config_digest` is the package's only digest: the command line embeds it in
every report it writes.  Reports returned by the library runners in
`verify` carry none.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os

import numpy as np

from .errors import ConfigurationError
from .lattice import Grid
from .models import MODEL_PRESETS, PAYOFF_PRESETS, model_from_config

COMMANDS = (
    "simulate-sheet",
    "sample-ou",
    "verify-rules",
    "solve-hyperbolic",
    "run-ibp",
    "run-bismut",
    "run-reversibility",
    "holder-scan",
)

_RUN_DEFAULTS = {
    "payoff_f": {"preset": "coordinate"},
    "payoff_g": {"preset": "coordinate"},
    "t_gap": 0.25,
    "lags": [0.0625, 0.125, 0.25],
    "alpha": 2.0,
    "target": "sheet",
    "system": "zero",
    "blowup_M": None,
    "fault": None,
    "component": 0,
    "assert_z": 3.0,
    "ks_level": 0.01,
    "slope_range": None,
    "probe_tolerance_se": 4.0,
    "field_dump": False,
}


def config_digest(expanded: dict) -> str:
    """Digest of the experiment-defining sections: the first 16 hex digits
    of the sha256 of their canonical JSON.

    The output sink and the worker count are resource knobs, not part of an
    experiment's identity: results are combined in fixed block order, so any
    worker count yields the same numbers (the count is still recorded in
    reports).
    """
    body = {k: v for k, v in expanded.items() if k != "output"}
    body["mc"] = {k: v for k, v in body["mc"].items() if k != "workers"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _need(cfg, section, key, typ, where):
    if key not in cfg:
        raise ConfigurationError(f"{where}.{key}: missing")
    val = cfg[key]
    if typ is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, typ):
        raise ConfigurationError(f"{where}.{key}: expected {typ.__name__}, got {val!r}")
    return val


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc


def expand_config(raw: dict, workers=None, seed_override=None) -> dict:
    """Validate and expand a raw config tree to its explicit form."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config: expected a JSON object at top level")
    cfg = copy.deepcopy(raw)

    gsec = cfg.get("grid")
    if not isinstance(gsec, dict):
        raise ConfigurationError("grid: missing section")
    n_s = _need(gsec, "grid", "n_s", int, "grid")
    n_t = _need(gsec, "grid", "n_t", int, "grid")
    ds = _need(gsec, "grid", "ds", float, "grid")
    dt = _need(gsec, "grid", "dt", float, "grid")
    if n_s < 1:
        raise ConfigurationError(f"grid.n_s: must be >= 1, got {n_s}")
    if n_t < 1:
        raise ConfigurationError(f"grid.n_t: must be >= 1, got {n_t}")
    if not ds > 0:
        raise ConfigurationError(f"grid.ds: must be > 0, got {ds}")
    if not dt > 0:
        raise ConfigurationError(f"grid.dt: must be > 0, got {dt}")
    grid = {"n_s": n_s, "n_t": n_t, "ds": ds, "dt": dt}

    msec = cfg.get("model", {"preset": "linear1d"})
    if isinstance(msec, str):
        msec = {"preset": msec}
    if "preset" in msec and msec["preset"] not in MODEL_PRESETS:
        raise ConfigurationError(f"model.preset: unknown preset {msec['preset']!r}")
    model = model_from_config(msec)  # raises ConfigurationError on bad tables
    model_cfg = model.config

    mc = cfg.get("mc", {})
    n_paths = mc.get("n_paths", 1000)
    seed = mc.get("seed", 0)
    wk = mc.get("workers", 1)
    if seed_override is not None:
        seed = seed_override
    if workers is not None:
        wk = workers
    if not isinstance(n_paths, int) or n_paths < 1:
        raise ConfigurationError(f"mc.n_paths: must be a positive integer, got {n_paths!r}")
    if not isinstance(seed, int) or not (0 <= seed < 2**64):
        raise ConfigurationError(f"mc.seed: must be a 64-bit unsigned integer, got {seed!r}")
    if not isinstance(wk, int) or wk < 1:
        raise ConfigurationError(f"mc.workers: must be a positive integer, got {wk!r}")

    rsec = cfg.get("run", {})
    command = rsec.get("command")
    if command not in COMMANDS:
        raise ConfigurationError(
            f"run.command: expected one of {list(COMMANDS)}, got {command!r}"
        )
    run = dict(_RUN_DEFAULTS)
    for key, val in rsec.items():
        if key != "command" and key not in _RUN_DEFAULTS:
            raise ConfigurationError(f"run.{key}: unknown option")
        run[key] = val
    run["command"] = command
    for pk in ("payoff_f", "payoff_g"):
        pv = run[pk]
        if isinstance(pv, str):
            pv = {"preset": pv}
        if not isinstance(pv, dict) or pv.get("preset") not in PAYOFF_PRESETS:
            raise ConfigurationError(f"run.{pk}: unknown payoff {run[pk]!r}")
        run[pk] = pv
    if run["fault"] not in (None, "flip-r-sign"):
        raise ConfigurationError(f"run.fault: unknown fault {run['fault']!r}")

    out = cfg.get("output", {})
    directory = os.environ.get("OUTPUT_DIR", out.get("directory", "out"))
    formats = out.get("formats", ["json", "csv"])
    for fmt in formats:
        if fmt not in ("json", "csv"):
            raise ConfigurationError(f"output.formats: unknown format {fmt!r}")

    return {
        "grid": grid,
        "model": model_cfg,
        "mc": {"n_paths": n_paths, "seed": seed, "workers": wk},
        "run": run,
        "output": {"directory": directory, "formats": list(formats)},
    }


def grid_from_config(expanded: dict) -> Grid:
    g = expanded["grid"]
    return Grid(g["n_s"], g["n_t"], g["ds"], g["dt"])


def blowup_from_config(expanded: dict) -> float:
    M = expanded["run"]["blowup_M"]
    return np.inf if M is None else float(M)

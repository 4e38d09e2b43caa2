"""Experiment configuration: the declared schema, preset expansion, the digest.

A config is a JSON tree with sections grid / model / mc / run / output.
`SCHEMA` declares every key once: its type, shape, range or choices and
default.  `expand_config` checks a raw tree against it, naming the dotted key
of the first bad value (the command line exits 2 on it), and expands every
preset to its explicit form; re-running the expanded tree, written next to
the outputs, reproduces the run byte for byte (at the same worker count).

`config_digest` is the package's only digest: the command line embeds it in
every report it writes.  Reports returned by the library runners in
`verify` carry none.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys
from typing import NamedTuple

from .errors import ConfigurationError
from .hyperbolic import COEFFICIENT_PRESETS
from .lattice import Grid
from .models import MODEL_PRESETS, model_from_config

COMMANDS = ("simulate-sheet", "sample-ou", "verify-rules", "solve-hyperbolic", "run-ibp",
            "run-bismut", "run-reversibility", "holder-scan")
REQUIRED = "required"


class Key(NamedTuple):
    """One config key.  type: int (lo <= v < hi), float (a finite number,
    lo < v < hi), bool, str (non-empty), list (checked by its reader),
    "payoff" (a preset name, or an object of a preset and its options) or a
    tuple of the allowed strings.  A bound None is open, and the bound "d" is
    the model's dimension.  shape: None, or the (min, max) length of a list
    of such values.  desc replaces the generated description in errors.
    """

    type: object
    range: tuple = (None, None)
    default: object = REQUIRED
    shape: tuple = None
    null: bool = False
    desc: str = None


_POSITIVE = (0, None)
_J = Key(int, (0, "d"), 0)
PAYOFF_OPTIONS = {"coordinate": {"j": _J}, "square": {"j": _J},
                  "constant": {"c": Key(float, default=1.0)}}
_X0 = Key(float, default=None, shape=("d", "d"),
          desc="the model x0 as a list of d finite numbers")

SCHEMA = {
    "grid": {
        "n_s": Key(int, (1, None)),
        "n_t": Key(int, (1, None)),
        "ds": Key(float, _POSITIVE),
        "dt": Key(float, _POSITIVE),
    },
    # the explicit model form; a preset takes only "x0" besides (_MODEL_PRESET)
    "model": {
        "name": Key(str, default="custom"),
        "d": Key(int, (1, None)),
        "m": Key(int, (1, None)),
        "x0": _X0,
        "fields": Key(list, desc="a list of m+1 monomial tables"),
    },
    "mc": {
        "n_paths": Key(int, (1, None), 1000),
        "seed": Key(int, (0, 2**64), 0),
        "workers": Key(int, (1, None), 1),
    },
    "run": {
        "command": Key(COMMANDS),
        "payoff_f": Key("payoff", default={"preset": "coordinate"}),
        "payoff_g": Key("payoff", default={"preset": "coordinate"}),
        "t_gap": Key(float, _POSITIVE, 0.25),
        "lags": Key(float, _POSITIVE, [0.0625, 0.125, 0.25], shape=(3, None)),
        "alpha": Key(float, _POSITIVE, 2.0),
        "target": Key(("sheet", "x", "u", "p"), default="sheet"),
        "system": Key(tuple(COEFFICIENT_PRESETS), default="zero"),
        "blowup_M": Key(float, _POSITIVE, None, null=True),
        "fault": Key(("flip-r-sign",), default=None, null=True),
        "component": Key(int, (0, "d"), 0),
        "assert_z": Key(float, _POSITIVE, 3.0),
        "ks_level": Key(float, (0, 1), 0.01),
        "slope_range": Key(float, default=None, shape=(2, 2), null=True),
        "probe_tolerance_se": Key(float, _POSITIVE, 4.0),
        "field_dump": Key(bool, default=False),
    },
    "output": {
        "directory": Key(str, default="out"),
        "formats": Key(("json", "csv"), default=["json", "csv"], shape=(0, None)),
    },
}
# run keys whose values must be t-nodes of the grid, by the command that reads them
_T_NODE_KEYS = {"run-reversibility": "t_gap", "holder-scan": "lags"}
_MODEL_PRESET = {"preset": Key(tuple(MODEL_PRESETS)), "x0": _X0}
_SECTION_DEFAULTS = {"model": {"preset": "linear1d"}, "mc": {}, "run": {}, "output": {}}


def _bounds(pair, ctx):
    return [ctx.get(b) if isinstance(b, str) else b for b in pair]


def _valid(v, key, ctx) -> bool:
    """Whether v is one value of key's type, in its range."""
    t = key.type
    if t is int or t is float:
        lo, hi = _bounds(key.range, ctx)
        return (not isinstance(v, bool) and isinstance(v, int if t is int else (int, float))
                and (t is int or abs(v) <= sys.float_info.max)
                and (lo is None or (v >= lo if t is int else v > lo))
                and (hi is None or v < hi))
    if t in (bool, str, list):
        return isinstance(v, t) and v != ""
    return isinstance(v, str) and v in t


def _describe(key, ctx) -> str:
    t = key.type
    what = key.desc or {int: "an integer", float: "a finite number", bool: "true or false",
                        str: "a non-empty string"}.get(t) or f"one of {list(t)}"
    lo, hi = _bounds(key.range, ctx)
    if lo is not None:
        what += f" >= {lo}" if t is int else f" > {lo}"
    if hi is not None:
        what += f" and < {hi}"
    if key.shape and not key.desc:
        lo, hi = key.shape
        what = f"a list of {lo}{'' if lo == hi else ' or more'} entries, each {what}"
    return what + " or null" if key.null else what


def _check(v, key, path, ctx):
    """v, if it is a valid value of key; else a ConfigurationError naming path."""
    if key.type == "payoff":
        return _check_payoff(v, path, ctx)
    if key.shape is None:
        ok = _valid(v, key, ctx)
    else:
        lo, hi = _bounds(key.shape, ctx)
        ok = (isinstance(v, list) and (lo or 0) <= len(v) <= (hi or len(v))
              and all(_valid(e, key, ctx) for e in v))
    if not (ok or v is None and key.null):
        raise ConfigurationError(f"{path}: expected {_describe(key, ctx)}, got {v!r}")
    return v


def _check_section(table, sec, path, ctx) -> dict:
    """sec checked key by key against table, with the defaults filled in."""
    if not isinstance(sec, dict):
        raise ConfigurationError(f"{path}: expected an object, got {sec!r}")
    for name in sec:
        if name not in table:
            raise ConfigurationError(f"{path}.{name}: unknown key; known: {list(table)}")
    out = {}
    for name, key in table.items():
        if name not in sec and key.default is REQUIRED:
            raise ConfigurationError(f"{path}.{name}: missing")
        out[name] = (_check(sec[name], key, f"{path}.{name}", ctx) if name in sec
                     else copy.deepcopy(key.default))
    return out


def _check_payoff(v, path, ctx) -> dict:
    """A payoff preset name, or an object of a preset and its options."""
    if isinstance(v, str):
        v = {"preset": v}
    if not isinstance(v, dict):
        raise ConfigurationError(f"{path}: expected a payoff preset name or object, got {v!r}")
    preset = _check(v.get("preset"), Key(tuple(PAYOFF_OPTIONS)), f"{path}.preset", ctx)
    options = {k: x for k, x in v.items() if k != "preset"}
    _check_section(PAYOFF_OPTIONS[preset], options, path, ctx)
    return v


def config_digest(expanded: dict) -> str:
    """The first 16 hex digits of the sha256 of the canonical JSON of the
    experiment-defining sections.  The output sink and the worker count are
    resource knobs, not part of an experiment's identity: blocks combine in
    fixed order, so any worker count yields the same numbers."""
    body = {k: v for k, v in expanded.items() if k != "output"}
    body["mc"] = {k: v for k, v in body["mc"].items() if k != "workers"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config {path} is not UTF-8: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigurationError(f"config {path} is nested too deeply: {exc}") from exc


def expand_config(raw: dict, workers=None, seed_override=None) -> dict:
    """Check a raw config tree against `SCHEMA` and expand it to its explicit
    form: run values stay as written, and a payoff name becomes {"preset": name}."""
    if not isinstance(raw, dict):
        raise ConfigurationError("config: expected a JSON object at top level")
    if "grid" not in raw:
        raise ConfigurationError("grid: missing section")
    try:
        cfg = {**_SECTION_DEFAULTS, **copy.deepcopy(raw)}
    except RecursionError as exc:
        raise ConfigurationError("config: nested too deeply") from exc
    for name in cfg:
        if name not in SCHEMA:
            raise ConfigurationError(f"{name}: unknown section; known: {list(SCHEMA)}")

    grid = _check_section(SCHEMA["grid"], cfg["grid"], "grid", {})
    grid["ds"], grid["dt"] = float(grid["ds"]), float(grid["dt"])

    msec = cfg["model"]
    if isinstance(msec, str):
        msec = {"preset": msec}
    preset = isinstance(msec, dict) and "preset" in msec
    _check_section(_MODEL_PRESET if preset else SCHEMA["model"], msec, "model", {})
    try:
        model = model_from_config(msec)
    except ConfigurationError as exc:  # every other model key is checked by now
        raise ConfigurationError(f"model.fields: {exc}") from exc
    ctx = {"d": model.vf.d}
    if "x0" in msec:
        _check(msec["x0"], _X0, "model.x0", ctx)

    mc = _check_section(SCHEMA["mc"], cfg["mc"], "mc", ctx)
    for name, val in (("seed", seed_override), ("workers", workers)):
        if val is not None:
            mc[name] = _check(val, SCHEMA["mc"][name], f"mc.{name}", ctx)
    run = _check_section(SCHEMA["run"], cfg["run"], "run", ctx)
    name = _T_NODE_KEYS.get(run["command"])
    if name is not None:
        values = run[name] if isinstance(run[name], list) else [run[name]]
        nodes = Grid(**grid)
        try:
            for t in values:
                nodes.t_index(t)
        except ConfigurationError as exc:
            raise ConfigurationError(f"run.{name}: {exc}") from exc
    out = _check_section(SCHEMA["output"], cfg["output"], "output", ctx)
    out["directory"] = os.environ.get("OUTPUT_DIR", out["directory"])
    return {"grid": grid, "model": model.config, "mc": mc, "run": run, "output": out}

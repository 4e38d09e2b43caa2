"""Command line front end: dispatch, exit codes, reproducibility."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from sheetcalc.cli import _DISPATCH, run
from sheetcalc.config import COMMANDS, config_digest, expand_config
from test_golden import ROOT, SHIPPED, run_config

# command -> (shipped config, n_paths): each size spans at least two path
# blocks of its runner; verify-rules runs its rules as the pool's items.
WORKER_CASES = {
    "simulate-sheet": ("sheet-covariance", 1100),
    "sample-ou": ("ou-cross-validation", 1100),
    "verify-rules": ("verify-rules", 1000),
    "solve-hyperbolic": ("solve-ou-system", 16),
    "run-ibp": ("ibp-linear", 16500),
    "run-bismut": ("bismut-linear", 16500),
    "run-reversibility": ("reversibility", 4200),
    "holder-scan": ("holder-p", 2100),
}

BASE = {
    "grid": {"n_s": 32, "n_t": 8, "ds": 0.03125, "dt": 0.125},
    "model": {"preset": "linear1d"},
    "mc": {"n_paths": 2000, "seed": 21, "workers": 1},
    "run": {"command": "run-ibp"},
    "output": {"directory": "out"},
}


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _cfg(tmp_path, outname="out", **overrides):
    cfg = json.loads(json.dumps(BASE))
    for key, val in overrides.items():
        sec, _, opt = key.partition(".")
        if opt:
            cfg.setdefault(sec, {})[opt] = val
        else:
            cfg[sec] = val
    cfg["output"]["directory"] = str(tmp_path / outname)
    return cfg


DELETE = "<delete>"
INF = math.inf

# (dotted key, bad value, key the message must name if not the same).  Each
# value is written into the expanded form of every shipped config, where
# every key is explicit, and DELETE removes the key instead.
MUTATIONS = [
    ("grid", 5, None), ("grid", None, None), ("model", 5, None), ("mc", 5, None),
    ("run", 5, None), ("output", 5, None), ("extra", {}, None),
    ("grid.n_s", 0, None), ("grid.n_s", 1.5, None), ("grid.n_s", True, None),
    ("grid.n_s", "8", None), ("grid.n_s", DELETE, None), ("grid.n_t", -1, None),
    ("grid.ds", 0, None), ("grid.ds", -0.5, None), ("grid.ds", True, None),
    ("grid.ds", "x", None), ("grid.ds", INF, None), ("grid.ds", math.nan, None),
    ("grid.dt", INF, None), ("grid.dt", [0.5], None), ("grid.n_x", 4, None),
    ("model", "nope", "model.preset"), ("model", {"preset": "nope"}, "model.preset"),
    ("model", {"preset": "linear1d", "d": 1}, "model.d"),
    ("model", {"preset": "linear1d", "x0": [1.0, 2.0]}, "model.x0"),
    ("model", {"preset": "linear1d", "x0": ["a"]}, "model.x0"),
    ("model.name", 5, None), ("model.name", "", None), ("model.d", 0, None),
    ("model.d", True, None), ("model.d", "1", None), ("model.d", 1.5, None),
    ("model.m", 0, None), ("model.m", True, None), ("model.m", DELETE, None),
    ("model.x0", "x", None), ("model.x0", 1.0, None), ("model.x0", ["a"], None),
    ("model.x0", [1.0, 2.0], None), ("model.x0", [INF], None), ("model.x0", [True], None),
    ("model.fields", 5, None), ("model.fields", [], None), ("model.fields", {"0": [[]]}, None),
    ("model.fields", [[[]], [[["one", [1]]]]], None),
    ("model.fields", [[[]], [[[True, [1]]]]], None),
    ("model.fields", [[[]], [[["1", [1]]]]], None),
    ("model.fields", [[[]], [[[INF, [1]]]]], None),
    ("model.fields", [[[]], [[[1.0, [1.5]]]]], None),
    ("model.fields", [[[]], [[[1.0, [-1]]]]], None),
    ("model.fields", [[[]], [[[1.0, [1, 0]]]]], None),
    ("model.frobnicate", 1, None),
    ("mc.n_paths", 0, None), ("mc.n_paths", 1.5, None), ("mc.n_paths", True, None),
    ("mc.n_paths", "x", None), ("mc.seed", -1, None), ("mc.seed", 2**64, None),
    ("mc.seed", True, None), ("mc.seed", 0.5, None), ("mc.workers", 0, None),
    ("mc.workers", True, None), ("mc.workers", "2", None), ("mc.n_path", 5, None),
    ("run.command", "nope", None), ("run.command", 5, None), ("run.command", DELETE, None),
    ("run.payoff_f", "nope", "run.payoff_f.preset"), ("run.payoff_f", 5, None),
    ("run.payoff_f", {}, "run.payoff_f.preset"),
    ("run.payoff_f", {"preset": "coordinate", "j": 1}, "run.payoff_f.j"),
    ("run.payoff_f", {"preset": "coordinate", "j": -1}, "run.payoff_f.j"),
    ("run.payoff_f", {"preset": "square", "j": True}, "run.payoff_f.j"),
    ("run.payoff_f", {"preset": "coordinate", "k": 1}, "run.payoff_f.k"),
    ("run.payoff_g", {"preset": "constant", "c": "abc"}, "run.payoff_g.c"),
    ("run.payoff_g", {"preset": "constant", "c": INF}, "run.payoff_g.c"),
    ("run.payoff_g", {"preset": "constant", "c": True}, "run.payoff_g.c"),
    ("run.t_gap", "x", None), ("run.t_gap", 0, None), ("run.t_gap", True, None),
    ("run.t_gap", INF, None), ("run.lags", 5, None), ("run.lags", [0.0625, 0.125], None),
    ("run.lags", [0.0625, "x", 0.25], None), ("run.lags", [0.0625, 0.125, -0.25], None),
    ("run", {"command": "run-reversibility", "t_gap": 0.3}, "run.t_gap"),
    ("run", {"command": "holder-scan", "lags": [0.125, 0.25, 0.3]}, "run.lags"),
    ("run.alpha", "x", None), ("run.alpha", 0, None), ("run.alpha", True, None),
    ("run.target", "nope", None), ("run.target", 5, None),
    ("run.system", "nope", None), ("run.system", None, None),
    ("run.blowup_M", "x", None), ("run.blowup_M", 0, None), ("run.blowup_M", True, None),
    ("run.fault", "nope", None), ("run.fault", True, None),
    ("run.component", 7, None), ("run.component", -1, None), ("run.component", -5, None),
    ("run.component", 0.5, None), ("run.component", True, None),
    ("run.assert_z", "x", None), ("run.assert_z", 0, None), ("run.assert_z", True, None),
    ("run.ks_level", "x", None), ("run.ks_level", 0, None), ("run.ks_level", 1.5, None),
    ("run.slope_range", [1], None), ("run.slope_range", 5, None),
    ("run.slope_range", [0.9, "x"], None),
    ("run.probe_tolerance_se", "x", None), ("run.probe_tolerance_se", -1, None),
    ("run.field_dump", "yes", None), ("run.field_dump", 1, None),
    ("run.field_dump", None, None), ("run.frobnicate", True, None),
    ("output.directory", 5, None), ("output.directory", "", None),
    ("output.directory", None, None), ("output.formats", 5, None),
    ("output.formats", "json", None), ("output.formats", ["pdf"], None),
    ("output.formats", [5], None), ("output.formatz", [], None),
]


def _mutated(base, key, value):
    cfg = json.loads(json.dumps(base))
    *parents, last = key.split(".")
    sec = cfg
    for name in parents:
        sec = sec[name]
    if value is DELETE:
        del sec[last]
    else:
        sec[last] = value
    return cfg


class TestValidation:
    def test_mutation_table_covers_every_key(self, tmp_path):
        keys = {key for key, _, _ in MUTATIONS}
        expanded = expand_config(_cfg(tmp_path))
        for section, body in expanded.items():
            assert section in keys
            assert {f"{section}.{k}" for k in body} <= keys

    @pytest.mark.parametrize("key, value, named", MUTATIONS,
                             ids=[f"{k}={v!r}" for k, v, _ in MUTATIONS])
    def test_every_bad_value_exits_2(self, tmp_path, monkeypatch, capsys, key, value, named):
        monkeypatch.delenv("OUTPUT_DIR", raising=False)
        for config in SHIPPED:
            base = expand_config(json.loads((ROOT / "configs" / f"{config}.json").read_text()))
            base["mc"]["n_paths"] = 16
            base["output"]["directory"] = str(tmp_path / config)
            path = _write(tmp_path, _mutated(base, key, value), f"{config}.json")
            assert run(path) == 2, config
            err = capsys.readouterr().err
            assert f"configuration error: {named or key}:" in err, (config, err)
            assert not (tmp_path / config / "report.json").exists()

    def test_output_directory_below_a_file_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("OUTPUT_DIR", raising=False)
        (tmp_path / "file").write_text("")
        cfg = _cfg(tmp_path)
        cfg["output"]["directory"] = str(tmp_path / "file" / "out")
        assert run(_write(tmp_path, cfg)) == 2
        assert capsys.readouterr().err.startswith("configuration error: output.directory: ")

    def test_off_grid_t_gap_ignored_by_commands_that_do_not_read_it(self, tmp_path):
        cfg = _cfg(tmp_path, run={"command": "run-bismut", "t_gap": 0.3})
        cfg["mc"]["n_paths"] = 16
        assert run(_write(tmp_path, cfg)) == 0

    def test_bismut_component_past_d_exits_2(self, tmp_path, capsys):
        # R is (..., n+1, d): -1 used to report the last component silently
        cfg = _cfg(tmp_path)
        cfg["run"] = {"command": "run-bismut", "component": -1}
        assert run(_write(tmp_path, cfg)) == 2
        assert "run.component" in capsys.readouterr().err


    def test_every_command_has_a_handler(self):
        assert sorted(_DISPATCH) == sorted(COMMANDS)

    def test_bad_ds_names_field(self, tmp_path, capsys):
        cfg = _cfg(tmp_path)
        cfg["grid"]["ds"] = 0
        assert run(_write(tmp_path, cfg)) == 2
        assert "grid.ds" in capsys.readouterr().err

    def test_unknown_command(self, tmp_path):
        cfg = _cfg(tmp_path)
        cfg["run"]["command"] = "run-everything"
        assert run(_write(tmp_path, cfg)) == 2

    def test_missing_file(self, tmp_path):
        assert run(str(tmp_path / "nope.json")) == 2

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(str(path)) == 2

    # files that json.load or copy.deepcopy cannot take: Latin-1 text,
    # arrays nested past json's and past deepcopy's recursion limit, and an
    # integer past Python's digit limit for int()
    UNREADABLE = {
        "latin-1": (json.dumps({**BASE, "model": {"name": "caf\xe9"}}, ensure_ascii=False)
                    .encode("latin-1"), "is not UTF-8"),
        "deep-json": (b"[" * 100000 + b"]" * 100000, "is nested too deeply"),
        "deep-copy": (json.dumps({**BASE, "x": "@"}).replace('"@"', "[" * 700 + "]" * 700)
                      .encode(), "config: nested too deeply"),
        "long-int": (json.dumps({**BASE, "mc": {"seed": "@"}}).replace('"@"', "1" * 5000)
                     .encode(), "is not valid JSON"),
    }

    @pytest.mark.parametrize("case", sorted(UNREADABLE))
    def test_unreadable_config_exits_2(self, tmp_path, capsys, case):
        data, message = self.UNREADABLE[case]
        path = tmp_path / "config.json"
        path.write_bytes(data)
        assert run(str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err, err
        if case != "deep-copy":
            assert str(path) in err

    def test_unknown_run_option(self, tmp_path):
        cfg = _cfg(tmp_path)
        cfg["run"]["frobnicate"] = True
        assert run(_write(tmp_path, cfg)) == 2

    def _bad_model(self, tmp_path, capsys, fields):
        cfg = _cfg(tmp_path, model={"d": 1, "m": 1, "x0": [1.0], "fields": fields})
        assert run(_write(tmp_path, cfg)) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_model_entry_without_powers(self, tmp_path, capsys):
        self._bad_model(tmp_path, capsys, [[[]], [[[1.0]]]])

    def test_model_non_numeric_coefficient(self, tmp_path, capsys):
        self._bad_model(tmp_path, capsys, [[[]], [[["one", [1]]]]])

    def test_model_dict_fields_missing_key(self, tmp_path, capsys):
        self._bad_model(tmp_path, capsys, {"0": [[]]})

    def test_payoff_coordinate_out_of_range(self, tmp_path):
        cfg = _cfg(tmp_path, **{"run.payoff_f": {"preset": "coordinate", "j": 1}})
        assert run(_write(tmp_path, cfg)) == 2

    def test_payoff_option_the_preset_does_not_take(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, **{"run.payoff_f": {"preset": "coordinate", "k": 1}})
        assert run(_write(tmp_path, cfg)) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_payoff_constant_not_a_number(self, tmp_path, capsys):
        cfg = _cfg(tmp_path, **{"run.payoff_g": {"preset": "constant", "c": "abc"}})
        assert run(_write(tmp_path, cfg)) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_model_fields_not_a_list(self, tmp_path, capsys):
        self._bad_model(tmp_path, capsys, 5)

    @pytest.mark.parametrize("d, m, fields", [("x", 1, [[[]], [[[1.0, [1]]]]]), (1, -1, [])])
    def test_model_bad_dimensions(self, tmp_path, capsys, d, m, fields):
        cfg = _cfg(tmp_path, model={"d": d, "m": m, "fields": fields})
        assert run(_write(tmp_path, cfg)) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("model", [
        {"preset": "linear1d", "x0": ["a"]},
        {"preset": "linear1d", "x0": [1.0, 2.0]},
        {"d": 1, "m": 1, "x0": ["a"], "fields": [[[]], [[[1.0, [1]]]]]},
        {"d": 1, "m": 1, "x0": [1.0, 2.0], "fields": [[[]], [[[1.0, [1]]]]]},
    ], ids=["preset-non-numeric", "preset-wrong-length", "table-non-numeric",
            "table-wrong-length"])
    def test_model_bad_x0(self, tmp_path, capsys, model):
        assert run(_write(tmp_path, _cfg(tmp_path, model=model))) == 2
        assert "model x0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate-sheet", "sample-ou", "verify-rules"])
    def test_one_path_exits_2_without_report(self, tmp_path, capsys, command):
        # a sample variance needs two paths; at one, these reports held bare NaNs
        cfg = _cfg(tmp_path, **{"mc.n_paths": 1})
        cfg["run"] = {"command": command}
        assert run(_write(tmp_path, cfg)) == 2
        assert "need n_paths >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()


class TestRunCommands:
    def test_zero_model_ibp_zero_report(self, tmp_path):
        cfg = _cfg(tmp_path, **{"model.preset": "zero"})
        assert run(_write(tmp_path, cfg)) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["lhs_mean"] == 0.0 and rep["rhs_mean"] == 0.0

    def test_assert_passes_on_honest_linear_model(self, tmp_path):
        cfg = _cfg(tmp_path, **{"mc.n_paths": 20000})
        cfg["grid"] = {"n_s": 128, "n_t": 1, "ds": 1.0 / 128, "dt": 1.0}
        assert run(_write(tmp_path, cfg), assert_thresholds=True) == 0

    def test_assert_fails_on_flipped_sign(self, tmp_path):
        cfg = _cfg(tmp_path, **{"mc.n_paths": 20000, "run.fault": "flip-r-sign"})
        cfg["grid"] = {"n_s": 128, "n_t": 1, "ds": 1.0 / 128, "dt": 1.0}
        assert run(_write(tmp_path, cfg), assert_thresholds=True) == 4

    def test_numeric_failure_exit_code(self, tmp_path):
        cfg = _cfg(tmp_path)
        cfg["run"] = {"command": "solve-hyperbolic", "system": "expgrow"}
        cfg["grid"] = {"n_s": 8, "n_t": 2, "ds": 1e154, "dt": 0.5}
        cfg["mc"]["n_paths"] = 1
        assert run(_write(tmp_path, cfg)) == 3

    def test_nonfinite_sample_exits_3_without_report(self, tmp_path, monkeypatch, capsys):
        def nan_at_path_7(payoff, state, k):
            out = np.zeros(state.x.shape[0])
            out[7] = np.nan
            return out

        monkeypatch.setattr("sheetcalc.verify.apply_L", nan_at_path_7)
        cfg = _cfg(tmp_path, **{"mc.n_paths": 20})
        assert run(_write(tmp_path, cfg), assert_thresholds=True) == 3
        assert "path=(7,)" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_nonfinite_level_value_exits_3_without_report(self, tmp_path, monkeypatch, capsys):
        from sheetcalc import verify

        draw = verify.sample_cell_increments_batch

        def nan_at_path_7(grid, noise, batch):
            incs = draw(grid, noise, batch)
            incs[7 - noise.path_index] = np.nan
            return incs

        monkeypatch.setattr(verify, "sample_cell_increments_batch", nan_at_path_7)
        cfg = _cfg(tmp_path, **{"mc.n_paths": 20})
        cfg["grid"] = {"n_s": 8, "n_t": 4, "ds": 0.125, "dt": 1.0 / 16}
        cfg["run"] = {"command": "holder-scan", "target": "sheet",
                      "lags": [1.0 / 16, 1.0 / 8, 1.0 / 4]}
        assert run(_write(tmp_path, cfg), assert_thresholds=True) == 3
        assert "path=(7,)" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_nonfinite_ou_sample_exits_3_naming_its_global_path(self, tmp_path, monkeypatch,
                                                                capsys):
        from sheetcalc import verify

        draw = verify.sample_ou_exact_batch
        starts = []

        def nan_in_second_block(grid, noise, batch):
            values = draw(grid, noise, batch)
            if noise.path_index > 0:
                starts.append(noise.path_index)
                values[7] = np.nan
            return values

        monkeypatch.setattr(verify, "sample_ou_exact_batch", nan_in_second_block)
        cfg = _cfg(tmp_path, **{"mc.n_paths": verify.SHEET_CHUNK + 100})
        cfg["run"] = {"command": "sample-ou"}
        assert run(_write(tmp_path, cfg), assert_thresholds=True) == 3
        assert len(starts) == 1
        assert f"path=({starts[0] + 7},)" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_ibp_sums_exit_3_without_report(self, tmp_path, capsys):
        # every sample is finite (lhs about 1e242), but its square is not:
        # the SEs must not come out 0 and the verdict must not pass
        cfg = _cfg(tmp_path, **{"mc.n_paths": 20})
        cfg["model"] = {"preset": "linear1d", "x0": [1e60]}
        cfg["run"] = {"command": "run-ibp", "payoff_f": "square", "payoff_g": "square"}
        assert run(_write(tmp_path, cfg), assert_thresholds=True) == 3
        err = capsys.readouterr().err
        assert "non-finite sum" in err and "path=(0,)" in err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_holder_sums_exit_3_without_report(self, tmp_path, capsys):
        # finite lag moments whose squares overflow: no NaN moment_ses
        cfg = _cfg(tmp_path, **{"mc.n_paths": 20})
        cfg["grid"] = {"n_s": 8, "n_t": 4, "ds": 0.125, "dt": 1.0 / 16}
        cfg["model"] = {"preset": "linear1d", "x0": [1e100]}
        cfg["run"] = {"command": "holder-scan", "target": "x",
                      "lags": [1.0 / 16, 1.0 / 8, 1.0 / 4]}
        assert run(_write(tmp_path, cfg)) == 3
        err = capsys.readouterr().err
        assert "non-finite sum" in err and "path=(0,)" in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_simulate_sheet_probes(self, tmp_path):
        cfg = _cfg(tmp_path, **{"mc.n_paths": 4000})
        cfg["run"] = {"command": "simulate-sheet", "field_dump": True}
        assert run(_write(tmp_path, cfg), assert_thresholds=True) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(rep["probes"]) == 9 and rep["all_pass"]
        assert (tmp_path / "out" / "field.csv").read_text().startswith("# sheetcalc-csv")

    def test_sample_ou_ks(self, tmp_path):
        cfg = _cfg(tmp_path, **{"mc.n_paths": 3000})
        cfg["grid"] = {"n_s": 8, "n_t": 32, "ds": 0.125, "dt": 1.0 / 32}
        cfg["run"] = {"command": "sample-ou"}
        assert run(_write(tmp_path, cfg), assert_thresholds=True) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["ks_pvalue"] >= 0.01

    def test_verify_rules(self, tmp_path):
        cfg = _cfg(tmp_path, **{"mc.n_paths": 4000})
        cfg["run"] = {"command": "verify-rules"}
        assert run(_write(tmp_path, cfg), assert_thresholds=True) == 0

    def test_solve_hyperbolic_ou(self, tmp_path):
        cfg = _cfg(tmp_path, **{"mc.n_paths": 16})
        cfg["run"] = {"command": "solve-hyperbolic", "system": "ou"}
        assert run(_write(tmp_path, cfg)) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["domain_fraction"] == 1.0

    def test_reversibility(self, tmp_path):
        cfg = _cfg(tmp_path, **{"mc.n_paths": 4000})
        cfg["run"] = {"command": "run-reversibility", "t_gap": 0.25}
        assert run(_write(tmp_path, cfg), assert_thresholds=True) == 0

    def test_holder_scan_sheet(self, tmp_path):
        cfg = _cfg(tmp_path, **{"mc.n_paths": 4000})
        cfg["grid"] = {"n_s": 8, "n_t": 4, "ds": 0.125, "dt": 1.0 / 16}
        cfg["run"] = {"command": "holder-scan", "target": "sheet",
                      "lags": [1.0 / 16, 1.0 / 8, 1.0 / 4]}
        assert run(_write(tmp_path, cfg), assert_thresholds=True) == 0
        csv = (tmp_path / "out" / "report.csv").read_text()
        assert csv.splitlines()[1] == "lag,moment,moment_se"
        assert len(csv.splitlines()) == 5

    def test_holder_scan_u_process(self, tmp_path):
        cfg = _cfg(tmp_path, **{"mc.n_paths": 2000})
        cfg["grid"] = {"n_s": 32, "n_t": 4, "ds": 1.0 / 32, "dt": 1.0 / 16}
        cfg["run"] = {"command": "holder-scan", "target": "u",
                      "lags": [1.0 / 16, 1.0 / 8, 1.0 / 4]}
        assert run(_write(tmp_path, cfg)) == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["target"] == "u" and len(rep["moments"]) == 3

    def test_sample_ou_detects_coarse_t_discretization(self, tmp_path):
        # at dt = 1 the AR factor 1 - dt/2 is far from e^{-dt/2}: KS rejects
        cfg = _cfg(tmp_path, **{"mc.n_paths": 10000})
        cfg["grid"] = {"n_s": 16, "n_t": 1, "ds": 1.0 / 16, "dt": 1.0}
        cfg["run"] = {"command": "sample-ou"}
        assert run(_write(tmp_path, cfg), assert_thresholds=True) == 4

    def test_main_entry_point(self, tmp_path):
        from sheetcalc.cli import main

        cfg = _cfg(tmp_path, **{"model.preset": "zero"})
        path = _write(tmp_path, cfg)
        assert main(["--config", path]) == 0
        assert main(["--config", path, "--workers", "2", "--seed-override", "5"]) == 0


class TestReproducibility:
    def test_rerun_identical_bytes(self, tmp_path):
        cfg = _cfg(tmp_path)
        path = _write(tmp_path, cfg)
        assert run(path) == 0
        first = (tmp_path / "out" / "report.json").read_bytes()
        first_csv = (tmp_path / "out" / "report.csv").read_bytes()
        assert run(path) == 0
        assert (tmp_path / "out" / "report.json").read_bytes() == first
        assert (tmp_path / "out" / "report.csv").read_bytes() == first_csv

    def test_expanded_config_round_trip(self, tmp_path):
        cfg = _cfg(tmp_path)
        assert run(_write(tmp_path, cfg)) == 0
        report1 = (tmp_path / "out" / "report.json").read_bytes()
        expanded = tmp_path / "out" / "expanded-config.json"
        reparsed = json.loads(expanded.read_text())
        reparsed["output"]["directory"] = str(tmp_path / "out2")
        assert run(_write(tmp_path, reparsed, "expanded.json")) == 0
        assert (tmp_path / "out2" / "report.json").read_bytes() == report1

    def test_worker_table_covers_every_command(self):
        assert sorted(WORKER_CASES) == sorted(COMMANDS)

    @pytest.mark.parametrize("command", sorted(WORKER_CASES))
    def test_workers_do_not_change_bytes(self, command, tmp_path, monkeypatch):
        monkeypatch.delenv("OUTPUT_DIR", raising=False)
        config, n_paths = WORKER_CASES[command]
        one = run_config(config, {"n_paths": n_paths, "workers": 1}, tmp_path / "w1")
        assert "report.json" in one
        # repeated for verify-rules, whose rules share the process's threads
        for rep in range(3 if command == "verify-rules" else 1):
            two = run_config(config, {"n_paths": n_paths, "workers": 2}, tmp_path / f"w2-{rep}")
            assert two == one

    def test_seed_override_changes_digest(self, tmp_path):
        cfg = _cfg(tmp_path)
        a = expand_config(cfg)
        b = expand_config(cfg, seed_override=99)
        assert config_digest(a) != config_digest(b)
        assert b["mc"]["seed"] == 99

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "elsewhere"
        monkeypatch.setenv("OUTPUT_DIR", str(target))
        cfg = _cfg(tmp_path)
        assert run(_write(tmp_path, cfg)) == 0
        assert (target / "report.json").exists()

    def test_digest_excludes_output_section(self, tmp_path):
        a = expand_config(_cfg(tmp_path, outname="a"))
        b = expand_config(_cfg(tmp_path, outname="b"))
        assert config_digest(a) == config_digest(b)


def _fresh(tmp_path, *args):
    """Run `python *args` in a fresh interpreter that imports this tree's
    sheetcalc; pytest's own process has loaded scipy through other tests."""
    env = {k: v for k, v in os.environ.items() if k != "OUTPUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


class TestColdStart:
    """scipy.stats costs about 1 s to import.  No command loads it but
    sample-ou where its KS p-value is scipy's asymptotic one: above 10000
    paths, or at a KS distance so small that the exact sum rounds above 1."""

    def test_import_loads_no_scipy(self, tmp_path):
        out = _fresh(tmp_path, "-c", "import sys, sheetcalc, sheetcalc.cli; "
                     "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert out.returncode == 0, out.stderr
        assert out.stdout == "[]\n"

    def test_simulate_sheet_loads_no_scipy_stats(self, tmp_path):
        cfg = _cfg(tmp_path, **{"mc.n_paths": 200})
        cfg["run"] = {"command": "simulate-sheet"}
        out = _fresh(tmp_path, "-c", "import sys; from sheetcalc import cli; "
                     "print(cli.run(sys.argv[1]), 'scipy.stats' in sys.modules)",
                     _write(tmp_path, cfg))
        assert out.returncode == 0, out.stderr
        assert out.stdout == "0 False\n"

    def test_sample_ou_in_a_fresh_interpreter(self, tmp_path):
        cfg = _cfg(tmp_path, **{"mc.n_paths": 3000})
        cfg["grid"] = {"n_s": 8, "n_t": 32, "ds": 0.125, "dt": 1.0 / 32}
        cfg["run"] = {"command": "sample-ou"}
        out = _fresh(tmp_path, "-c", "import sys; from sheetcalc import cli; "
                     "print(cli.main(sys.argv[1:]), 'scipy.stats' in sys.modules)",
                     "--config", _write(tmp_path, cfg), "--assert")
        assert out.returncode == 0, out.stderr
        assert out.stdout == "0 False\n"
        assert json.loads((tmp_path / "out" / "report.json").read_text())["ks_pvalue"] >= 0.01

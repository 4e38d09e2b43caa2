"""Golden pins: the bytes every shipped config writes, at reduced n_paths.

The rerun checks in test_cli compare two runs of the same code, so a change
that shifts every deviate or every reported float still passes them.  These
pins compare against digests recorded in ``golden/pins.json``: any change to
a normal deviate, an accumulation order or a report format fails here.

A pin changes only on purpose.  Regenerate the file with

    PYTHONPATH=src python tests/test_golden.py --update

and record in CHANGES.md which pins moved and why.  The same command
regenerates ``golden/expanded_pins.json``, the bytes of the
``expanded-config.json`` that each shipped config writes as it stands.
"""

import hashlib
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from sheetcalc import cli
from sheetcalc.cli import run

ROOT = Path(__file__).resolve().parent.parent
PINS = Path(__file__).resolve().parent / "golden" / "pins.json"
EXPANDED_PINS = PINS.with_name("expanded_pins.json")
SHIPPED = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
OUTPUTS = ("report.json", "report.csv", "field.csv")

# case -> (shipped config, mc overrides).  The multi-block cases span two
# path blocks (LINE_CHUNK, FIELD_CHUNK, HYP_CHUNK), one of them also at two
# workers; the ou-cross-validation case at two workers spans three sample-ou
# blocks, and verify-rules at two workers runs its rules on the thread pool;
# the last case draws with a seed above 2**63.
CASES = {
    "bismut-linear": ("bismut-linear", {"n_paths": 2000}),
    "holder-p": ("holder-p", {"n_paths": 2100}),
    "holder-sheet": ("holder-sheet", {"n_paths": 20000}),
    "ibp-linear": ("ibp-linear", {"n_paths": 16500}),
    "ibp-linear-workers-2": ("ibp-linear", {"n_paths": 16500, "workers": 2}),
    "ou-cross-validation": ("ou-cross-validation", {"n_paths": 500}),
    "ou-cross-validation-workers-2": ("ou-cross-validation", {"n_paths": 1100, "workers": 2}),
    "reversibility": ("reversibility", {"n_paths": 4200}),
    "sheet-covariance": ("sheet-covariance", {"n_paths": 2000}),
    "solve-ou-system": ("solve-ou-system", {"n_paths": 16}),
    "verify-rules": ("verify-rules", {"n_paths": 1000}),
    "verify-rules-workers-2": ("verify-rules", {"n_paths": 1000, "workers": 2}),
    "reversibility-seed-2^63+1": ("reversibility", {"n_paths": 500, "seed": 2**63 + 1}),
}


def _without_workers(name, data: bytes) -> bytes:
    """Output bytes with the worker count removed (MC reports record it)."""
    if name == "report.json":
        obj = json.loads(data)
        obj.pop("workers", None)
        return json.dumps(obj, sort_keys=True, indent=2).encode()
    if name == "report.csv":
        lines = data.decode().split("\n")
        keys = lines[1].split(",")
        if "workers" in keys:
            k = keys.index("workers")
            lines[1:3] = [",".join(v for i, v in enumerate(line.split(",")) if i != k)
                          for line in lines[1:3]]
        return "\n".join(lines).encode()
    return data


def run_config(config, overrides, outdir: Path) -> dict:
    """Run a shipped config with mc overrides into outdir; {output file:
    sha256 without workers}."""
    cfg = json.loads((ROOT / "configs" / f"{config}.json").read_text())
    cfg["mc"].update(overrides)
    cfg["output"] = {"directory": str(outdir)}
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "config.json"
    path.write_text(json.dumps(cfg))
    code = run(str(path))
    assert code == 0, f"{config} {overrides}: exit code {code}"
    return {
        name: hashlib.sha256(_without_workers(name, (outdir / name).read_bytes())).hexdigest()
        for name in OUTPUTS if (outdir / name).is_file()
    }


def run_case(case, outdir: Path) -> dict:
    """Run one case into outdir; {output file: sha256 without workers}."""
    return run_config(*CASES[case], outdir)


def expanded_digest(config, workdir: Path) -> str:
    """sha256 of the expanded-config.json that a shipped config writes.

    The config runs unchanged from `workdir`, so its relative output
    directory lands there and the file holds no machine-specific path; the
    command's handler is stubbed out, since the file is written before it
    runs.
    """
    stub = dict.fromkeys(cli._DISPATCH, lambda cfg: ({"kind": "stub"}, True, None))
    path = ROOT / "configs" / f"{config}.json"
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with mock.patch.dict(cli._DISPATCH, stub):
            assert run(str(path)) == 0
        outdir = Path(json.loads(path.read_text())["output"]["directory"])
        data = (outdir / "expanded-config.json").read_bytes()
    finally:
        os.chdir(cwd)
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_pins(case, tmp_path, monkeypatch):
    monkeypatch.delenv("OUTPUT_DIR", raising=False)
    pins = json.loads(PINS.read_text())
    assert run_case(case, tmp_path / "out") == pins[case]


@pytest.mark.parametrize("config", SHIPPED)
def test_expanded_config_pins(config, tmp_path, monkeypatch):
    monkeypatch.delenv("OUTPUT_DIR", raising=False)
    pins = json.loads(EXPANDED_PINS.read_text())
    assert expanded_digest(config, tmp_path) == pins[config]


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    import tempfile

    os.environ.pop("OUTPUT_DIR", None)
    with tempfile.TemporaryDirectory() as tmp:
        pins = {case: run_case(case, Path(tmp) / case) for case in sorted(CASES)}
        expanded = {config: expanded_digest(config, Path(tmp)) for config in SHIPPED}
    PINS.parent.mkdir(exist_ok=True)
    for path, table in ((PINS, pins), (EXPANDED_PINS, expanded)):
        path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(table)} pins to {path}")

"""sheetcalc benchmark: paired Monte Carlo verdict workloads, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 55 --trace 0

One client runs the workload's configs back to back through
`sheetcalc.cli.run` (a closed loop, in this process): one untimed warm-up pass
at `workers=2`, then cycles that run each config once at `workers=1` and once
at `workers=2`, config by config, until the next config would end past
`--seconds`; the first cycle always runs in full.  The seed is written into
`mc.seed` of every generated config; the program sees only those configs.
Before the loop, set-up is timed in fresh interpreters (`setup_probe.py`).

With `--trace 0` the last line reports the end-to-end metrics:
  wall_ref_s.w1, wall_ref_s.w2
                        wall time of one pass at workers=1 and 2 (report
                        writing included) at a reference host speed: the sum
                        over configs of each config's median time, times
                        HOST_REF_S / the median time of the fixed
                        `host_calib()` kernel, which runs before every config.
                        The raw wall times (wall_s.w1, wall_s.w2) and kernel
                        times (host.calib_s) are printed above the last line.
  setup_s               median time from a fresh interpreter to ready
  peak_rss_mib          peak resident set of this process
With `--trace 1` a cycle is an untraced `w1` pass, a traced `w1` pass and a
traced `w2` pass, and the last line reports the per-layer metrics (see
`tracer.py`): busy/self times, rates and counts from the complete traced `w1`
passes, `*.wait_s.w2` (wall minus thread CPU time) from the complete traced
`w2` passes.
A layer's `busy_s`/`self_s` is its time excluding the spans of other layers it
calls; rates divide a layer's work count by that time.

Correctness gate, per config run: a run fails if `cli.run` raises or exits
with a code other than 0 or 4; if its outputs (`report.json`, `report.csv`,
`field.csv`) differ from the first pass once the `workers` field is removed;
if their raw bytes differ from the first pass at the same worker count (so a
traced pass must match an untraced one); and, at the default seed, if it exits
non-zero or its outputs differ from the digests pinned in `reference.json`.
Exit code 4 (a verdict outside its tolerance under `--assert`) at any other
seed is a statistical outcome of that seed, not an operation failure: it is
reported by config name and not counted in `failed`.  The exact work counts of
the traced passes must repeat across passes and worker counts.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracer import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
DEFAULT_SEED = 20260809
SETUP_PROBES = 5
OUTPUTS = ("report.json", "report.csv", "field.csv")
REQUIRED_OUTPUTS = ("report.json", "report.csv")

# Shipped configs (configs/*.json) with n_paths, and for the reversibility field
# the grid, resized so that a workers=1 pass takes about 3 s (sweep) and 8 s
# (noise_line).  Two workloads with long runs, not more with short ones: the
# speed of a shared 2-vCPU host drifts in phases of a minute or more, and only
# runs that span much of such a phase give medians that repeat.
WORKLOADS = {
    # Noise- and line-bound: many small Philox draws (verify-rules), a few
    # large ones (sample-ou, the reversibility field), and the state/flow and
    # Malliavin lines with model callbacks over two 16384-path blocks (run-ibp,
    # run-bismut at 128 steps); no 2-D hyperbolic sweep.
    "noise_line": {
        "verify-rules": {
            "grid": {"n_s": 16, "n_t": 16, "ds": 0.0625, "dt": 0.0625},
            "mc": {"n_paths": 1000},
            "run": {"command": "verify-rules"},
        },
        "reversibility": {
            "grid": {"n_s": 32, "n_t": 16, "ds": 0.03125, "dt": 0.015625},
            "model": {"preset": "linear1d"},
            "mc": {"n_paths": 8192},
            "run": {"command": "run-reversibility", "t_gap": 0.25},
        },
        "ou-cross-validation": {
            "grid": {"n_s": 16, "n_t": 64, "ds": 0.0625, "dt": 0.015625},
            "mc": {"n_paths": 1000},
            "run": {"command": "sample-ou"},
        },
        "ibp-linear": {
            "grid": {"n_s": 128, "n_t": 1, "ds": 0.0078125, "dt": 1.0},
            "model": {"preset": "linear1d"},
            "mc": {"n_paths": 32768},
            "run": {"command": "run-ibp"},
        },
        "bismut-linear": {
            "grid": {"n_s": 128, "n_t": 1, "ds": 0.0078125, "dt": 1.0},
            "model": {"preset": "linear1d"},
            "mc": {"n_paths": 32768},
            "run": {"command": "run-bismut"},
        },
    },
    # Sweep-bound: a wide holder scan (two 2048-path blocks, array-bound) and a
    # narrow 64-path solve (bound by per-cell interpreter work) at the shipped
    # 32x32 grid.  The narrow solve's time jitters by about 1.5x between
    # half-minute windows on a shared host, at any grid size tried (32x32,
    # 64x64), while the other configs move by about 1.2x; at the shipped grid
    # it is a small share of the pass, so that jitter does not swamp the
    # workload's wall time.
    "sweep": {
        "holder-p": {
            "grid": {"n_s": 32, "n_t": 16, "ds": 0.03125, "dt": 0.03125},
            "mc": {"n_paths": 4096},
            "run": {"command": "holder-scan", "target": "p", "system": "bounded1d",
                    "lags": [0.0625, 0.125, 0.25]},
        },
        "solve-ou-system": {
            "grid": {"n_s": 32, "n_t": 32, "ds": 0.03125, "dt": 0.03125},
            "mc": {"n_paths": 64},
            "run": {"command": "solve-hyperbolic", "system": "ou", "field_dump": True},
        },
    },
}


@dataclass
class Pass:
    """One run of each of a workload's configs at one worker count."""
    workers: int
    traced: bool
    calib: list = field(default_factory=list)  # host_calib() before each config
    config_s: dict = field(default_factory=dict)
    codes: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    summary: dict = None

    @property
    def wall(self) -> float:
        return sum(self.config_s.values())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _without_workers(name: str, data: bytes) -> bytes:
    """Report bytes with the worker count removed (MC reports record it)."""
    if name == "report.json":
        obj = json.loads(data)
        obj.pop("workers", None)
        return json.dumps(obj, sort_keys=True, indent=2).encode()
    if name == "report.csv":
        lines = data.decode().split("\n")
        if len(lines) > 2:
            keys = lines[1].split(",")
            if "workers" in keys:
                k = keys.index("workers")
                # A row whose values hold commas keeps its worker count, so
                # the gate reports it instead of passing it unchecked.
                for i in range(1, len(lines)):
                    fields = lines[i].split(",")
                    if len(fields) == len(keys):
                        lines[i] = ",".join(fields[:k] + fields[k + 1:])
        return "\n".join(lines).encode()
    return data


def _output_digests(outdir: Path) -> dict:
    """{file: (raw sha256, sha256 without the worker count)} of a run's outputs."""
    out = {}
    for name in OUTPUTS:
        path = outdir / name
        if path.is_file():
            data = path.read_bytes()
            out[name] = (_sha(data), _sha(_without_workers(name, data)))
    return out


_CALIB = np.full((2048, 33, 17), 1.0)  # written, so its pages are mapped
# Reference time of host_calib(): about its median on the 2-vCPU host the
# benchmark was tuned on, when that host was quiet.  A fixed constant, so that
# wall_ref_s values compare across runs and commits.
HOST_REF_S = 0.05


def host_calib() -> float:
    """Time of a fixed numpy kernel that tracks the host's speed.

    Per-cell updates of strided (paths,) slices of a (paths, s, t) array, like
    a hyperbolic sweep.  In three sets of runs on a shared 2-vCPU host whose
    speed drifted by up to 40 % over 20 minutes, the run medians of its time
    correlated 0.75-0.98 with the workloads' run medians where the drift was
    large, and near 0 with noise_line's where it was small.  The updates
    contract (0.5 + 0.25 < 1), so the values stay bounded.
    """
    a = _CALIB
    t0 = time.perf_counter()
    for _ in range(3):
        for i in range(32):
            for j in range(16):
                a[:, i + 1, j + 1] = a[:, i, j + 1] * 0.5 + a[:, i + 1, j] * 0.25 + 1.0
    return time.perf_counter() - t0


def tail(seconds) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    xs = sorted(seconds)
    n = len(xs)
    text = f"median {statistics.median(xs):.4f} s"
    if n >= 11:
        p = math.floor(100 * (n - 10) / n)
        text += f", p{p} {xs[math.ceil(p * n / 100) - 1]:.4f} s"
    else:
        text += ", no percentile with 10 samples beyond it"
    return text + f", n={n}"


class Bench:
    def __init__(self, workload, seed, cli):
        self.cli = cli
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.configs = {}  # workers -> [(name, config path, output dir)]
        for workers in (1, 2):
            entries = []
            for name, body in WORKLOADS[workload].items():
                cfg = copy.deepcopy(body)
                cfg["mc"].update(seed=seed, workers=workers)
                outdir = self.dir / f"w{workers}" / name
                cfg["output"] = {"directory": str(outdir)}
                path = self.dir / f"w{workers}" / f"{name}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(cfg, indent=2) + "\n")
                entries.append((name, path, outdir))
            self.configs[workers] = entries

    def setup_probe(self):
        """Wall time from a fresh interpreter's start to ready, and its parts."""
        env = {k: v for k, v in os.environ.items() if k != "OUTPUT_DIR"}
        cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
        cmd += [str(path) for _, path, _ in self.configs[1]]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            try:
                proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        parts = json.loads(line)
        return wall, parts["import_s"], parts["expand_s"]

    def run_config(self, p: Pass, index, tracer=None):
        """Run config `index` of the workload into pass `p`, traced if a tracer is given."""
        name, path, outdir = self.configs[p.workers][index]
        shutil.rmtree(outdir, ignore_errors=True)
        p.calib.append(host_calib())
        if tracer is not None:
            tracer.install()
        try:
            t = time.perf_counter()
            try:
                p.codes[name] = self.cli.run(str(path), assert_thresholds=True)
            except Exception:
                traceback.print_exc()
                p.codes[name] = "exception"
            p.config_s[name] = time.perf_counter() - t
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            p.spans.extend(tracer.take())
        p.digests[name] = _output_digests(outdir)

    def complete(self, p: Pass) -> bool:
        return len(p.codes) == len(self.configs[p.workers])

    def write_spans(self, passes):
        """Write every traced pass's spans, one JSON object per line."""
        with open(self.dir / "spans.jsonl", "w") as fh:
            for index, p in enumerate(passes):
                for s in p.spans:
                    fh.write(json.dumps({
                        "pass": index, "workers": p.workers, "id": s.id, "parent": s.parent,
                        "layer": s.layer, "name": s.name, "thread": s.thread,
                        "wall_s": s.wall, "cpu_s": s.cpu,
                    }) + "\n")


def gate(passes, seed, pins):
    """(attempted, failed, [failure lines], Counter of verdict breaches)."""
    attempted = failed = 0
    failures = []
    breaches = Counter()
    first = passes[0]
    first_at = {}
    for p in passes:
        same_workers = first_at.setdefault(p.workers, p)
        for name, code in p.codes.items():
            attempted += 1
            got = p.digests[name]
            reasons = []
            if code == 4 and seed != DEFAULT_SEED:
                breaches[name] += 1
            elif code != 0:
                reasons.append(f"exit {code}")
            missing = [f for f in REQUIRED_OUTPUTS if f not in got]
            if missing:
                reasons.append(f"missing {', '.join(missing)}")
            norm = {f: d[1] for f, d in got.items()}
            if norm != {f: d[1] for f, d in first.digests[name].items()}:
                reasons.append(f"outputs differ from the first w{first.workers} pass")
            if {f: d[0] for f, d in got.items()} != {
                    f: d[0] for f, d in same_workers.digests[name].items()}:
                reasons.append(f"bytes differ from the first w{p.workers} pass")
            if seed == DEFAULT_SEED and norm != pins.get(name):
                reasons.append(f"differs from the pinned digests: expected {pins.get(name)}, "
                               f"got {norm}")
            if reasons:
                failed += 1
                kind = "traced" if p.traced else "untraced"
                failures.append(f"{name} ({kind} w{p.workers} pass): {'; '.join(reasons)}")
    return attempted, failed, failures, breaches


def _median(values):
    return statistics.median(values) if values else 0.0


def pass_wall(passes) -> float:
    """Wall time of the median pass, taken config by config: the sum over the
    configs of each one's median time across the passes that ran it."""
    names = {name for p in passes for name in p.config_s}
    return sum(_median([p.config_s[n] for p in passes if n in p.config_s]) for n in names)


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(w1, w2, untraced_w1, setup) -> dict:
    """Per-layer metrics: medians over the traced passes of each kind."""
    def med(fn, passes):
        return _median([fn(p.summary) for p in passes])

    counts = w1[0].summary["counts"]
    self_s = {layer: med(lambda s, l=layer: s["self_s"][l], w1)
              for layer in ("philox", "lattice", "sheet", "stochcalc", "rules",
                            "hyperbolic", "malliavin", "models", "verify", "cli")}
    state_s = med(lambda s: s["name_self"]["solve_state_line"], w1)
    flow_s = med(lambda s: s["name_self"]["compute_malliavin_line"], w1)
    traced_wall = pass_wall(w1)
    plain_wall = pass_wall(untraced_w1)
    values = {
        "philox.calls": (counts["philox.calls"], "count"),
        "philox.normals": (counts["philox.normals"], "count"),
        "philox.busy_s": (self_s["philox"], "s"),
        "philox.normals_per_s": (_rate(counts["philox.normals"], self_s["philox"]), "1/s"),
        "lattice.self_s": (self_s["lattice"], "s"),
        "lattice.useful_frac": (_rate(counts["lattice.returned"], counts["philox.normals"]),
                                "ratio"),
        "sheet.cell_paths": (counts["sheet.cell_paths"], "count"),
        "sheet.busy_s": (self_s["sheet"], "s"),
        "sheet.cell_paths_per_s": (_rate(counts["sheet.cell_paths"], self_s["sheet"]), "1/s"),
        "stochcalc.busy_s": (self_s["stochcalc"], "s"),
        "rules.self_s": (self_s["rules"], "s"),
        "hyperbolic.cell_paths": (counts["hyperbolic.cell_paths"], "count"),
        "hyperbolic.busy_s": (self_s["hyperbolic"], "s"),
        "hyperbolic.cell_paths_per_s": (
            _rate(counts["hyperbolic.cell_paths"], self_s["hyperbolic"]), "1/s"),
        "hyperbolic.wait_s.w2": (med(lambda s: s["wait"]["hyperbolic"], w2), "s"),
        "malliavin.state_line.step_paths": (counts["malliavin.state_line.step_paths"], "count"),
        "malliavin.flow_line.step_paths": (counts["malliavin.flow_line.step_paths"], "count"),
        "malliavin.state_line.step_paths_per_s": (
            _rate(counts["malliavin.state_line.step_paths"], state_s), "1/s"),
        "malliavin.flow_line.step_paths_per_s": (
            _rate(counts["malliavin.flow_line.step_paths"], flow_s), "1/s"),
        "malliavin.busy_s": (self_s["malliavin"], "s"),
        "malliavin.wait_s.w2": (med(lambda s: s["wait"]["malliavin"], w2), "s"),
        "models.evals": (counts["models.evals"], "count"),
        "models.busy_s": (self_s["models"], "s"),
        "verify.blocks": (counts["verify.blocks"], "count"),
        "verify.self_s": (self_s["verify"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "config.expand_s": (_median([s[2] for s in setup]), "s"),
        "setup.import_s": (_median([s[1] for s in setup]), "s"),
        "host.calib_s": (_median([c for p in w1 + w2 + untraced_w1 for c in p.calib]), "s"),
        "trace.overhead_frac": ((traced_wall - plain_wall) / plain_wall, "ratio"),
    }
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sheetcalc" / "__init__.py").is_file():
        print(f"perfbench: no sheetcalc sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("OUTPUT_DIR", None)
    sys.path.insert(0, str(SRC))
    import scipy
    import sheetcalc
    from sheetcalc import cli
    if Path(sheetcalc.__file__).resolve().parent != SRC / "sheetcalc":
        print(f"perfbench: imported sheetcalc from {sheetcalc.__file__}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, cli)
    setup = [bench.setup_probe() for _ in range(SETUP_PROBES)]
    cycle = [(1, False), (1, True), (2, True)] if args.trace else [(1, False), (2, False)]
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    # First-call costs (lazy imports, first large allocations) land here; the
    # warm-up pass is checked by the gate but not timed into any metric.  It
    # runs at workers=2, the shorter pass, so more of the run is measured.
    warmup = Pass(2, False)
    n_configs = len(WORKLOADS[args.workload])
    for index in range(n_configs):
        bench.run_config(warmup, index)
    # A cycle runs each config once per pass kind, config by config, so that
    # the kinds see the same drift of host speed.  The run stops before a
    # config that would end past --seconds (judged by its last duration), so
    # the last cycle may be partial; the first cycle always runs in full.
    passes, last_s, stop = [], {}, False
    while not stop:
        batch = [Pass(workers, traced) for workers, traced in cycle]
        passes += batch
        for index in range(n_configs):
            for p in batch:
                key = (p.workers, p.traced, index)
                t = time.perf_counter()
                if len(passes) > len(cycle) and t + last_s[key] > start + args.seconds:
                    stop = True
                    break
                bench.run_config(p, index, tracer if p.traced else None)
                last_s[key] = time.perf_counter() - t
            if stop:
                break
    passes = [p for p in passes if p.codes]
    for p in passes:
        if p.traced and bench.complete(p):
            p.summary = summarize(p.spans)
    if tracer is not None:
        bench.write_spans([p for p in passes if p.traced])

    pins = json.loads((HERE / "reference.json").read_text())["digests"].get(args.workload, {})
    attempted, failed, failures, breaches = gate([warmup] + passes, args.seed, pins)
    correct = failed == 0
    plain = {w: [p for p in passes if p.workers == w and not p.traced] for w in (1, 2)}
    traced = {w: [p for p in passes if p.workers == w and p.summary] for w in (1, 2)}
    calibs = [c for p in passes for c in p.calib]
    # The pass wall at the host speed at which host_calib() takes HOST_REF_S:
    # divides out the drift of a shared host's speed over minutes, which no
    # median within one run removes.
    host_scale = HOST_REF_S / _median(calibs)
    if tracer is not None:
        counts = [p.summary["counts"] for p in traced[1] + traced[2]]
        if any(c != counts[0] for c in counts):
            correct = False
            failures.append(f"exact work counts differ between traced passes: {counts}")

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} configs={','.join(WORKLOADS[args.workload])}")
    print(f"host: nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]} "
          f"numpy={np.__version__} scipy={scipy.__version__} "
          f"host.calib_s {tail(calibs)}")
    for w in (1, 2):
        ps = traced[w] if args.trace and w == 2 else plain[w]
        kind = "traced" if args.trace and w == 2 else "untraced"
        print(f"wall_s.w{w} ({kind}, workers={w}): {pass_wall(ps):.4f} s, the sum of "
              f"the config medians; complete passes "
              f"{tail([p.wall for p in ps if bench.complete(p)])}")
        print(f"wall_ref_s.w{w}: {pass_wall(ps) * host_scale:.4f} s at the reference "
              f"host speed (x {host_scale:.4f})")
        for name in WORKLOADS[args.workload]:
            print(f"  {name}: {tail([p.config_s[name] for p in ps if name in p.config_s])}")
    print(f"setup_s: {tail([s[0] for s in setup])}")
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"peak_rss_mib: {peak_rss_mib:.1f} MiB")
    print(f"fail_frac: {failed / attempted:g} ({failed} of {attempted} config runs)")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    if breaches:
        print("verdict outside tolerance at this seed (exit 4 under --assert): "
              + ", ".join(f"{n} in {k} of {sum(n in p.codes for p in [warmup] + passes)} runs"
                          for n, k in sorted(breaches.items())))
    if tracer is not None and tracer.missing:
        print(f"not traced (absent): {', '.join(tracer.missing)}")

    if args.trace:
        values = layer_metrics(traced[1], traced[2], plain[1], setup)
        for name, (value, unit) in values.items():
            print(f"  {name}: {value:.6g} {unit}")
    else:
        values = {
            "wall_ref_s.w1": (pass_wall(plain[1]) * host_scale, "s"),
            "wall_ref_s.w2": (pass_wall(plain[2]) * host_scale, "s"),
            "setup_s": (_median([s[0] for s in setup]), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

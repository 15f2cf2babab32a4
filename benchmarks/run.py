"""End-to-end benchmark for tauber.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is used from `src/` without
being installed, through its public entry points only: the `tauber` CLI
(`python -m tauber.cli` with PYTHONPATH=src) and the functions the
`tauber` package exports.  Every operation's output is checked; a failed
check or an exception counts as a failed operation.

Workloads (closed loop, one client, at most one child process at a time;
see README.md for why each was chosen):

  cli_rerun       `tauber run <scenario> --format both` as a subprocess,
                  cycling the bundled scenarios into one output directory
                  that a warm-up pass has filled, so every run overwrites
                  byte-identical reports.
  scenario_sweep  one warm process; an operation is load_scenario +
                  run_scenario + emit to a fresh directory, over the
                  bundled scenarios at n_max=1e8, grid_ratio=1.25 and the
                  committed stress scenarios in benchmarks/scenarios/.
  sign_isolation  freshly drawn densities c + A cos(bx + phi) with hundreds
                  to thousands of sign changes; an operation is jordan on
                  one half of the interval and abs_transform on the other,
                  both checked against closed-form roots.
  sign_isolation_tangent
                  sign_isolation with every fourth draw near-tangent; not
                  in BENCHMARK.json, because those draws fail at present.

`--trace 0` prints the end-to-end metrics.  `--trace 1` spends the first
half of the run untraced and the second half replaying the same inputs
with every layer wrapped (see tracing.py), and prints per-layer metrics;
the spans go to .bench_work/trace/<workload>.tsv.gz.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Callable, NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SCENARIO_DATA = SRC / "tauber" / "data"
BUNDLED = ("signed_dipole", "mollified_delta", "oscillatory_index_two")
STRESS = ("jordan_stress", "quadrature_stress")
SWEEP_CONFIG = {"n_max": 100_000_000, "grid_ratio": 1.25}
SETUP_REPEATS = 7          # fresh worker starts per run, for setup_s
CLI_SETUP_REPEATS = 5      # warm-up passes into fresh directories (cli_rerun)
CHILD_TIMEOUT_S = 120.0
# sign_isolation: periods of c + A cos(bx + phi) per operation (two sign
# changes each).  Every pass draws one density per level, so p50 and p90
# fall inside a level and do not move with the seed.
PERIOD_LEVELS = (150, 500, 1500)
REL_TOL = 1e-9
NEAR_TANGENT_SHARE = 0.25  # sign_isolation_tangent only


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def rng_for(seed: int, *key) -> random.Random:
    return random.Random(":".join(str(k) for k in (seed, *key)))


class Op(NamedTuple):
    """One benchmark operation: `run` is timed, `check` is not."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


# -- cli_rerun --------------------------------------------------------------


class CliRerun:
    """The tauber CLI as a subprocess per operation (see the module docstring)."""

    name = "cli_rerun"
    in_process = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.work = WORK / "cli_rerun"
        self.reference: dict[str, dict[str, bytes]] = {}
        # report file stem per scenario: its name (the bundled names need no slugging)
        self.stems = {name: json.loads((SCENARIO_DATA / f"{name}.json").read_text())["name"]
                      for name in BUNDLED}
        self.import_samples: list[float] = []
        self.tracer = None
        self.out_dir: Path | None = None

    def setup(self) -> list[float]:
        """Fill fresh output directories with a warm-up pass, several times."""
        shutil.rmtree(self.work, ignore_errors=True)
        samples = []
        for k in range(CLI_SETUP_REPEATS):
            self.out_dir = self.work / f"out{k}"
            started = time.perf_counter()
            for name in BUNDLED:
                code, _ = self._invoke(name, traced=False)
                if code != 0:
                    raise RuntimeError(f"warm-up run of {name} exited {code}")
            samples.append(time.perf_counter() - started)
            for name in BUNDLED:
                files = self._read(name)
                if self.reference.setdefault(name, files) != files:
                    raise RuntimeError(f"warm-up reports of {name} differ between passes")
        return samples

    def _read(self, name: str) -> dict[str, bytes]:
        return {p.name: p.read_bytes()
                for p in sorted(self.out_dir.iterdir()) if p.stem == self.stems[name]}

    def _invoke(self, name: str, traced: bool) -> tuple[int, dict | None]:
        scenario = str(SCENARIO_DATA / f"{name}.json")
        args = ["run", scenario, "--format", "both", "--out", str(self.out_dir)]
        export = self.work / "child_trace.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(export), *args]
        else:
            cmd = [sys.executable, "-m", "tauber.cli", *args]
        spawned = time.monotonic()
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.DEVNULL,
                              timeout=CHILD_TIMEOUT_S, check=False)
        if not traced:
            return proc.returncode, None
        data = json.loads(export.read_text())
        export.unlink()
        self.import_samples.append(data["import_done"] - spawned)
        return proc.returncode, data

    def pass_ops(self, index: int, traced: bool) -> list[Op]:
        order = list(BUNDLED)
        rng_for(self.seed, "cli_rerun", index).shuffle(order)
        ops = []
        for name in order:
            def run(name=name):
                code, data = self._invoke(name, traced)
                if data is not None:
                    self.tracer.merge(data, self.tracer.op_id)
                return code

            def check(code, name=name):
                return code == 0 and self._read(name) == self.reference[name]

            ops.append(Op(name, run, check))
        return ops

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- in-process workloads ---------------------------------------------------


class InProcess:
    """Base for workloads that run in this (warm) process.

    setup_s is measured on fresh worker processes (`--probe`): each
    imports tauber and prepares the inputs, as this process does before
    its first operation."""

    in_process = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.import_samples: list[float] = []
        self.tracer = None

    def prepare(self) -> None:
        """Input preparation that every worker does before its first operation."""

    def setup(self) -> list[float]:
        samples = []
        for _ in range(SETUP_REPEATS):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", self.name,
                   "--seed", str(self.seed), "--probe"]
            spawned = time.monotonic()
            out = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                                 timeout=CHILD_TIMEOUT_S, check=True).stdout
            probe = json.loads(out.strip().splitlines()[-1])
            samples.append(probe["ready"] - spawned)
            self.import_samples.append(probe["import_done"] - spawned)
        import tauber  # noqa: F401 -- this worker's own setup
        self.prepare()
        return samples

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ScenarioSweep(InProcess):
    name = "scenario_sweep"

    def prepare(self) -> None:
        self.work = WORK / "scenario_sweep"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inputs: dict[str, Path] = {}
        for name in BUNDLED:
            doc = json.loads((SCENARIO_DATA / f"{name}.json").read_text())
            doc["config"] = {**doc.get("config", {}), **SWEEP_CONFIG}
            path = self.work / f"{name}.json"
            path.write_text(json.dumps(doc))
            self.inputs[name] = path
        for name in STRESS:
            self.inputs[name] = BENCH / "scenarios" / f"{name}.json"
        self.reference: dict[str, dict[str, bytes]] = {}
        self.op_count = 0

    def pass_ops(self, index: int, traced: bool) -> list[Op]:
        import tauber

        order = sorted(self.inputs)
        rng_for(self.seed, "scenario_sweep", index).shuffle(order)
        ops = []
        for name in order:
            self.op_count += 1
            out_dir = self.work / "out" / f"op{self.op_count:06d}"

            def run(name=name, out_dir=out_dir):
                report = tauber.run_scenario(tauber.load_scenario(self.inputs[name]))
                return report.exit_code, tauber.emit(report, out_dir, "both")

            def check(result, name=name):
                code, paths = result
                files = {p.name: p.read_bytes() for p in paths}
                shutil.rmtree(paths[0].parent)
                return code == 0 and self.reference.setdefault(name, files) == files

            ops.append(Op(name, run, check))
        return ops


class Draw:
    """f(x) = c + A cos(b x + phi) on [lo, hi), with its roots in closed form."""

    def __init__(self, rng: random.Random, periods: int, near_tangent: bool) -> None:
        self.amp = rng.uniform(0.5, 2.0)
        ratio = 1.0 - rng.uniform(0.0, 1e-2) if near_tangent else rng.uniform(0.0, 0.9)
        self.c = rng.choice((-1.0, 1.0)) * ratio * self.amp
        self.b = rng.uniform(5.0, 50.0)
        self.phi = rng.uniform(0.0, 2.0 * math.pi)
        self.lo = rng.uniform(0.0, 5.0)
        self.hi = self.lo + periods * rng.uniform(0.9, 1.1) * 2.0 * math.pi / self.b
        self.mid = 0.5 * (self.lo + self.hi)
        self.lam = rng.uniform(0.0, 0.05)

    def expression(self):
        from tauber import Expression, Term

        return Expression((
            Term(self.c),
            Term(self.amp * math.cos(self.phi), 0.0, 0.0, "cos", self.b),
            Term(-self.amp * math.sin(self.phi), 0.0, 0.0, "sin", self.b),
        ))

    def pieces(self, lo: float, hi: float) -> list[tuple[float, float]]:
        """Constant-sign pieces of f on [lo, hi), cut at the exact roots."""
        theta = math.acos(-self.c / self.amp)
        two_pi = 2.0 * math.pi
        k0 = math.floor((self.b * lo + self.phi - theta) / two_pi) - 1
        k1 = math.ceil((self.b * hi + self.phi + theta) / two_pi) + 1
        roots = sorted(
            x for k in range(k0, k1 + 1) for s in (theta, -theta)
            if lo < (x := (s - self.phi + two_pi * k) / self.b) < hi
        )
        edges = [lo, *roots, hi]
        return list(zip(edges, edges[1:]))


class SignIsolation(InProcess):
    name = "sign_isolation"
    near_tangent_share = 0.0

    def pass_ops(self, index: int, traced: bool) -> list[Op]:
        import tauber

        rng = rng_for(self.seed, self.name, index)
        ops = []
        for level, periods in enumerate(PERIOD_LEVELS):
            near = (index * len(PERIOD_LEVELS) + level) % 4 < 4 * self.near_tangent_share
            draw = Draw(rng, periods, near)
            expr = draw.expression()
            left, right = (tauber.SignedMeasure(segments=(tauber.DensitySegment(a, b, expr),))
                           for a, b in ((draw.lo, draw.mid), (draw.mid, draw.hi)))

            def run(left=left, right=right, lam=draw.lam):
                return tauber.jordan(left), tauber.abs_transform(right, lam)

            def check(result, draw=draw, expr=expr):
                (pos, neg), tv = result
                ref_pos = ref_neg = 0.0
                for a, b in draw.pieces(draw.lo, draw.mid):
                    mass = expr.integral(a, b)
                    if mass > 0:
                        ref_pos += mass
                    else:
                        ref_neg -= mass
                ref_abs = sum(abs(expr.integral(a, b, extra_decay=draw.lam))
                              for a, b in draw.pieces(draw.mid, draw.hi))
                pos_mass = sum(s.density.integral(s.lo, s.hi) for s in pos.segments)
                neg_mass = sum(s.density.integral(s.lo, s.hi) for s in neg.segments)
                return (
                    reproduces(expr, draw.lo, draw.mid, pos, neg)
                    and close(pos_mass, ref_pos, 0.0)
                    and close(neg_mass, ref_neg, 0.0)
                    and close(tv.value, ref_abs, tv.error_bound)
                )

            ops.append(Op(f"periods={periods}{' near-tangent' if near else ''}", run, check))
        return ops


class SignIsolationTangent(SignIsolation):
    """sign_isolation with a stated share of near-tangent draws, |c|/A in
    [0.99, 1): their close root pairs fall between the isolation samples.
    Not listed in BENCHMARK.json, because its operations fail at this
    commit (see README.md)."""

    name = "sign_isolation_tangent"
    near_tangent_share = NEAR_TANGENT_SHARE


def close(value: float, reference: float, bound: float) -> bool:
    return abs(value - reference) <= bound + REL_TOL * abs(reference)


def reproduces(expr, lo: float, hi: float, pos, neg) -> bool:
    """pos - neg == expr on [lo, hi): the parts tile the interval with +-expr."""
    if pos.atoms or neg.atoms:
        return False
    parts = sorted([(s.lo, s.hi, s.density) for s in pos.segments]
                   + [(s.lo, s.hi, -s.density) for s in neg.segments],
                   key=lambda p: p[0])
    edge = lo
    for a, b, density in parts:
        if a != edge or density != expr:
            return False
        edge = b
    return edge == hi


WORKLOADS = {cls.name: cls
             for cls in (CliRerun, ScenarioSweep, SignIsolation, SignIsolationTangent)}


# -- measurement --------------------------------------------------------------


class Phase:
    """Latencies and outcomes of whole passes run back to back."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.pass_times: list[float] = []


def run_phase(workload, seconds: float, traced: bool,
              max_passes: int | None = None) -> Phase:
    """Run passes 0, 1, ... until `seconds` have passed (at least one pass)."""
    phase = Phase()
    started = time.perf_counter()
    index = 0
    while (time.perf_counter() - started < seconds or not phase.pass_times) and \
            (max_passes is None or len(phase.pass_times) < max_passes):
        busy = 0.0
        for op in workload.pass_ops(index, traced):
            scope = workload.tracer.op(len(phase.latencies)) if traced else nullcontext()
            t0 = time.perf_counter()
            dt = None
            try:
                with scope:
                    result = op.run()
                dt = time.perf_counter() - t0
                ok = op.check(result)
            except Exception:  # noqa: BLE001 -- an operation that raises has failed
                dt = time.perf_counter() - t0 if dt is None else dt
                traceback.print_exc(file=sys.stderr)
                ok = False
            if not ok:
                phase.failed += 1
                print(f"failed: {workload.name} pass {index} {op.label}", file=sys.stderr)
            phase.latencies.append(dt)
            busy += dt
        phase.pass_times.append(busy)
        index += 1
    return phase


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(workload, setup: list[float], phase: Phase) -> dict:
    lat = phase.latencies
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (percentile(lat, 0.5), "s"),
        "op_p90_s": (percentile(lat, 0.9), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "ops_ok_frac": (1.0 - phase.failed / len(lat), "frac"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }


def per_layer(workload, plain: Phase, traced: Phase) -> dict:
    tr = workload.tracer
    n = len(traced.latencies)

    def calls(name: str) -> float:
        return tr.aggs[name].calls / n if name in tr.aggs else 0.0

    def secs(name: str) -> float:
        return tr.aggs[name].total / n if name in tr.aggs else 0.0

    def count(name: str) -> float:
        return tr.counters.get(name, 0.0) / n

    matched = len(traced.pass_times)
    overhead = sum(traced.pass_times) / sum(plain.pass_times[:matched]) - 1.0
    sign_runs = calls("decomposition.sign_runs")
    return {
        "cli.import_s": (statistics.median(workload.import_samples), "s"),
        "scenarios.emit_s": (secs("scenarios.emit"), "s/op"),
        "scenarios.emit_bytes": (count("scenarios.emit_bytes"), "B/op"),
        "scenarios.emit_overwrites": (count("scenarios.emit_overwrites"), "1/op"),
        "scenarios.run_self_s": (tr.self_time("scenarios.run_scenario") / n, "s/op"),
        "scenarios.load_s": (secs("scenarios.load_scenario"), "s/op"),
        "convergence.self_s": (tr.self_time("convergence") / n, "s/op"),
        "convergence.measure_calls": (calls("convergence.MeasureSequence.measure"), "1/op"),
        "convergence.measure_s": (secs("convergence.MeasureSequence.measure"), "s/op"),
        "tauberian.self_s": (tr.self_time("tauberian") / n, "s/op"),
        "tauberian.karamata_s": (secs("tauberian.karamata_pipeline"), "s/op"),
        "transforms.self_s": (tr.self_time("transforms") / n, "s/op"),
        "transforms.laplace_calls": (calls("transforms.laplace_transform"), "1/op"),
        "transforms.abs_calls": (calls("transforms.abs_transform"), "1/op"),
        "transforms.abs_s": (secs("transforms.abs_transform"), "s/op"),
        "transforms.periodic_tail_calls": (calls("decomposition.periodic_tail_structure"), "1/op"),
        "transforms.quad_calls": (calls("transforms.quad"), "1/op"),
        "decomposition.self_s": (tr.self_time("decomposition") / n, "s/op"),
        "decomposition.sign_runs_calls": (sign_runs, "1/op"),
        "decomposition.sign_runs_s": (secs("decomposition.sign_runs"), "s/op"),
        "decomposition.roots": (count("decomposition.roots"), "1/op"),
        "decomposition.repeat_isolation_frac": (
            count("decomposition.repeat_isolations") / sign_runs if sign_runs else 0.0, "frac"),
        "measures.self_s": (tr.self_time("measures") / n, "s/op"),
        "measures.evaluate_calls": (calls("measures.Expression.evaluate"), "1/op"),
        "measures.integral_calls": (calls("measures.Expression.integral"), "1/op"),
        "measures.distribution_calls": (calls("measures.SignedMeasure.distribution"), "1/op"),
        "kernel.calls": (calls("kernel.power_exp_integral"), "1/op"),
        "kernel.s": (secs("kernel.power_exp_integral"), "s/op"),
        "trace.overhead_frac": (overhead, "frac"),
    }


def probe(workload) -> int:
    """Fresh-worker setup: import tauber, prepare inputs, report timestamps."""
    import tauber  # noqa: F401

    import_done = time.monotonic()
    workload.prepare()
    print(json.dumps({"import_done": import_done, "ready": time.monotonic()}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "tauber" / "__init__.py").is_file():
        print(f"error: no tauber package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed)
    if args.probe:
        return probe(workload)

    setup = workload.setup()
    if args.trace:
        from tracing import Tracer

        plain = run_phase(workload, args.seconds / 2, traced=False)
        workload.tracer = Tracer()
        if workload.in_process:
            workload.tracer.install()
        traced = run_phase(workload, args.seconds / 2, traced=True,
                           max_passes=len(plain.pass_times))
        spans = WORK / "trace" / f"{args.workload}.tsv.gz"
        count = workload.tracer.write_spans(spans)
        print(f"wrote {count} spans to {spans}", file=sys.stderr)
        metrics = per_layer(workload, plain, traced)
        attempted = len(plain.latencies) + len(traced.latencies)
        failed = plain.failed + traced.failed
        print(f"{args.workload}: {attempted} operations, {failed} failed; per-layer "
              f"values are per operation over the {len(traced.latencies)} traced ones")
    else:
        phase = run_phase(workload, args.seconds, traced=False)
        metrics = end_to_end(workload, setup, phase)
        attempted, failed = len(phase.latencies), phase.failed
        print(f"{args.workload}: {attempted} operations, {failed} failed "
              f"(p50 and p90 over {attempted} samples)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

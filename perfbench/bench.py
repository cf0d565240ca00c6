"""Benchmark logic behind run.py: launching, timing and checking xlpack runs."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import checks
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
WORKLOADS = ("wiki-desk", "dump-heavy", "retrieve-web")

# name -> unit; the end-to-end metrics, medians over the runs of one invocation
E2E = {
    "wall_s": "s",
    "tokens_per_s": "tokens/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "disk_mb": "MB",
}
MB = 1e6
# Extra set-up samples per run: `xlpack export` on the finished output is the
# shortest successful command that passes the same start-up, config
# validation and input checks before its `run_start` event.
SETUP_PROBES = 2

# One process at a time: no BLAS thread pool competing with the benchmark's
# own process, and manifest timestamps pinned.
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "SOURCE_DATE_EPOCH": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass
class Proc:
    code: int
    wall_s: float
    setup_s: float | None
    rss_mb: float


class Launcher:
    """Runs xlpack processes through launcher.py, one at a time."""

    def __init__(self):
        self.helper = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd: list[str], log: Path) -> dict:
        request = {"cmd": cmd, "cwd": str(ROOT), "env": {**os.environ, **CHILD_ENV},
                   "log": str(log)}
        self.helper.stdin.write(json.dumps(request) + "\n")
        self.helper.stdin.flush()
        return json.loads(self.helper.stdout.readline())

    def close(self) -> None:
        self.helper.stdin.close()
        self.helper.wait(timeout=60)
        self.helper.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def launch(launcher: Launcher, args: list[str], out: Path,
           tracer_out: Path | None = None) -> Proc:
    """Run one xlpack CLI process to completion and measure it.

    wall_s is launch to exit; setup_s is launch to the `run_start` event's
    timestamp in the output's run report; rss_mb is the max RSS of the process
    and the children it waited for, from wait4.
    """
    if tracer_out is None:
        cmd = [sys.executable, "-m", "xlpack.cli", *args]
    else:
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(tracer_out), "--", *args]
    ran = launcher.run(cmd, log_of(out))
    return Proc(ran["code"], ran["wall_s"], _setup_s(out, ran["launched"]),
                ran["maxrss_kb"] * 1024 / MB)


def _setup_s(out: Path, launched: float) -> float | None:
    report = out / "run_report.jsonl"
    if not report.exists():
        return None
    for line in reversed(report.read_text(encoding="utf-8").splitlines()):
        event = json.loads(line)
        if event.get("event") == "run_start":
            ts = datetime.strptime(event["ts"], "%Y-%m-%dT%H:%M:%S.%f%z").timestamp()
            return ts - launched
    return None


def xlpack_args(sub: str, inputs, out: Path, workers: int = 1) -> list[str]:
    return [sub, "--config", str(inputs.config_path), "--workers", str(workers),
            "--set", f"paths.output_dir={out}"]


def fresh_dir(name: str) -> Path:
    """An empty output directory under the work dir; its log starts empty too."""
    out = WORK / "runs" / name
    if out.exists():
        shutil.rmtree(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    log_of(out).unlink(missing_ok=True)
    return out


def log_of(out: Path) -> Path:
    return out.parent / f"{out.name}.log"


class Outcome:
    """Tallies runs attempted and failed, and prints each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, failures: list[str]) -> bool:
        self.attempted += 1
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"CHECK FAILED [{what}] {failure}", file=sys.stderr)
        return not failures


def run_and_check(launcher: Launcher, inputs, out: Path, outcome: Outcome, what: str,
                  reference: str | None, tracer_out: Path | None = None) -> tuple[Proc, dict]:
    proc = launch(launcher, xlpack_args("all", inputs, out), out, tracer_out)
    if proc.code != 0:
        failures, facts = [f"exit: xlpack all exited with {proc.code}"], {}
    else:
        failures, facts = checks.check_outputs(out, inputs, reference)
    outcome.record(what, failures)
    return proc, facts


def expected_digest(name: str, seed: int, size: str) -> str | None:
    recorded = json.loads((BENCH / "expected.json").read_text())
    entry = recorded.get(size, {}).get(name)
    return entry["sha256"] if entry and entry["seed"] == seed else None


# ---------------------------------------------------------------------------


def bench_e2e(launcher: Launcher, name: str, inputs, seconds: float, reference: str | None,
              outcome: Outcome) -> dict[str, list[float]]:
    """Closed loop: one `xlpack all` at a time until the next would overrun."""
    samples: dict[str, list[float]] = {k: [] for k in E2E}
    began = time.perf_counter()
    runs = 0
    while True:
        runs += 1
        out = fresh_dir(f"{name}-e2e")
        proc, facts = run_and_check(launcher, inputs, out, outcome, f"{name} run {runs}",
                                    reference)
        if facts.get("digest"):
            reference = reference or facts["digest"]
        if proc.code == 0:
            samples["wall_s"].append(proc.wall_s)
            samples["tokens_per_s"].append(facts["token_total"] / proc.wall_s)
            samples["setup_s"].append(proc.setup_s)
            samples["peak_rss_mb"].append(proc.rss_mb)
            samples["disk_mb"].append(checks.disk_bytes(out) / MB)
            for _ in range(SETUP_PROBES):
                probe = launch(launcher, xlpack_args("export", inputs, out), out)
                if outcome.record(f"{name} setup probe",
                                  [] if probe.code == 0 else [f"exit: export {probe.code}"]):
                    samples["setup_s"].append(probe.setup_s)
        shutil.rmtree(out)
        elapsed = time.perf_counter() - began
        if elapsed * (runs + 1) / runs > seconds:
            return samples


def bench_traced(launcher: Launcher, name: str, inputs, reference: str | None,
                 outcome: Outcome) -> dict:
    """Untraced run, traced run, stage-by-stage run and pack pool comparison."""
    out_u = fresh_dir(f"{name}-untraced")
    untraced, facts = run_and_check(launcher, inputs, out_u, outcome, f"{name} untraced",
                                    reference)
    reference = reference or facts.get("digest")
    intermediate = checks.disk_bytes(out_u, ("shards", "stats.json", "run_report.jsonl"))

    out_t = fresh_dir(f"{name}-traced")
    trace_path = out_t.parent / f"{name}-trace.json"
    # The traced run must reproduce the untraced shard digest.
    traced, _ = run_and_check(launcher, inputs, out_t, outcome, f"{name} traced", reference,
                              tracer_out=trace_path)
    trace = layers.Trace(json.loads(trace_path.read_text()) if trace_path.exists()
                         else {"aggregates": [], "missing": [], "installed": []})
    if trace.missing:
        print(f"trace: targets not found, their metrics are absent: {sorted(trace.missing)}",
              file=sys.stderr)
    events = [json.loads(line) for line in
              (out_t / "run_report.jsonl").read_text(encoding="utf-8").splitlines()]

    out_s = fresh_dir(f"{name}-stages")
    stages = {}
    failures = []
    for stage in layers.STAGES:
        if stage == "retrieve" and not inputs.has_retrieval:
            continue
        proc = launch(launcher, xlpack_args(stage, inputs, out_s), out_s)
        stages[stage] = (proc.wall_s - (proc.setup_s or 0.0), proc.rss_mb)
        if proc.code != 0:
            failures.append(f"exit: xlpack {stage} exited with {proc.code}")
            break
    if not failures:
        failures, _ = checks.check_outputs(out_s, inputs, reference)
    outcome.record(f"{name} stage by stage", failures)

    contexts = out_s / "contexts.jsonl"
    staged_contexts = contexts.read_bytes() if contexts.exists() else b""
    pool = {}
    for workers in (1, 2):
        proc = launch(launcher, xlpack_args("pack", inputs, out_s, workers), out_s)
        pool[workers] = proc.wall_s
        same = proc.code == 0 and contexts.read_bytes() == staged_contexts
        outcome.record(f"{name} pack --workers {workers}",
                       [] if same else [f"pool: pack --workers {workers} changed contexts"])

    pseudo = out_u / "pseudo_pairs.jsonl"
    metrics = layers.layer_metrics(trace, events, {
        "stages": stages,
        "intermediate_mb": intermediate / MB,
        "pairs": len(inputs.pair_ids),
        "pool_speedup_w2": pool[1] / pool[2],
        "token_total": facts.get("token_total", 0),
        "windows": facts.get("windows", 0),
        "n_budget": inputs.n_budget,
        "shard_bytes": sum(f.stat().st_size for f in checks.shard_files(out_u)),
        "pseudo_pairs": sum(1 for _ in open(pseudo)) if pseudo.exists() else 0,
        "traced_wall_s": traced.wall_s,
        "untraced_wall_s": untraced.wall_s,
    })
    for out in (out_u, out_t, out_s):
        shutil.rmtree(out)
    return metrics


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    inputs = workloads.prepare(WORK, name, seed, size)
    reference = expected_digest(name, seed, size)
    outcome = Outcome()
    with Launcher() as launcher:
        if trace:
            values = bench_traced(launcher, name, inputs, reference, outcome)
            metrics = {k: {"value": v, "unit": layers.METRICS[k][0]} for k, v in values.items()}
            samples = {}
        else:
            samples = bench_e2e(launcher, name, inputs, seconds, reference, outcome)
            metrics = {k: {"value": statistics.median(v), "unit": E2E[k]}
                       for k, v in samples.items() if v}
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "samples": samples,
    }


def print_table(name: str, result: dict) -> None:
    print(f"== {name}: {result['attempted']} runs, {result['failed']} failed, "
          f"error_rate {result['failed'] / result['attempted']:.3f} ratio")
    for key, metric in result["metrics"].items():
        line = f"  {key:<32} {metric['value']:>16.6g} {metric['unit']:<9}"
        values = result["samples"].get(key)
        if values:
            lo, hi = (statistics.quantiles(values, n=4)[::2] if len(values) >= 4
                      else (min(values), max(values)))
            spread = "iqr" if len(values) >= 4 else "range"
            line += f" median of n={len(values)}, {spread} {lo:.6g}..{hi:.6g}"
        print(line)


def main(argv: list[str] | None = None, doc: str | None = None) -> int:
    ap = argparse.ArgumentParser(description=doc,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload at its default seed")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own tests")
    ap.add_argument("--json-out", type=Path, help="also write the results to this file")
    args = ap.parse_args(argv)
    if not args.all and not args.workload:
        ap.error("give --workload NAME or --all")

    names = WORKLOADS if args.all else (args.workload,)
    seed = args.seed if args.seed is not None else workloads.DEFAULT_SEED
    results = {}
    for name in names:
        results[name] = run_workload(name, seed, args.seconds, bool(args.trace), args.size)
        print_table(name, results[name])
    if args.json_out:
        args.json_out.write_text(json.dumps(
            {"seed": seed, "seconds": args.seconds, "size": args.size, "trace": args.trace,
             "results": results}, indent=1) + "\n")

    summary = {key: sum(r[key] for r in results.values()) for key in ("attempted", "failed")}
    metrics = results[names[0]]["metrics"] if len(names) == 1 else {
        f"{name}.{k}": v for name, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": summary["failed"] == 0, **summary, "metrics": metrics}))
    return 0 if summary["failed"] == 0 else 1

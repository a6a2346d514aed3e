"""End-to-end coverage ledger: one command per workload, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload suite-default --seed 1 --seconds 30 --trace 0

Each timed pass runs in a fresh process (``workloads.py``) through the path
users run: ``CoverageService`` -> ``execute_job`` -> CoverMe's
``SearchEngine`` -> basin hopping / Powell -> the evaluation tier.  Passes
repeat until ``--seconds`` have gone by and the plan has run at least twice
(``suite-native``'s cache-filling pass counts), so the correctness gate
always has a repetition to compare.  Per-pass metrics are medians over
passes; job percentiles are taken over each job's median latency.
Every reported time is scaled to the speed of an idle core by host-speed
probes taken while the pass ran (``workloads.HostSampler``).
With ``--trace 1`` the run makes one untraced and one traced pass and
reports the per-layer split of the traced one plus the tracing overhead.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full ledger (environment stamp, sample counts,
per-pass values, digests).  The run exits non-zero without a result when
the repository's sources are missing.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import summary  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Everything a run does must end within this many seconds.
RUN_DEADLINE_S = 170.0
MIN_EXECUTIONS = 2

END_TO_END = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_p75_s": "s",
    "evals_per_s": "1/s",
    "coverage_mean_pct": "%",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


class RunFailed(RuntimeError):
    """A pass crashed or could not finish in time."""


def source_digest() -> str:
    """Content hash of ``src/``: stands in for the commit in a checkout
    that is not a git repository, and keys the stored digests."""
    hasher = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(ROOT)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.state_dir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        # Each run gets its own fresh native kernel cache inside the checkout,
        # large enough to hold every kernel of the plan: the default FIFO
        # bound (256) would evict kernels the timed passes need.
        self.env["REPRO_NATIVE_CACHE"] = str(self.state_dir / "native-kernels")
        self.env["REPRO_NATIVE_CACHE_MAX"] = "100000"
        # cc's and Python's temporary files stay inside the checkout too.
        self.env["TMPDIR"] = str(self.state_dir / "tmp")
        # The hash layout of a process moves its speed by ~10% on identical
        # work; one layout for every pass keeps that out of the comparison
        # between passes, runs and commits.
        self.env["PYTHONHASHSEED"] = "0"
        self.spawned = 0
        self.spans_file = ROOT / ".perfbench" / "spans" / f"{args.workload}-{args.seed}.jsonl"

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, role: str = "pass", trace: int = 0) -> dict:
        spawned_at = time.monotonic()
        command = [
            sys.executable, str(HERE / "workloads.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--role", role, "--trace", str(trace), "--pass-index", str(self.spawned),
            "--spawned-at", repr(spawned_at), "--state-dir", str(self.state_dir),
            "--drain-timeout", str(max(1.0, self.remaining() - 5.0)),
            "--spans-file", str(self.spans_file),
        ]
        self.spawned += 1
        proc = subprocess.Popen(command, env=self.env, cwd=ROOT, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            stdout, stderr = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired as exc:
            proc.kill()
            sys.stderr.write(proc.communicate()[1][-4000:])
            raise RunFailed(f"{role} pass did not finish in time") from exc
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0 or not stdout.strip():
            sys.stderr.write(stderr[-4000:])
            raise RunFailed(f"{role} pass exited with {proc.returncode}")
        result = json.loads(stdout.strip().splitlines()[-1])
        result["process_s"] = time.monotonic() - spawned_at
        return result

    def run(self) -> tuple[dict, dict]:
        (self.state_dir / "tmp").mkdir(parents=True, exist_ok=True)
        self.spans_file.parent.mkdir(parents=True, exist_ok=True)
        try:
            return self._run()
        finally:
            shutil.rmtree(self.state_dir, ignore_errors=True)

    def _run(self) -> tuple[dict, dict]:
        args = self.args
        fill = None
        if args.workload == "suite-native":
            # Fill the kernel cache in a pass of its own, which waits for
            # every background compile: timed passes never race cc, and each
            # still starts with cold in-process caches.
            fill = self.spawn(role="fill")
        passes, traced = [], None
        if args.trace:
            passes.append(self.spawn())
            traced = self.spawn(trace=1)
        else:
            timed_from = time.monotonic()
            # Every run executes the plan at least twice (the fill counts),
            # so the correctness gate always has a repetition to compare.
            while (len(passes) + (fill is not None) < MIN_EXECUTIONS
                   or time.monotonic() - timed_from < args.seconds):
                longest = max((p["process_s"] for p in passes), default=0.0)
                if passes and self.remaining() < 1.5 * longest:
                    break
                passes.append(self.spawn())
        return self.ledger(passes, fill, traced)

    # -- aggregation -------------------------------------------------------

    def ledger(self, passes: list, fill, traced) -> tuple[dict, dict]:
        args = self.args
        problems = self.check(passes, fill, traced)
        per_pass = [pass_metrics(p) for p in passes]
        metrics = {name: statistics.median([m[name] for m in per_pass]) for name in PER_PASS}
        raw = {name: statistics.median([m["raw"][name] for m in per_pass])
               for name in ("wall_s", "evals_per_s", "setup_s")}
        latencies = job_latencies(passes)
        raw_latencies = job_latencies(passes, scaled=False)
        metrics["job_p50_s"] = summary.hd_quantile(latencies, 0.50)
        metrics["job_p75_s"] = summary.hd_quantile(latencies, 0.75)
        raw["job_p50_s"] = summary.hd_quantile(raw_latencies, 0.50)
        raw["job_p75_s"] = summary.hd_quantile(raw_latencies, 0.75)
        if fill is not None:
            metrics["setup_s"] += fill["scaled_process_s"]
            raw["setup_s"] += fill["process_s"]
        states = [job["state"] for p in passes for job in p["jobs"]]
        attempted, failed = summary.count_errors(states)
        metrics["success_ratio"] = 1.0 - summary.error_rate(states)
        ledger = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "stamp": dict(passes[0]["stamp"], commit=git_commit(), source=source_digest()),
            "samples": {
                "passes": len(passes),
                "jobs_per_pass": [len(p["jobs"]) for p in passes],
                "job_latencies": len(latencies),
                "job_tail_percentile": summary.tail_percentile(len(latencies)),
                "evals_per_pass": [m["evaluations"] for m in per_pass],
            },
            "per_pass": per_pass,
            "unscaled": raw,
            "problems": problems,
            "digests": passes[0]["digests"],
        }
        if fill is not None:
            ledger["native"] = {
                "fill_s": fill["process_s"],
                "fill_compiles": fill["compiles"],
                "disk_entries": passes[0]["disk_entries"],
                "timed_compiles": [p["compiles"] for p in passes],
            }
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
        }
        if traced is not None:
            layers = dict(traced["layers"])
            for counter, value in traced["service"].items():
                layers[f"service.{counter}"] = value
            layers["native.disk_entries"] = passes[0].get("disk_entries", 0)
            layers["trace.overhead_s"] = traced["scaled_wall_s"] - passes[0]["scaled_wall_s"]
            ledger["span_table"] = traced["span_table"]
            ledger["span_file"] = str(self.spans_file.relative_to(ROOT))
            ledger["traced_wall_s"] = traced["wall_s"]
            result["metrics"] = {name: {"value": layers[name], "unit": unit}
                                 for name, unit in LAYER_METRICS.items()}
        else:
            result["metrics"] = {name: {"value": metrics[name], "unit": unit}
                                 for name, unit in END_TO_END.items()}
        return ledger, result

    def check(self, passes: list, fill, traced) -> list[str]:
        """The correctness gate; returns the problems found."""
        problems = []
        reference = passes[0]["digests"]
        if not reference:
            problems.append("no job produced a payload")
        for index, other in enumerate(passes[1:] + [p for p in (fill, traced) if p], 1):
            differing = sorted(k for k in set(reference) | set(other["digests"])
                               if reference.get(k) != other["digests"].get(k))
            if differing:
                problems.append(f"digests of repetition {index} differ: {differing[:5]}")
        for p in passes:
            if p.get("resubmit_mismatches"):
                problems.append(f"resubmit not byte-equal: {p['resubmit_mismatches'][:5]}")
            if p.get("resubmit_new_executions"):
                problems.append(f"resubmit executed {p['resubmit_new_executions']} new jobs")
        if self.args.workload.startswith("suite-"):
            problems.extend(self.cross_check(reference))
        return problems

    def cross_check(self, digests: dict) -> list[str]:
        """Every suite run of the same sources must produce the same
        per-job digests, whatever the workload (``suite-default`` or
        ``suite-native``) and whatever the seed (it only reorders jobs).
        The first run leaves its digests in the checkout; later runs
        compare."""
        reference = ROOT / ".perfbench" / "digests" / f"{source_digest()}.json"
        if reference.exists():
            expected = json.loads(reference.read_text())
            if expected["digests"] != digests:
                return [f"digests differ from {expected['workload']} "
                        f"seed {expected['seed']} of the same sources"]
            return []
        reference.parent.mkdir(parents=True, exist_ok=True)
        reference.write_text(json.dumps(
            {"workload": self.args.workload, "seed": self.args.seed, "digests": digests}))
        return []


#: End-to-end metrics taken per pass and reported as the median over passes.
PER_PASS = ("wall_s", "evals_per_s", "coverage_mean_pct", "setup_s", "peak_rss_mb")


def job_latencies(passes: list, scaled: bool = True) -> list[float]:
    """Each completed job's latency, as its median over the passes: the job
    percentiles are taken over jobs, not over passes."""
    key = "scaled_s" if scaled else "latency_s"
    seen: dict[str, list[float]] = {}
    for result in passes:
        for job in result["jobs"]:
            if job["state"] == summary.DONE:
                seen.setdefault(job["id"], []).append(job[key])
    return [statistics.median(values) for values in seen.values()]


def pass_metrics(result: dict) -> dict:
    jobs = [job for job in result["jobs"] if job["state"] == summary.DONE]
    coverme = [job for job in jobs if job["tool"] == "CoverMe"]
    evaluations = sum(job["evaluations"] for job in coverme)
    return {
        "wall_s": result["scaled_wall_s"],
        "evals_per_s": summary.ratio(evaluations, sum(job["scaled_s"] for job in coverme)),
        "coverage_mean_pct": sum(job["coverage_pct"] for job in coverme) / len(coverme),
        "setup_s": result["scaled_setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "evaluations": evaluations,
        "probes": result["probes"],
        "probe_median_s": result["probe_median_s"],
        "raw": {
            "wall_s": result["wall_s"],
            "evals_per_s": summary.ratio(evaluations,
                                         sum(job["latency_s"] for job in coverme)),
            "setup_s": result["setup_s"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end coverage ledger.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one, killing its pass.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        ledger, result = Runner(args).run()
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    out = ROOT / ".perfbench" / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"ledger": ledger, "result": result}, indent=1, sort_keys=True))
    print(json.dumps({"ledger": ledger}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

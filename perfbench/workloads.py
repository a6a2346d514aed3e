"""One pass of a ledger workload, run in a fresh process.

``run.py`` starts this script once per pass, so every pass pays the
in-process caches a fresh ``repro run`` pays (instrumentation, compiled
units, specialization variants, loaded native kernels).  The pass prints
one JSON object on stdout: its set-up time, the timed phase's wall time,
one record per job (latency, state, evaluations, coverage), a digest per
job for the correctness gate, its peak RSS and -- for a traced pass -- the
per-layer totals.

Usage (normally driven by ``run.py``)::

    PYTHONPATH=src python3 perfbench/workloads.py --workload suite-default \\
        --seed 1 --spawned-at <time.monotonic()> --state-dir <scratch dir>
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import summary  # noqa: E402

WORKLOADS = ("suite-default", "suite-native", "tools-daemon")

#: CoverMe size of the suite workloads.  Jobs get no wall-clock budget, so a
#: slower tier takes longer instead of searching less.
SUITE_N_START = 20
N_ITER = 5

#: The CoverMe root seed of every job (and the seed of every baseline
#: tool).  How much search a job needs depends on its root seed: across root
#: seeds a suite pass's wall time and evaluation rate spread by 20-35%
#: (quartile distance over median), more than any bound a regression gate
#: can use.  So the jobs are fixed and the workload seed picks the order
#: they are submitted in (a new order for every pass of a run).
ROOT_SEED = 1

#: tools-daemon: CoverMe size and the fixed execution budget of each
#: baseline.  ``baseline_execution_factor=0`` makes a baseline's budget
#: exactly ``baseline_min_executions``, whatever CoverMe record the store
#: holds when it arrives.
DAEMON_N_START = 12
BASELINE_EXECUTIONS = {"Rand": 1500, "AFL": 400, "Austin": 1500}
DAEMON_TOOLS = ("CoverMe", "Rand", "AFL", "Austin")

#: Longest a daemon job may take before the pass counts it as timed out.
JOB_TIMEOUT_S = 120.0

#: Size of one host-speed probe: about 1 ms on an idle core of a 2-core
#: Xeon VM, 1.7 ms while the core's hyperthread sibling is busy.
PROBE_ROUNDS = 5_000
#: Seconds one probe takes on an idle core of the reference host.  Every
#: scaled time is the time the work would have taken at that speed.
PROBE_REFERENCE_S = 0.00094
#: Seconds between two probes of a sampled pass.
PROBE_INTERVAL_S = 0.05
#: Probes a daemon pass takes before and after its timed phase.
DAEMON_PROBES = 100


def probe() -> float:
    """Time a fixed loop of Python float arithmetic and dict stores.

    It never touches the program, so a change to the program leaves it
    unchanged; what moves it is the host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        x, acc, slots = 0.5, 0.0, {}
        for i in range(PROBE_ROUNDS):
            x = x * 0.999 + 1.0 / (i + 1.0)
            acc += math.sqrt(x) if i & 1 else math.log1p(x)
            slots[i & 63] = acc
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class HostSampler:
    """Probe the host's speed every ``PROBE_INTERVAL_S`` while a pass runs.

    On a shared host the same pass runs up to 1.7x slower while a
    neighbour keeps the core's hyperthread sibling busy, in stretches of
    0.1-1 s.  A SIGALRM handler runs ``probe`` on the main thread at a fixed
    rate, so the probes sample those stretches evenly over the pass.  Each
    sample is ``(end, seconds)`` on the ``time.monotonic`` clock the pass
    times its jobs with.  Only a pass whose work runs on the main thread
    may be sampled: a probe that waits for the GIL measures the other
    threads, not the host.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        took = probe()
        self.samples.append((time.monotonic(), took))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)


def seeded_order(items, seed: int, pass_index: int) -> list:
    items = list(items)
    random.Random(f"{seed}:{pass_index}").shuffle(items)
    return items


def suite_profile(workload: str):
    import dataclasses

    from repro.experiments.runner import PROFILES

    changes = dict(name="ledger", n_start=SUITE_N_START, n_iter=N_ITER,
                   max_cases=None, coverme_time_budget=None, seed=ROOT_SEED)
    if workload == "suite-native":
        changes["eval_profile"] = "penalty-native"
    # suite-default keeps the Profile's default eval_profile on purpose: a
    # change of the default is measured on the path users get.
    return dataclasses.replace(PROFILES["default"], **changes)


def daemon_overrides(tool: str) -> dict:
    overrides = {"seed": ROOT_SEED, "coverme_time_budget": None}
    if tool == "CoverMe":
        overrides.update(n_start=DAEMON_N_START, n_iter=N_ITER)
    else:
        overrides.update(baseline_execution_factor=0,
                         baseline_min_executions=BASELINE_EXECUTIONS[tool])
    return overrides


def daemon_plan(seed: int, pass_index: int) -> list[tuple[str, str]]:
    """Every suite entry in a seeded order, CoverMe first per entry."""
    from repro.fdlibm.suite import iter_cases

    keys = seeded_order([case.key for case in iter_cases()], seed, pass_index)
    return [(key, tool) for key in keys for tool in DAEMON_TOOLS]


# -- digests -----------------------------------------------------------------


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:20]


def coverme_digest(case_key: str, payload: dict) -> str:
    """Covered-branch set, hex-float inputs and evaluation count of one
    CoverMe job.  The covered set comes from replaying the inputs through
    the harness's recording ``Runtime``, independent of the tier that
    searched."""
    from repro.coverage.branch import BranchCoverage
    from repro.fdlibm.suite import case_by_key
    from repro.service.jobs import instrument_for_lookup

    inputs = payload["summary"]["inputs"]
    coverage = BranchCoverage(instrument_for_lookup(case_by_key(case_key)))
    coverage.run_all(inputs)
    return _sha({
        "covered": sorted(repr(branch) for branch in coverage.covered),
        "inputs": [[float(v).hex() for v in row] for row in inputs],
        "evaluations": payload["tool_evaluations"],
    })


def payload_digest(payload: dict) -> str:
    """A baseline payload minus its wall time."""
    body = dict(payload, summary=dict(payload["summary"], wall_time=None))
    return _sha(body)


def job_record(job_id: str, tool: str, state: str, started: float, payload=None) -> dict:
    """One job's record; it ends now."""
    ended = time.monotonic()
    record = {"id": job_id, "tool": tool, "state": state, "started": started,
              "ended": ended, "latency_s": ended - started}
    if payload is not None:
        s = payload["summary"]
        record["evaluations"] = payload.get("tool_evaluations")
        record["coverage_pct"] = (100.0 * s["covered_branches"] / s["n_branches"]
                                  if s["n_branches"] else 100.0)
    return record


# -- passes ------------------------------------------------------------------


def suite_pass(workload: str, seed: int, pass_index: int,
               timing: dict) -> tuple[list, dict]:
    from repro.fdlibm.suite import iter_cases
    from repro.service import CoverageService, JobRequest
    from repro.service.jobs import instrument_for_lookup

    profile = suite_profile(workload)
    cases = seeded_order(iter_cases(), seed, pass_index)
    service = CoverageService(worker_mode="inline")
    for case in cases:
        instrument_for_lookup(case)
    jobs, payloads = [], {}
    timing["first_submit"] = time.monotonic()
    try:
        for case in cases:
            started = time.monotonic()
            request = JobRequest(case=case, tool="CoverMe", profile=profile)
            job_id = request.id
            try:
                outcome = service.wait(service.submit(request))
            except Exception as exc:  # noqa: BLE001 - counted as a failed job
                print(f"{job_id}: {exc!r}", file=sys.stderr)
                jobs.append(job_record(job_id, "CoverMe", summary.FAILED, started))
                continue
            jobs.append(job_record(job_id, "CoverMe", summary.DONE, started, outcome.payload))
            payloads[job_id] = (case.key, "CoverMe", outcome.payload)
        timing["last_outcome"] = time.monotonic()
        timing["service"] = service.stats()["counters"]
    finally:
        service.close()
    return jobs, payloads


def _closed_loop(plan, client_count, submit_one) -> None:
    """Run ``plan`` with ``client_count`` callers that each wait for their
    job's outcome before taking the next item."""
    items = iter(plan)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def client():
        while True:
            with lock:
                item = next(items, None)
            if item is None:
                return
            try:
                submit_one(item)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
                return

    threads = [threading.Thread(target=client, name=f"ledger-client-{i}")
               for i in range(client_count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOB_TIMEOUT_S * len(plan))
        if thread.is_alive():
            raise RuntimeError("closed-loop client did not finish")
    if errors:
        raise errors[0]


def daemon_pass(seed: int, pass_index: int, state_dir: Path,
                timing: dict) -> tuple[list, dict]:
    from repro.experiments.runner import PROFILES
    from repro.fdlibm.suite import case_by_key
    from repro.service import CoverageService
    from repro.service.client import ClientError, ServiceClient
    from repro.service.http import serve_in_background
    from repro.service.jobs import instrument_for_lookup

    plan = daemon_plan(seed, pass_index)
    width = min(2, os.cpu_count() or 1)
    for key in dict.fromkeys(key for key, _tool in plan):
        instrument_for_lookup(case_by_key(key))
    # Client and worker threads share the GIL with a sampler: probe around
    # the timed phase instead.
    probes = timing["outside_probes"] = [(time.monotonic(), probe())
                                         for _ in range(DAEMON_PROBES)]
    store_dir = tempfile.mkdtemp(prefix="store-", dir=state_dir)
    service = CoverageService(store=store_dir, worker_mode="thread", n_workers=width)
    jobs, payloads, resubmitted, fingerprints = [], {}, {}, []
    try:
        with serve_in_background(service, profiles={"default": PROFILES["default"]}) as server:
            client = ServiceClient(server.address, timeout=JOB_TIMEOUT_S)

            def submit(item, first: bool):
                key, tool = item
                job_id = f"{key}/{tool}"
                started = time.monotonic()
                try:
                    view = client.submit(key, tool=tool, profile="default",
                                         overrides=daemon_overrides(tool))
                    if view["state"] != "done":
                        view = client.wait_for(view["job"], timeout=JOB_TIMEOUT_S,
                                               interval=0.005)
                except ClientError as exc:
                    state = summary.REFUSED if exc.status == 429 else summary.FAILED
                    jobs.append(job_record(job_id, tool, state, started))
                    return
                except TimeoutError:
                    jobs.append(job_record(job_id, tool, summary.TIMEOUT, started))
                    return
                if first:
                    jobs.append(job_record(job_id, tool, summary.DONE, started, view["payload"]))
                    payloads[job_id] = (key, tool, view["payload"])
                    fingerprints.append(view["job"])
                else:
                    resubmitted[job_id] = (view.get("cached"), view["payload"])

            timing["first_submit"] = time.monotonic()
            _closed_loop(plan, width, lambda item: submit(item, True))
            executed = service.stats()["counters"]["executed"]
            _closed_loop(plan, width, lambda item: submit(item, False))
            timing["last_outcome"] = time.monotonic()
            stats = service.stats()
            timing["service"] = stats["counters"]
            timing["resubmit_new_executions"] = stats["counters"]["executed"] - executed
            timing["queue_wait_s"] = _queue_wait(service, fingerprints)
    finally:
        service.close()
    probes.extend((time.monotonic(), probe()) for _ in range(DAEMON_PROBES))
    # The resubmit pass must be served from the store: byte-equal payloads.
    timing["resubmit_mismatches"] = sorted(
        job_id for job_id, (_key, _tool, payload) in payloads.items()
        if job_id not in resubmitted
        or not resubmitted[job_id][0]
        or json.dumps(resubmitted[job_id][1], sort_keys=True)
        != json.dumps(payload, sort_keys=True)
    )
    return jobs, payloads


def _queue_wait(service, fingerprints) -> float:
    """Summed admission-queue wait: each job's ``running`` event minus its
    creation time."""
    waited = 0.0
    for fingerprint in fingerprints:
        job = service.job(fingerprint)
        for event in job.events_snapshot() if job is not None else ():
            if event["event"] == "running":
                waited += event["t"] - job.created_at
                break
    return waited


# -- native cache fill -------------------------------------------------------


def drain_background_compiles(timeout: float) -> dict:
    """Poll the background compiler until no build is pending."""
    from repro.instrument.native.cache import background_compile_stats

    deadline = time.monotonic() + timeout
    while background_compile_stats()["pending"]:
        if time.monotonic() >= deadline:
            raise TimeoutError("background compiles still pending")
        time.sleep(0.02)
    return background_compile_stats()


# -- entry point -------------------------------------------------------------


def environment_stamp() -> dict:
    import platform

    import numpy
    import scipy

    from repro.instrument.native.cache import cc_version

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cc": cc_version(),
    }


def run_pass(args) -> dict:
    state_dir = Path(args.state_dir)
    timing: dict = {}
    sampler = None
    if args.workload != "tools-daemon":
        sampler = HostSampler()
        sampler.start()
    try:
        result = _run_pass(args, state_dir, timing)
    finally:
        if sampler is not None:
            sampler.stop()
    samples = sampler.samples if sampler is not None else timing["outside_probes"]
    # A daemon pass has only probes from outside its timed phase: every span
    # of it is scaled by all of them.
    margin = PROBE_INTERVAL_S if sampler is not None else math.inf

    def scaled(start: float, end: float) -> float:
        return summary.scaled_span(samples, start, end, PROBE_REFERENCE_S, margin)

    first, last = timing["first_submit"], timing.get("last_outcome", time.monotonic())
    for job in result["jobs"]:
        job["scaled_s"] = scaled(job["started"], job["ended"])
    result.update(
        wall_s=last - first,
        scaled_wall_s=scaled(first, last),
        setup_s=first - args.spawned_at,
        scaled_setup_s=scaled(args.spawned_at, first),
        scaled_process_s=scaled(args.spawned_at, time.monotonic()),
        probes=len(samples),
        probe_median_s=statistics.median(took for _end, took in samples),
    )
    return result


def _run_pass(args, state_dir: Path, timing: dict) -> dict:
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    if args.workload == "tools-daemon":
        jobs, payloads = daemon_pass(args.seed, args.pass_index, state_dir, timing)
    else:
        jobs, payloads = suite_pass(args.workload, args.seed, args.pass_index, timing)
    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": jobs,
        "service": timing.get("service", {}),
        "resubmit_new_executions": timing.get("resubmit_new_executions"),
        "resubmit_mismatches": timing.get("resubmit_mismatches", []),
    }
    if tracer is not None:
        tracer.uninstall()
        table, counters = tracer.totals()
        layers = spans.layer_metrics(table, counters)
        layers["service.queue_wait_s"] = timing.get("queue_wait_s", 0.0)
        layers["trace.spans"] = len(tracer.spans)
        result["layers"] = layers
        result["span_table"] = {name: row for name, row in sorted(table.items())}
        tracer.write(args.spans_file)
    if args.workload == "suite-native":
        from repro.instrument.native.cache import background_compile_stats
        from repro.instrument.native.kernel import native_cache_info

        if args.role == "fill":
            result["compiles"] = drain_background_compiles(args.drain_timeout)
        else:
            result["compiles"] = background_compile_stats()
        result["disk_entries"] = native_cache_info()["disk_entries"]
    result["digests"] = {
        job_id: coverme_digest(key, payload) if tool == "CoverMe" else payload_digest(payload)
        for job_id, (key, tool, payload) in sorted(payloads.items())
    }
    result["stamp"] = environment_stamp()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("pass", "fill"), default="pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-index", type=int, default=0,
                        help="which pass of the run this is; with the seed it picks the job order")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent when it started this process")
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--drain-timeout", type=float, default=120.0)
    parser.add_argument("--spans-file", help="where a traced pass writes its span records")
    args = parser.parse_args(argv)
    print(json.dumps(run_pass(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

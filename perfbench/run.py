"""End-to-end benchmark of curvecount, with a traced run for per-layer figures.

Run from the repository root:

    python3 perfbench/run.py --workload conics-cold --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py) are closed loops: one query at a time, and at
most one worker process alive.  `conics-cold` and `lines-cold` start every
pass in a fresh interpreter; `warm-session` replays passes in one process
after a warm-up pass.  Every pass opens with the workload's top rung; the
seed only shuffles the order of the other queries.
Passes repeat until `--seconds` have gone by, and every answer is checked
against the pinned table.

The machine this runs on is shared, and its speed drifts by half or more
over tens of seconds.  So before a pass, after it, and between queries once
SAMPLE_EVERY_S of query time has gone by since the last sample, this
process times a fixed calibration kernel.  Every reported time is the
measured wall time scaled to the reference speed: multiplied by
REFERENCE_KERNEL_S over the mean of the kernel times just before and after
it.  Raw wall times are printed beside the scaled ones.
This process and its workers are pinned to one CPU, so that the kernel
and the queries share it.

With `--trace 0` the last stdout line carries the end-to-end metrics:
pass_s, top_rung_s and peak_rss_mib as medians over passes, and setup_s as
the median of several set-ups.  With `--trace 1` passes alternate between
untraced and traced, and the last line carries the per-layer medians over
the traced passes plus trace_overhead.  Lines before it record the machine
and the quartiles.  The exit code is 0 only when every answer is correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import PER_LAYER
from workloads import WORKLOADS, expected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
TRACES = HERE / "traces"
DEADLINE_S = 170  # the whole run, set-up included, ends well within 180 s
WARM_SETUPS = 3  # set-ups per warm-session run; setup_s is their median
SAMPLE_EVERY_S = 0.25  # query time after which the next calibration sample is due
# calibrate() on an unloaded 2-vCPU Intel Xeon VM under CPython 3.11.
REFERENCE_KERNEL_S = 0.017


class BenchError(Exception):
    pass


def calibrate(rounds: int = 60_000) -> float:
    """Seconds for a fixed kernel shaped like the engine's inner loops.

    Dict inserts and updates keyed by small tuples with wide-integer values,
    as in the Littlewood-Richardson accumulation, with the cyclic collector
    paused.  The kernel never touches curvecount: its time measures how fast
    the shared machine runs at that moment.
    """
    acc: dict = {}
    x = 3**150
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(rounds):
            key = (i % 17, i % 13, i % 11, i % 7)
            acc[key] = acc.get(key, 0) + x * i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def pin_to_one_cpu() -> None:
    """Keep this process and the workers it starts on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Worker:
    """One worker interpreter; `ready_s` runs from spawn to its ready line."""

    def __init__(self, trace: bool, deadline: float):
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if k not in ("CURVECOUNT_CACHE_DIR", "PYTHONPATH")}
        env["PYTHONHASHSEED"] = "0"
        argv = [sys.executable, str(HERE / "worker.py"), str(ROOT)] + (["--trace"] if trace else [])
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
        try:
            self._receive()
        except BaseException:
            self.close()
            raise
        self.ready_s = time.perf_counter() - start

    def _receive(self) -> dict:
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("worker died or ran past the deadline")
        return json.loads(line)

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self._receive()

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write('{"op": "quit"}\n')
                self.proc.stdin.flush()
                self.proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            for stream in (self.proc.stdin, self.proc.stdout):
                try:
                    stream.close()
                except OSError:
                    pass


class Run:
    """Passes of one workload, with every answer checked.

    A pass record holds the scaled times, the raw ones ("raw_*"), the peak
    RSS of the worker, whether it was traced, and the per-layer figures.
    """

    def __init__(self, workload, seed: int, trace: bool):
        self.workload = workload
        self.rng = random.Random(seed)
        self.trace = trace
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setups: list[dict] = []
        self.passes: list[dict] = []

    def check(self, pairs, answers) -> None:
        for (_, key), answer in zip(pairs, answers):
            self.attempted += 1
            want = list(expected(key))
            if answer["error"] is not None or answer["value"] != want:
                self.failed += 1
                self.failures.append(f"{key}: expected {want}, got {answer['error'] or answer['value']}")

    def one_pass(self, worker: Worker, traced: bool, pairs=None) -> dict:
        """Run and check one pass, sampling the machine speed between queries."""
        pairs = pairs or self.workload.shuffled(self.rng)
        cache_dir = tempfile.mkdtemp(dir=WORK) if self.workload.needs_cache_dir else None
        spans_path = str(TRACES / f"{self.workload.name}.jsonl") if traced else None
        samples = [calibrate()]
        answers, after_sample = [], []
        due = 0.0
        try:
            worker.request({"op": "begin", "trace": traced, "cache_dir": cache_dir, "spans_path": spans_path})
            for query, _ in pairs:
                if due >= SAMPLE_EVERY_S:
                    samples.append(calibrate())
                    due = 0.0
                answer = worker.request({"op": "query", "query": query})
                answers.append(answer)
                after_sample.append(len(samples) - 1)
                due += answer["seconds"]
            end = worker.request({"op": "end"})
        finally:
            if cache_dir is not None:
                shutil.rmtree(cache_dir, ignore_errors=True)
        samples.append(calibrate())
        self.check(pairs, answers)
        raw = [a["seconds"] for a in answers]
        scaled = [t * 2 * REFERENCE_KERNEL_S / (samples[i] + samples[i + 1]) for t, i in zip(raw, after_sample)]
        top = next((i for i, (_, key) in enumerate(pairs) if key == self.workload.top), None)
        return {
            "pass_s": sum(scaled), "raw_pass_s": sum(raw),
            "top_rung_s": scaled[top] if top is not None else None,
            "raw_top_rung_s": raw[top] if top is not None else None,
            "first_speed": REFERENCE_KERNEL_S / samples[0],
            "rss_mib": end["rss_kib"] / 1024, "traced": traced, "layers": end.get("layers"),
        }

    def add_setup(self, worker: Worker, record: dict, with_pass: bool) -> None:
        """Spawn-to-ready time, scaled by the first sample after it, plus the
        pass when that pass is a warm-up."""
        raw, scaled = worker.ready_s, worker.ready_s * record["first_speed"]
        if with_pass:
            raw, scaled = raw + record["raw_pass_s"], scaled + record["pass_s"]
        self.setups.append({"setup_s": scaled, "raw_setup_s": raw})

    def traced_next(self) -> bool:
        """Untraced and traced passes alternate in a traced run."""
        return self.trace and len(self.passes) % 2 == 1

    def measuring(self, started: float, seconds: float) -> bool:
        if time.monotonic() > self.deadline - 30:
            return False
        enough_kinds = not self.trace or len(self.passes) >= 2
        return time.perf_counter() - started < seconds or not self.passes or not enough_kinds

    def cold(self, seconds: float) -> None:
        started = time.perf_counter()
        while self.measuring(started, seconds):
            traced = self.traced_next()
            worker = Worker(traced, self.deadline)
            try:
                record = self.one_pass(worker, traced)
            finally:
                worker.close()
            self.add_setup(worker, record, with_pass=False)
            self.passes.append(record)

    def warm(self, seconds: float) -> None:
        worker = None
        try:
            for _ in range(WARM_SETUPS):
                if worker is not None:
                    worker.close()
                # The warm-up is traced in a traced run, so that the tracer has
                # seen every universal key before the first measured pass.
                worker = Worker(self.trace, self.deadline)
                warmup = self.one_pass(worker, self.trace)
                self.add_setup(worker, warmup, with_pass=True)
            started = time.perf_counter()
            while self.measuring(started, seconds):
                self.passes.append(self.one_pass(worker, self.traced_next()))
        finally:
            if worker is not None:
                worker.close()

    def verify_conic_chain(self) -> None:
        """The chain of public calls at P^4 must give the pinned 609250 too,
        as the count_conics_quintic pipeline does in every pass."""
        worker = Worker(False, self.deadline)
        try:
            self.one_pass(worker, False, pairs=[(("conic-chain", (4,)), ("conics", 4))])
        finally:
            worker.close()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment(load_before) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "commit": git_commit(),
        "workloads": {w.name: w.why for w in WORKLOADS.values()},
    }


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def execute(workload, seed: int, seconds: float, trace: bool) -> Run:
    """Measure `workload` for `seconds` and check every answer."""
    run = Run(workload, seed, trace)
    WORK.mkdir(exist_ok=True)
    if trace:
        TRACES.mkdir(exist_ok=True)
    try:
        if workload.cold:
            run.cold(seconds)
            if workload.name == "conics-cold":
                run.verify_conic_chain()
        else:
            run.warm(seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return run


def end_to_end_metrics(setups, passes) -> dict:
    metrics = {}
    for name, unit, records in (("pass_s", "s", passes), ("top_rung_s", "s", passes),
                                ("setup_s", "s", setups), ("peak_rss_mib", "MiB", passes)):
        values = [r["rss_mib" if name == "peak_rss_mib" else name] for r in records]
        q1, med, q3 = quartiles(values)
        print(f"{name} median {med:.6f} {unit}  q1 {q1:.6f}  q3 {q3:.6f}  n {len(values)}  "
              f"samples {[round(v, 4) for v in values]}")
        if unit == "s":
            raw = [r["raw_" + name] for r in records]
            print(f"raw_{name} median {statistics.median(raw):.6f} s  samples {[round(v, 4) for v in raw]}")
        metrics[name] = {"value": med, "unit": unit}
    return metrics


def traced_metrics(untraced, traced) -> dict:
    units = dict(PER_LAYER)
    metrics = {name: {"value": statistics.median(p["layers"][name] for p in traced), "unit": units[name]}
               for name, _ in PER_LAYER[:-1]}
    overhead = statistics.median(p["pass_s"] for p in traced) / statistics.median(p["pass_s"] for p in untraced) - 1
    metrics["trace_overhead"] = {"value": overhead, "unit": units["trace_overhead"]}
    print(f"trace_overhead {overhead:.4f} over {len(traced)} traced and {len(untraced)} untraced passes")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "curvecount" / "__init__.py").is_file():
        print(f"error: no curvecount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    pin_to_one_cpu()
    try:
        run = execute(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": environment(load_before)}))
    for failure in run.failures:
        print(f"FAIL {failure}")
    print(f"fail_ratio {run.failed / run.attempted:.6f} ratio  ({run.failed} of {run.attempted} counts)")
    untraced = [p for p in run.passes if not p["traced"]]
    traced = [p for p in run.passes if p["traced"]]
    if args.trace:
        metrics = traced_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(run.setups, untraced)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""hwiloc benchmark: cold CLI sweeps, measured end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hwiloc is imported from its src/ and
nothing is installed. Each workload is a closed loop of one sweep at a time,
and every sweep is a fresh interpreter driving the public CLI entry point
(hwiloc.cli.main), so each pays the cold costs a CLI user pays and no warm
repeat can hide a cache.

--trace 0 measures the end-to-end metrics: set-up time (spawn until the
spec is resolved), run time (sweep call until the CSV is written), peak
resident memory of the process tree and the share of random draws that
produced a value. --trace 1 makes one untraced sweep, one traced sweep at
one worker and one diagnostic sweep at the CLI's default environment, and
reports per-layer calls, total and self time from the tracer's spans.

Every sweep's CSV is checked (see checks.py); the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 1 when a check failed and 2 when the checkout
holds no hwiloc source to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 165.0  # every run, its set-up included, ends well within 180 s
MIN_SWEEPS = 3
# Sweep i of a run uses seed + i * SEED_STRIDE: the work of one sweep
# depends on its draws (an estimate that hits the iteration cap costs ~8
# typical ones), so a run's median spans several draw sets.
SEED_STRIDE = 7919
SETUP_PROBES = 5
POLL_S = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # hwiloc subcommand
    config: str  # shipped config, relative to the checkout
    workers: int  # HWI_LOC_THREADS
    n_trials: int | None = None  # overrides the config's n_trials


# Why each workload is here: see perfbench/README.md and BENCHMARK.json.
# Every sweep but the default-environment diagnostic pins BLAS to one thread
# per process: unpinned, OpenBLAS runs a thread on every CPU, so a
# one-worker sweep keeps every CPU of a small host busy and its time
# depends on whatever else runs there.
# BENCHMARK.json gates bounds_full and estimate_desk. estimate_full_2w keeps
# both CPUs of a 2-vCPU host busy, and there its run_s spread past the
# largest bound the benchmark may set, so it is kept to run by hand.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bounds_full", "bounds", "configs/full.cfg", 1),
        Workload("estimate_desk", "estimate", "configs/desk.cfg", 1),
        Workload("estimate_full_2w", "estimate", "configs/full.cfg", 2, n_trials=20),
    )
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "draw_yield": "share"}
EXTRA_LAYER_UNITS = {
    "trace_overhead_s": "s",
    "trace.run_s": "s",
    "trace.accounted_share": "share",
    "failed_share": "share",
    "diag.default_env_run_s": "s",
    "diag.workload_env_run_s": "s",
}


def per_layer_units() -> dict[str, str]:
    return {**tracer.metric_units(), **EXTRA_LAYER_UNITS}


@dataclass
class Sweep:
    """One child interpreter: a sweep or a set-up probe."""

    kind: str
    seed: int
    workers: int | None  # None: the CLI's defaults, BLAS unpinned
    code: int | None = None
    setup_s: float | None = None
    run_s: float | None = None
    peak_rss_mb: float | None = None
    csv: str | None = None
    problems: list[str] = field(default_factory=list)
    result: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems

    def record(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "workers": self.workers,
            "blas_threads": "default" if self.workers is None else "1",
            "code": self.code,
            "setup_s": self.setup_s,
            "run_s": self.run_s,
            "peak_rss_mb": self.peak_rss_mb,
            "csv_sha256": hashlib.sha256(self.csv.encode()).hexdigest() if self.csv else None,
            "problems": self.problems[:10],
        }


# ---------------------------------------------------------------------------
# child processes


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out += [int(c) for c in fh.read().split()]
    except OSError:
        pass
    return out


def _descendant_hwm_kb(pid: int, seen: dict[int, int]) -> None:
    """Record in `seen` the peak RSS (VmHWM) of every descendant of pid."""
    todo = _children(pid)
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        seen[p] = max(seen.get(p, 0), int(line.split()[1]))
                        break
        except (OSError, ValueError, IndexError):
            continue
        todo += _children(p)


def child_env(workers: int | None) -> dict[str, str]:
    """The environment of one sweep: the worker cap and one BLAS thread per
    process, or with workers None neither, so the CLI's defaults apply."""
    env = dict(os.environ)
    for key in BLAS_VARS + ("HWI_LOC_THREADS",):
        env.pop(key, None)
    if workers is not None:
        env["HWI_LOC_THREADS"] = str(workers)
        env.update({key: "1" for key in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(sweep: Sweep, cli_args: list[str], trace: bool, tag: Path, deadline: float) -> Sweep:
    """Run one child to completion (or kill it at the deadline)."""
    result_path = tag.with_suffix(".json")
    for p in (result_path, tag.with_suffix(".csv")):
        p.unlink(missing_ok=True)
    workers_hwm: dict[int, int] = {}
    with open(tag.with_suffix(".stderr"), "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(SRC), str(result_path),
             "1" if trace else "0", "--", *cli_args],
            cwd=ROOT,
            env=child_env(sweep.workers),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )

        def poll() -> None:
            while proc.poll() is None:
                _descendant_hwm_kb(proc.pid, workers_hwm)
                time.sleep(POLL_S)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            sweep.problems.append("killed at the run's time limit")
        finally:
            # the whole session: the child and any pool worker it left behind
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
            poller.join()
    try:
        sweep.result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        sweep.problems.append(f"child wrote no result (exit {proc.returncode}); see {tag}.stderr")
        return sweep
    r = sweep.result
    sweep.code = r["code"]
    sweep.setup_s = r["ready_mono"] - t0
    sweep.run_s = r["end_mono"] - r["ready_mono"]
    # the tree's processes overlap for most of a sweep: sum their peaks
    sweep.peak_rss_mb = (r["maxrss_kb"] + sum(workers_hwm.values())) / 1024.0
    if sweep.code != 0:
        sweep.problems.append(f"hwiloc exited {sweep.code}; see {tag}.stderr")
    out = tag.with_suffix(".csv")
    if out.exists():
        sweep.csv = out.read_text()
    return sweep


# ---------------------------------------------------------------------------
# the benchmark


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.start = time.monotonic()
        self.deadline = self.start + RUN_LIMIT_S
        self.dir = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        text = (ROOT / workload.config).read_text()
        if workload.n_trials is not None:
            lines = [ln for ln in text.splitlines() if not ln.strip().startswith("n_trials=")]
            text = "\n".join(lines + [f"n_trials={workload.n_trials}"]) + "\n"
        self.config_path = self.dir / "workload.cfg"
        self.config_path.write_text(text)
        self.config = checks.parse_config(text)
        ref = HERE / "reference" / f"{workload.name}.csv"
        self.reference = ref.read_text() if ref.exists() else None
        self.default_seed = int(self.config["master_seed"])
        self.sweeps: list[Sweep] = []
        self.problems: list[str] = []
        self.absent: list[str] = []
        self.n = 0

    def run_child(
        self, kind: str, workers: int | None, trace: bool = False, seed: int | None = None
    ) -> Sweep:
        self.n += 1
        tag = self.dir / f"{self.n:02d}-{kind}"
        seed = self.seed if seed is None else seed
        command = "show-config" if kind == "probe" else self.w.command
        args = [command, "--config", str(self.config_path), "--seed", str(seed),
                "--out", str(tag.with_suffix(".csv"))]
        sweep = spawn(Sweep(kind, seed, workers), args, trace, tag, self.deadline)
        if kind == "probe":
            if sweep.code == 0 and not sweep.csv:
                sweep.problems.append("show-config printed nothing")
        elif sweep.code == 0:
            if sweep.csv is None:
                sweep.problems.append("no CSV written")
            else:
                sweep.problems += checks.check_csv(
                    sweep.csv, self.w.command, self.config, self.reference,
                    compare_all=seed == self.default_seed,
                )
        self.sweeps.append(sweep)
        return sweep

    def draw_yield(self, sweeps: list[Sweep]) -> float:
        attempted = produced = 0
        for s in sweeps:
            a, p = checks.draw_counts(self.w.command, self.config, s.csv if s.ok else None)
            attempted, produced = attempted + a, produced + p
        return produced / attempted

    def measure(self) -> dict[str, float]:
        """Closed loop: set-up probes, then one sweep after another until
        the next would overrun --seconds (at least MIN_SWEEPS)."""
        w = self.w
        self.run_child("probe", w.workers)  # compiles bytecode; not measured
        probes = [self.run_child("probe", w.workers) for _ in range(SETUP_PROBES)]
        runs: list[Sweep] = []
        loop_start = time.monotonic()
        while True:
            t = time.monotonic()
            seed = (self.seed + len(runs) * SEED_STRIDE) % 2**64
            runs.append(self.run_child("sweep", w.workers, seed=seed))
            now = time.monotonic()
            last = now - t
            if now + last > self.deadline - 5.0:
                break
            if len(runs) >= MIN_SWEEPS and now - loop_start + last > self.seconds:
                break
        setups = [s.setup_s for s in probes + runs if s.ok]
        ok_runs = [s for s in runs if s.ok]
        if not ok_runs or not setups:
            return {}
        return {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(s.run_s for s in ok_runs),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in ok_runs),
            "draw_yield": self.draw_yield(runs),
        }

    def measure_traced(self) -> dict[str, float]:
        """Untraced sweep, traced sweep at one worker, diagnostic sweep at
        the CLI defaults; per-layer metrics from the traced one."""
        w = self.w
        self.problems += [f"tracer self-test: {p}" for p in tracer.self_test()]
        plain = self.run_child("sweep", w.workers)
        plain_1w = plain if w.workers == 1 else self.run_child("sweep-1w", 1)
        traced = self.run_child("traced-1w", 1, trace=True)
        default = self.run_child("default-env", None)
        for s in (plain_1w, traced, default):
            if s.ok and plain.ok and s.csv != plain.csv:
                s.problems.append(f"{s.kind} CSV is not byte-identical to the {w.workers}-worker CSV")
        if not all(s.ok for s in (plain, plain_1w, traced, default)):
            return {}
        info = traced.result["trace"]
        if info["leftovers"]:
            self.problems.append(f"tracer left wrappers behind: {info['leftovers']}")
        m = dict(info["metrics"])
        m["trace_overhead_s"] = traced.run_s - plain_1w.run_s
        m["trace.run_s"] = traced.run_s
        m["trace.accounted_share"] = info["accounted_s"] / info["run_s"]
        m["failed_share"] = 1.0 - self.draw_yield([plain])
        m["diag.default_env_run_s"] = default.run_s
        m["diag.workload_env_run_s"] = plain.run_s
        self.absent = info["absent"]
        return m

    def record(self, metrics: dict[str, float]) -> dict:
        first = next((s.result for s in self.sweeps if s.result), {})
        return {
            "workload": self.w.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": first.get("python"),
            "numpy": first.get("numpy"),
            "blas": first.get("blas"),
            "commit": _commit(),
            "source_sha256": _source_digest(),
            "absent_layers": self.absent,
            "children": [s.record() for s in self.sweeps],
            "metrics": metrics,
        }


def _commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hwiloc").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="workload seed (default: the config's master_seed)")
    ap.add_argument("--seconds", type=int, default=55, help="measured seconds of sweeps")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark still kills and waits for its children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    w = WORKLOADS[args.workload]
    if not (SRC / "hwiloc" / "cli.py").is_file() or not (ROOT / w.config).is_file():
        sys.stderr.write(f"no hwiloc source or {w.config} under {ROOT}; nothing to run\n")
        return 2
    if args.seed is not None and not 0 <= args.seed < 2**64:
        ap.error("--seed must fit an unsigned 64-bit integer")
    seed = args.seed
    if seed is None:
        seed = int(checks.parse_config((ROOT / w.config).read_text())["master_seed"])
    bench = Bench(w, seed, args.seconds, bool(args.trace))
    metrics = bench.measure_traced() if args.trace else bench.measure()
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    problems = bench.problems + [f"{s.kind}: {p}" for s in bench.sweeps for p in s.problems]
    failed = sum(1 for s in bench.sweeps if not s.ok)
    correct = not problems and bool(metrics)

    record = bench.record(metrics)
    (bench.dir / "record.json").write_text(json.dumps(record, indent=1))
    for s in bench.sweeps:
        print(f"{s.kind:12s} workers={s.workers} blas={'default' if s.workers is None else '1'} "
              f"code={s.code} seed={s.seed} setup_s={s.setup_s} run_s={s.run_s} "
              f"peak_rss_mb={s.peak_rss_mb}")
    for p in problems:
        print(f"CHECK FAILED {p}")
    for name in bench.absent:
        print(f"absent layer {name}")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name} = {metrics[name]} {unit}")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "children"}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(bench.sweeps),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

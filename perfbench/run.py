"""Benchmark for html_extract: one command, four batch workloads.

    python3 perfbench/run.py --workload corpus_extract --seed 1 --seconds 10 --trace 0

Run from the repository root.  Each run builds its inputs from --seed,
sets them up 5 to 500 times until SETUP_BUDGET_S is spent (median ->
setup_s), computes the reference answers, then runs the workload's
job back to back (a closed loop, one job at a time from this one
process) until --seconds have passed since the first measured job
started, checking every job's output outside the timing.

--trace 0 prints the end-to-end metrics; --trace 1 also runs one traced
job plus the per-layer ledger, prints the per-layer metrics and writes
the spans to .perfbench/traces/.  The last stdout line is the JSON
result; failed checks are named on the lines before it.  See
perfbench/NOTES.md for the metric-to-layer map and the known defects.
"""

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager

ROOT = os.getcwd()
SETUP_REPEATS = (5, 500)  # at least, at most
# set-ups past the minimum stop once this is spent.  The host has slow
# phases of seconds; a window as long as the measured loop's keeps one
# from deciding a run's setup_s (a 2 s window let 10-run medians of the
# 10-150 ms set-ups move by over 30%)
SETUP_BUDGET_S = 6.0
NUM_CPUS = 2  # 1 logical CPU hangs the pipeline at HEAD (NOTES.md)
RUN_BUDGET_S = 165.0  # the whole run, first set-up to result line
JOB_DEADLINE_S = 60.0  # one job; a miss is a failed check, not a hang
OBJECT_STORE_BYTES = 512 << 20
CPU_RELEASE_S = 20.0  # wait for the previous job's actor to free its CPU
WORK_DIR = ".perfbench"
# Ray's longest Unix socket path is its temp dir plus about 64 bytes
# (/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store), and an
# AF_UNIX path stops at 107 bytes
RAY_TMP_MAX = 40


class DeadlineExceeded(Exception):
    pass


@contextmanager
def deadline(name: str, seconds: float):
    """Raise DeadlineExceeded(name) in the main thread after ``seconds``."""

    def expire(signum, frame):
        raise DeadlineExceeded(name)

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def reset_peak_rss() -> None:
    """Restart this process's resident-set high-water mark (VmHWM) at
    its current size, so the peak read later covers only what follows."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def cpus_released(seconds: float):
    """Check that all the session's CPUs are free, waiting up to
    ``seconds``: the previous job's ExtractActor gives its CPU back a
    moment after the job returns, and a job started with 1 CPU free can
    meet the 1-CPU hang (NOTES.md)."""
    import ray

    t_end = time.monotonic() + seconds
    while (free := ray.available_resources().get("CPU", 0)) < NUM_CPUS:
        if time.monotonic() > t_end:
            break
        time.sleep(0.02)
    return ("ray.cpus_released", free >= NUM_CPUS, f"{free} of {NUM_CPUS} CPUs free after {seconds} s")


def timed_job(wl, tr, into: list, peaks: list, seconds: float, checks):
    """One job under its deadline; appends its times to ``into`` and the
    benchmark process's peak RSS during the job to ``peaks``.  The caller
    has dropped the previous job's output, so the untimed collection here
    frees it (and with it a Ray job's executor and actor pool); the timed
    one frees this job's own cyclic garbage (parse trees)."""
    from perfbench.tracing import timed

    gc.collect()
    if wl.uses_ray:
        checks.add([cpus_released(CPU_RELEASE_S)])
    reset_peak_rss()
    try:
        with timed(into), deadline(f"{wl.name}.job", seconds):
            out = wl.job(tr)
            gc.collect()
    finally:
        peaks.append(peak_rss_mb())
    return out


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, checks):
        for name, ok, detail in checks:
            self.attempted += 1
            if not ok:
                msg = f"FAILED check {name}: {detail}"
                self.failures.append(msg)
                print(msg, flush=True)
                print(msg, file=sys.stderr, flush=True)


def ray_temp_dir() -> str:
    """A fresh directory for Ray's sockets, logs and spill files, short
    enough for its Unix socket paths: in $TMPDIR if that is short and
    writable, else in /tmp.  A checkout path is rarely short enough."""
    suffix = len("/perfbench-") + 8  # mkdtemp's random part
    for parent in (tempfile.gettempdir(), "/tmp"):
        if len(parent) + suffix > RAY_TMP_MAX:
            continue
        try:
            return tempfile.mkdtemp(prefix="perfbench-", dir=parent)
        except OSError:
            continue
    raise RuntimeError(f"no writable directory with a path under {RAY_TMP_MAX - suffix} bytes for Ray")


def start_ray(tmp: str) -> int:
    """A 2-CPU local session whose workers import html_extract from ROOT
    whatever their cwd, with ``tmp`` as its temp dir; returns the number
    of start attempts.  A raylet that never registers makes ray.init
    give up after 30 s; that is Ray's start-up, not the engine, so it is
    stopped and started once more."""
    import ray
    from ray.data import DataContext

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    for attempt in (1, 2):
        try:
            ray.init(
                address="local",
                num_cpus=NUM_CPUS,
                # the jobs' blocks are a few MB; the default (30% of the
                # host's memory) maps gigabytes of /dev/shm on a shared host
                object_store_memory=OBJECT_STORE_BYTES,
                include_dashboard=False,
                logging_level="ERROR",
                log_to_driver=False,
                _temp_dir=tmp,
            )
            break
        except Exception as exc:  # Ray raises a bare Exception on a start-up timeout
            if attempt == 2:
                raise
            print(f"ray.init failed, starting again: {exc}", file=sys.stderr, flush=True)
            stop_ray()
    DataContext.get_current().enable_progress_bars = False
    return attempt


def _state(pid: int) -> tuple[str, int]:
    """(state letter, parent pid) of a process, from /proc; ("", 0) once
    it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return fields[0], int(fields[1])
    except (OSError, IndexError, ValueError):
        return "", 0


def _running(pid: int) -> bool:
    return _state(pid)[0] not in ("", "Z")


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            children.setdefault(_state(int(name))[1], []).append(int(name))
    out, todo = [], [root]
    while todo:
        for pid in children.get(todo.pop(), []):
            out.append(pid)
            todo.append(pid)
    return out


def stop_ray(wait_s: float = 10.0) -> None:
    """ray.shutdown(), then wait until every process the session started
    has ended: workers outlive their raylet for a moment, and a worker
    stuck in a job that missed its deadline for longer.  What is still
    running after ``wait_s`` is killed."""
    import ray

    procs = _descendants(os.getpid())
    ray.shutdown()
    t_end = time.monotonic() + wait_s
    while any(_running(p) for p in procs) and time.monotonic() < t_end:
        time.sleep(0.1)
    for pid in filter(_running, procs):
        os.kill(pid, signal.SIGKILL)
    t_end = time.monotonic() + wait_s
    while any(_running(p) for p in procs) and time.monotonic() < t_end:
        time.sleep(0.1)


def run(args, checks: Checks):
    from perfbench.tracing import NULL, Tracer, timed
    from perfbench.workloads import WORKLOADS

    t_end = time.monotonic() + RUN_BUDGET_S

    def left():
        return t_end - time.monotonic()

    run_dir = os.path.join(ROOT, WORK_DIR, f"r{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    cls = WORKLOADS[args.workload]
    ray_tmp = None
    res = {"setup": [], "jobs": [], "peaks": [], "layers": None, "ray_starts": 0}
    try:
        with deadline("setup", left()):
            wl = cls(args.seed, run_dir)
            lo, hi = SETUP_REPEATS
            while len(res["setup"]) < hi and (
                len(res["setup"]) < lo or sum(raw for _, raw in res["setup"]) < SETUP_BUDGET_S
            ):
                with timed(res["setup"]):
                    wl.setup()
            # after the set-ups, which need no Ray: a starting Ray
            # session's daemons and workers would compete with them
            if cls.uses_ray:
                ray_tmp = ray_temp_dir()
                res["ray_starts"] = start_ray(ray_tmp)
            checks.add(wl.prepare())
            res["size"] = (wl.n_docs, wl.n_bytes)
            res["reference"] = wl.reference
            # objects alive now (engine tables, inputs, references) are
            # out of every later collection, which then scans only new
            # objects.  Not later: the warm-up's Ray Data executor sits
            # in a reference cycle, and frozen it would keep its actor,
            # and so one of the session's 2 CPUs, for the whole run
            gc.freeze()
            checks.add(wl.warmup())
        t_measure = time.perf_counter()
        while time.perf_counter() - t_measure < args.seconds:
            out = None
            out = timed_job(wl, NULL, res["jobs"], res["peaks"], min(JOB_DEADLINE_S, left()), checks)
            with deadline("check", left()):
                checks.add(wl.check(out))
        if args.trace:
            tr = Tracer(f"{wl.name}-seed{args.seed}-{os.getpid()}")
            traced = []
            out = None
            out = timed_job(wl, tr, traced, [], min(JOB_DEADLINE_S, left()), checks)
            with deadline("ledger", left()):
                untraced = statistics.median(net for net, _ in res["jobs"])
                layers = wl.ledger(tr, untraced, traced[0][0], out)
                checks.add(wl.check(out))
            trace_dir = os.path.join(ROOT, WORK_DIR, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            tr.write(os.path.join(trace_dir, f"{wl.name}-seed{args.seed}.json"))
            res["layers"] = layers
    except DeadlineExceeded as exc:
        checks.add([(f"deadline.{exc}", False, "missed its deadline")])
    except Exception as exc:
        # named like a failed check; the traceback goes to stderr
        traceback.print_exc()
        checks.add([("exception", False, f"{type(exc).__name__}: {exc}")])
    finally:
        if cls.uses_ray:
            stop_ray()
        shutil.rmtree(run_dir, ignore_errors=True)
        if ray_tmp:
            shutil.rmtree(ray_tmp, ignore_errors=True)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "html_extract", "__init__.py")):
        sys.exit(f"no html_extract package under {ROOT}: run from the repository root")
    sys.path.insert(0, ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        sys.exit(f"unknown workload {args.workload!r}; one of {names}")

    checks = Checks()
    res = run(args, checks)
    if not res["jobs"] or "size" not in res or (args.trace and res["layers"] is None):
        sys.exit("run ended before a job was measured: " + "; ".join(checks.failures))

    walls = [net for net, _ in res["jobs"]]
    wall = statistics.median(walls)
    n_docs, n_bytes = res["size"]
    values = {
        "setup_s": statistics.median(net for net, _ in res["setup"]),
        "wall_s": wall,
        "docs_per_s": n_docs / wall,
        "input_mb_per_s": n_bytes / 1e6 / wall,
        "peak_rss_mb": max(res["peaks"]),
    }
    print(
        f"{args.workload} seed={args.seed}: {len(walls)} jobs, wall_s median "
        f"{wall:.4f} min {min(walls):.4f} max {max(walls):.4f} "
        f"(before steal: median {statistics.median(raw for _, raw in res['jobs']):.4f}); "
        f"{n_docs} docs, {n_bytes / 1e6:.3f} MB per job; "
        f"checked against {res['reference']}; ray.init attempts: {res['ray_starts']}; "
        f"setup_s over {len(res['setup'])} set-ups: min "
        f"{min(net for net, _ in res['setup']):.4f} max {max(net for net, _ in res['setup']):.4f}",
        flush=True,
    )
    if args.trace:
        values = res["layers"]
        section = spec["per_layer"]
    else:
        section = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    print(
        json.dumps(
            {
                "correct": not checks.failures,
                "attempted": checks.attempted,
                "failed": len(checks.failures),
                "metrics": metrics,
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main()

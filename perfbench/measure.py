"""One benchmark run of one workload, in this process and its own local
Ray session.  ``run.py`` starts it in a fresh process group and ends the
group if it overruns; run it directly only for debugging:

    PYTHONPATH=. python3 perfbench/measure.py --workload pdf_corpus \\
        --seed 1 --seconds 10 --trace 0

Prints a ``record`` line (the per-run record) and, last, the result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

import workloads  # noqa: E402

PASS_DEADLINE_S = 60   # a pass or set-up that overruns ends the run
TRACE_DEADLINE_S = 150  # the same for a whole traced run
OBJECT_STORE_BYTES = 256 << 20


class Deadline:
    """Ends the process if the ``with`` body overruns: the reason goes to
    stderr and the exit code is 3; the launcher then ends the Ray
    processes of this process group."""

    def __init__(self, what: str, seconds: float = PASS_DEADLINE_S):
        self.what, self.seconds = what, seconds

    def _fire(self):
        print(f"perfbench: {self.what} overran its {self.seconds:.0f} s "
              "deadline; ending the run", file=sys.stderr, flush=True)
        os._exit(3)

    def __enter__(self):
        self.timer = threading.Timer(self.seconds, self._fire)
        self.timer.daemon = True
        self.timer.start()

    def __exit__(self, *exc):
        self.timer.cancel()


class WorkerRss:
    """Polls VmHWM of this session's Ray worker processes (those whose
    title starts with ``ray::``) and keeps the largest value seen."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.peak_kb = 0
        self.sid = os.getsid(0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _scan(self):
        for pid in os.listdir("/proc"):
            if not pid.isdigit():
                continue
            try:
                if os.getsid(int(pid)) != self.sid:
                    continue
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    if not f.read(5) == b"ray::":
                        continue
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            self.peak_kb = max(self.peak_kb,
                                               int(line.split()[1]))
                            break
            except (OSError, ValueError):
                continue      # the process ended while being read

    def _loop(self):
        while not self._stop.is_set():
            self._scan()
            self._stop.wait(self.interval)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._scan()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def host_probe() -> dict:
    """Single-thread spin rate over 0.5 s, the 1-minute load average, and
    the CPU time counters of /proc/stat (in clock ticks), to set a run's
    figures against the state of the host."""
    t0 = time.perf_counter()
    n = 0
    while time.perf_counter() - t0 < 0.5:
        n += 1
    with open("/proc/stat") as f:
        ticks = [int(v) for v in f.readline().split()[1:]]
    # user, nice, system, idle, iowait, irq, softirq, steal (time the
    # hypervisor gave to other guests); the guest fields after them are
    # already counted in user and nice
    return {"spin_iters_500ms": n, "loadavg_1m": os.getloadavg()[0],
            "cpu_ticks": sum(ticks[:8]), "steal_ticks": ticks[7]}


def steal_share(before: dict, after: dict) -> float:
    """Share of this machine's CPU time taken by the hypervisor for other
    guests between two probes."""
    total = after["cpu_ticks"] - before["cpu_ticks"]
    return (after["steal_ticks"] - before["steal_ticks"]) / max(total, 1)


def ray_temp_dir(work_root: str) -> str | None:
    """Ray's session directory inside the checkout, unless the path would
    make Ray's socket paths longer than the 107 bytes a Unix socket
    allows (then Ray's default is kept)."""
    d = os.path.join(work_root, "ray")
    # <temp>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
    return d if len(d) + 66 <= 107 else None


def ray_init(ncpu: int, temp_dir: str | None) -> None:
    import ray
    import ray.data
    kw = {"_temp_dir": temp_dir} if temp_dir else {}
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             object_store_memory=OBJECT_STORE_BYTES, log_to_driver=False,
             **kw)
    ray.data.DataContext.get_current().enable_progress_bars = False


def timed_run(w, seconds: float, ncpu: int, temp_dir) -> dict:
    """One set-up (see README "Set-up"), then timed passes for about
    ``seconds`` of pass time."""
    import ray
    with WorkerRss() as rss:
        with Deadline("set-up"):
            first: list[float] = []
            t0 = time.perf_counter()
            ray_init(ncpu, temp_dir)
            w.setup_pass(lambda: first.append(time.perf_counter()))
            setup_s = first[0] - t0
        walls, settle_s, attempted, failed, reasons = [], [], 0, 0, []
        # passes run while the next one is expected to end at most half a
        # pass past ``seconds`` of pass time, so that a run's length does
        # not depend on how a pass happens to line up with the deadline
        while not walls or (sum(walls) + statistics.median(walls) / 2
                            <= seconds):
            settle_s.append(workloads.settle(ncpu))
            with Deadline(f"pass {len(walls) + 1}"):
                t0 = time.perf_counter()
                out = w.run_pass(lambda: None)
                walls.append(time.perf_counter() - t0)
            a, f, r = w.check(out)
            attempted, failed = attempted + a, failed + f
            reasons += r[:5]
        ray.shutdown()
    return {"setup_s": setup_s, "pass_walls_s": walls, "settle_s": settle_s,
            "attempted": attempted, "failed": failed,
            "reasons": reasons[:20],
            "metrics": {
                "setup_s": (setup_s, "s"),
                "items_per_s": (statistics.median(w.items / t for t in walls),
                                "1/s"),
                "peak_worker_rss_mb": (rss.peak_mb, "MB")}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.TIMED)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    ncpu = len(os.sched_getaffinity(0))
    w = workloads.make(args.workload, ncpu)
    work = os.path.join(ROOT, ".benchwork", str(os.getpid()))
    os.makedirs(work)
    try:
        probe_before = host_probe()
        if args.trace:
            import layers
            with Deadline("traced run", TRACE_DEADLINE_S):
                res = layers.traced_run(args.seed, work, ncpu,
                                        ray_temp_dir(work), ray_init)
        else:
            w.prepare(work, args.seed)
            res = timed_run(w, args.seconds, ncpu, ray_temp_dir(work))
        probe_after = host_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = res.pop("metrics")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "num_cpus": ncpu, "actor_pool": w.pool,
              "host_probe_before": probe_before,
              "host_probe_after": probe_after,
              "steal_share": steal_share(probe_before, probe_after), **res}
    print("record " + json.dumps(record), flush=True)
    # no operation of these workloads is expected to fail: an error row
    # or an output that fails its check makes the run incorrect
    correct = res["failed"] == 0
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the workload runner from the repository's sources (CMake, Release)
into .bench_build/perfbench, runs the workload in its own process and prints,
as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are its per-layer
metrics, and a Chrome trace-event file is written under .bench_out/.
End-to-end timings are scaled to a nominal host speed, timed by a probe
process each time the workload process stops itself between operations.
See perfbench/README.md.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
RUN_TIMEOUT_S = 150
# Median probe kernel time on a 4-vCPU Xeon VM in its fast phase (4.8 ms
# seen; 9.6 ms in its slow phase).
NOMINAL_PROBE_S = 0.005
PROBE_PASSES = 12
PAUSE_EVERY_S = 1.0
TARGETS = ["perfbench_run", "perfbench_selftest", "perfbench_probe"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(f"perfbench: {msg}")
    sys.exit(code)


def build():
    """Configures and builds the runner; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no repository sources at {ROOT / 'src'}", 2)
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        shutil.rmtree(BUILD_DIR)  # configured for another checkout
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", *TARGETS]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            fail("build failed: " + " ".join(cmd), 3)
    return BUILD_DIR


class Probe:
    """One perfbench_probe process; measure() returns the median time of
    PROBE_PASSES passes of the benchmark's own kernel."""

    def __init__(self, build_dir):
        self.proc = subprocess.Popen([str(build_dir / "perfbench_probe")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def measure(self):
        self.proc.stdin.write(f"{PROBE_PASSES}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            fail("the host-speed probe exited")
        return float(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def run_supervised(cmd, probe):
    """Runs cmd to its end. Each time it stops itself (SIGSTOP), takes one
    probe measurement while every thread of it is frozen, then continues it.
    Returns the exit code, standard output and the probe medians."""
    OUT_DIR.mkdir(exist_ok=True)
    samples = []
    with tempfile.TemporaryFile(dir=OUT_DIR) as out:
        proc = subprocess.Popen(cmd, stdout=out)
        # SIGKILL also ends a stopped process.
        deadline = threading.Timer(RUN_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        deadline.start()
        try:
            while True:
                _, status = os.waitpid(proc.pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                if probe is not None:
                    samples.append(probe.measure())
                os.kill(proc.pid, signal.SIGCONT)
        finally:
            deadline.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        out.seek(0)
        return proc.returncode, out.read().decode(), samples


def run_child(build_dir, workload, seed, seconds, trace, probe=None):
    """Runs one workload process; with a probe it stops every PAUSE_EVERY_S
    for a host-speed measurement. Returns the runner's JSON and the probe
    medians."""
    cmd = [str(build_dir / "perfbench_run"), "--workload", workload, "--seed",
           str(seed), "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--out", str(OUT_DIR)]
    if probe is not None:
        cmd += ["--pause-every", repr(PAUSE_EVERY_S)]
    code, stdout, samples = run_supervised(cmd, probe)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        fail(f"{workload} exited with code {code}"
             + (f" (killed after {RUN_TIMEOUT_S} s?)" if code == -signal.SIGKILL else ""))
    return json.loads(lines[-1]), samples


def scaled(metric, factor):
    """Rates up and times down by how slow the host ran (1 = nominal)."""
    value = metric["value"]
    if metric["unit"] in ("MB/s", "1/s"):
        value *= factor
    elif metric["unit"] in ("ms", "s"):
        value /= factor
    return {"value": value, "unit": metric["unit"]}


def pick(child_metrics, names, kind):
    out = {}
    for name in names:
        if name not in child_metrics:
            fail(f"the runner did not emit {kind} metric '{name}'")
        out[name] = {"value": child_metrics[name]["value"],
                     "unit": child_metrics[name]["unit"]}
    return out


def host_factor(probes):
    """Median probe time over the nominal one; prints where it came from."""
    if not probes:
        fail("the workload process never stopped for a host-speed probe")
    med = statistics.median(probes)
    print(f"host speed: {len(probes)} probes, median {med * 1e3:.3f} ms "
          f"(range {min(probes) * 1e3:.3f}-{max(probes) * 1e3:.3f}), "
          f"factor {med / NOMINAL_PROBE_S:.4f}")
    return med / NOMINAL_PROBE_S


def probe_selftest(build_dir):
    """The host-speed factor must not see load that a workload process leaves
    running (it is frozen while the probe measures), but must see load from
    elsewhere."""
    stand_in = [str(build_dir / "perfbench_selftest"), "--busy-stops", "5"]
    with Probe(build_dir) as probe:
        quiet = statistics.median(probe.measure() for _ in range(5))
        code, _, frozen = run_supervised(stand_in, probe)
        spin = "import time\nend = time.time() + 3\nwhile time.time() < end:\n    pass"
        spinners = [subprocess.Popen([sys.executable, "-c", spin])
                    for _ in range(2 * (os.cpu_count() or 1))]
        try:
            loaded = probe.measure()
        finally:
            for p in spinners:
                p.kill()
                p.wait()
    ratio = statistics.median(frozen) / quiet if frozen else float("inf")
    isolated = code == 0 and len(frozen) == 5 and abs(ratio - 1.0) < 0.15
    print(f"{'ok  ' if isolated else 'FAIL'} busy threads left in a stopped workload "
          f"process leave the probe where it was ({ratio:.2f}x over {len(frozen)} stops)")
    sensitive = loaded / quiet > 1.3
    print(f"{'ok  ' if sensitive else 'FAIL'} busy processes running during the "
          f"probe slow it ({loaded / quiet:.2f}x)")
    return isolated and sensitive


def selftest(build_dir, spec):
    ok = True
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            good = NAME_RE.fullmatch(m["name"]) is not None
            print(f"{'ok  ' if good else 'FAIL'} BENCHMARK.json {group} name {m['name']}")
            ok = ok and good
    OUT_DIR.mkdir(exist_ok=True)
    proc = subprocess.run([str(build_dir / "perfbench_selftest"), "--out", str(OUT_DIR)])
    ok = ok and proc.returncode == 0
    # A short traced run must give a trace file Perfetto can load: a JSON
    # object whose traceEvents are complete events with parent and request.
    res, _ = run_child(build_dir, "region_reads", 3, 0.5, True)
    trace = json.loads(Path(res["trace_path"]).read_text())
    events = trace.get("traceEvents", [])
    good = bool(events) and all(
        e.get("ph") == "X" and e.get("dur", -1) >= 0 and "parent" in e.get("args", {})
        and "request" in e.get("args", {}) for e in events)
    print(f"{'ok  ' if good else 'FAIL'} trace file holds {len(events)} complete events")
    Path(res["trace_path"]).unlink()
    ok = ok and good
    ok = probe_selftest(build_dir) and ok
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found", 2)
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if not args.selftest and args.workload not in workloads:
        fail(f"unknown workload '{args.workload}' (one of {', '.join(workloads)})", 2)
    if not args.seconds > 0:
        fail("--seconds must be positive", 2)

    build_dir = build()
    if args.selftest:
        return selftest(build_dir, spec)

    if args.trace:
        # Half the time untraced, half traced, same seed: the traced run gives
        # the per-layer metrics, the difference between the two the overhead.
        base, _ = run_child(build_dir, args.workload, args.seed, args.seconds / 2, False)
        res, _ = run_child(build_dir, args.workload, args.seed, args.seconds / 2, True)
        metrics = pick(res["per_layer"], [m["name"] for m in spec["per_layer"]
                                          if m["name"] != "trace.overhead_frac"],
                       "per-layer")
        metrics["trace.overhead_frac"] = {
            "value": res["op_mean_s"] / base["op_mean_s"] - 1.0, "unit": "frac"}
        for line in res["report"]:
            print(line)
        for name, m in base["end_to_end"].items():
            t = res["end_to_end"][name]["value"]
            print(f"tracing overhead {name}: traced {t:.6g} - untraced {m['value']:.6g}"
                  f" = {t - m['value']:+.6g} {m['unit']}")
        print(f"trace written to {res['trace_path']}")
        attempted = base["attempted"] + res["attempted"]
        failed = base["failed"] + res["failed"]
    else:
        with Probe(build_dir) as probe:
            res, samples = run_child(build_dir, args.workload, args.seed,
                                     args.seconds, False, probe)
        metrics = pick(res["end_to_end"], [m["name"] for m in spec["end_to_end"]],
                       "end-to-end")
        for line in res["report"]:
            print(line)
        for name, m in metrics.items():
            print(f"unscaled {name} = {m['value']:.6g} {m['unit']}")
        factor = host_factor(samples)
        metrics = {name: scaled(m, factor) for name, m in metrics.items()}
        attempted, failed = res["attempted"], res["failed"]

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {failed / attempted if attempted else 1.0:.6g} frac")
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    nonzero = args.trace or all(m["value"] > 0 for m in metrics.values())
    names_ok = all(NAME_RE.fullmatch(n) for n in metrics)
    result = {
        "correct": failed == 0 and attempted > 0 and finite and nonzero and names_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

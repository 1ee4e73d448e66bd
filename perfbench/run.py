#!/usr/bin/env python3
"""Repository benchmark: builds the program from source, runs one workload
in one process under a watchdog, and prints the result as one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the repository root. Metric names come from BENCHMARK.json;
perfbench/METRICS.md says what each workload and metric measures. The
program is built by perfbench/CMakeLists.txt, a project of its own that
compiles the repository's src/ with the root build's flags (Release), into
.bench_build/; every workload runs with GARL_NUM_THREADS=1.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "perfbench-scratch")
HERE = os.path.dirname(os.path.abspath(__file__))

# Wall-clock limits (seconds): a run must end within RUN_LIMIT, or within
# FIRST_RUN_LIMIT when it also had to build the program.
RUN_LIMIT = 175
FIRST_RUN_LIMIT = 890


def fail(code, message):
    print("perfbench: " + message, file=sys.stderr, flush=True)
    sys.exit(code)


def child_env(**extra):
    """Environment for child processes: temporary files stay in the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, **extra)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  env=child_env(), timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(targets, deadline):
    """Configures (once) and builds `targets`; returns True if it compiled."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "no src/CMakeLists.txt in %s: run from the repository root"
             % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = BUILD_DIR + ".log"

    def fail_with_log(what):
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail(2, "%s (log: %s)" % (what, log_path))

    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code = run_logged(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            log_path, max(1, deadline - time.monotonic()))
        if code != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail_with_log("cmake configure failed")
    binary = os.path.join(BUILD_DIR, targets[0])
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code = run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
                      + targets, log_path, max(1, deadline - time.monotonic()))
    if code != 0:
        fail_with_log("build failed")
    return before is None or os.path.getmtime(binary) != before


def git_commit():
    # Only this checkout's own history: never a repository that contains it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail(2, "cannot read %s: %s" % (path, err))


def run_workload(args, budget):
    """Runs perfbench_driver; returns (exit code, result line or None)."""
    scratch = os.path.join(SCRATCH_DIR, args.workload)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [os.path.join(BUILD_DIR, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=child_env(GARL_NUM_THREADS="1"),
                            start_new_session=True)
    phase = ["start"]
    result = [None]

    def pump_stdout():
        for line in proc.stdout:
            if line.startswith("{"):
                result[0] = line.strip()
            else:
                sys.stdout.write(line)
                sys.stdout.flush()

    def pump_stderr():
        for line in proc.stderr:
            if line.startswith("phase "):
                phase[0] = line.split(" ", 1)[1].strip()
            sys.stderr.write(line)
            sys.stderr.flush()

    pumps = [threading.Thread(target=pump_stdout),
             threading.Thread(target=pump_stderr)]
    for t in pumps:
        t.start()
    try:
        code = proc.wait(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        for t in pumps:
            t.join()
        fail(3, "WATCHDOG: workload %s exceeded its %.0f s budget in phase "
             "%s; the run counts as failed" % (args.workload, budget, phase[0]))
    for t in pumps:
        t.join()
    return code, result[0]


def select_metrics(bench, result, trace):
    """Keeps exactly the end-to-end (trace 0) or per-layer (trace 1) metrics."""
    measured = result["metrics"]
    selected = {}
    for spec in bench["per_layer" if trace else "end_to_end"]:
        name = spec["name"]
        if name in measured:
            selected[name] = {"value": measured[name]["value"],
                              "unit": spec["unit"]}
        elif trace:
            # A layer this workload does not exercise spent no time there.
            selected[name] = {"value": 0.0, "unit": spec["unit"]}
            print("metric %-34s 0 %s  (layer not exercised by this workload)"
                  % (name, spec["unit"]))
        else:
            fail(4, "end-to-end metric %s was not measured" % name)
    result["metrics"] = selected
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the latency-math self-tests")
    args = parser.parse_args()
    start = time.monotonic()
    bench = load_benchmark()

    if args.selftest:
        build(["perfbench_selftest"], start + FIRST_RUN_LIMIT)
        sys.exit(subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_selftest")]
        ).returncode)

    if not args.workload:
        fail(2, "--workload is required")
    built = build(["perfbench_driver"], start + FIRST_RUN_LIMIT)
    deadline = start + (FIRST_RUN_LIMIT if built else RUN_LIMIT)
    budget = min(3 * args.seconds + 60, deadline - time.monotonic() - 3)
    print("fact git_commit=%s" % git_commit(), flush=True)
    code, line = run_workload(args, budget)
    if line is None:
        fail(code or 5, "perfbench_driver exited with code %d and no result" % code)
    result = select_metrics(bench, json.loads(line), args.trace)
    print(json.dumps(result), flush=True)
    if code != 0 or not result["correct"]:
        fail(code or 1, "output checks failed (%d of %d)"
             % (result["failed"], result["attempted"]))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build softdb and the benchmark from source, then run one workload.

Run from the repository root:

    python3 scbench/run.py --workload serve_scan --seed 1 --seconds 10 --trace 0
    python3 scbench/run.py --selftest

The last line of standard output is the JSON result (see scbench/README.md).
Build output goes to standard error.  --selftest runs the benchmark's
arithmetic self-tests, then checks that two traced runs of each workload
with the same seed print identical deterministic counts.
"""

import os
import signal
import subprocess
import sys

WORKLOADS = ["serve_scan", "serve_rw", "analytics"]
MAIN = os.path.join("_build", "default", "scbench", "main.exe")
SERVER = os.path.join("_build", "default", "bin", "softdb.exe")
SELFTEST = os.path.join("_build", "default", "scbench", "selftest.exe")

# Counts that depend only on the seed, never on timing.
DETERMINISTIC = {
    "serve_scan": ["srv.proto.bytes_per_op", "opt.rewrites_per_query",
                   "exec.rows_scanned_per_row"],
    "serve_rw": ["srv.proto.bytes_per_op", "opt.rewrites_per_query",
                 "exec.rows_scanned_per_row", "wal.records_per_txn",
                 "wal_bytes_per_txn"],
    "analytics": ["srv.proto.bytes_per_op", "opt.rewrites_per_query",
                  "exec.rows_scanned_per_row"],
}


def build():
    targets = ["./bin/softdb.exe", "./scbench/main.exe", "./scbench/selftest.exe"]
    done = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                           *targets],
                          stdout=sys.stderr, timeout=850)
    if done.returncode != 0:
        sys.exit(2)


# The whole run -- generator, server and in-process workload -- shares
# one core.  Point lookups take about a tenth of a millisecond, mostly
# hand-offs between threads; a hand-off to an idle second core waits for
# that core to wake, and how long depends on the host's load.  On one
# core every hand-off is a plain context switch.
CORE = min(os.sched_getaffinity(0))


def run_main(args, timeout):
    """Run main.exe in its own process group; kill the group on timeout."""
    proc = subprocess.Popen([MAIN, *args, "--server", SERVER],
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            preexec_fn=lambda: os.sched_setaffinity(0, {CORE}))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def metric_lines(out):
    """Every 'metric <name> <value> <unit>' line, as name -> value."""
    vals = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            vals[parts[1]] = parts[2]
    return vals


def selftest():
    if subprocess.run([SELFTEST]).returncode != 0:
        return 1
    bad = 0
    for w in WORKLOADS:
        seen = []
        for _ in range(2):
            code, out = run_main(["--workload", w, "--seed", "3", "--seconds", "2",
                                  "--trace", "1"], timeout=170)
            if code != 0:
                print(f"{w}: exit {code}")
                return 1
            m = metric_lines(out)
            seen.append({k: m.get(k) for k in DETERMINISTIC[w]})
        same = seen[0] == seen[1]
        print(f"{w}: {'identical' if same else 'DIFFERENT'} {seen[0]}"
              + ("" if same else f" vs {seen[1]}"))
        bad += not same
    return 1 if bad else 0


def main():
    if not os.path.isfile("dune-project"):
        print("scbench: run from the repository root", file=sys.stderr)
        sys.exit(2)
    build()
    if sys.argv[1:] == ["--selftest"]:
        sys.exit(selftest())
    code, out = run_main(sys.argv[1:], timeout=175)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()

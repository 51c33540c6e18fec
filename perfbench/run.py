#!/usr/bin/env python3
"""Builds the benchmark against this checkout's src/ and runs one workload.

    python3 perfbench/run.py --workload <tor_relay|mbox_dpi|routing_updates>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --negative-controls

Run from the root of the checkout. The program is built from ./src into
./.bench_build/perfbench (CMake, incremental), never from anywhere else. The
last line of standard output is the JSON result of the run; build output
and progress go to standard error. --negative-controls runs every check
once against a corrupted output and fails unless each one is caught.
"""
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"

# (workload, fault): each fault corrupts one output or expected value.
NEGATIVE_CONTROLS = [
    ("tor_relay", "reply_byte"),     # one echoed reply has a flipped byte
    ("mbox_dpi", "echo_byte"),       # one echoed record has a flipped byte
    ("mbox_dpi", "alert_count"),     # the expected alert count lacks one alert
    ("routing_updates", "route"),    # one received route is altered
]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no program sources at %s/src; nothing to measure" % ROOT)
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def run(args):
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    return proc.returncode, proc.stdout


def negative_controls():
    ok = True
    for workload, fault in NEGATIVE_CONTROLS:
        code, out = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", "0", "--inject", fault])
        lines = out.strip().splitlines()
        caught = code != 0 and bool(lines) and json.loads(lines[-1])["correct"] is False
        print("negative control %s/%s: %s" % (workload, fault,
                                             "caught" if caught else "NOT CAUGHT"),
              file=sys.stderr)
        ok = ok and caught
    return 0 if ok else 1


def main():
    build()
    if sys.argv[1:] == ["--negative-controls"]:
        return negative_controls()
    code, _ = run(sys.argv[1:])
    return code


if __name__ == "__main__":
    sys.exit(main())

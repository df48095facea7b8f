#!/usr/bin/env python3
"""Builds blotbench from source and runs one workload.

    python3 perfbench/run.py --workload scan-mixed|hot-small|build-repair \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from anywhere; the build goes to .bench_build/perfbench at the root of
the checkout (Release), and the run's scratch files to
.bench_build/perfbench/work. The standard output of blotbench passes through
unchanged, so its last line is the result object. See perfbench/README.md.

Exit codes: those of blotbench (0 ok, 1 mismatch or failed operation,
2 usage), and 3 when blotbench cannot be built or run.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "blotbench")
WORKLOADS = ("scan-mixed", "hot-small", "build-repair")
# A run ends well inside this; a hung run is killed after it.
RUN_TIMEOUT_S = 900

USAGE = """usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 perfbench/run.py --selftest

  --workload NAME  one of: {}
  --seed N         input seed, 0..2^64-1
  --seconds S      measured seconds, 1..600
  --trace 0|1      0: end-to-end metrics; 1: traced per-layer metrics
  --selftest       check that a clean run passes and a perturbed answer fails
""".format(", ".join(WORKLOADS))


class UsageError(Exception):
    pass


def parse_int(flag, text, lo, hi):
    if not text.isdigit() or not lo <= int(text) <= hi:
        raise UsageError("bad value for {}: {!r} (want {}..{})".format(
            flag, text, lo, hi))
    return text


def parse_args(argv):
    """Returns the arguments for blotbench, or None for --selftest."""
    if argv == ["--selftest"]:
        return None
    values = {}
    i = 0
    while i < len(argv):
        flag = argv[i]
        if flag in ("-h", "--help"):
            raise UsageError("")
        name, eq, value = flag.partition("=")
        if name not in ("--workload", "--seed", "--seconds", "--trace"):
            raise UsageError("unknown argument: " + flag)
        if not eq:
            if i + 1 >= len(argv):
                raise UsageError(name + " needs a value")
            i += 1
            value = argv[i]
        values[name] = value
        i += 1
    missing = [f for f in ("--workload", "--seed", "--seconds", "--trace")
               if f not in values]
    if missing:
        raise UsageError("missing " + ", ".join(missing))
    if values["--workload"] not in WORKLOADS:
        raise UsageError("unknown workload: " + values["--workload"])
    parse_int("--seed", values["--seed"], 0, 2**64 - 1)
    parse_int("--seconds", values["--seconds"], 1, 600)
    parse_int("--trace", values["--trace"], 0, 1)
    args = []
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        args += [flag, values[flag]]
    return args


def build():
    """Configures (once) and builds blotbench; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: BLOT sources (src/) not found under " + ROOT,
              file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(os.cpu_count() or 1, 4))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "blotbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def run_blotbench(args, capture=False):
    """Runs blotbench and waits for it; returns (exit code, stdout)."""
    command = [BINARY] + args + ["--work-dir", WORK_DIR]
    proc = subprocess.Popen(command, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None,
                            stderr=subprocess.DEVNULL if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, (out or b"").decode()


def selftest():
    """A clean small run must pass; the same run with one perturbed answer
    must fail its oracle check; bad flags must be usage errors."""
    small = ["--workload", "scan-mixed", "--seed", "7", "--seconds", "1",
             "--trace", "0", "--records", "100000"]
    checks = []
    code, out = run_blotbench(small, capture=True)
    checks.append(("clean run passes",
                   code == 0 and '"correct": true' in out.splitlines()[-1]))
    code, out = run_blotbench(small + ["--perturb-answer"], capture=True)
    checks.append(("perturbed answer fails",
                   code == 1 and '"correct": false' in out.splitlines()[-1]))
    for bad in (["--help"], ["--bogus", "1"], small[:-2] + ["--records", "x"]):
        code, out = run_blotbench(bad, capture=True)
        checks.append(("usage error for " + " ".join(bad[-2:]),
                       code == 2 and not out))
    for name, ok in checks:
        print("selftest {}: {}".format("ok  " if ok else "FAIL", name))
    return 0 if all(ok for _, ok in checks) else 1


def main(argv):
    try:
        args = parse_args(argv)
    except UsageError as e:
        if str(e):
            print("run.py: " + str(e), file=sys.stderr)
        sys.stderr.write(USAGE)
        return 2
    if not build():
        return 3
    if args is None:
        return selftest()
    try:
        code, _ = run_blotbench(args)
    except subprocess.TimeoutExpired:
        print("run.py: blotbench timed out", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Repository benchmark: builds mwbench from source, runs one workload, and
prints one JSON result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. The gated workloads, their metrics and
bounds are declared in BENCHMARK.json; the fixed workload constants (offered
rates, request work, race shapes) live in perfbench/workloads.json and are
forwarded to mwbench as --key=value. Everything the build and the runs leave
behind goes under .bench_build/ in the checkout.

The benchmark's own tests (test_bench.py) shorten or perturb svc_socket with
--param key=value for the keys in TEST_PARAMS only; a run that uses one says
so in a report line.

The last line of standard output is
    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
with every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1). Exit status 0 means every output check passed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "mwbench")
RUN_TIMEOUT_S = 170
# The only constants a caller may override; none of them loosens a check.
TEST_PARAMS = {"svc_socket": ("setups", "steady_rps", "stall_ms")}


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configures once, then (re)builds mwbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
        if os.path.isfile(cache):
            # A build tree configured for another checkout path is stale.
            with open(cache) as f:
                home = [l.split("=", 1)[1].strip() for l in f
                        if l.startswith("CMAKE_HOME_DIRECTORY:")]
            if home != [HERE]:
                shutil.rmtree(BUILD_DIR)
        if not os.path.isfile(cache):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        cmd = ["cmake", "--build", BUILD_DIR, "--target", "mwbench",
               "-j", jobs]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")


def source_digest():
    """SHA-256 over src/ and perfbench/: names the code that was measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--param", action="append", default=[],
                    help="test override, key=value; keys: " +
                    ", ".join("%s (%s)" % (", ".join(k), w)
                              for w, k in TEST_PARAMS.items()))
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    consts = load_json(os.path.join(HERE, "workloads.json"))
    # BENCHMARK.json names the gated workloads; workloads.json may hold
    # more that run the same way but are not gated (see their why_not_gated).
    names = sorted(consts["workloads"])
    if args.workload not in names:
        fail("unknown workload %r (known: %s)" % (args.workload, ", ".join(names)))
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build()

    params = dict(consts["workloads"][args.workload]["constants"])
    for kv in args.param:
        key, sep, value = kv.partition("=")
        if not sep:
            fail("--param takes key=value, got %r" % kv)
        if key not in TEST_PARAMS.get(args.workload, ()):
            fail("--param %s is not a test override of %s" %
                 (key, args.workload))
        params[key] = value
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", OUT_DIR]
    cmd += ["--%s=%s" % (k, v) for k, v in params.items()]

    print("# git sha: %s; source digest: %s; nproc: %d" %
          (git_sha(), source_digest(), len(os.sched_getaffinity(0))))
    if args.param:
        print("# test overrides: " + " ".join(args.param))
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("mwbench did not finish within %d s" % RUN_TIMEOUT_S, 3)
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    for line in lines:
        print(line)
    if result is None:
        fail("mwbench exited %d without a result" % proc.returncode,
             proc.returncode or 3)

    # The metric set must be exactly the declared one, with declared units.
    declared = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    got = result["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in declared})
    if unknown:
        fail("mwbench reported undeclared metrics: " + ", ".join(unknown), 3)
    not_exercised = []
    for m in declared:
        if m["name"] not in got:
            if args.trace == "0":
                fail("mwbench did not report " + m["name"], 3)
            # A layer this workload does not go through reads 0.
            got[m["name"]] = {"value": 0.0, "unit": m["unit"]}
            not_exercised.append(m["name"])
        elif got[m["name"]]["unit"] != m["unit"]:
            fail("unit of %s is %s, declared %s" %
                 (m["name"], got[m["name"]]["unit"], m["unit"]), 3)
    if not_exercised:
        print("# not exercised by %s (reported as 0): %s" %
              (args.workload, ", ".join(not_exercised)))
    result["metrics"] = {m["name"]: got[m["name"]] for m in declared}
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

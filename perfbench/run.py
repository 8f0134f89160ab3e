#!/usr/bin/env python3
"""Run one TDmatch benchmark run from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness with sbt when the sources changed since the last build
(offline; the result is kept in .bench_build/), then starts the JVM that
`perfbench/Test/run` would fork and prints that JVM's JSON result line as
the last line of standard output. Exits non-zero, without a result line,
when the build, the run or its output fails.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
STATE_DIR = os.path.join(ROOT, ".bench_build")
LAUNCH_ARGS = os.path.join(STATE_DIR, "launch.args")
FINGERPRINT = os.path.join(STATE_DIR, "fingerprint")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

# Inputs of the build: a change to any of them triggers a rebuild.
BUILD_INPUTS = ["build.sbt", "project", "src", "jobs", "bench",
                "perfbench/build.sbt", "perfbench/project", "perfbench/src"]
# Heap of the benchmark JVM (build.sbt reads it into Test / javaOptions).
DRIVER_MEM = "4g"
# Spark local threads: at most this many, and at most the cores available.
MAX_THREADS = 4

START = time.monotonic()
FIRST_RUN_LIMIT_S = 880   # a run that builds first
RUN_LIMIT_S = 170         # any other run


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def fingerprint():
    h = hashlib.sha256()
    for top in BUILD_INPUTS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, subdirs, names in os.walk(path):
            subdirs[:] = sorted(s for s in subdirs if s not in ("target", ".bsp", "__pycache__"))
            files += [os.path.join(d, n) for n in sorted(names)]
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_result(line, trace):
    """The JVM's result line, parsed strictly, holding exactly the metrics
    BENCHMARK.json lists for this mode, each a finite number in its unit;
    otherwise fail."""
    def no_constant(name):
        raise ValueError(f"{name} is not a JSON number")
    try:
        result = json.loads(line, parse_constant=no_constant)
    except ValueError as e:
        fail(f"last output line is not JSON ({e}): {line[:200]}")
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result: {line[:200]}")
    with open(MANIFEST) as f:
        wanted = {m["name"]: m["unit"] for m in json.load(f)["per_layer" if trace == "1" else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(wanted) - set(got))}, "
             f"unlisted {sorted(set(got) - set(wanted))}")
    for name, m in got.items():
        v = m.get("value")
        if m.get("unit") != wanted[name] or isinstance(v, bool) or not isinstance(v, (int, float)):
            fail(f"metric {name} is not a number in {wanted[name]}: {m}")
    return result


def run_group(cmd, cwd, env, timeout, stdout, stderr):
    """Run `cmd` in its own process group; kill the group on timeout or
    interruption, and wait until it has ended."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=stderr,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1, timeout))
        return proc.returncode, out
    except BaseException:
        for sig in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.killpg(proc.pid, sig)
            except ProcessLookupError:
                break
            try:
                proc.wait(timeout=10)
                break
            except subprocess.TimeoutExpired:
                pass
        proc.wait()
        raise


def environment():
    env = dict(os.environ)
    sbt_opts = ["-Dsbt.offline=true", "-Xmx2g"]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.isfile(repos):
        sbt_opts[:0] = ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    threads = max(1, min(MAX_THREADS, len(os.sched_getaffinity(0))))
    env.update({
        "COURSIER_MODE": "offline",
        "SBT_OPTS": " ".join(sbt_opts),
        "SPARK_DRIVER_MEM": DRIVER_MEM,
        "SPARK_LOCAL_DIRS": os.path.join(STATE_DIR, "spark-local"),
        "SPARK_MASTER": f"local[{threads}]",
        "SPARK_SHUFFLE_PARTITIONS": str(threads),
    })
    return env


def build(env, stamp):
    log_path = os.path.join(STATE_DIR, "build.log")
    print("perfbench: building (log in .bench_build/build.log)", file=sys.stderr)
    with open(log_path, "w") as log:
        code, _ = run_group(["sbt", "--batch", "-Dsbt.log.noformat=true", "launchSpec"],
                            BENCH_DIR, env, FIRST_RUN_LIMIT_S - (time.monotonic() - START) - 60,
                            log, subprocess.STDOUT)
    if code != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail(f"sbt build failed with exit code {code}")
    os.replace(os.path.join(BENCH_DIR, "target", "launch.args"), LAUNCH_ARGS)
    with open(FINGERPRINT, "w") as f:
        f.write(stamp)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=["0", "1"], required=True)
    a = p.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        fail("no TDmatch sources next to perfbench/ (build.sbt, src/main/scala); nothing to benchmark")

    os.makedirs(os.path.join(STATE_DIR, "spark-local"), exist_ok=True)
    env = environment()
    stamp = fingerprint()
    built = os.path.isfile(LAUNCH_ARGS) and os.path.isfile(FINGERPRINT) \
        and open(FINGERPRINT).read() == stamp
    limit = RUN_LIMIT_S
    if not built:
        build(env, stamp)
        limit = FIRST_RUN_LIMIT_S
    with open(LAUNCH_ARGS) as f:
        jvm_args = [line.rstrip("\n") for line in f if line.strip()]

    log_path = os.path.join(STATE_DIR, f"run-{a.workload}-{a.seed}-{a.trace}.log")
    cmd = ["java"] + jvm_args + ["perfbench.Main", "--workload", a.workload, "--seed", str(a.seed),
                                 "--seconds", str(a.seconds), "--trace", a.trace]
    with open(log_path, "w") as log:
        try:
            code, out = run_group(cmd, ROOT, env, limit - (time.monotonic() - START),
                                  subprocess.PIPE, log)
        except subprocess.TimeoutExpired:
            fail(f"run exceeded its time limit; log in {os.path.relpath(log_path, ROOT)}")
    lines = [l for l in out.decode(errors="replace").splitlines() if l.strip()]
    if code != 0 or not lines:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail(f"benchmark JVM exited with code {code}")
    print(json.dumps(check_result(lines[-1], a.trace), allow_nan=False))


if __name__ == "__main__":
    main()

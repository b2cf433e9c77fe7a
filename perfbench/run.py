#!/usr/bin/env python3
"""Run the pipeline benchmark on one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout of the repository. The first run builds the
benchmark together with the program's sources (sbt, in perfbench/); later runs
reuse the build while the sources are unchanged. The last line of stdout is
the result object; everything Spark logs goes to stderr.
"""
import argparse
import hashlib
import os
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_LIMIT_S = 175      # a run must end within 180 s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
TARGET = os.path.join(HERE, "target")
CLASSES = os.path.join(TARGET, "scala-2.13", "classes")
STAMP = os.path.join(TARGET, "perfbench.stamp")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    digest = hashlib.sha256()
    roots = [os.path.join(HERE, "src"), PROGRAM_SOURCES]
    files = [os.path.join(HERE, f) for f in ("build.sbt", "jvm-options.txt", os.path.join("project", "build.properties"))]
    for root in roots:
        for dirpath, _, names in os.walk(root):
            files += [os.path.join(dirpath, n) for n in names]
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def build():
    digest = source_digest()
    if os.path.isdir(CLASSES) and os.path.exists(STAMP):
        with open(STAMP) as f:
            if f.read() == digest:
                return
    # sbt's global state and temp files stay inside the checkout.
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           f"-Dsbt.global.base={os.path.join(TARGET, 'sbt-global')}",
           f"-Djna.tmpdir={os.path.join(TARGET, 'tmp')}", "compile"]
    try:
        done = subprocess.run(cmd, cwd=HERE, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    with open(STAMP, "w") as f:
        f.write(digest)


def java_command():
    spark_home = os.environ.get("SPARK_HOME")
    if not spark_home:
        fail("SPARK_HOME must point at a Spark 4 distribution")
    java_home = os.environ.get("JAVA_HOME")
    java = os.path.join(java_home, "bin", "java") if java_home else "java"
    with open(os.path.join(HERE, "jvm-options.txt")) as f:
        options = [line.strip() for line in f if line.strip()]
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    heap = os.environ.get("SPARK_DRIVER_MEM", "4g")
    return [java, *options, f"-Xms{heap}", f"-Xmx{heap}",
            f"-Djava.io.tmpdir={tmp}",
            f"-Dperfbench.workdir={os.path.join(TARGET, 'spark')}",
            "-cp", os.pathsep.join([CLASSES, os.path.join(spark_home, "jars", "*")]),
            "perfbench.Main"]


def run_java(args):
    """Run the benchmark JVM and return its stdout lines."""
    proc = subprocess.Popen(java_command() + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"benchmark process ran past {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark process failed with exit code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail("benchmark process printed nothing")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isdir(PROGRAM_SOURCES):
        fail(f"no program sources at {os.path.relpath(PROGRAM_SOURCES)}: run from a checkout of the repository")
    build()

    print("\n".join(run_java([
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", os.path.join("perfbench", "out"),
        "--launched-at-ns", str(time.time_ns())])))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload append-durable --seed 1 --seconds 20 --trace 0

The Go program in this directory is built from source into .bench_build/
(build cache included, so nothing is written outside the checkout) and run
once. Its standard output is passed through: the last line is the result
object. The spans of a workload's latest traced run are written to
.bench_build/spans/<workload>.csv.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("append-durable", "read-tail", "geo-2dc")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_revision():
    """The git commit when there is one, else a digest of the Go sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for base, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "go.mod")) and os.path.isdir(os.path.join(ROOT, "internal"))):
        fail("the program's sources (go.mod, internal/) are not in " + ROOT)
    go = shutil.which("go")
    if go is None:
        fail("no go toolchain on PATH")

    tmp = os.path.join(BUILD, "tmp")
    env = dict(os.environ)
    env.update({
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
    })
    os.makedirs(tmp, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=800)
    if build.returncode != 0:
        fail("build failed")

    workdir = os.path.join(BUILD, "run-%d" % os.getpid())
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-workdir", workdir, "-commit", source_revision()]
    if args.trace == 1:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        # One file per workload, the latest traced run's: a run's spans take
        # about 10 MB.
        cmd += ["-spans", os.path.join(spans, "%s.csv" % args.workload)]
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = 1
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

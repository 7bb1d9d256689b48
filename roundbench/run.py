#!/usr/bin/env python3
"""Build the round benchmark from source and run one workload.

    python3 roundbench/run.py --workload ssmw-median-b32 --seed 1 --seconds 15 --trace 0

Run it from the repository root. The Go build cache, the binary and the
traced run's spans live under .bench_build/ in the root; nothing is read or
written outside the checkout apart from the Go toolchain itself. The last
line of standard output is the benchmark's JSON result; the exit code is the
benchmark's (non-zero, with no result, when the build fails).
"""

import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "roundbench"
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=str(BUILD / "gocache"),
        GOPATH=str(BUILD / "gopath"),
        GOMODCACHE=str(BUILD / "gopath" / "pkg" / "mod"),
        XDG_CONFIG_HOME=str(BUILD / "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOENV="off",
        GOFLAGS="-mod=readonly",
    )
    return env


def build():
    BUILD.mkdir(exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", str(BINARY), "."],
        cwd=HERE, env=go_env(), stdout=sys.stderr, stderr=sys.stderr,
    )
    return proc.returncode == 0


def source_digest():
    """sha256 over the Go sources and module files the benchmark builds."""
    h = hashlib.sha256()
    skip = {".git", ".bench_build"}
    files = []
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in skip)
        for f in filenames:
            if f.endswith(".go") or f in ("go.mod", "go.sum", "run.py"):
                files.append(Path(dirpath) / f)
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit_id():
    head = "nogit"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        if out.returncode == 0:
            head = out.stdout.strip()
    return f"{head}+src-sha256:{source_digest()}"


def main(argv):
    if not (ROOT / "go.mod").exists() or not (ROOT / "internal").is_dir():
        print("run.py: the repository sources are not next to the benchmark", file=sys.stderr)
        return 1
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    args = [str(BINARY), *argv]
    if not any(a == "--commit" or a.startswith("--commit=") for a in argv):
        args += ["--commit", commit_id()]
    proc = subprocess.Popen(args, cwd=ROOT)
    # A terminated runner takes the benchmark process down with it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

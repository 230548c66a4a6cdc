#!/usr/bin/env python3
"""Builds the benchmark from source in this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to .bench_build/ (Release, the repository's own CMake project
with perfbench/hook.cmake injected). The benchmark's last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("no repository sources next to perfbench/; nothing to build")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    cmds = []
    if not (BUILD / "CMakeCache.txt").is_file():
        cmds.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release",
                     f"-DCMAKE_PROJECT_INCLUDE={ROOT / 'perfbench' / 'hook.cmake'}"])
    cmds.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                 "-j", str(os.cpu_count() or 1)])
    for cmd in cmds:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv):
    if not build():
        return 2
    out_dir = BUILD / "perfbench_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    # Snapshot directories of runs that were killed before cleaning up.
    for stale in out_dir.glob("snap_*"):
        shutil.rmtree(stale, ignore_errors=True)
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_OUT_DIR=str(out_dir))
    proc = subprocess.Popen([str(BINARY)] + argv, cwd=str(ROOT), env=env)

    def stop(signum, frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s; stopping it")
        proc.kill()
        proc.wait()
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

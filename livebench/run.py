#!/usr/bin/env python3
"""Build the live-stack benchmark from source and run it.

    python3 livebench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 livebench/run.py --self-test

Run from the repository root. The build goes to $CARGO_TARGET_DIR/livebench
(default .bench_build/livebench); every file a run writes stays under that
directory. The last line of stdout is the result JSON; build output goes to
stderr.
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("livebench: " + msg, file=sys.stderr)
    return 2


def main(argv):
    for needed in ("src/CMakeLists.txt", "tools/janusd.cpp"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            return fail("Janus sources not found (%s missing); run from a "
                        "full checkout" % needed)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(os.path.abspath(build_root), "livebench")
    jobs = str(os.cpu_count() or 1)
    try:
        if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build, "-j", jobs,
                        "--target", "livebench", "janusd"],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as exc:
        return fail("build failed: %s" % exc)

    workdir = os.path.join(build, "work-%d" % os.getpid())
    cmd = [os.path.join(build, "livebench")] + argv + ["--workdir", workdir]
    child = subprocess.Popen(cmd)

    def forward(sig, _frame):
        child.send_signal(sig)

    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, forward)
    rc = child.wait()
    if rc == 0:
        shutil.rmtree(workdir, ignore_errors=True)
    return rc if rc >= 0 else 128 - rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

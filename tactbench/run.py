#!/usr/bin/env python3
"""Build and run the TACT benchmark described by BENCHMARK.json.

Run from the repository root:

    python3 tactbench/run.py --workload serve_write --seed 1 --seconds 20 --trace 0

The script builds tact_serve and tactbench.exe with dune, runs
tactbench.exe, and passes its output through: every metric by name with its unit,
then, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}.  tactbench.exe reads the
metric names and units from BENCHMARK.json: its end_to_end list
(--trace 0) or its per_layer list (--trace 1).  Build output, runtime-event rings, span dumps
and per-run result files stay inside the checkout (_build/, .bench_out/).

Exit status: tactbench.exe's (0 when every output check passed), or non-zero
without a result line when the build or the run fails.
"""

import argparse
import ctypes
import hashlib
import json
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGETS = ["./tactbench/tactbench.exe", "./bin/tact_serve.exe"]
BUILD_DIR = "_build/default"
OUT_DIR = ".bench_out"


def fail(msg, code=2):
    print(f"tactbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    """The commit when this is a git checkout, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "tactbench"]:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        if os.path.isfile(top):
            with open(top, "rb") as f:
                h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


# personality(2) flag that turns off address-space randomisation: every
# run then gets the same memory layout, so cache placement does not vary
# from run to run.
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.personality(ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def build(env):
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release", *TARGETS],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 3)
    if r.returncode != 0:
        fail("build failed", 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found; run from the repository root")

    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["OCAML_RUNTIME_EVENTS_DIR"] = os.path.abspath(OUT_DIR)
    build(env)

    cmd = [
        os.path.join(BUILD_DIR, "tactbench", "tactbench.exe"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--serve-exe", os.path.join(BUILD_DIR, "bin", "tact_serve.exe"),
        "--out-dir", OUT_DIR, "--benchmark", "BENCHMARK.json", "--commit", source_stamp(),
    ]
    # tactbench.exe and the daemons it spawns share a fresh session, so a
    # timeout can stop every one of them.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True,
                            preexec_fn=fixed_layout)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass

    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(out)
        fail(f"tactbench.exe exited {proc.returncode}", 5)
    try:
        json.loads(lines[-1])["metrics"]
    except (ValueError, KeyError, TypeError) as e:
        sys.stdout.write(out)
        fail(f"no result line: {e}", 5)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the netsched serving benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
        [--scenario-seed <m>]

Run it from the repository root. It builds the harness package in
`perfbench/harness` (release, offline) into `$CARGO_TARGET_DIR`, or
`perfbench/harness/target` when that is unset, then runs one workload.
Build output goes to standard error. The harness prints the result as the
last line of standard output and writes it, with the run's metadata and
(traced runs) its Chrome trace-event spans, under `<target>/perfbench-out/`.
The exit code is the harness's: non-zero when the build, the run or an
output check fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "harness" / "Cargo.toml"
BINARY = "netsched-perfbench"
WORKLOADS = ("line-1e5", "tree-1e5", "mixed-tree-durable")


def target_dir() -> Path:
    configured = os.environ.get("CARGO_TARGET_DIR")
    if not configured:
        return HERE / "harness" / "target"
    path = Path(configured)
    return path if path.is_absolute() else Path.cwd() / path


def source_files():
    """The files the benchmarked program is built from, in a fixed order."""
    roots = [ROOT / "crates", ROOT / "vendor", HERE]
    suffixes = {".rs", ".toml", ".lock", ".py"}
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                path = Path(dirpath) / name
                if path.suffix in suffixes:
                    yield path
    for name in ("Cargo.toml", "Cargo.lock"):
        if (ROOT / name).is_file():
            yield ROOT / name


def revision() -> str:
    """The git commit when the checkout is a repository, plus a hash of the
    sources, which identifies the build when it is not."""
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    tree = "src-sha256:" + digest.hexdigest()[:16]
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        if len(top) == 2 and Path(top[0]).resolve() == ROOT:
            return f"git:{top[1][:12]} {tree}"
    except (OSError, subprocess.CalledProcessError):
        pass
    return tree


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenario-seed", type=int,
                        help="seed of the base instance (default: the scenario's own)")
    args = parser.parse_args()

    target = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(MANIFEST)],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: building the harness failed", file=sys.stderr)
        return 1

    run = subprocess.run(
        [str(target / "release" / BINARY),
         "--workload", args.workload,
         "--seed", str(args.seed),
         "--seconds", str(args.seconds),
         "--trace", str(args.trace),
         "--out-dir", str(target / "perfbench-out"),
         "--revision", revision()]
        + ([] if args.scenario_seed is None
           else ["--scenario-seed", str(args.scenario_seed)]),
        cwd=ROOT,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

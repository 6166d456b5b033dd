#!/usr/bin/env python3
"""Build and run the campaign_e2e benchmark from the root of a checkout.

    python3 campaign_e2e/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0

Builds the benchmark package (and the dtpm-worker binary it spawns) in
release mode into $CARGO_TARGET_DIR (default: .bench_build at the checkout
root), then runs it with the given arguments. Every argument is passed on
unchanged; see campaign_e2e/README.md. Build output goes to standard
error, so the benchmark's last line on standard output is its JSON result.
The exit code is the build's on a failed build, the benchmark's otherwise.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Files whose content defines what is measured: the sources and build
# settings of the program and of the benchmark.
DIGEST_ROOTS = ["Cargo.toml", ".cargo", "src", "crates", "vendor", "campaign_e2e"]
DIGEST_SKIP = {"Cargo.lock"}


def source_digest():
    """SHA-256 over the program's and the benchmark's source files."""
    digest = hashlib.sha256()
    for top in DIGEST_ROOTS:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for folder, dirs, names in os.walk(path):
                dirs.sort()
                files.extend(os.path.join(folder, n) for n in sorted(names))
        for name in files:
            if os.path.basename(name) in DIGEST_SKIP:
                continue
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def command_output(argv):
    """Standard output of argv, stripped, or None if it cannot run."""
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def commit():
    """The checkout's git commit, if the checkout is itself a git work tree."""
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "none"
    return command_output(["git", "rev-parse", "HEAD"]) or "none"


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join("campaign_e2e", "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print(f"campaign_e2e: build failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1
    env["CAMPAIGN_E2E_RUSTC"] = command_output(["rustc", "--version"]) or "unknown"
    env["CAMPAIGN_E2E_COMMIT"] = commit()
    env["CAMPAIGN_E2E_SOURCE_DIGEST"] = source_digest()
    binary = os.path.join(ROOT, target, "release", "campaign-e2e")
    sys.stdout.flush()
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Rewrite the SHA-256 manifest of the bundled presets' artifacts.

The manifest holds one digest per file that ``run_paper_presets.py`` writes
at its default seed, and per file of one seeded ``drift-demo`` sweep, keyed
by the path under the output directory.  It also records the numpy major
version it was taken under.  ``tests/test_scripts.py`` reruns the same runs
and compares their digests with it, so a change that moves an artifact byte
shows as a diff of this manifest.

Usage:
    python scripts/artifact_digests.py
"""
import argparse
import contextlib
import hashlib
import io
import json
import runpy
import tempfile
from pathlib import Path

import numpy as np

from rabibeat.cli import main as rabibeat_main

SCRIPTS = Path(__file__).resolve().parent
MANIFEST = SCRIPTS.parent / "tests" / "artifact_digests.json"
SEED = 7
SWEEP = ["simulate", "--config", "drift-demo",
         "--sweep", "drift.sigma_relative=4e-4,8e-4", "--seed", str(SEED)]


def digests(out) -> dict:
    """Run the presets and the sweep under ``out`` and return the SHA-256
    of every file written, by its POSIX path under ``out``."""
    out = Path(out)
    presets = runpy.run_path(str(SCRIPTS / "run_paper_presets.py"))
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [presets["run"](argparse.Namespace(out=str(out), seed=SEED)),
                 rabibeat_main([*SWEEP, "--out", str(out / "drift-sweep")])]
    if any(codes):
        raise RuntimeError(f"a preset run failed (exit codes {codes})")
    return {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def numpy_major() -> int:
    return int(np.__version__.split(".")[0])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        files = digests(out)
    MANIFEST.write_text(json.dumps({"numpy_major": numpy_major(), "files": files},
                                   indent=2, sort_keys=True) + "\n")
    print(f"{MANIFEST}: {len(files)} digests under numpy {np.__version__}")

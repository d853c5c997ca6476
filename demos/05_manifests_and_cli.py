"""Manifest files and the command-line interface.

Systems serialize to a strict JSON manifest (format_version 1): the node
set with weights, both sample families, the target, and optionally a
claimed bound pair and a label.  The command-line interface
(`python -m biframekit`, or the `biframekit` console script once the package
is installed) works entirely in terms of these files.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from biframekit import app, optimal_bounds


# One CLI process per command.  Exit codes are part of the interface:
# 0 = verified/valid, 1 = refuted/invalid, 2 = unusable input.
def run(*args):
    proc = subprocess.run([sys.executable, "-m", "biframekit", *args],
                          capture_output=True, text=True)
    body = (proc.stdout + proc.stderr).strip()
    print(f"\n$ python -m biframekit {' '.join(args)}   [exit {proc.returncode}]")
    print("\n".join("  " + line for line in body.splitlines()))
    return proc


# The temporary directory, and every file written into it, is removed at the end.
with tempfile.TemporaryDirectory(prefix="biframekit-demo-") as tmp:
    workdir = Path(tmp)

    # Serialize a bundled system, claims attached.
    record = app.fixture_record("example-3-11")
    path = workdir / "promoted.json"
    app.save(record.system, path, claimed_bounds=record.claimed_bounds,
             label=record.name)
    print(f"wrote {path} ({path.stat().st_size} bytes)")

    # Round trip is exact: weights, samples and target come back bit for bit.
    loaded = app.load(path)
    assert np.array_equal(loaded.system.target, record.system.target)
    assert loaded.claimed_bounds == record.claimed_bounds
    print(f"round trip ok; label={loaded.label!r}, claims={loaded.claimed_bounds}")

    report = optimal_bounds(loaded.system)
    print(f"optimal bounds from the loaded copy: ({report.lower_opt}, {report.upper_opt})")

    # The same analyses, through the CLI.
    run("bounds", str(path))
    run("verify", "--lower", "1.3", str(path))           # overclaimed: refuted
    run("demo", "example-3-4")                           # bundled invalid system
    run("construct", str(path), "--op", "sandwich",
        "--operator", "[[2,0,0],[0,2,0],[0,0,2]]",
        "-o", str(workdir / "sandwiched.json"))

    # JSON reports carry the same content for scripting.
    proc = run("--format", "json", "bounds", str(path))
    payload = json.loads(proc.stdout)
    print(f"\nparsed lower bound from JSON report: {payload['lower']}")

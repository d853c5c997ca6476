"""Golden CLI snapshots: the command-line behaviour, pinned.

Every case runs one ``--format json`` command in a directory holding the
bundled fixtures' manifests and compares it with ``data/cli_snapshots.json``:
exit codes, report keys, booleans, strings and stderr exactly, floats at
relative 1e-9 (with an absolute floor of 1e-12 for round-off-level values
such as a zero asymmetry).  Witness vectors are not compared entry by entry:
the snapshot only fixes whether one is present, and the test checks that the
reported vector refutes what it is reported against, so a different but
equally valid witness passes.

Regenerate the data (after a deliberate change of behaviour) with

    PYTHONPATH=src python tests/test_cli_snapshots.py
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from biframekit.app import load, save
from biframekit.app.cli import main
from biframekit.app.fixtures import fixture_names, fixture_record
from biframekit.tensor import tensor_system

GOLDEN = Path(__file__).parent / "data" / "cli_snapshots.json"

WITNESS_KEYS = {"witness", "negative_form_witness", "witness_scaled", "form_at_witness"}

PLAIN = "plain.json"  # example-3-11's families against the identity target

OPERATORS = {
    "apply": [[1.0, 0.2, 0.0], [0.0, 1.0, 0.0], [0.1, 0.0, 2.0]],
    "dual": [[2.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]],
    "sandwich": [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.5]],
    "perturb": [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.2]],
    "product": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.5]],
    "commute": [[2.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
}
TERMS = [
    {"coeff": 1.0, "target": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    {"coeff": 0.5, "target": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]]},
]


def cases() -> list[dict]:
    """Each case: the arguments after ``--format json`` and the system the
    witnesses are checked against (a manifest file or a demo name)."""
    names = fixture_names()
    out = [{"args": ["demo", name], "demo": name} for name in names + ("example-5-3",)]
    for command in ("bounds", "verify"):
        out += [{"args": [command, f"{name}.json"], "file": f"{name}.json"} for name in names]
    for op, rows in OPERATORS.items():
        extra = ["--power", "2"] if op == "perturb" else []
        out.append({"args": ["construct", PLAIN, "--op", op, "--operator", json.dumps(rows),
                             *extra, "-o", f"out-{op}.json"]})
    out.append({"args": ["construct", PLAIN, "--op", "sum",
                         *(a for t in TERMS for a in ("--term", json.dumps(t))),
                         "-o", "out-sum.json"]})
    out += [
        # a failing precondition, an input the rule rejects, two usage errors
        {"args": ["construct", "example-3-3.json", "--op", "dual",
                  "--operator", "[[1,0,0],[0,1,0],[0,0,1]]"]},
        {"args": ["construct", PLAIN, "--op", "perturb",
                  "--operator", "[[1,0,0],[0,-1,0],[0,0,1]]"]},
        {"args": ["construct", PLAIN, "--op", "apply"]},
        {"args": ["construct", PLAIN, "--op", "sum"]},
        {"args": ["tensor", "example-5-3-left.json", "example-5-3-right.json",
                  "-o", "tensor.json"]},
        {"args": ["tensor", "example-3-4.json", "example-3-3.json", "-o", "bad.json"]},
    ]
    return out


def write_manifests(directory: Path) -> None:
    for name in fixture_names():
        rec = fixture_record(name)
        save(rec.system, directory / f"{name}.json", claimed_bounds=rec.claimed_bounds, label=name)
    plain = fixture_record("example-3-11").system.with_target(np.eye(3))
    save(plain, directory / PLAIN, label="plain")


def run_all(directory: Path) -> list[dict]:
    """Run every case with ``directory`` as the working directory."""
    write_manifests(directory)
    runner = CliRunner()
    records = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for case in cases():
            result = runner.invoke(main, ["--format", "json", *case["args"]])
            records.append({
                "args": case["args"],
                "exit_code": result.exit_code,
                "stdout": json.loads(result.stdout) if result.stdout.strip() else None,
                "stderr": result.stderr,
            })
    finally:
        os.chdir(cwd)
    return records


# ----------------------------------------------------------------- checks


def _same(golden, got, where: str) -> list[str]:
    """Differences between a golden report and a fresh one, witnesses aside."""
    if isinstance(golden, dict):
        if not isinstance(got, dict) or set(golden) != set(got):
            return [f"{where}: {golden!r} != {got!r}"]
        out = []
        for key in golden:
            if key in WITNESS_KEYS:
                if (golden[key] is None) != (got[key] is None):
                    out.append(f"{where}.{key}: presence changed")
            else:
                out += _same(golden[key], got[key], f"{where}.{key}")
        return out
    if isinstance(golden, list):
        if not isinstance(got, list) or len(golden) != len(got):
            return [f"{where}: {golden!r} != {got!r}"]
        return [d for i, (a, b) in enumerate(zip(golden, got))
                for d in _same(a, b, f"{where}[{i}]")]
    if isinstance(golden, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        if math.isclose(golden, got, rel_tol=1e-9, abs_tol=1e-12):
            return []
        return [f"{where}: {golden!r} != {got!r}"]
    if type(golden) is not type(got) or golden != got:
        return [f"{where}: {golden!r} != {got!r}"]
    return []


def _vector(rows) -> np.ndarray:
    arr = np.array(rows, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1] if arr.ndim == 2 else arr


def _pencil(case: dict, directory: Path) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian part of the frame operator and ``K K*``, computed here."""
    if "file" in case:
        system = load(directory / case["file"]).system
    elif case["demo"] == "example-5-3":
        system = tensor_system(fixture_record("example-5-3-left").system,
                               fixture_record("example-5-3-right").system).combined
    else:
        system = fixture_record(case["demo"]).system
    w = system.measure.weights
    s = system.synthesis.samples.T @ (w[:, None] * np.conj(system.analysis.samples))
    k = system.target
    return (s + np.conj(s).T) / 2.0, k @ np.conj(k).T


def _refutes(h, p, v, lower: float, upper: float) -> bool:
    """Whether ``v`` violates ``lower <Pv,v> <= <Hv,v> <= upper |v|^2``."""
    hv = float(np.real(np.vdot(v, h @ v)))
    pv = float(np.real(np.vdot(v, p @ v)))
    return hv - lower * pv < 0.0 or upper * float(np.real(np.vdot(v, v))) - hv < 0.0


def _witness_faults(case: dict, report: dict, directory: Path) -> list[str]:
    if "file" not in case and "demo" not in case:
        return []
    h, p = _pencil(case, directory)
    command = case["args"][0]
    out = []

    def need(key, lower, upper, what):
        if report.get(key) is not None and not _refutes(h, p, _vector(report[key]), lower, upper):
            out.append(f"{key} does not refute {what}")

    if command == "bounds":
        if report["valid"] and isinstance(report["lower"], float):
            # the tight direction: any larger lower constant fails along it
            need("witness", report["lower"] * (1 + 1e-6), math.inf, "a larger lower bound")
        else:
            need("witness", 1e-6, math.inf, "a positive lower bound")
        need("negative_form_witness", 0.0, math.inf, "a nonnegative form")
    elif command == "verify":
        need("witness", report["lower"], report["upper"], "the claim")
    else:
        lower, upper = report["claimed"]
        need("witness", lower, upper, "the claim")
        need("witness_scaled", lower, upper, "the claim")
        if "form_at_witness" in report:
            v = _vector(report["witness_scaled"])
            form = float(np.real(np.vdot(v, h @ v)))
            if not math.isclose(report["form_at_witness"], form, rel_tol=1e-9, abs_tol=1e-12):
                out.append(f"form_at_witness {report['form_at_witness']!r} != {form!r}")
    return out


def test_cli_matches_golden_snapshots(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_all(tmp_path)
    assert [g["args"] for g in golden] == [r["args"] for r in got], "case list changed"
    faults = []
    for case, want, have in zip(cases(), golden, got):
        where = " ".join(case["args"][:4])
        if want["exit_code"] != have["exit_code"]:
            faults.append(f"{where}: exit {have['exit_code']}, golden {want['exit_code']}")
        if want["stderr"] != have["stderr"]:
            faults.append(f"{where}: stderr {have['stderr']!r}, golden {want['stderr']!r}")
        faults += _same(want["stdout"], have["stdout"], where)
        if isinstance(have["stdout"], dict):
            faults += [f"{where}: {f}" for f in _witness_faults(case, have["stdout"], tmp_path)]
    assert not faults, "\n".join(faults)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = run_all(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)

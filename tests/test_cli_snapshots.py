"""Golden CLI snapshots: the command-line behaviour, pinned.

Every case runs one command twice, with ``--format json`` and with
``--format text``, in a directory holding the bundled fixtures' manifests,
and compares both runs with ``data/cli_snapshots.json``: exit codes, report
keys, booleans, strings, stderr and every text line exactly, floats at
relative 1e-9 (with an absolute floor of 1e-12 for round-off-level values
such as a zero asymmetry).  Witnesses are not compared entry by entry: the
snapshot only fixes whether a witness vector or a text line printing one is
present, and the test checks that the reported JSON vector refutes what it
is reported against, so a different but equally valid witness passes.

Regenerate the data (after a deliberate change of behaviour) with

    PYTHONPATH=src python tests/test_cli_snapshots.py

which prints every value that moved, and whether the test tolerates the
move, before it writes.
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
# text lines that print a witness, by the label before their first colon
WITNESS_LINES = {"lower witness", "negative-form witness", "witness", "witness (scaled)",
                 "form at witness"}

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
    """Run every case, in both formats, with ``directory`` as the working
    directory."""
    write_manifests(directory)
    runner = CliRunner()
    records = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for case in cases():
            result = runner.invoke(main, ["--format", "json", *case["args"]])
            text = runner.invoke(main, ["--format", "text", *case["args"]])
            records.append({
                "args": case["args"],
                "exit_code": result.exit_code,
                "stdout": json.loads(result.stdout) if result.stdout.strip() else None,
                "stderr": result.stderr,
                "text": {"exit_code": text.exit_code, "stdout": text.stdout.splitlines(),
                         "stderr": text.stderr},
            })
    finally:
        os.chdir(cwd)
    return records


# ----------------------------------------------------------------- checks


def _witness_line(line: str) -> str | None:
    label = line.split(":", 1)[0]
    return label if label in WITNESS_LINES else None


def _diff(golden, got, where: str):
    """Every value that differs between a golden record and a fresh one, as
    ``(path, old, new, tolerated)``.  A float move is tolerated within the
    test's tolerance, a witness (a JSON vector or a text line printing one)
    whenever its presence is unchanged."""
    if isinstance(golden, dict) and isinstance(got, dict):
        for key in sorted(golden.keys() | got.keys()):
            path = f"{where}.{key}"
            if key not in golden or key not in got:
                yield path, golden.get(key, "<absent>"), got.get(key, "<absent>"), False
            elif key in WITNESS_KEYS:
                if golden[key] != got[key]:
                    yield path, golden[key], got[key], (golden[key] is None) == (got[key] is None)
            else:
                yield from _diff(golden[key], got[key], path)
    elif isinstance(golden, list) and isinstance(got, list) and len(golden) == len(got):
        for i, (a, b) in enumerate(zip(golden, got)):
            yield from _diff(a, b, f"{where}[{i}]")
    elif type(golden) is type(got) and golden == got:
        return
    elif isinstance(golden, float) and not isinstance(got, bool) and isinstance(got, (int, float)):
        yield where, golden, got, math.isclose(golden, got, rel_tol=1e-9, abs_tol=1e-12)
    elif isinstance(golden, str) and isinstance(got, str):
        label = _witness_line(golden)
        yield where, golden, got, label is not None and label == _witness_line(got)
    else:
        yield where, golden, got, False


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
        faults += [f"{path}: {old!r} != {new!r}"
                   for path, old, new, tolerated in _diff(want, have, where) if not tolerated]
        if isinstance(have["stdout"], dict):
            faults += [f"{where}: {f}" for f in _witness_faults(case, have["stdout"], tmp_path)]
    assert not faults, "\n".join(faults)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = run_all(Path(tmp))
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []
    old_by_args = {json.dumps(r["args"]): r for r in old}
    for record in records:
        where = " ".join(record["args"][:4])
        want = old_by_args.get(json.dumps(record["args"]))
        if want is None:
            print(f"{where}: new case", file=sys.stderr)
            continue
        for path, a, b, tolerated in _diff(want, record, where):
            verdict = "within tolerance" if tolerated else "OUTSIDE tolerance"
            print(f"{path}: {a!r} -> {b!r} ({verdict})", file=sys.stderr)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)

"""Command-line interface.

Five subcommands over manifest files: ``bounds`` (optimal bound report),
``verify`` (check a claimed pair), ``construct`` (apply a construction rule
and certify the result), ``tensor`` (combine two manifests), and ``demo``
(run a bundled reference system against its claim).

Exit codes follow one contract everywhere: 0 when the requested property
verified, 1 when verification failed (a witness is printed where one
exists), 2 for every invalid argument and every usage, parse, or validation
problem, including an input whose optimal lower constant or frame
operator lies outside the float64 range, a tensor product whose samples,
weights or target do, and a construction whose guaranteed constant, or
whose system, does (``construct`` reports a result
whose bounds leave that range in its ``certification_error`` row and
exits 1).  Each command builds its report as one ordered list of rows
``(key, value, line)``, and :func:`_emit` renders it: ``--format json``
emits every key with its value at full precision, the text report prints
every line that is not ``None`` (numbers with 12 significant digits).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import click
import numpy as np

from .. import linalg
from ..biframe import (
    _claim_holds,
    biframe_form,
    check_bounds,
    frame_operator,
    optimal_bounds,
)
from ..errors import BiframeError, MalformedBoundsError, ManifestError
from ..opcalc import (
    apply_operator,
    canonical_dual,
    combine_product,
    combine_sum,
    commuting_transform,
    perturb_positive,
    sandwich,
)
from ..tensor import kron, product_law, tensor_system
from . import manifest
from .fixtures import fixture_names, fixture_record


def _num(x) -> str:
    if x is None:
        return "none"
    return f"{x:.12g}"  # "inf" and "-inf" for infinities


def _scalar_repr(z) -> str:
    if np.iscomplexobj(np.asarray(z)):
        z = complex(z)
        sign = "+" if z.imag >= 0 else "-"
        return f"{z.real:.12g}{sign}{abs(z.imag):.12g}i"
    return _num(float(np.real(z)))


def _vec_line(label: str, v) -> str | None:
    """The text line printing vector ``v``; none when there is no vector."""
    if v is None:
        return None
    return f"{label}: [" + ", ".join(_scalar_repr(z) for z in v) + "]"


def _vec_json(v: np.ndarray) -> list:
    if np.iscomplexobj(v):
        return [[float(z.real), float(z.imag)] for z in v]
    return [float(z) for z in v]


def _finite(obj):
    """Strict JSON has no infinities: write them as strings, as the text report does."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [_finite(value) for value in obj]
    return str(obj) if isinstance(obj, float) and not math.isfinite(obj) else obj


def _emit(ctx: click.Context, rows: list[tuple], code: int) -> None:
    """Print a report and end the command with exit ``code``.

    ``rows`` holds one ``(key, value, line)`` per report field, in text
    order: the JSON report holds every key with its value, the text report
    prints every line that is not ``None``.
    """
    if ctx.obj["format"] == "json":
        payload = {key: _vec_json(value) if isinstance(value, np.ndarray) else value
                   for key, value, _ in rows}
        click.echo(json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False))
    else:
        for _, _, line in rows:
            if line is not None:
                click.echo(line)
    ctx.exit(code)


def _load(path: str) -> manifest.ManifestRecord:
    try:
        return manifest.load(path)
    except ManifestError as exc:
        raise click.UsageError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise click.UsageError(str(exc)) from exc


def _json_error(exc: ValueError) -> str:
    """The decoder's message; ``json.loads`` raises a plain ``ValueError``,
    not a ``JSONDecodeError``, on an integer literal past Python's
    int-string limit."""
    return exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)


def _json_option(text: str, option: str):
    """Parse an option's JSON value; a non-finite number is a usage error."""
    def finite(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            raise click.UsageError(f"{option}: {literal} is not a finite number")
        return value

    try:
        return json.loads(text, parse_float=finite, parse_constant=finite)
    except ValueError as exc:
        raise click.UsageError(f"{option}: not valid JSON ({_json_error(exc)})") from exc


def _read_matrix(value: str, dim: int, complex_field: bool) -> np.ndarray:
    """Parse ``--operator``: inline JSON rows, or a path to such JSON."""
    text = value
    candidate = Path(value)
    try:
        if candidate.exists() and candidate.is_file():
            text = candidate.read_text(encoding="utf-8")
    except OSError:
        pass
    return manifest._parse_matrix(_json_option(text, "--operator"), dim, dim, complex_field,
                                  "--operator")


class _Group(click.Group):
    """Reports a bound, a guaranteed constant or a system outside the
    float64 range (``OverflowError``, as :func:`linalg.max_psd_shift`, the
    construction rules, ``frame_operator`` and ``tensor_system`` raise it)
    as an invalid input, exit 2, instead of a traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except OverflowError as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=_Group)
@click.option("--tol", type=float, default=linalg.DEFAULT_TOL, show_default=True,
              help="Relative tolerance for all verification decisions, in (0, 1).")
@click.option("--quad-nodes", type=click.IntRange(min=1), default=8, show_default=True,
              help="Quadrature resolution for quadrature-built demo systems.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True, help="Report style on stdout.")
@click.pass_context
def main(ctx: click.Context, tol: float, quad_nodes: int, fmt: str) -> None:
    """Bound analysis and constructions for sampled biframe systems."""
    if not 0.0 < tol < 1.0:  # also rejects nan; at 1 or more every PSD test passes
        raise click.BadParameter(f"{tol} is not in (0, 1)", param_hint="'--tol'")
    ctx.obj = {"tol": tol, "quad_nodes": quad_nodes, "format": fmt}


@main.command()
@click.argument("file", type=click.Path())
@click.pass_context
def bounds(ctx: click.Context, file: str) -> None:
    """Print the optimal bound report for a manifest; exit 0 iff valid."""
    record = _load(file)
    system = record.system
    report = optimal_bounds(system, tol=ctx.obj["tol"])
    _emit(ctx, [
        ("file", file, None),
        ("label", record.label, None),
        ("dim", system.dim, None),
        ("field", system.field_name, f"system: {record.label or file} (dim {system.dim}, "
                                     f"{system.field_name}, {len(system.measure)} nodes)"),
        ("lower", report.lower_opt, f"optimal lower: {_num(report.lower_opt)}"),
        ("upper", report.upper_opt, f"optimal upper: {_num(report.upper_opt)}"),
        ("valid", report.valid, f"valid: {'yes' if report.valid else 'no'}"),
        ("degenerate", report.degenerate, None),
        ("asymmetry", report.asymmetry, f"asymmetry: {_num(report.asymmetry)}"),
        ("witness", report.witness_lower, _vec_line("lower witness", report.witness_lower)),
        ("negative_form_witness", report.witness_negative_form,
         _vec_line("negative-form witness", report.witness_negative_form)),
    ], 0 if report.valid else 1)


@main.command()
@click.argument("file", type=click.Path())
@click.option("--lower", type=float, default=None,
              help="Claimed lower constant (defaults to the manifest's claim).")
@click.option("--upper", type=float, default=None,
              help="Claimed upper constant (defaults to the manifest's claim).")
@click.pass_context
def verify(ctx: click.Context, file: str, lower: float | None, upper: float | None) -> None:
    """Check a claimed bound pair against a manifest; exit 0 iff it holds."""
    record = _load(file)
    if lower is None or upper is None:
        if record.claimed_bounds is None:
            raise click.UsageError(
                "no bounds given and the manifest carries no claimed_bounds"
            )
        lower = lower if lower is not None else record.claimed_bounds[0]
        upper = upper if upper is not None else record.claimed_bounds[1]
    try:
        outcome = check_bounds(record.system, lower, upper, tol=ctx.obj["tol"])
    except MalformedBoundsError as exc:
        raise click.UsageError(str(exc)) from exc
    _emit(ctx, [
        ("file", file, None),
        ("lower", lower, f"claim: lower {_num(lower)}, upper {_num(upper)}"),
        ("upper", upper, None),
        ("lower_ok", outcome.lower_ok, f"lower holds: {'yes' if outcome.lower_ok else 'no'} "
                                       f"(margin {_num(outcome.lower_margin)})"),
        ("lower_margin", outcome.lower_margin, None),
        ("upper_ok", outcome.upper_ok, f"upper holds: {'yes' if outcome.upper_ok else 'no'} "
                                       f"(margin {_num(outcome.upper_margin)})"),
        ("upper_margin", outcome.upper_margin, None),
        ("ok", outcome.ok, f"verdict: {'verified' if outcome.ok else 'REFUTED'}"),
        ("witness", outcome.witness, _vec_line("witness", outcome.witness)),
    ], 0 if outcome.ok else 1)


# --op name -> the opcalc rule, called with the system, its operand (the
# --operator matrix; for "sum" the --term list), --power and the tolerance.
_RULES = {
    "apply": lambda system, x, power, tol: apply_operator(system, x, tol=tol),
    "dual": lambda system, x, power, tol: canonical_dual(system, x, tol=tol),
    "sandwich": lambda system, x, power, tol: sandwich(system, x, tol=tol),
    "perturb": lambda system, x, power, tol: perturb_positive(system, x, power, tol=tol),
    "sum": lambda system, x, power, tol: combine_sum(system, x, tol=tol),
    "product": lambda system, x, power, tol: combine_product(system, x, tol=tol),
    "commute": lambda system, x, power, tol: commuting_transform(system, x, tol=tol),
}


@main.command()
@click.argument("file", type=click.Path())
@click.option("--op", "op_name", required=True, type=click.Choice(list(_RULES)),
              help="Construction rule to apply.")
@click.option("--operator", "operator_text", default=None,
              help="Operator matrix as JSON rows (inline, or a path to a JSON "
                   "file).  For --op dual and --op product this is the new / "
                   "right target.")
@click.option("--power", type=click.IntRange(min=1), default=1, show_default=True,
              help="Perturbation power (only with --op perturb).")
@click.option("--term", "terms_text", multiple=True,
              help='Sum term as JSON {"coeff": c, "target": rows}; repeatable '
                   "(only with --op sum).")
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Write the constructed system's manifest here.")
@click.pass_context
def construct(ctx: click.Context, file: str, op_name: str, operator_text: str | None,
              power: int, terms_text: tuple[str, ...], output: str | None) -> None:
    """Apply a construction rule and certify the result's bounds.

    Exits 0 when the recomputed optimal bounds dominate the rule's
    guaranteed bounds (the claim rule of `verify`), 1 when they do not (or a
    precondition fails, or the result's bounds lie outside the float64
    range); 2 when a guaranteed constant or the result's samples do.
    """
    record = _load(file)
    system = record.system
    tol = ctx.obj["tol"]
    complex_field = system.field_name == "complex"

    if op_name != "sum" and operator_text is None:
        raise click.UsageError(f"--op {op_name} needs --operator")
    if op_name == "sum" and not terms_text:
        raise click.UsageError("--op sum needs at least one --term")

    try:
        if op_name == "sum":
            operand = []
            for raw in terms_text:
                obj = _json_option(raw, "--term")
                if not isinstance(obj, dict) or "coeff" not in obj or "target" not in obj:
                    raise click.UsageError('--term needs {"coeff": ..., "target": ...}')
                coeff = manifest._parse_scalar(obj["coeff"], complex_field, "coeff")
                target = manifest._parse_matrix(obj["target"], system.dim, system.dim,
                                                complex_field, "target")
                operand.append((coeff, target))
        else:
            operand = _read_matrix(operator_text, system.dim, complex_field)
        result = _RULES[op_name](system, operand, power, tol)
    except ManifestError as exc:
        raise click.UsageError(str(exc)) from exc
    except BiframeError as exc:
        click.echo(f"construction failed: {exc}", err=True)
        ctx.exit(1)

    try:
        after = optimal_bounds(result.system, tol=tol)
    except OverflowError as exc:
        # the result's lower constant lies outside float64: nothing to certify with
        certification, dominated = [("certification_error", str(exc),
                                     f"certification failed: {exc}")], False
    else:
        dominated = all(_claim_holds(after, result.guaranteed_lower, result.guaranteed_upper,
                                     tol))
        certification = [
            ("optimal_lower", after.lower_opt, f"optimal lower: {_num(after.lower_opt)}"),
            ("optimal_upper", after.upper_opt, f"optimal upper: {_num(after.upper_opt)}"),
            ("valid", after.valid, None),
            ("dominated", dominated, f"dominance: {'ok' if dominated else 'VIOLATED'}"),
        ]

    if output is not None:
        claim = None
        gl, gu = result.guaranteed_lower, result.guaranteed_upper
        if gl is not None and np.isfinite(gl) and np.isfinite(gu) and 0 < gl <= gu:
            claim = (gl, gu)
        manifest.save(result.system, output, claimed_bounds=claim,
                      label=f"{record.label or file} [{result.rule}]")

    _emit(ctx, [
        ("rule", result.rule,
         f"rule: {result.rule} ({'certified' if result.certified else 'stated claim'})"),
        ("certified", result.certified, None),
        ("guaranteed_lower", result.guaranteed_lower,
         f"guaranteed lower: {_num(result.guaranteed_lower)}"),
        ("guaranteed_upper", result.guaranteed_upper,
         f"guaranteed upper: {_num(result.guaranteed_upper)}"),
        *certification,
        ("output", output, None if output is None else f"wrote: {output}"),
    ], 0 if dominated else 1)


@main.command()
@click.argument("left", type=click.Path())
@click.argument("right", type=click.Path())
@click.option("-o", "--output", type=click.Path(), required=True,
              help="Where to write the combined manifest.")
@click.pass_context
def tensor(ctx: click.Context, left: str, right: str, output: str) -> None:
    """Combine two manifests on the product space; exit 0 iff bounds multiply."""
    tol = ctx.obj["tol"]
    left_rec, right_rec = _load(left), _load(right)
    ts = tensor_system(left_rec.system, right_rec.system)

    s_left = frame_operator(ts.left)
    s_right = frame_operator(ts.right)
    s_comb = frame_operator(ts.combined)
    kron_gap = linalg.relative_gap(s_comb, kron(s_left, s_right))

    try:
        lb, rb, cb = (optimal_bounds(s, tol=tol) for s in (ts.left, ts.right, ts.combined))
        law_ok = product_law(lb, rb, cb, tol=tol)
    except BiframeError as exc:
        click.echo(f"tensor check failed: {exc}", err=True)
        ctx.exit(1)

    manifest.save(ts.combined, output,
                  label=f"tensor of {left_rec.label or left} and {right_rec.label or right}")
    rows = [(side, {"lower": b.lower_opt, "upper": b.upper_opt},
             f"{side} optimal: ({_num(b.lower_opt)}, {_num(b.upper_opt)})")
            for side, b in (("left", lb), ("right", rb), ("combined", cb))]
    _emit(ctx, rows + [
        ("frame_operator_relative_gap", kron_gap,
         f"frame operator gap (relative): {_num(kron_gap)}"),
        ("product_law", law_ok, f"product law: {'ok' if law_ok else 'VIOLATED'}"),
        ("output", output, f"wrote: {output}"),
    ], 0 if law_ok else 1)


@main.command()
@click.argument("name")
@click.pass_context
def demo(ctx: click.Context, name: str) -> None:
    """Run a bundled reference system against its claimed bounds.

    NAME is one of the bundled fixtures, or "example-5-3" for the tensor
    combination of its two factors.  Exits 0 when the claim verifies, 1 when
    it is refuted (printing the witness and the form value there).
    """
    tol = ctx.obj["tol"]
    known = fixture_names() + ("example-5-3",)
    if name not in known:
        raise click.UsageError(f"unknown demo {name!r} (known: {', '.join(known)})")

    if name == "example-5-3":
        ts = tensor_system(fixture_record("example-5-3-left").system,
                           fixture_record("example-5-3-right").system)
        system, claim = ts.combined, (1.0, 6.0)
        description = "tensor combination of the two factors"
    else:
        record = fixture_record(name, quad_nodes=ctx.obj["quad_nodes"])
        system, claim = record.system, record.claimed_bounds
        description = record.description

    report = optimal_bounds(system, tol=tol)
    outcome = check_bounds(system, *claim, tol=tol)
    rows = [
        ("name", name, f"{name}: {description}"),
        ("description", description, None),
        ("claimed", list(claim), f"claimed bounds: ({_num(claim[0])}, {_num(claim[1])})"),
        ("lower", report.lower_opt, f"optimal lower: {_num(report.lower_opt)}"),
        ("upper", report.upper_opt, f"optimal upper: {_num(report.upper_opt)}"),
        ("ok", outcome.ok, f"verdict: {'PASS' if outcome.ok else 'FAIL'}"),
        ("witness", outcome.witness, None),
    ]
    if outcome.witness is not None:
        scaled = outcome.witness / np.max(np.abs(outcome.witness))
        value = biframe_form(system, scaled, tol)
        rows += [("witness_scaled", scaled, _vec_line("witness (scaled)", scaled)),
                 ("form_at_witness", value, f"form at witness: {_num(value)}")]
    _emit(ctx, rows, 0 if outcome.ok else 1)

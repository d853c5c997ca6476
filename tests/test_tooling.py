"""The test configuration and tooling: a failing test must not hide the
others, the benchmark's tracer must find every name it wraps, and it must
see a cached spectrum, norm or asymmetry as no eigensolve or SVD.  Every
LAPACK SVD a rule runs is a traced ``linalg.svd`` span: only the SVD
helpers of ``linalg`` call ``numpy.linalg``'s SVD family, and only
``linalg.hermitian_eigen`` its eigensolvers.  Every verdict decides at its
caller's ``tol``.  The package imports nothing beyond its declared
dependencies."""

import ast
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from biframekit import BiframeSystem, DiscreteMeasure, biframe, opcalc, quotient, tensor
from biframekit.app.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "biframekit"

PAIR = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path, pytestconfig):
    # a failing hypothesis test makes its plugin import libcst, whose import
    # warns; the suite's filters must keep that from aborting the session
    filters = "".join(f"\n    {f}" for f in pytestconfig.getini("filterwarnings"))
    (tmp_path / "pytest.ini").write_text(f"[pytest]\nfilterwarnings ={filters}\n")
    (tmp_path / "test_pair.py").write_text(PAIR)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout


def _tracing():
    """``bench/tracing.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _spans(call) -> list[list]:
    """The spans ``[name, start, end, parent, bytes]`` the bench's tracer
    records while ``call`` runs, in the order they open."""
    tracing = _tracing()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    tracer.active = True
    try:
        call()
    finally:
        tracer.active = False
        tracing.uninstall(undo)
    return tracer.spans


def _below(spans: list[list], root: int) -> list[int]:
    """Indices of the spans that open inside span ``root``."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
    return sorted(inside - {root})


def _traced(call) -> list[str]:
    """Names of the spans the bench's tracer records while ``call`` runs."""
    return [span[0] for span in _spans(call)]


def _system() -> BiframeSystem:
    f = np.random.default_rng(5).normal(size=(9, 4))
    return BiframeSystem.from_samples(DiscreteMeasure(tuple("abcdefghi"), np.ones(9)),
                                      f, f, np.eye(4))


def test_every_traced_name_resolves():
    # bench/tracing.py wraps these by name; a rename in the package would
    # otherwise surface only as a crash of a traced benchmark run
    tracing = _tracing()
    names = [(module, attr) for _, module, attr in tracing.LAYERS] + list(tracing.BUILD_CLASSES)
    assert len(names) > 40
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_traced_bounds_and_check_decompose_herm_s_once():
    # the bench's linalg.hermitian_eigen.calls_per_op counts the spans its
    # tracer records: a cached spectrum must show up as no span at all
    system = _system()

    def run():
        report = biframe.optimal_bounds(system)
        biframe.optimal_bounds(system)
        assert biframe.check_bounds(system, 0.5 * report.lower_opt, 2.0 * report.upper_opt).ok

    names = _traced(run)
    # check_bounds decides its claim from a third optimal_bounds
    assert names.count("biframe.optimal_bounds") == 3
    assert names.count("linalg.hermitian_eigen") == 1


def test_a_parent_reads_the_spectrum_its_retargeted_child_traced():
    system = _system()

    def run():
        assert biframe.optimal_bounds(system.with_target(2.0 * np.eye(4))).valid
        assert biframe.optimal_bounds(system).valid

    names = _traced(run)
    assert names.count("biframe.optimal_bounds") == 2
    assert names.count("linalg.hermitian_eigen") == 1


@pytest.mark.parametrize("target", ["identity", "dense", "rank-deficient"])
def test_traced_bounds_cost_one_eigensolve_for_every_target(target):
    # the lower constant is read off the spectrum of Herm(S), whatever the target
    rng = np.random.default_rng(8)
    k = {"identity": np.eye(4), "dense": rng.normal(size=(4, 4)),
         "rank-deficient": rng.normal(size=(4, 2)) @ rng.normal(size=(2, 4))}[target]
    system = _system().with_target(k)

    def run():
        assert biframe.optimal_bounds(system).valid

    assert _traced(run).count("linalg.hermitian_eigen") == 1
    # the spectrum is cached now
    assert _traced(run).count("linalg.hermitian_eigen") == 0


def test_traced_quotient_checks_read_the_cached_spectrum():
    # sqrt_psd and max_psd_shift take a spectrum, so a quotient check on a
    # warm system shows its root as a sqrt_psd span and no eigensolve
    system = _system()
    assert biframe.optimal_bounds(system).valid

    names = _traced(lambda: quotient.validity_cross_check(system))
    assert names.count("linalg.sqrt_psd") == 1
    assert names.count("linalg.hermitian_eigen") == 0

    t = np.diag([1.0, 2.0, 3.0, 4.0]) + np.triu(np.ones((4, 4)), 1)
    names = _traced(lambda: quotient.transform_equivalences(system, t))
    # the pushed system's Herm(S) is new: one eigensolve, whose spectrum
    # both its bounds and its root read; the other root is the cached one's
    assert names.count("linalg.hermitian_eigen") == 1
    assert names.count("linalg.sqrt_psd") == 2


def test_traced_transform_equivalences_cross_checks_the_pushed_system_once():
    # the pencil and the pushed quotient are validity_cross_check(pushed):
    # one bound report and one root of the pushed system, no second decider
    system = _system()
    assert biframe.optimal_bounds(system).valid
    t = np.diag([1.0, 2.0, 3.0, 4.0]) + np.triu(np.ones((4, 4)), 1)

    names = _traced(lambda: quotient.transform_equivalences(system, t))
    assert names.count("quotient.validity_cross_check") == 1
    assert names.count("biframe.optimal_bounds") == 1


@pytest.mark.parametrize("rule", ["max_transfer_ratio", "perturb_positive"])
def test_traced_operator_rules_decompose_their_operator_once(rule):
    # perturb_positive decomposes T once; the transfer ratio is a quotient
    # norm, read off SVDs, with no eigensolve at all
    system = _system()
    assert biframe.optimal_bounds(system).valid
    u = np.diag([1.0, 0.5, 0.25, 2.0])

    names = _traced(lambda: getattr(opcalc, rule)(system, u))
    assert names.count("linalg.hermitian_eigen") == {"max_transfer_ratio": 0,
                                                      "perturb_positive": 1}[rule]


def test_traced_bounds_on_a_warm_system_run_no_svd_helper():
    # the asymmetry's two spectral norms are cached with the spectrum, and
    # the shift with its (target, tol), so a warm system spends none; a
    # retargeted copy sharing its cache spends max_psd_shift's one on its
    # new target, once (Herm(S) lies far above its cutoff, so sigma_max(W)
    # decides nothing)
    system = _system()
    assert biframe.optimal_bounds(system).valid
    dense = np.diag([1.0, 2.0, 3.0, 4.0]) + np.triu(np.ones((4, 4)), 1)
    retargeted = system.with_target(dense)
    for warm, svds in ((system, 0), (retargeted, 1), (retargeted, 0)):
        names = _traced(lambda: biframe.optimal_bounds(warm))
        assert names.count("biframe.optimal_bounds") == 1
        assert names.count("linalg.svd") == svds
        assert names.count("linalg.asymmetry") == 0


def test_the_tensor_step_and_a_warm_sum_run_no_needless_decomposition():
    # the two eigensolve-free ops of the bench's certify-derived workload: a
    # fresh tensor system is products only, and a sum of two targets on a
    # warm base, certified as the bench certifies it, is three shifts read
    # off the cached spectrum
    system, other = _system(), _system().with_target(np.diag([1.0, 2.0, 3.0, 4.0]))
    names = _traced(lambda: tensor.tensor_system(system, other))
    assert names.count("tensor.tensor_system") == 1
    assert names.count("linalg.svd") == names.count("linalg.hermitian_eigen") == 0

    assert biframe.optimal_bounds(system).valid
    rng = np.random.default_rng(3)
    ka, kb = (np.eye(4) + 0.3 * rng.normal(size=(4, 4)) for _ in range(2))

    def certified_sum():
        assert biframe.optimal_bounds(opcalc.combine_sum(system, [(1.0, ka), (0.5, kb)]).system)

    names = _traced(certified_sum)
    assert names.count("linalg.max_psd_shift") == 3
    assert names.count("linalg.hermitian_eigen") == 0
    # each shift's whitened W, and no SVD besides
    assert names.count("linalg.svd") == 3


def _lapack_svds(monkeypatch, call) -> int:
    """LAPACK SVDs run while ``call`` runs, inside a traced helper or not:
    every ``np.linalg.svd``, and every ``np.linalg.norm(x, 2)`` of a matrix,
    which takes its singular values."""
    svd, norm, count = np.linalg.svd, np.linalg.norm, 0

    def counted_svd(*args, **kwargs):
        nonlocal count
        count += 1
        return svd(*args, **kwargs)

    def counted_norm(x, ord=None, *args, **kwargs):
        nonlocal count
        count += ord == 2 and np.ndim(x) == 2
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    call()
    return count


@pytest.mark.parametrize("rule, svds", [
    # the systems are warm: the spectrum and the shift of each (target, tol)
    # are cached, so bounds of an input cost no SVD
    ("optimal_bounds", 0),
    # one SVD of K: its range basis and ||K^+|| = 1 / sigma_r
    ("restrict_to_range", 1),
    # range(K) with ||K|| = sigma_0, U* with ||U|| and null(U*), the
    # residual's norm, then the quotient [K*/U*]'s K* on null(U*) and the
    # whitened K* (U and K are each taken once, for the check and the quotient)
    ("max_transfer_ratio", 5),
    # the same without a kernel of U*
    ("max_transfer_ratio-identity", 4),
    # V's null basis, ||V|| = sigma_0 and V^+ from one SVD, ||U||, U on
    # null(V), and U V_r Sigma_r^-1
    ("quotient_norm", 4),
    # invert(S) and ||K|| of the new target
    ("canonical_dual", 2),
    # invert(U), whose singular values give ||U|| and ||U^-1||
    ("inverse_conjugate", 1),
    # invert(T) for ||T|| and ||T^-1||; commutation is a relative_gap
    ("commuting_transform", 1),
    # none: the perturbation is an eigensolve
    ("perturb_positive", 0),
    # V's SVD, ||K*|| and U V_r Sigma_r^-1; the pencil is cached
    ("validity_cross_check", 3),
])
def test_every_lapack_svd_of_a_rule_is_a_traced_span(monkeypatch, rule, svds):
    # the bench's linalg.svd counts the traced helpers; no LAPACK SVD may run
    # outside them, so the two counts agree, and each rule's count is
    # pinned, so a new SVD shows
    rng = np.random.default_rng(8)
    k = rng.normal(size=(4, 2)) @ rng.normal(size=(2, 4))
    system, u = _system(), np.diag([1.0, 0.5, 0.25, 2.0])
    rank_two = system.with_target(k)
    for warm in (system, rank_two):
        assert biframe.optimal_bounds(warm).valid
    call = {
        "optimal_bounds": lambda: biframe.optimal_bounds(system),
        "restrict_to_range": lambda: opcalc.restrict_to_range(rank_two),
        "max_transfer_ratio": lambda: opcalc.max_transfer_ratio(rank_two, 2.0 * k),
        "max_transfer_ratio-identity": lambda: opcalc.max_transfer_ratio(system, u),
        "quotient_norm": lambda: quotient.quotient_norm(2.0 * k, k),
        "canonical_dual": lambda: opcalc.canonical_dual(system, u),
        "inverse_conjugate": lambda: opcalc.inverse_conjugate(system, u),
        "commuting_transform": lambda: opcalc.commuting_transform(system, u),
        "perturb_positive": lambda: opcalc.perturb_positive(system, u),
        "validity_cross_check": lambda: quotient.validity_cross_check(system),
    }[rule]
    names = []
    lapack = _lapack_svds(monkeypatch, lambda: names.extend(_traced(call)))
    assert names.count("linalg.svd") == lapack == svds


def test_traced_demo_computes_one_bound_report():
    # demo prints the optimal pair, and check_bounds decides the claim against
    # a second report read off the cache: no SVD and no eigensolve under it
    runner = CliRunner()
    for name in ("example-3-4", "example-5-3"):
        spans = _spans(lambda: runner.invoke(main, ["demo", name], catch_exceptions=False))
        names = [span[0] for span in spans]
        assert names.count("app.cli.command") == 1
        reports = [i for i, name in enumerate(names) if name == "biframe.optimal_bounds"]
        assert len(reports) == 2
        assert spans[reports[1]][3] == names.index("biframe.check_bounds")
        first, second = ({spans[i][0] for i in _below(spans, r)} for r in reports)
        assert "linalg.svd" in first
        assert not {"linalg.svd", "linalg.hermitian_eigen"} & second


def _function_lines(tree: ast.AST, name: str) -> range:
    node = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name)
    return range(node.lineno, node.end_lineno + 1)


def test_only_the_cache_door_touches_the_cache():
    """Every cached quantity goes through ``biframe._cached``, into the
    shared ``_cache`` or the system's own ``_shifts``; ``with_target`` hands
    the shared dict on.  Any other read or write of ``._cache`` or
    ``._shifts`` in the package would be a second cache protocol."""
    tree = ast.parse((SRC / "biframe.py").read_text(encoding="utf-8"))
    allowed = {("biframe.py", number) for name in ("_cached", "with_target")
               for number in _function_lines(tree, name)}
    cache = re.compile(r"\._(cache|shifts)\b")
    found, seen = [], []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if cache.search(line):
                hit = f"{name}:{number}: {line.strip()}"
                (seen if (name, number) in allowed else found).append(hit)
    assert seen, "the pattern no longer matches biframe._cached itself"
    assert not found, "\n".join(found)


def _foreign_imports(source: str) -> list[str]:
    """The top-level modules ``source`` imports that are neither numpy,
    click, the standard library nor the package itself (relative imports
    are the package's own)."""
    allowed = {"numpy", "click", "biframekit"} | set(sys.stdlib_module_names)
    roots = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.append(node.module.split(".")[0])
    return [root for root in roots if root not in allowed]


def test_the_package_imports_only_numpy_click_and_the_standard_library():
    """numpy and click are the declared dependencies.  scipy is often
    installed beside them but is not one, so no module may reach for it,
    not even for a BLAS rotation in the Jacobi loop."""
    probe = "import os, numpy.linalg\nfrom scipy.linalg.blas import drot\nfrom . import linalg\n"
    assert _foreign_imports(probe) == ["scipy"], "the walk no longer sees a foreign import"
    found = [f"{path.relative_to(SRC)}: {root}" for path in sorted(SRC.rglob("*.py"))
             for root in _foreign_imports(path.read_text(encoding="utf-8"))]
    assert not found, "\n".join(found)


_SVD_FAMILY = {"svd", "svdvals", "matrix_norm", "cond", "matrix_rank", "pinv", "lstsq"}


def _raw_svds(source: str) -> list[int]:
    """Lines of ``source`` that take an SVD through ``numpy.linalg``: a call
    of ``svd``, ``svdvals``, ``matrix_norm``, ``cond``, ``matrix_rank``,
    ``pinv`` or ``lstsq``, or of ``norm`` with ``ord`` 2, -2, ``'nuc'`` or an
    ``ord`` that is no literal; and an import of one of them by name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            if any(alias.name in _SVD_FAMILY | {"norm"} for alias in node.names):
                lines.append(node.lineno)
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "linalg"):
            continue
        if node.func.attr == "norm":
            ords = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "ord"]
            try:
                if not ords or ast.literal_eval(ords[0]) not in (2, -2, "nuc"):
                    continue
            except ValueError:
                pass
            lines.append(node.lineno)
        elif node.func.attr in _SVD_FAMILY:
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_traced_svd_helpers_call_lapacks_svd():
    """The helpers the bench traces as ``linalg.svd`` are the one door to an
    SVD: a raw ``numpy.linalg`` SVD anywhere else in the package would run
    where the tracer cannot count it."""
    probe = ("import numpy as np\nfrom numpy.linalg import pinv\nx = np.linalg.svd(a)\n"
             "y = np.linalg.norm(a, 2)\nz = numpy.linalg.norm(a, ord=-2)\n"
             "w = np.linalg.norm(a)\nv = np.linalg.norm(a, 'fro')\nu = linalg.svd(a)\n")
    assert _raw_svds(probe) == [2, 3, 4, 5], "the walk no longer sees a raw SVD"
    helpers = [attr for span, _, attr in _tracing().LAYERS if span == "linalg.svd"]
    tree = ast.parse((SRC / "linalg.py").read_text(encoding="utf-8"))
    allowed = {("linalg.py", number) for name in helpers
               for number in _function_lines(tree, name)}
    found, seen = [], []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        for number in _raw_svds(path.read_text(encoding="utf-8")):
            (seen if (name, number) in allowed else found).append(f"{name}:{number}")
    assert seen, "the walk no longer sees the helpers' own SVDs"
    assert not found, "\n".join(found)


# the only matrices the Jacobi eigensolver decomposes: Herm(S), once per set
# of samples, and a positive perturbation's T; linalg's two wrappers around
# it have no caller in the package
_EIGENSOLVERS = {("biframe.py", "_herm_spectrum"), ("opcalc.py", "perturb_positive"),
                 ("linalg.py", "min_eigenpair"), ("linalg.py", "is_psd")}


def _eigensolves(source: str) -> list[int]:
    """Lines of ``source`` that call ``hermitian_eigen``, ``min_eigenpair`` or
    ``is_psd`` by name or as an attribute of ``linalg`` (not a spectrum's
    ``is_psd`` method)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name) and func.value.id == "linalg"
                else None)
        if name in ("hermitian_eigen", "min_eigenpair", "is_psd"):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_herm_s_and_a_perturbation_are_decomposed():
    """Every other operator is read off SVDs (the transfer ratio as the
    quotient norm ``1 / ||[K*/U*]||``); a new ``hermitian_eigen`` call would
    put the pure-Python Jacobi loop back on a rule's path."""
    probe = ("x = linalg.hermitian_eigen(a)\ny = hermitian_eigen(a)\nz = eig.is_psd(tol)\n"
             "w = linalg.is_psd(a)\nv = linalg.sqrt_psd(e)\n")
    assert _eigensolves(probe) == [1, 2, 4], "the walk no longer sees an eigensolve"
    allowed = {}
    for name, function in _EIGENSOLVERS:
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        allowed.update({(name, number): function for number in _function_lines(tree, function)})
    found, seen = [], set()
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        for number in _eigensolves(path.read_text(encoding="utf-8")):
            if (name, number) in allowed:
                seen.add(allowed[name, number])
            else:
                found.append(f"{name}:{number}")
    assert not found, "\n".join(found)
    assert seen == {function for _, function in _EIGENSOLVERS}


_SCALE_HELPERS = ("_top", "_binary_normalised", "_ldexp", "_shift", "_rescaled")
# sites that step outside the range rule on purpose, and why
_RANGE_RULE_EXCEPTIONS = {
    ("biframe.py", "check_bounds"): "the witness test compares form / 4^e with a claim: "
                                    "an infinite quotient correctly refutes nothing",
}


def _range_escapes(source: str) -> list[int]:
    """Lines of ``source`` that scale or guard a value by hand: any use of
    ``errstate`` or of ``ldexp`` (``math.ldexp``, ``numpy.ldexp`` or either
    imported by name)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        names = ([node.attr] if isinstance(node, ast.Attribute)
                 else [node.id] if isinstance(node, ast.Name)
                 else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                 else [])
        if {"errstate", "ldexp"} & set(names):
            lines.append(node.lineno)
    return sorted(set(lines))


def test_only_the_scale_helpers_scale_by_a_power_of_two():
    """The range rule: a value that can leave float64 is formed on operands
    divided by powers of two and scaled back once by ``linalg._ldexp`` (or
    ``_rescaled``).  A hand-written ``math.ldexp(1.0, e)`` factor, an
    ``np.ldexp`` or an ``np.errstate`` block anywhere else is a second rule:
    it can ship an ``inf`` or a false 0, or hide the warning that says so."""
    probe = ("import math\nimport numpy as np\nfrom numpy import ldexp\n"
             "with np.errstate(over='ignore'):\n    x = a @ b\n"
             "y = a * math.ldexp(1.0, e)\nz = np.ldexp(a, 3)\nw = a * 2.0\n")
    assert _range_escapes(probe) == [3, 4, 6, 7], "the walk no longer sees a hand scaling"
    allowed = {}
    for name, function in [("linalg.py", helper) for helper in _SCALE_HELPERS] + list(
            _RANGE_RULE_EXCEPTIONS):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        allowed.update({(name, number): function for number in _function_lines(tree, function)})
    found, seen = [], set()
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        for number in _range_escapes(path.read_text(encoding="utf-8")):
            if (name, number) in allowed:
                seen.add(allowed[name, number])
            else:
                found.append(f"{name}:{number}")
    assert not found, "\n".join(found)
    # each named site still needs its exception, and the helpers still scale
    assert seen >= {"_ldexp", *(function for _, function in _RANGE_RULE_EXCEPTIONS)}


def _kron_calls_and_product_defs(source: str) -> tuple[list[int], list[int]]:
    """Lines of ``source`` that use ``kron`` (``numpy.kron`` or an import of
    it by name), and lines that define a function named ``_product`` or
    ``_kron``."""
    krons, defs = [], []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "kron"
                and not (isinstance(node.value, ast.Name) and node.value.id == "tensor")) or (
                isinstance(node, ast.ImportFrom) and node.module == "numpy"
                and any(alias.name == "kron" for alias in node.names)):
            krons.append(node.lineno)
        if isinstance(node, ast.FunctionDef) and node.name in ("_product", "_kron"):
            defs.append(node.lineno)
    return sorted(krons), sorted(defs)


def test_only_linalgs_product_helpers_multiply_samples_weights_and_targets():
    """The product rule: every product of samples, weights and targets is
    ``linalg._product`` or ``linalg._kron``, one power of two per row.  A
    ``numpy.kron``, a ``_product`` or a ``_kron`` anywhere else is a second
    rule, which can flush a row far below the others to 0 or overflow where
    the product fits."""
    probe = ("import numpy as np\nfrom numpy import kron\nx = np.kron(a, b)\n"
             "y = tensor.kron(a, b)\ndef _product(a):\n    return a\n"
             "def _kron(a):\n    return a\n")
    assert _kron_calls_and_product_defs(probe) == ([2, 3], [5, 7]), "the walk no longer sees them"
    tree = ast.parse((SRC / "linalg.py").read_text(encoding="utf-8"))
    kron_lines = set(_function_lines(tree, "_kron"))
    found, seen = [], []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        krons, defs = _kron_calls_and_product_defs(path.read_text(encoding="utf-8"))
        hits = [(number, name == "linalg.py" and number in kron_lines) for number in krons]
        hits += [(number, name == "linalg.py") for number in defs]
        for number, allowed in hits:
            (seen if allowed else found).append(f"{name}:{number}")
    assert len(seen) == 3, "the walk no longer sees the helpers and their own product"
    assert not found, "\n".join(found)


def _adjoint_of(node: ast.AST) -> ast.AST | None:
    """The operand ``x`` of ``linalg.adjoint(x)``, ``adjoint(x)`` or
    ``x.conj().T``, else ``None``."""
    if (isinstance(node, ast.Call) and len(node.args) == 1
            and (isinstance(node.func, ast.Name) and node.func.id == "adjoint"
                 or isinstance(node.func, ast.Attribute) and node.func.attr == "adjoint")):
        return node.args[0]
    if (isinstance(node, ast.Attribute) and node.attr == "T" and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute) and node.value.func.attr == "conj"
            and not node.value.args):
        return node.value.func.value
    return None


def _gram_products(source: str) -> list[int]:
    """Lines of ``source`` that form a Gram product ``x @ adjoint(x)``: the
    same expression on both sides of ``@``, the right one as an adjoint."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            inner = _adjoint_of(node.right)
            if inner is not None and ast.dump(inner) == ast.dump(node.left):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_gram_target_forms_a_gram_product():
    """``c K K*`` has one former, ``biframe.gram_target``, on ``K / 2^e`` and
    scaled back once: a hand-formed ``x @ adjoint(x)`` elsewhere would
    overflow or flush where ``c K K*`` fits, outside the range rule."""
    probe = ("g = k @ linalg.adjoint(k)\nh = k @ adjoint(k)\ni = (a * k) @ (a * k).conj().T\n"
             "j = (v * d) @ adjoint(v)\nm = k @ adjoint(j)\nn = adjoint(k) @ k\n"
             "o = k @ k.T\n")
    assert _gram_products(probe) == [1, 2, 3], "the walk no longer sees a Gram product"
    tree = ast.parse((SRC / "biframe.py").read_text(encoding="utf-8"))
    allowed = {("biframe.py", number) for number in _function_lines(tree, "gram_target")}
    found, seen = [], []
    for path in sorted(SRC.rglob("*.py")):
        name = str(path.relative_to(SRC))
        for number in _gram_products(path.read_text(encoding="utf-8")):
            (seen if (name, number) in allowed else found).append(f"{name}:{number}")
    assert seen, "the walk no longer sees gram_target's own product"
    assert not found, "\n".join(found)


_EIGH_FAMILY = {"eig", "eigh", "eigvals", "eigvalsh"}


def _raw_eigensolves(source: str) -> list[int]:
    """Lines of ``source`` that call ``numpy.linalg``'s ``eig``, ``eigh``,
    ``eigvals`` or ``eigvalsh``, or import one of them by name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            if any(alias.name in _EIGH_FAMILY for alias in node.names):
                lines.append(node.lineno)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "linalg" and node.func.attr in _EIGH_FAMILY):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_hermitian_eigen_calls_lapacks_eigensolver():
    """``linalg.hermitian_eigen`` is the one door from a matrix to a
    spectrum, traced as ``linalg.hermitian_eigen``: a LAPACK eigensolve
    anywhere else would run where the tracer cannot count it, and outside
    the spectrum cache."""
    probe = ("import numpy as np\nfrom numpy.linalg import eigh\nx = np.linalg.eigvalsh(a)\n"
             "y = numpy.linalg.eig(a)\nz = linalg.hermitian_eigen(a)\nw = eig.is_psd(tol)\n")
    assert _raw_eigensolves(probe) == [2, 3, 4], "the walk no longer sees a raw eigensolve"
    tree = ast.parse((SRC / "linalg.py").read_text(encoding="utf-8"))
    allowed = {("linalg.py", number) for number in _function_lines(tree, "hermitian_eigen")}
    found = [f"{path.relative_to(SRC)}:{number}" for path in sorted(SRC.rglob("*.py"))
             for number in _raw_eigensolves(path.read_text(encoding="utf-8"))
             if (str(path.relative_to(SRC)), number) not in allowed]
    assert not found, "\n".join(found)


# the two helpers with no caller in the package, which cut at DEFAULT_TOL
_DEFAULT_TOL_READERS = ("pseudo_inverse", "operator_rank")


def _takes_tol(node: ast.AST) -> bool:
    """Whether ``node`` is a function with a parameter named ``tol``."""
    return isinstance(node, ast.FunctionDef) and "tol" in {
        arg.arg for arg in node.args.args + node.args.kwonlyargs}


def _holds_tol(node: ast.AST) -> bool:
    """Whether ``node`` is a function that takes ``tol`` or binds it (the
    CLI's commands read it off their context)."""
    return _takes_tol(node) or isinstance(node, ast.FunctionDef) and any(
        isinstance(target, ast.Name) and target.id == "tol"
        for assign in ast.walk(node) if isinstance(assign, ast.Assign)
        for target in assign.targets)


def _tol_leaks(source: str, takers: set[str]) -> list[int]:
    """Lines of ``source`` where a function that holds ``tol`` calls one of
    ``takers`` (functions and methods that take ``tol``, by name) without
    handing it ``tol`` itself, positionally or as ``tol=tol``; and lines that
    read ``DEFAULT_TOL`` other than as a default: of a parameter, or the
    ``default=`` of a CLI option."""
    tree = ast.parse(source)
    defaults = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                for node in fn.args.defaults + fn.args.kw_defaults if node is not None}
    defaults |= {id(node.value) for node in ast.walk(tree)
                 if isinstance(node, ast.keyword) and node.arg == "default"}
    lines = set()
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and node.id == "DEFAULT_TOL"
             and isinstance(node.ctx, ast.Load))
                or (isinstance(node, ast.Attribute) and node.attr == "DEFAULT_TOL")) \
                and id(node) not in defaults:
            lines.add(node.lineno)
    calls = {call for fn in ast.walk(tree) if _holds_tol(fn)
             for call in ast.walk(fn) if isinstance(call, ast.Call)}
    for call in calls:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        values = call.args + [kw.value for kw in call.keywords if kw.arg == "tol"]
        if name in takers and not any(isinstance(v, ast.Name) and v.id == "tol" for v in values):
            lines.add(call.lineno)
    return sorted(lines)


def _tol_takers(source: str) -> set[str]:
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and _takes_tol(node)}


def test_every_verdict_decides_at_the_callers_tol():
    """One tolerance per call: a function that holds ``tol`` hands it to
    every package function it calls that takes one, so no rank, range or
    invertibility verdict below it falls back to ``DEFAULT_TOL``, and
    ``DEFAULT_TOL`` itself is only a default, but in the two helpers that
    no package function calls."""
    probe = ("def f(a, tol=DEFAULT_TOL):\n    g(a, tol)\n    g(a, tol=tol)\n    g(a)\n"
             "    x.g(a, tol=2 * tol)\n    h(a)\n    return DEFAULT_TOL\n"
             "def g(a, *, tol=linalg.DEFAULT_TOL):\n    return a\n"
             "def k(a):\n    return g(a)\n"
             "@click.option('--tol', default=linalg.DEFAULT_TOL)\ndef m(ctx):\n"
             "    tol = ctx.obj['tol']\n    return g(a)\n")
    assert _tol_leaks(probe, _tol_takers(probe)) == [4, 5, 7, 15], \
        "the walk no longer sees a dropped tol"
    sources = {str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
               for path in sorted(SRC.rglob("*.py"))}
    takers = set().union(*map(_tol_takers, sources.values()))
    assert {"orthonormal_range", "orthonormal_nullspace", "invert", "quotient_norm"} <= takers
    tree = ast.parse(sources["linalg.py"])
    allowed = {("linalg.py", number) for name in _DEFAULT_TOL_READERS
               for number in _function_lines(tree, name)}
    found, seen = [], []
    for name, source in sources.items():
        for number in _tol_leaks(source, takers):
            (seen if (name, number) in allowed else found).append(f"{name}:{number}")
    assert len(seen) == len(_DEFAULT_TOL_READERS), "the helpers no longer read DEFAULT_TOL"
    assert not found, "\n".join(found)

"""The public surface stays honest: __all__ resolves, each public name is called by an entry
point or defined in README, no module imports a name it never uses,
no private function or class is left with no reader, pyproject.toml names the package's
version and a console-script entry that runs, and a malformed argument to any public
callable raises an OrthochanError, never a builtin exception, while a valid integer or
real one passed as a numpy scalar is read as its Python value.

The repo runs no linter, so these checks stand in for pyflakes' F401 and
F822 and for a dead-code pass.  An import kept on purpose is marked
``# noqa: F401`` on its line, and the only purpose allowed is a lookup by the
benchmark tracer: the (module, name) must be one of ``BOUNDARIES`` in
``perfbench/spans.py``.
"""
import ast
import dataclasses
import functools
import importlib
import inspect
import math
import numbers
import re
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

import orthochan
from orthochan import ChannelSpec, ConvexBody, Pairing, PartialPairing, Permutation, RngStream
from orthochan.channels import input_dim
from orthochan.cli import main
from orthochan.errors import OrthochanError, ValidationError

SOURCES = sorted(Path(orthochan.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve():
    assert [name for name in orthochan.__all__ if not hasattr(orthochan, name)] == []


README = (ROOT / "README.md").read_text()
ENTRY_POINTS = [ROOT / path for path in ("src/orthochan/cli.py", "src/orthochan/verify.py", "perfbench/workloads.py")]
QUICK_TOUR = re.search(r"^## Library quick tour\n\n```python\n(.*?)^```", README, re.DOTALL | re.MULTILINE).group(1)
# Public names that no entry point calls, kept because README defines each one.
README_DEFINED = {
    "paper objects": (
        "Pairing", "Permutation", "apply_channel", "asymptotic_trace_moment", "bell_input", "delta_gamma",
        "dominant_pairs", "integrate_monomial", "mean_output_asymptotic", "mobius", "op_T",
        "pairing_from_partial", "sample_haar_orthogonal", "wiring_matrix",
    ),
    "return types": ("ChannelSpec", "ExperimentResult", "MomentTerm", "WeingartenTable"),
    "raise types": ("EnumerationLimitError", "InvalidStateError"),
}


def code_names(source: str) -> set[str]:
    """Every name and attribute the Python source reads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


@functools.cache
def earned_names() -> set[str]:
    """Names the CLI, verify, the benchmark or the quick tour calls, and names README defines."""
    called = code_names(QUICK_TOUR).union(*(code_names(path.read_text()) for path in ENTRY_POINTS))
    called |= {attribute.split(".")[0] for _, attribute in traced_boundaries()}
    fenced = README.split("```")  # the odd parts are fenced blocks
    code = fenced[1::2] + [span for prose in fenced[::2] for span in re.findall(r"`([^`]+)`", prose)]
    in_readme = set(re.findall(r"\w+", " ".join(code)))
    return called | {name for names in README_DEFINED.values() if set(names) <= in_readme for name in names}


@pytest.mark.parametrize("name", orthochan.__all__)
def test_every_public_name_earns_its_place(name):
    # a name stays public if an entry point or the quick tour calls it, or README defines it
    assert name in earned_names()


PYPROJECT = ROOT / "pyproject.toml"


def test_pyproject_version_and_console_script(capsys):
    # the version is a copied constant that every report embeds, and no other test runs the script entry
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["version"] == orthochan.__version__
    module, _, name = project["scripts"]["orthochan"].partition(":")
    main = getattr(importlib.import_module(module), name)
    with pytest.raises(SystemExit) as stop:
        main(["--version"])
    assert stop.value.code == 0
    assert capsys.readouterr().out == f"orthochan {orthochan.__version__}\n"


def unused_imports(path: Path) -> list[str]:
    """Names the module imports and never reads, bar those on a noqa: F401 line."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # a name re-exported through __all__ counts as read
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts)
    return sorted(imported - read)


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


SPANS = ROOT / "perfbench" / "spans.py"


def traced_boundaries() -> set[tuple[str, str]]:
    """(module, attribute path) of every entry of BOUNDARIES in perfbench/spans.py, read without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "BOUNDARIES" for t in node.targets):
            return {(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts}
    raise AssertionError(f"no BOUNDARIES in {SPANS}")


def kept_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) of every import this module keeps on a noqa: F401 line."""
    lines = path.read_text().splitlines()
    return [
        (f"orthochan.{path.stem}", alias.asname or alias.name)
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if "# noqa: F401" in lines[alias.lineno - 1]
    ]


def test_kept_imports_are_traced_boundaries():
    # a noqa: F401 import is kept only for the tracer's lookup; once the tracer stops wrapping it, it must go
    boundaries = traced_boundaries()
    assert [kept for path in SOURCES for kept in kept_imports(path) if kept not in boundaries] == []


def unread_private_definitions(paths) -> list[str]:
    """Private functions and classes defined in these modules whose names no module reads."""
    defined = set()
    read = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.add(f"{path.name}:{node.name}")
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(entry for entry in defined if entry.split(":")[1] not in read)


def test_no_unread_private_definitions():
    assert unread_private_definitions(SOURCES) == []


ARRAY_HOLDERS = {
    "ChannelSpec": lambda: orthochan.make_channel(2, 4, 0.5, orthochan.RngStream(0)),
    "ConvexBody": lambda: ConvexBody(2, 2, 0.5),
    "BodyProjection": lambda: orthochan.project_to_body(np.eye(4) / 4, ConvexBody(2, 2, 0.5)),
}


@pytest.mark.parametrize("build", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holding_dataclasses_compare_by_identity(build):
    # a generated __eq__ compares the arrays inside a tuple and raises; these compare and hash by identity
    x, rebuilt = build(), build()
    assert x == x
    assert x != rebuilt
    assert hash(x) == hash(x) != hash(rebuilt)


# The argument contract: a malformed argument to a public callable raises an OrthochanError, never a
# builtin exception.  SWEEP holds one valid call per callable in __all__ (exception classes aside) and
# per public method that takes an object, with the rule that reads each argument: index, real or
# instance (errors.checked_index, checked_real, checked_instance), or None for an argument with checks
# of its own.  Each argument in turn takes every MALFORMED value, and where its rule refuses the value
# the call must raise that rule's ValidationError, message and all.
MALFORMED = (None, "x", [], (), {}, True, 0.5, -1, math.nan, 1 + 1j, np.zeros((2, 2, 2)), object())


def index(what, least=0, most=None):
    """The message checked_index(value, what, least, most) refuses a MALFORMED value with, None if it takes it."""
    def refusal(value):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            return f"{what} must be an integer, got {value!r}"
        if value < least:
            return f"{what} must be >= {least}, got {value}"
        return f"{what} must be <= {most}, got {value}" if most is not None and value > most else None
    return refusal


def real(what, least=0, most=1, exclusive=False):
    """The message checked_real(value, what, least, most, exclusive) refuses a MALFORMED value with, or None."""
    def refusal(value):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            return f"{what} must be a real number, got {value!r}"
        if not (least < value < most if exclusive else least <= value <= most):  # NaN fails both
            left, right = "()" if exclusive else "[]"
            return f"{what} must lie in {left}{least}, {most}{right}, got {value}"
        return None
    return refusal


def instance(what, cls):
    """The message checked_instance(value, cls, what) refuses a value with, None if it takes it."""
    return lambda value: None if isinstance(value, cls) else f"{what} must be a {cls.__name__}, got {value!r}"


def isometry(k, n):
    """The message ChannelSpec(k, n, value) refuses a MALFORMED isometry with, None if it takes it."""
    def refusal(value):
        v = np.asarray(value)  # no MALFORMED value is a ragged nesting
        if v.dtype.kind not in "iuf":
            return f"isometry must be a real 2-D array, got dtype {v.dtype}"
        if v.ndim != 2 or v.shape[0] != k * n or not 1 <= v.shape[1] <= k * n:
            return f"isometry has shape {v.shape}, expected ({k * n}, d) with 1 <= d <= {k * n}"
        return None if np.isfinite(v).all() else "isometry has non-finite entries"
    return refusal


T, DIM = real("t"), real("dimension parameter", 0, math.inf, exclusive=True)
P, R, K, K2, N, D = index("p", 1), index("r", 1), index("k", 1), index("k", 2), index("n", 1), index("d", 1)
CAP, MC_SAMPLES, SEED = index("cap", 1, 12), index("samples", 2), index("seed")
BLOCK, BETA, ALPHA = instance("block", PartialPairing), instance("beta", Pairing), instance("alpha", Pairing)
SPEC, STREAM = instance("spec", ChannelSpec), instance("rng", RngStream)
_PAIR, _BLOCK, _RHO, _STREAM = Pairing((1, 0)), PartialPairing(2, ((0, 1),)), np.eye(2) / 2, RngStream(0)
_SPEC = orthochan.make_channel(2, 2, 0.5, _STREAM)
METHODS = {
    "Pairing.from_pairs": Pairing.from_pairs,
    "Permutation.compose": _PAIR.compose,
}
# name: (valid arguments, rules of the leading arguments; the rest take None)
SWEEP = {
    "ChannelSpec": ((2, 2, np.zeros((4, 2))), (K, N, isometry(2, 2))),
    "ConvexBody": ((1, 2, 0.5), (R, K2, T)),
    "ExperimentResult": (("bell", 1, 2, 0.5, (2,), 1, 0, (), ()), ()),
    "MomentTerm": ((_PAIR, _PAIR, 1, 1, 1j, 0.5, 1j), ()),
    "Pairing": (((1, 0),), ()),
    "Pairing.from_pairs": ((((0, 1),),), ()),
    "PartialPairing": ((2, ((0, 1),)), (index("n_points"),)),
    "Permutation": (((1, 0),), ()),
    "Permutation.compose": ((_PAIR,), (instance("other", Permutation),)),
    "RngStream": ((0, 0), (SEED, index("stream"))),
    "WeingartenTable": ((1, 2.0, np.ones(1), 1), ()),
    "apply_channel": ((_SPEC, _RHO), (SPEC,)),
    "asymptotic_trace_moment": ((1, 2, 2, 0.5, {}), (P, R, K, T, instance("g", Mapping))),
    "bell_input": ((_BLOCK, 2), (BLOCK, D)),
    "bell_state_vector": ((_BLOCK, 2), (BLOCK, D)),
    "bumps": ((_PAIR,), (BETA,)),
    "connected_components": ((_PAIR, _PAIR), (ALPHA, BETA)),
    "convergence_experiment": (("product", 1, 2, 0.5, (2,), 1, 0), (None, R, K2, T, None, index("samples", 1), SEED)),
    "delta_gamma": ((1, 1), (P, R)),
    "dominant_pairs": ((1, 2, False), (P, R, instance("inward_only", bool))),
    "entropy_extremal": ((_BLOCK, 2, 0.5), (BLOCK, K2, T)),
    "enumerate_pairings": ((1,), (index("m", 1),)),
    "enumerate_partial_pairings": ((2,), (index("r"),)),
    "exact_mean_output": ((1, 2, 2, 0.5, _RHO), (R, K, N, T)),
    "exact_trace_moment": ((1, 1, 2, 2, 0.5, _RHO, 8), (P, R, K, N, T, None, CAP)),
    "f_beta": ((_PAIR, _RHO, 1), (BETA, None, P)),
    "gram_matrix": ((2, 3.0), (index("m", 1), DIM)),
    "integrate_monomial": (([(0, 0), (0, 0)], 3.0), (None, DIM)),
    "isotropic_entropy": ((2, 0.5), (K2, T)),
    "make_channel": ((2, 2, 0.5, _STREAM), (K, N, T, STREAM)),
    "mc_conjugation_mean": ((np.eye(2), 2, 0), (None, MC_SAMPLES, SEED)),
    "mc_mean_output": ((1, 2, 2, 0.5, _RHO, 2, 0), (R, K, N, T, None, MC_SAMPLES, SEED)),
    "mc_trace_moment": ((1, 1, 2, 2, 0.5, _RHO, 2, 0), (P, R, K, N, T, None, MC_SAMPLES, SEED)),
    "mean_output_asymptotic": ((_RHO, 1, 2, 0.5), (None, R, K, T)),
    "min_transverse_distance": ((_PAIR,), (BETA,)),
    "mobius": ((_PAIR, _PAIR), (ALPHA, BETA)),
    "op_Q_tilde": ((_BLOCK, 2), (BLOCK, D)),
    "op_R_tilde": ((_BLOCK, 2, 0.5), (BLOCK, K, T)),
    "op_S_tilde": ((_BLOCK, 2, 0.5), (BLOCK, K2, T)),
    "op_T": ((_BLOCK, 2), (BLOCK, K)),
    "output_state": ((_SPEC, 1, _RHO), (SPEC, R)),
    "pairing_from_partial": ((_BLOCK,), (BLOCK,)),
    "project_to_body": ((_RHO, ConvexBody(1, 2, 0.5)), (None, instance("body", ConvexBody))),
    "sample_haar_orthogonal": ((2, _STREAM), (index("dimension", 1), STREAM)),
    "term_report": ((1, 1, 2, 2, 0.5, _RHO, 8), (P, R, K, N, T, None, CAP)),
    "von_neumann_entropy": ((_RHO,), ()),
    "wg_asymptotic": ((_PAIR, _PAIR, 3.0), (ALPHA, BETA, DIM)),
    "wg_exact": ((1, 3.0), (index("m", 1), DIM)),
    "wiring_matrix": ((_PAIR, 2), (instance("pairing", Pairing), index("dim", 1))),
}


def test_every_public_callable_has_a_sweep_row():
    # a new public name brings its valid call and the rules of its arguments
    public = {name: getattr(orthochan, name) for name in orthochan.__all__}
    errors = {name for name, obj in public.items() if isinstance(obj, type) and issubclass(obj, OrthochanError)}
    assert [name for name in public if name not in SWEEP and name not in errors] == []


CALLS = {name: METHODS.get(name) or getattr(orthochan, name) for name in SWEEP}
ARGUMENTS = [(name, i) for name, (args, _) in SWEEP.items() for i in range(len(args))]
ARGUMENT_IDS = [f"{name}-{list(inspect.signature(CALLS[name]).parameters)[i]}" for name, i in ARGUMENTS]


@pytest.mark.parametrize("name, i", ARGUMENTS, ids=ARGUMENT_IDS)  # one case per argument, e.g. make_channel-rng
def test_malformed_arguments_raise_orthochan_errors(name, i):
    args, rules = SWEEP[name]
    call = CALLS[name]
    call(*args)
    rule = rules[i] if i < len(rules) else None
    leaks = []
    for value in MALFORMED:
        try:
            call(*args[:i], value, *args[i + 1:])
            outcome = "returned"
        except ValidationError as error:
            outcome = str(error)
        except OrthochanError as error:
            outcome = f"{type(error).__name__}: {error}"
        except Exception as error:  # a builtin exception, or a warning raised as one
            leaks.append((value, repr(error)))
            continue
        if rule and rule(value) not in (None, outcome):
            leaks.append((value, outcome))
    assert leaks == []


# A valid integer or real sweep argument passed as a numpy scalar is read as its Python value: the call
# returns what the Python-scalar call returns, down to the types of the fields a record keeps.
NUMPY_FORMS = {int: (np.int64, np.int32), float: (np.float64, np.float32)}  # every valid real is exact in float32
SCALAR_ARGUMENTS = [
    (argument, argument_id)
    for argument, argument_id in zip(ARGUMENTS, ARGUMENT_IDS)
    if argument[1] < len(SWEEP[argument[0]][1]) and type(SWEEP[argument[0]][0][argument[1]]) in NUMPY_FORMS
]


def same(a, b) -> bool:
    """a and b hold equal values of the same types: arrays by dtype and entries, records field by field."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[key], b[key]) for key in a)
    return a == b or (a != a and b != b)  # NaN equals NaN here


@pytest.mark.parametrize(
    "name, i", [argument for argument, _ in SCALAR_ARGUMENTS], ids=[argument_id for _, argument_id in SCALAR_ARGUMENTS]
)
def test_numpy_scalar_arguments_read_as_python_scalars(name, i):
    args = SWEEP[name][0]
    call = CALLS[name]
    expected = call(*args)
    differences = []
    for form in NUMPY_FORMS[type(args[i])]:
        try:
            result = call(*args[:i], form(args[i]), *args[i + 1:])
        except Exception as error:  # a builtin exception or an OrthochanError: both refuse a valid value
            differences.append((form.__name__, repr(error)))
            continue
        if not same(result, expected):
            differences.append((form.__name__, repr(result)))
    assert differences == []


# Integers far beyond any size the library takes.  A refusal once printed such an integer in full, which
# Python refuses past 4300 digits (ValueError), built (2m-1)!! only to print it (seconds at m = 10^5, never
# at 10^5000), or formed a float coefficient from it (OverflowError).  Each is now refused by an
# OrthochanError that names a huge integer by its bit count and a huge count by 2^FULL_COUNT_BITS.
_HUGE, _K_HUGE = 10**5000, 10**200
_BIG_PATTERN = "wiring pattern needs dim^(2pr) = at least 2^100 entries, above budget 16777216"
_BIG_K2 = "k^2 must lie in [4, inf], got an integer of 1329 bits"
HUGE_INTEGER_CALLS = {
    "input_dim-kn": (lambda: input_dim(_HUGE, 1, 0.5), "kn must be <= 100000000000, got an integer of 16610 bits"),
    "input_dim-t": (lambda: input_dim(2, 2, _HUGE), "t must lie in [0, 1], got an integer of 16610 bits"),
    "Permutation": (lambda: Permutation((_HUGE,)), "not a permutation of 0..0: (an integer of 16610 bits,)"),
    "wg_exact": (
        lambda: orthochan.wg_exact(2, _HUGE), "dimension parameter must lie in (0, inf), got an integer of 16610 bits"
    ),
    "exact_trace_moment": (
        lambda: orthochan.exact_trace_moment(_HUGE, 1, 2, 3, 0.5, np.eye(3) / 3),
        "exact engine needs 2pr = an integer of 16611 bits diagram endpoints, above cap 8",
    ),
    "enumerate_partial_pairings": (
        lambda: orthochan.enumerate_partial_pairings(_HUGE),
        "partial pairing enumeration capped at r <= 8, got an integer of 16610 bits",
    ),
    "enumerate_pairings-1e5": (
        lambda: orthochan.enumerate_pairings(10**5),
        "enumerating pairings of 2m=200000 points needs at least 2^100 pairings, above cap 10395",
    ),
    "enumerate_pairings-huge": (
        lambda: orthochan.enumerate_pairings(_HUGE),
        "enumerating pairings of 2m=an integer of 16611 bits points needs at least 2^100 pairings, above cap 10395",
    ),
    "term_report-2000": (
        lambda: orthochan.term_report(2000, 1, 2, 3, 0.5, np.eye(3) / 3),
        "a term report at 2pr = 4000 would list at least 2^100 terms; the cap is 2pr <= 10",
    ),
    "op_S_tilde": (lambda: orthochan.op_S_tilde(_BLOCK, _K_HUGE, 0.5), _BIG_PATTERN),
    "op_R_tilde": (lambda: orthochan.op_R_tilde(_BLOCK, _K_HUGE, 0.5), _BIG_PATTERN),
    "op_Q_tilde": (lambda: orthochan.op_Q_tilde(_BLOCK, _K_HUGE**2), _BIG_PATTERN),
    "bell_input": (lambda: orthochan.bell_input(_BLOCK, _K_HUGE**2), _BIG_PATTERN),
    "isotropic_entropy": (lambda: orthochan.isotropic_entropy(_K_HUGE, 0.5), _BIG_K2),
    "entropy_extremal": (lambda: orthochan.entropy_extremal(_BLOCK, _K_HUGE, 0.5), _BIG_K2),
    "f_beta-p": (
        lambda: orthochan.f_beta(_PAIR, _RHO, _HUGE), "pairing size 2 is not a multiple of 2p = an integer of 16611 bits"
    ),
    "mc_trace_moment-samples": (
        lambda: orthochan.mc_trace_moment(1, 1, 2, 2, 0.5, _RHO, _HUGE, 0),
        "samples must be <= 2**64, one stream each, got an integer of 16610 bits",
    ),
    "bumps": (lambda: orthochan.bumps(_HUGE), "beta must be a Pairing, got an integer of 16610 bits"),
    "cli-pairings-m-2000": (
        ["pairings", "--m", "2000"],
        "enumerating pairings of 2m=4000 points needs at least 2^100 pairings, above cap 10395",
    ),
}


@pytest.mark.parametrize("call, message", HUGE_INTEGER_CALLS.values(), ids=HUGE_INTEGER_CALLS.keys())
def test_huge_integers_are_refused_by_orthochan_errors(capsys, call, message):
    if isinstance(call, list):  # a command line: the CLI exits 3 on its one error: line
        assert main(call) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        return
    with pytest.raises(OrthochanError) as refusal:
        call()
    assert str(refusal.value) == message

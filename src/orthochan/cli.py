"""Command-line entry point: reproducible, machine-readable runs of every module.

All result files are deterministic functions of (config, seed): the generating
config is embedded in each output, complex numbers are written as [re, im]
pairs, and timing goes to stderr only.  Exit codes: 0 ok, 2 validation,
3 budget, 4 verification failure.
"""
from __future__ import annotations

import argparse
import io
import json
import sys
import time

import numpy as np

from . import __version__
from .asymptotics import (
    convergence_experiment,
    convex_body,
    entropy_extremal,
    experiment_input,
    von_neumann_entropy,
)
from .channels import input_dim, mc_trace_moment
from .errors import OrthochanError, ValidationError
from .moments import (
    CONTRACTION_BUDGET,
    EXACT_PAIRING_CAP,
    EXACT_PAIRING_HARD_CAP,
    exact_trace_moment,
    term_report,
)
from .pairings import PAIRING_ENUMERATION_CAP, enumerate_pairings, enumerate_partial_pairings
from .verify import report_text, run_all
from .weingarten import wg_asymptotic, wg_exact

HARD_DENSE_CAP = 2**26


def matrix_to_json(m: np.ndarray) -> list:
    """Nested lists with innermost [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError("matrix JSON must be nested lists of [re, im] pairs")
    if arr.ndim == 2 and arr.shape[1] == 2:  # a vector of [re, im] pairs
        return arr[:, 0] + 1j * arr[:, 1]
    if arr.ndim == 3 and arr.shape[2] == 2:
        return arr[:, :, 0] + 1j * arr[:, :, 1]
    raise ValidationError("matrix JSON must be nested lists of [re, im] pairs")


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _config_dict(args, keys) -> dict:
    cfg = {key: getattr(args, key) for key in keys}
    cfg["version"] = __version__
    return cfg


def _json_output(config: dict, results: dict) -> str:
    return json.dumps({"config": config, "results": results}, sort_keys=True) + "\n"


def _csv_output(config: dict, header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write("# config " + json.dumps(config, sort_keys=True) + "\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(str(x) for x in row) + "\n")
    return buf.getvalue()


def _number_cell(z: complex) -> str:
    """A CSV cell: the repr of a real number, or [re; im] when the imaginary part is non-zero."""
    return repr(z.real) if z.imag == 0 else f"[{z.real!r}; {z.imag!r}]"


def _validate_common(args):
    if hasattr(args, "k") and args.k < 2:
        raise ValidationError(f"k must be >= 2, got {args.k}")
    if hasattr(args, "r") and args.r < 1:
        raise ValidationError(f"r must be >= 1, got {args.r}")
    if hasattr(args, "t") and not (0.0 < args.t < 1.0):
        raise ValidationError(f"t must lie in (0, 1), got {args.t}")
    if hasattr(args, "max_pairing_size") and args.max_pairing_size > EXACT_PAIRING_HARD_CAP:
        raise ValidationError(
            f"--max-pairing-size {args.max_pairing_size} above hard bound {EXACT_PAIRING_HARD_CAP}"
        )
    if hasattr(args, "max_dense_dim") and args.max_dense_dim > HARD_DENSE_CAP:
        raise ValidationError(
            f"--max-dense-dim {args.max_dense_dim} above hard bound {HARD_DENSE_CAP}"
        )


def _load_state(args, d: int, r: int) -> np.ndarray:
    if args.input == "file":
        if not args.input_file:
            raise ValidationError("--input file requires --input-file")
        try:
            with open(args.input_file) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read input file: {exc}")
        return matrix_from_json(data)
    if args.input == "mixed":
        return np.eye(d**r) / d**r
    return experiment_input(args.input, r, d)


def cmd_pairings(args) -> int:
    config = _config_dict(args, ["m", "partial"])
    if args.partial:
        blocks = enumerate_partial_pairings(args.m)
        results = {"count": len(blocks), "partial_pairings": [[list(p) for p in b.pairs] for b in blocks]}
    else:
        pairings = enumerate_pairings(args.m)
        results = {"count": len(pairings), "pairings": [p.pair_list() for p in pairings]}
    _write(args.out, _json_output(config, results))
    return 0


def cmd_wg(args) -> int:
    config = _config_dict(args, ["m", "n"])
    table = wg_exact(args.m, args.n)
    rows = []
    for i, a in enumerate(table.pairings):
        for j, b in enumerate(table.pairings):
            exact = float(table.values[i, j])
            asym = wg_asymptotic(a, b, args.n)
            rows.append((i, j, repr(exact), repr(asym), repr(exact / asym)))
    _write(args.out, _csv_output(config, ["alpha_index", "beta_index", "exact", "asymptotic", "ratio"], rows))
    return 0


def cmd_moment(args) -> int:
    _validate_common(args)
    config = _config_dict(args, ["p", "r", "k", "n", "t", "input", "report"])
    d = input_dim(args.k, args.n, args.t)
    state = _load_state(args, d, args.r)
    if args.report == "terms":
        terms = term_report(
            args.p, args.r, args.k, args.n, args.t, state,
            cap=args.max_pairing_size, budget=args.max_dense_dim,
        )
        rows = [
            (
                json.dumps(term.alpha.pair_list()).replace(",", ";"),
                json.dumps(term.beta.pair_list()).replace(",", ";"),
                term.n_exp,
                term.k_exp,
                _number_cell(term.f_beta),
                repr(term.wg),
                _number_cell(term.value),
            )
            for term in terms
        ]
        _write(args.out, _csv_output(config, ["alpha", "beta", "n_exp", "k_exp", "f_beta", "wg", "value"], rows))
        return 0
    value = exact_trace_moment(
        args.p, args.r, args.k, args.n, args.t, state,
        cap=args.max_pairing_size, budget=args.max_dense_dim,
    )
    _write(args.out, _json_output(config, {"value": value}))
    return 0


def cmd_simulate(args) -> int:
    _validate_common(args)
    config = _config_dict(args, ["p", "r", "k", "n", "t", "samples", "seed", "input", "format"])
    d = input_dim(args.k, args.n, args.t)
    state = _load_state(args, d, args.r)
    estimate, stderr = mc_trace_moment(
        args.p, args.r, args.k, args.n, args.t, state, args.samples, args.seed
    )
    if args.format == "csv":
        _write(args.out, _csv_output(config, ["estimate", "stderr"], [(repr(estimate), repr(stderr))]))
    else:
        _write(args.out, _json_output(config, {"estimate": estimate, "stderr": stderr}))
    return 0


def cmd_body(args) -> int:
    _validate_common(args)
    config = _config_dict(args, ["r", "k", "t"])
    body = convex_body(args.r, args.k, args.t)
    vertices = []
    for block, vertex in zip(body.blocks, body.vertices):
        vertices.append(
            {
                "pairs": [list(p) for p in block.pairs],
                "entropy": von_neumann_entropy(vertex),
                "entropy_closed_form": entropy_extremal(block, args.k, args.t),
                "matrix": matrix_to_json(vertex),
            }
        )
    _write(args.out, _json_output(config, {"vertices": vertices}))
    return 0


def cmd_experiment(args) -> int:
    _validate_common(args)
    config = _config_dict(args, ["rule", "r", "k", "t", "samples", "seed", "format"])
    config["n"] = list(args.n)
    result = convergence_experiment(args.rule, args.r, args.k, args.t, args.n, args.samples, args.seed)
    if args.format == "csv":
        rows = [(n, s, repr(dist), repr(ent)) for n, s, dist, ent in result.rows]
        _write(args.out, _csv_output(config, ["n", "sample", "dist", "entropy"], rows))
    else:
        _write(args.out, _json_output(config, {"summary": list(result.summary)}))
    return 0


def cmd_verify(args) -> int:
    results = run_all(args.seed)
    text = report_text(results, args.seed)
    _write(args.out, text)
    if args.out not in (None, "-"):
        sys.stdout.write(text)
    return 0 if all(r.passed for r in results) else 4


def _int_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthochan",
        description="Orthogonal Weingarten calculus and random orthogonal channel numerics",
    )
    parser.add_argument("--version", action="version", version=f"orthochan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pairings", help="enumerate pairings or partial pairings")
    sp.add_argument("--m", type=int, required=True, help="half-size (2m points), or ground-set size with --partial")
    sp.add_argument("--partial", action="store_true", help="enumerate partial pairings of m points")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_pairings)

    sp = sub.add_parser("wg", help="dump a Weingarten table as CSV")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=float, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_wg)

    sp = sub.add_parser("moment", help="exact trace moment of the output state")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--input", choices=["bell", "product", "mixed", "file"], default="bell")
    sp.add_argument("--input-file", default=None)
    sp.add_argument("--report", choices=["value", "terms"], default="value")
    sp.add_argument(
        "--max-pairing-size", type=int, default=EXACT_PAIRING_CAP,
        help=f"cap on 2pr for the double pairing sum (default {EXACT_PAIRING_CAP}, hard "
        f"bound {EXACT_PAIRING_HARD_CAP}; at 2pr={EXACT_PAIRING_HARD_CAP} the dense "
        f"{PAIRING_ENUMERATION_CAP}^2 float64 Gram matrix and Weingarten table take "
        f"{PAIRING_ENUMERATION_CAP**2 * 8 / 1e9:.1f} GB each, and --report terms lists {PAIRING_ENUMERATION_CAP**2:.1e} terms)",
    )
    sp.add_argument(
        "--max-dense-dim", type=int, default=CONTRACTION_BUDGET,
        help="cap on the d^(pr) contraction space of the input state",
    )
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_moment)

    sp = sub.add_parser("simulate", help="Monte Carlo trace-moment estimate")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--input", choices=["bell", "product", "mixed", "file"], default="bell")
    sp.add_argument("--input-file", default=None)
    sp.add_argument("--format", choices=["csv", "json"], default="json")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("body", help="dump the convex body's vertices and entropies")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_body)

    sp = sub.add_parser("experiment", help="convergence experiment over an n grid")
    sp.add_argument("--rule", choices=["bell", "product"], required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--n", type=_int_grid, required=True, help="comma-separated grid, e.g. 32,64,128")
    sp.add_argument("--samples", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_experiment)

    sp = sub.add_parser("verify", help="run the acceptance criteria")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
    except OrthochanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    print(f"elapsed {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

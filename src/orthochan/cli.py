"""Command-line entry point: reproducible, machine-readable runs of every module.

All result files are deterministic functions of (config, seed): the generating
config is embedded in each output, complex numbers are written as [re, im]
pairs, and timing goes to stderr only.  Exit codes: 0 ok, 2 validation,
3 budget, 4 verification failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import chain

import numpy as np

from . import __version__
from .asymptotics import (
    ConvexBody,
    convergence_experiment,
    entropy_extremal,
    experiment_input,
    von_neumann_entropy,
)
from .channels import _INPUT_RULES, input_dim, mc_trace_moment
from .errors import BudgetError, OrthochanError, ValidationError, checked_index, checked_size
from .moments import (
    EXACT_PAIRING_CAP,
    EXACT_PAIRING_HARD_CAP,
    _gathered,
    _term_arrays,
    exact_trace_moment,
)
from .pairings import (
    PAIR_LISTING_HALF_SIZE_CAP,
    PAIRING_ENUMERATION_CAP,
    _type_representatives,
    coset_types,
    enumerate_pairings,
    enumerate_partial_pairings,
)
from .verify import report_text, run_all
from .weingarten import wg_asymptotic, wg_exact


def matrix_to_json(m: np.ndarray) -> list:
    """Nested lists with innermost [re, im] pairs."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


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


def _write(path: str | None, chunks):
    """Write an iterable of text chunks to path, or to stdout for None or "-"."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w") as fh:
            fh.writelines(chunks)


def _config(args) -> dict:
    """The config embedded in an output: every parsed flag but the out and input-file paths and the cap."""
    ignored = {"out", "input_file", "max_pairing_size", "command", "func"}
    config = {key: value for key, value in vars(args).items() if key not in ignored}
    config["version"] = __version__
    return config


def _json_output(config: dict, results: dict) -> str:
    return json.dumps({"config": config, "results": results}, sort_keys=True) + "\n"


def _csv_head(config: dict, header: list[str]) -> str:
    return "# config " + json.dumps(config, sort_keys=True) + "\n" + ",".join(header) + "\n"


def _number_cells(values: np.ndarray) -> list[str]:
    """CSV cells: the repr of each real entry, or [re; im] where the imaginary part is non-zero."""
    re, im = values.real.tolist(), values.imag.tolist()
    cells = list(map(repr, re))
    for i in np.flatnonzero(values.imag).tolist():
        cells[i] = f"[{re[i]!r}; {im[i]!r}]"
    return cells


def _term_csv(config: dict, arrays):
    """A term report CSV from moments._term_arrays, as its head and then a chunk of rows at a time.

    Each pairing, exponent pair, f, Wg and value cell is formatted once, per
    pairing, row, coset type or value id; per term the cells are only joined.
    """
    yield _csv_head(config, ["alpha", "beta", "n_exp", "k_exp", "f_beta", "wg", "value"])
    pair_cells = [json.dumps(pairing.pair_list()).replace(",", ";") for pairing in arrays.pairings]
    exp_cells = [f"{n},{k}" for n, k in zip(arrays.n_exp.tolist(), arrays.k_exp.tolist())]
    f_cells, wg_cells = _number_cells(arrays.f_beta), list(map(repr, arrays.wg.tolist()))
    value_cells = _number_cells(arrays.value_table)
    columns = ((pair_cells, arrays.rows), (pair_cells, arrays.cols), (exp_cells, arrays.rows),
               (f_cells, arrays.cols), (wg_cells, arrays.types), (value_cells, arrays.value_ids))
    for fields in _gathered(columns):
        yield "\n".join(map(",".join, zip(*fields))) + "\n"


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
        checked_size(d, 2 * r, "the mixed input needs d^(2r)")
        return np.eye(d**r) / d**r
    return experiment_input(args.input, r, d)


def cmd_pairings(args) -> int:
    config = _config(args)
    if args.partial:
        blocks = enumerate_partial_pairings(args.m)
        results = {"count": len(blocks), "partial_pairings": [[list(p) for p in b.pairs] for b in blocks]}
    else:
        pairings = enumerate_pairings(args.m)
        results = {"count": len(pairings), "pairings": [p.pair_list() for p in pairings]}
    _write(args.out, [_json_output(config, results)])
    return 0


def cmd_wg(args) -> int:
    config = _config(args)
    if args.m > PAIR_LISTING_HALF_SIZE_CAP:
        raise BudgetError(f"wg --m {args.m} would write (2m-1)!!^2 rows; the cap is m <= {PAIR_LISTING_HALF_SIZE_CAP}")
    table, pairings, types = wg_exact(args.m, args.n), enumerate_pairings(args.m), coset_types(args.m)
    # exact, asymptotic and ratio depend only on the coset type: format them once per type
    cells = []
    for exact, rep in zip(table.coefficients.tolist(), _type_representatives(args.m).tolist()):
        asym = wg_asymptotic(pairings[0], pairings[rep], args.n)
        cells.append(f"{exact!r},{asym!r},{exact / asym!r}")
    labels = list(map(str, range(len(pairings))))
    index = np.arange(len(pairings), dtype=np.min_scalar_type(len(pairings) - 1))
    columns = ((labels, np.repeat(index, len(index))), (labels, np.tile(index, len(index))), (cells, types.ravel()))
    rows = ("\n".join(map(",".join, zip(*fields))) + "\n" for fields in _gathered(columns))
    _write(args.out, chain([_csv_head(config, ["alpha_index", "beta_index", "exact", "asymptotic", "ratio"])], rows))
    return 0


def cmd_moment(args) -> int:
    config = _config(args)
    d = input_dim(args.k, args.n, args.t)
    state = _load_state(args, d, args.r)
    if args.report == "terms":
        arrays = _term_arrays(args.p, args.r, args.k, args.n, args.t, state, args.max_pairing_size)
        _write(args.out, _term_csv(config, arrays))
        return 0
    value = exact_trace_moment(args.p, args.r, args.k, args.n, args.t, state, cap=args.max_pairing_size)
    _write(args.out, [_json_output(config, {"value": value})])
    return 0


def cmd_simulate(args) -> int:
    config = _config(args)
    d = input_dim(args.k, args.n, args.t)
    state = args.input if args.input in _INPUT_RULES else _load_state(args, d, args.r)
    estimate, stderr = mc_trace_moment(
        args.p, args.r, args.k, args.n, args.t, state, args.samples, args.seed
    )
    if args.format == "csv":
        _write(args.out, [_csv_head(config, ["estimate", "stderr"]), f"{estimate!r},{stderr!r}\n"])
    else:
        _write(args.out, [_json_output(config, {"estimate": estimate, "stderr": stderr})])
    return 0


def cmd_body(args) -> int:
    config = _config(args)
    body = ConvexBody(args.r, args.k, args.t)
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
    _write(args.out, [_json_output(config, {"vertices": vertices})])
    return 0


def cmd_experiment(args) -> int:
    config = _config(args)
    result = convergence_experiment(args.rule, args.r, args.k, args.t, args.n, args.samples, args.seed)
    if args.format == "csv":
        rows = [f"{n},{s},{dist!r},{ent!r}\n" for n, s, dist, ent in result.rows]
        _write(args.out, [_csv_head(config, ["n", "sample", "dist", "entropy"]), *rows])
    else:
        _write(args.out, [_json_output(config, {"summary": list(result.summary)})])
    return 0


def cmd_verify(args) -> int:
    results = run_all(args.seed)
    text = report_text(results, args.seed)
    _write(args.out, [text])
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

    # flags that several subcommands take, each declared once as a parent parser
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument("--samples", type=int, required=True)
    channel = argparse.ArgumentParser(add_help=False)
    channel.add_argument("--r", type=int, required=True)
    channel.add_argument("--k", type=int, required=True)
    channel.add_argument("--t", type=float, required=True)
    moment = argparse.ArgumentParser(add_help=False, parents=[channel])  # a trace moment at one n
    moment.add_argument("--p", type=int, required=True)
    moment.add_argument("--n", type=int, required=True)
    moment.add_argument("--input", choices=[*_INPUT_RULES, "mixed", "file"], default="bell")
    moment.add_argument("--input-file", default=None)

    sp = sub.add_parser("pairings", parents=[out], help="enumerate pairings or partial pairings")
    sp.add_argument("--m", type=int, required=True, help="half-size (2m points), or ground-set size with --partial")
    sp.add_argument("--partial", action="store_true", help="enumerate partial pairings of m points")
    sp.set_defaults(func=cmd_pairings)

    sp = sub.add_parser("wg", parents=[out], help="dump a Weingarten table as CSV")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=float, required=True)
    sp.set_defaults(func=cmd_wg)

    sp = sub.add_parser("moment", parents=[moment, out], help="exact trace moment of the output state")
    sp.add_argument("--report", choices=["value", "terms"], default="value")
    sp.add_argument(
        "--max-pairing-size", type=int, default=EXACT_PAIRING_CAP,
        help=f"cap on 2pr for the double pairing sum (default {EXACT_PAIRING_CAP}, hard "
        f"bound {EXACT_PAIRING_HARD_CAP}; at 2pr={EXACT_PAIRING_HARD_CAP} a cold Weingarten table gathers a "
        f"transient {PAIRING_ENUMERATION_CAP}^2 float64 Gram matrix of "
        f"{PAIRING_ENUMERATION_CAP**2 * 8 / 1e9:.1f} GB; --report terms exits 3 above "
        f"2pr={2 * PAIR_LISTING_HALF_SIZE_CAP}, where it would list {PAIRING_ENUMERATION_CAP**2:.1e} terms)",
    )
    sp.set_defaults(func=cmd_moment)

    sp = sub.add_parser("simulate", parents=[moment, samples, seed, out], help="Monte Carlo trace-moment estimate")
    sp.add_argument("--format", choices=["csv", "json"], default="json")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("body", parents=[channel, out], help="dump the convex body's vertices and entropies")
    sp.set_defaults(func=cmd_body)

    sp = sub.add_parser(
        "experiment", parents=[channel, samples, seed, out], help="convergence experiment over an n grid"
    )
    sp.add_argument("--rule", choices=_INPUT_RULES, required=True)
    sp.add_argument("--n", type=_int_grid, required=True, help="comma-separated grid, e.g. 32,64,128")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.set_defaults(func=cmd_experiment)

    sp = sub.add_parser("verify", parents=[seed, out], help="run the acceptance criteria")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        if hasattr(args, "k"):
            checked_index(args.k, "k", 2)
        code = args.func(args)
    except OrthochanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    print(f"elapsed {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

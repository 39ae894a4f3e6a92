import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orthochan import __version__
from orthochan.asymptotics import ConvexBody, entropy_extremal, von_neumann_entropy
from orthochan.cli import main, matrix_from_json, matrix_to_json
from orthochan.moments import EXACT_PAIRING_CAP, exact_trace_moment, term_report
from orthochan.pairings import enumerate_pairings
from orthochan.weingarten import wg_asymptotic
from test_weingarten import dense_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _reference_number_cell(z: complex) -> str:
    return repr(z.real) if z.imag == 0 else f"[{z.real!r}; {z.imag!r}]"


def reference_terms_csv(p, r, k, n, t, input_name, state, cap=EXACT_PAIRING_CAP) -> str:
    """`moment --report terms` output rendered term by term from term_report: the byte reference.

    The CLI formats from arrays, each shared cell once; this formats every
    cell of every MomentTerm, as the CLI once did.  The CI workflow renders
    the 2pr = 10 report with it and compares the bytes.
    """
    config = {"p": p, "r": r, "k": k, "n": n, "t": t, "input": input_name, "report": "terms", "version": __version__}
    lines = ["# config " + json.dumps(config, sort_keys=True), "alpha,beta,n_exp,k_exp,f_beta,wg,value"]
    for term in term_report(p, r, k, n, t, state, cap=cap):
        row = (
            json.dumps(term.alpha.pair_list()).replace(",", ";"),
            json.dumps(term.beta.pair_list()).replace(",", ";"),
            term.n_exp,
            term.k_exp,
            _reference_number_cell(term.f_beta),
            repr(term.wg),
            _reference_number_cell(term.value),
        )
        lines.append(",".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def reference_wg_csv(m, n) -> str:
    """`wg` output rendered pair by pair from the dense table: the byte reference.

    The CLI formats each coset type's cells once and gathers them per row;
    this formats every cell of every pair.  The CI workflow renders m = 5
    with it and compares the bytes.
    """
    config = {"m": m, "n": n, "version": __version__}
    lines = ["# config " + json.dumps(config, sort_keys=True), "alpha_index,beta_index,exact,asymptotic,ratio"]
    values, pairings = dense_table(m, n), enumerate_pairings(m)
    for i, a in enumerate(pairings):
        for j, b in enumerate(pairings):
            exact, asym = float(values[i, j]), wg_asymptotic(a, b, n)
            lines.append(f"{i},{j},{exact!r},{asym!r},{exact / asym!r}")
    return "\n".join(lines) + "\n"


def _reference_matrix_json(m) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def reference_body_json(r, k, t) -> str:
    """`body` output with every vertex matrix rendered entry by entry: the byte reference.

    The CLI renders a matrix's [re, im] pairs with one numpy stack; this
    renders each entry's pair, as the CLI once did.
    """
    config = {"r": r, "k": k, "t": t, "version": __version__}
    body = ConvexBody(r, k, t)
    vertices = [
        {
            "pairs": [list(p) for p in block.pairs],
            "entropy": von_neumann_entropy(vertex),
            "entropy_closed_form": entropy_extremal(block, k, t),
            "matrix": _reference_matrix_json(vertex),
        }
        for block, vertex in zip(body.blocks, body.vertices)
    ]
    return json.dumps({"config": config, "results": {"vertices": vertices}}, sort_keys=True) + "\n"


def _complex_r2_state(tmp_path):
    """A seeded complex unit vector on 3^2, written as a state file; many of its f_beta are complex."""
    rng = np.random.default_rng(8)
    psi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    psi /= np.linalg.norm(psi)
    path = tmp_path / "state.json"
    path.write_text(json.dumps([[x.real, x.imag] for x in psi]))
    return path


class TestMatrixJson:
    def test_round_trip(self):
        m = np.array([[1.0 + 2.0j, 0.0], [0.5, -1.0j]])
        back = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_matches_per_entry_rendering(self):
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        m = np.array([[-0.0, complex(0.0, -0.0), tiny], [complex(np.nan, np.inf), -np.inf, 1 / 3 - 2.5j]])
        rng = np.random.default_rng(5)
        for matrix in (m, rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))):
            assert json.dumps(matrix_to_json(matrix)) == json.dumps(_reference_matrix_json(matrix))

    def test_vector_form(self):
        v = matrix_from_json([[1.0, 0.0], [0.0, 1.0], [0.5, -0.5]])
        assert v.shape == (3,)
        assert v[1] == 1j

    def test_rejects_garbage(self):
        from orthochan.errors import ValidationError

        with pytest.raises(ValidationError):
            matrix_from_json([1, 2, 3])
        # entries numpy cannot read as floats
        with pytest.raises(ValidationError, match="nested lists of"):
            matrix_from_json([["a", "b"]])


class TestSubcommands:
    def test_pairings(self, capsys):
        code, out = run_cli(capsys, "pairings", "--m", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["count"] == 3
        assert payload["results"]["pairings"][0] == [[0, 1], [2, 3]]
        assert payload["config"]["m"] == 2

    def test_pairings_partial(self, capsys):
        code, out = run_cli(capsys, "pairings", "--m", "3", "--partial")
        assert json.loads(out)["results"]["count"] == 4

    def test_wg_table(self, capsys):
        code, out = run_cli(capsys, "wg", "--m", "2", "--n", "10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "alpha_index,beta_index,exact,asymptotic,ratio"
        assert len(lines) == 2 + 9
        first = lines[2].split(",")
        assert float(first[2]) == pytest.approx(11 / (10 * 9 * 12))

    @pytest.mark.parametrize("m, n", [(1, 5.0), (2, 10.0), (3, 2.5), (3, 10.0), (4, 10.0)])
    def test_wg_table_matches_per_pair_reference(self, capsys, m, n):
        # the cells are formatted once per coset type; a per-pair loop must give the same bytes
        assert run_cli(capsys, "wg", "--m", str(m), "--n", str(n)) == (0, reference_wg_csv(m, n))

    def test_wg_at_the_listing_cap_streams_in_bounded_memory(self, tmp_path):
        # 893025 rows (56 MB) written a chunk at a time, never as one string.  The
        # peak is the child's own VmHWM, read after main returns: Linux carries
        # ru_maxrss across fork and exec, so even the child's RUSAGE_SELF would
        # keep the test session's peak, and RUSAGE_CHILDREN every earlier child's.
        script = (
            "import sys; from orthochan.cli import main; code = main(sys.argv[1:]); "
            "print(code, *[line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')])"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = tmp_path / "wg.csv"
        done = subprocess.run(
            [sys.executable, "-c", script, "wg", "--m", "5", "--n", "10", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        code, peak_kib = map(int, done.stdout.split())
        with open(out) as fh:
            assert (code, sum(1 for _ in fh)) == (0, 893027)
        assert peak_kib * 1024 < 100e6, f"peak {peak_kib / 1024:.1f} MiB"

    def test_wg_refuses_m6_before_building_a_table(self, capsys, monkeypatch):
        import orthochan.cli as cli

        built = []
        monkeypatch.setattr(cli, "wg_exact", lambda *args: built.append(args))
        monkeypatch.setattr(cli, "coset_types", lambda *args: built.append(args))
        code, out = run_cli(capsys, "wg", "--m", "6", "--n", "10")
        assert code == 3 and out == "" and built == []

    def test_term_report_refuses_2pr_12_before_building_a_table(self, capsys, monkeypatch):
        import orthochan.moments as moments

        class TableBuilt(Exception):
            pass

        def no_table(*args):
            raise TableBuilt

        monkeypatch.setattr(moments, "wg_exact", no_table)
        code = main(["moment", "--p", "3", "--r", "2", "--k", "2", "--n", "3", "--t", "0.5", "--input", "mixed",
                     "--report", "terms", "--max-pairing-size", "12"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "would list 108056025 terms" in captured.err

    def test_moment_trace_preservation(self, capsys):
        code, out = run_cli(
            capsys, "moment", "--p", "1", "--r", "2", "--k", "2", "--n", "4",
            "--t", "0.5", "--input", "bell",
        )
        assert code == 0
        assert json.loads(out)["results"]["value"] == pytest.approx(1.0, abs=1e-10)

    def test_moment_terms_csv(self, capsys):
        code, out = run_cli(
            capsys, "moment", "--p", "2", "--r", "1", "--k", "2", "--n", "3",
            "--t", "0.5", "--input", "mixed", "--report", "terms",
        )
        lines = out.strip().splitlines()
        assert lines[1] == "alpha,beta,n_exp,k_exp,f_beta,wg,value"
        assert len(lines) == 2 + 9
        total = sum(float(line.split(",")[-1]) for line in lines[2:])
        assert total == pytest.approx(0.55, abs=1e-10)

    def test_simulate_deterministic(self, capsys):
        args = (
            "simulate", "--p", "2", "--r", "1", "--k", "2", "--n", "3", "--t", "0.5",
            "--samples", "500", "--seed", "11", "--input", "mixed",
        )
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["results"]["stderr"] > 0

    def test_simulate_thread_invariance(self, capsys, monkeypatch):
        args = (
            "simulate", "--p", "2", "--r", "1", "--k", "2", "--n", "3", "--t", "0.5",
            "--samples", "400", "--seed", "3", "--input", "product", "--format", "csv",
        )
        monkeypatch.setenv("ORTHOCHAN_THREADS", "1")
        _, out1 = run_cli(capsys, *args)
        monkeypatch.setenv("ORTHOCHAN_THREADS", "4")
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_body(self, capsys):
        code, out = run_cli(capsys, "body", "--r", "2", "--k", "2", "--t", "0.5")
        payload = json.loads(out)
        vertices = payload["results"]["vertices"]
        assert len(vertices) == 2
        for vertex in vertices:
            assert vertex["entropy"] == pytest.approx(vertex["entropy_closed_form"], abs=1e-10)

    def test_body_matches_per_entry_reference(self, capsys):
        code, out = run_cli(capsys, "body", "--r", "3", "--k", "3", "--t", "0.3")
        assert code == 0
        assert out == reference_body_json(3, 3, 0.3)

    def test_experiment_csv(self, capsys):
        code, out = run_cli(
            capsys, "experiment", "--rule", "bell", "--r", "2", "--k", "2", "--t", "0.5",
            "--n", "8,16", "--samples", "4", "--seed", "7",
        )
        lines = out.strip().splitlines()
        assert lines[1] == "n,sample,dist,entropy"
        assert len(lines) == 2 + 8

    def test_experiment_json_summary(self, capsys):
        code, out = run_cli(
            capsys, "experiment", "--rule", "product", "--r", "2", "--k", "2", "--t", "0.5",
            "--n", "8", "--samples", "4", "--seed", "7", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["results"]["summary"][0]["n"] == 8
        assert payload["results"]["summary"][0]["unconverged"] == 0

    def test_experiment_bytes_stable_across_threads(self, capsys, monkeypatch):
        args = (
            "experiment", "--rule", "bell", "--r", "2", "--k", "2", "--t", "0.5",
            "--n", "8,16", "--samples", "5", "--seed", "9",
        )
        monkeypatch.setenv("ORTHOCHAN_THREADS", "1")
        _, out1 = run_cli(capsys, *args)
        monkeypatch.setenv("ORTHOCHAN_THREADS", "4")
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_input_file(self, capsys, tmp_path):
        d = 3
        psi = np.zeros(d, dtype=complex)
        psi[1] = 1.0
        path = tmp_path / "state.json"
        path.write_text(json.dumps([[x.real, x.imag] for x in psi]))
        code, out = run_cli(
            capsys, "moment", "--p", "1", "--r", "1", "--k", "2", "--n", "3", "--t", "0.5",
            "--input", "file", "--input-file", str(path),
        )
        assert code == 0
        assert json.loads(out)["results"]["value"] == pytest.approx(1.0, abs=1e-10)

    def test_moment_terms_csv_keeps_imaginary_parts(self, capsys, tmp_path):
        # a complex r = 2 input makes many f_beta and values complex; each such
        # cell reads [re; im], like the ;-separated pair cells
        path = _complex_r2_state(tmp_path)
        code, out = run_cli(
            capsys, "moment", "--p", "2", "--r", "2", "--k", "2", "--n", "3", "--t", "0.5",
            "--input", "file", "--input-file", str(path), "--report", "terms",
        )
        assert code == 0

        def number(cell):
            if cell.startswith("["):
                re, im = json.loads(cell.replace(";", ","))
                assert im != 0
                return complex(re, im)
            return float(cell)

        state = matrix_from_json(json.loads(path.read_text()))
        terms = term_report(2, 2, 2, 3, 0.5, state)
        lines = out.strip().splitlines()[2:]
        assert len(lines) == len(terms) == 105**2
        complex_cells = 0
        for line, term in zip(lines, terms):
            alpha, beta, n_exp, k_exp, f, wg, value = line.split(",")
            assert json.loads(alpha.replace(";", ",")) == term.alpha.pair_list()
            assert json.loads(beta.replace(";", ",")) == term.beta.pair_list()
            assert (int(n_exp), int(k_exp)) == (term.n_exp, term.k_exp)
            assert number(f) == term.f_beta and number(value) == term.value
            assert float(wg) == term.wg
            complex_cells += f.startswith("[") + value.startswith("[")
        assert complex_cells > 0
        total = sum(number(line.split(",")[-1]) for line in lines)
        assert total.real == pytest.approx(exact_trace_moment(2, 2, 2, 3, 0.5, state), abs=1e-12)

    @pytest.mark.parametrize("case", ["p4_r1_n3_mixed", "p2_r2_n3_complex_file"])
    def test_moment_terms_csv_matches_per_term_reference(self, capsys, tmp_path, case):
        # 2pr = 8: every character of the array-formatted CSV against the per-term rendering
        if case == "p4_r1_n3_mixed":
            p, r, input_args, state = 4, 1, ["--input", "mixed"], np.eye(3) / 3
        else:
            path = _complex_r2_state(tmp_path)
            p, r, input_args = 2, 2, ["--input", "file", "--input-file", str(path)]
            state = matrix_from_json(json.loads(path.read_text()))
        code, out = run_cli(
            capsys, "moment", "--p", str(p), "--r", str(r), "--k", "2", "--n", "3", "--t", "0.5",
            *input_args, "--report", "terms",
        )
        assert code == 0
        # lines with their ends, so a mismatch reports its first index rather than a text diff
        lines = out.splitlines(keepends=True)
        assert lines == reference_terms_csv(p, r, 2, 3, 0.5, input_args[1], state).splitlines(keepends=True)
        assert len(lines) == 2 + 105**2

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, _ = run_cli(capsys, "wg", "--m", "1", "--n", "5", "--out", str(path))
        assert code == 0
        assert path.read_text().splitlines()[1] == "alpha_index,beta_index,exact,asymptotic,ratio"


STATE_FILES = {
    "norm2": "[[2, 0], [0, 0], [0, 0]]",
    "nan": "[[NaN, 0], [0, 0], [0, 0]]",
    "huge": "[[1e400, 0], [0, 0], [0, 0]]",  # json reads it as inf
}
_DIMS = ["--p", "2", "--k", "2", "--n", "3", "--t", "0.5"]
_EXPERIMENT = ["experiment", "--rule", "bell", "--k", "2", "--t", "0.5", "--samples", "2"]
MALFORMED = [
    ("moment-norm2", ["moment", *_DIMS, "--r", "1", "--input", "file", "--input-file", "{norm2}"]),
    ("moment-nan", ["moment", *_DIMS, "--r", "1", "--input", "file", "--input-file", "{nan}"]),
    ("moment-huge", ["moment", *_DIMS, "--r", "1", "--input", "file", "--input-file", "{huge}"]),
    ("simulate-nan", ["simulate", *_DIMS, "--r", "1", "--samples", "10", "--input", "file", "--input-file", "{nan}"]),
    ("simulate-seed", ["simulate", *_DIMS, "--r", "1", "--samples", "10", "--seed", "-1"]),
    ("experiment-seed", [*_EXPERIMENT, "--r", "2", "--n", "8", "--seed", "-1"]),
    ("verify-seed", ["verify", "--seed", "-1"]),
    ("experiment-grid", [*_EXPERIMENT, "--r", "2", "--n", "8,abc"]),
    ("simulate-r0", ["simulate", *_DIMS, "--r", "0", "--samples", "10"]),
    ("moment-r0", ["moment", *_DIMS, "--r", "0"]),
    ("body-r0", ["body", "--r", "0", "--k", "2", "--t", "0.5"]),
    ("experiment-r0", [*_EXPERIMENT, "--r", "0", "--n", "8"]),
    ("wg-nan", ["wg", "--m", "2", "--n", "nan"]),
    ("wg-inf", ["wg", "--m", "2", "--n", "inf"]),
    # the caps are integers >= 1: a negative one once exited 3 with "above cap -4"
    ("moment-cap-negative", ["moment", *_DIMS, "--r", "1", "--max-pairing-size", "-4"]),
    ("terms-cap-zero", ["moment", *_DIMS, "--r", "1", "--report", "terms", "--max-pairing-size", "0"]),
    # tables and leading-order values that leave float64 once ended in a traceback
    ("wg-huge-n", ["wg", "--m", "3", "--n", "1e308"]),
    ("wg-tiny-n", ["wg", "--m", "3", "--n", "1e-320"]),
    ("wg-leading-order-underflow", ["wg", "--m", "2", "--n", "1e120"]),
]

# t is refused by the library's one rule (errors.checked_real), with one message on every subcommand
_T_ARGS = {
    "moment": ["moment", "--p", "2", "--r", "1", "--k", "2", "--n", "3", "--input", "mixed"],
    "simulate": ["simulate", "--p", "2", "--r", "1", "--k", "2", "--n", "3", "--samples", "4"],
    "experiment": ["experiment", "--rule", "bell", "--r", "2", "--k", "2", "--n", "3", "--samples", "2"],
}
T_REFUSALS = [
    (command, t, message)
    for command in ("moment", "simulate", "experiment")
    for t, message in (
        ("1.5", "t must lie in [0, 1], got 1.5"),
        ("nan", "t must lie in [0, 1], got nan"),
        ("0", "floor(t*k*n) = 0 is degenerate at t=0.0, k=2, n=3; need t*k*n >= 1"),
    )
]
# a kn beyond input_dim's round-off range once ended in an OverflowError traceback
_HUGE = 10**400
HUGE_DIMENSIONS = {
    "moment-k": ["moment", "--p", "1", "--r", "1", "--k", str(_HUGE), "--n", "2", "--t", "0.5"],
    "simulate-n": ["simulate", "--p", "1", "--r", "1", "--k", "2", "--n", str(_HUGE), "--t", "0.5", "--samples", "4"],
}


class TestExitCodes:
    def test_validation_error(self, capsys):
        code, _ = run_cli(capsys, "moment", "--p", "1", "--r", "1", "--k", "1",
                          "--n", "3", "--t", "0.5")
        assert code == 2

    def test_t_out_of_range(self, capsys):
        code, _ = run_cli(capsys, "moment", "--p", "1", "--r", "1", "--k", "2",
                          "--n", "3", "--t", "1.5")
        assert code == 2

    @pytest.mark.parametrize("command, t, message", T_REFUSALS, ids=[f"{c}-t{t}" for c, t, _ in T_REFUSALS])
    def test_t_refused_by_the_library_rule(self, capsys, command, t, message):
        code = main([*_T_ARGS[command], "--t", t])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", HUGE_DIMENSIONS.values(), ids=HUGE_DIMENSIONS.keys())
    def test_kn_beyond_the_round_off_range_exits_2(self, capsys, argv):
        code = main(argv)
        assert code == 2
        assert capsys.readouterr().err == "error: kn must be <= 100000000000, got an integer of 1330 bits\n"

    @pytest.mark.parametrize("command", ["moment", "simulate", "experiment", "body"])
    def test_t_one_runs(self, capsys, command):
        # d = kn: the isometry is a whole orthogonal matrix, which every engine takes
        argv = _T_ARGS.get(command, ["body", "--r", "2", "--k", "2"])
        code, out = run_cli(capsys, *argv, "--t", "1")
        assert code == 0
        if command == "moment":
            assert json.loads(out)["results"]["value"] == exact_trace_moment(2, 1, 2, 3, 1.0, np.eye(6) / 6)
        elif command == "experiment":
            assert len(out.splitlines()) == 2 + 2  # config, header and one row per sample
        else:
            assert json.loads(out)["config"]["t"] == 1.0
        if command == "body":
            # the Bell vertex is pure; its entropy was once written as -0.0 beside a closed form of 0.0
            for vertex in json.loads(out)["results"]["vertices"]:
                assert repr(vertex["entropy"]) == repr(vertex["entropy_closed_form"])

    def test_body_at_t_zero_runs(self, capsys):
        # the convex body's closed forms take t = 0; only a channel needs floor(tkn) >= 1
        code, out = run_cli(capsys, "body", "--r", "2", "--k", "2", "--t", "0")
        assert code == 0
        assert len(json.loads(out)["results"]["vertices"]) == 2

    def test_budget_error(self, capsys):
        code, _ = run_cli(capsys, "moment", "--p", "2", "--r", "3", "--k", "2",
                          "--n", "3", "--t", "0.5", "--input", "mixed")
        assert code == 3

    def test_contraction_budget_refused_before_any_table(self, capsys, monkeypatch):
        import orthochan.moments as moments

        def no_table(*args):
            raise AssertionError("wg_exact ran before the budget check")

        monkeypatch.setattr(moments, "wg_exact", no_table)
        code = main(["moment", "--p", "3", "--r", "2", "--k", "2", "--n", "40", "--t", "0.5",
                     "--input", "product", "--max-pairing-size", "12"])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: f_beta contraction needs d^(pr) = 4096000000 entries, above budget 16777216\n"
        )

    def test_hard_cap_on_flags(self, capsys):
        code, _ = run_cli(capsys, "moment", "--p", "2", "--r", "3", "--k", "2",
                          "--n", "3", "--t", "0.5", "--max-pairing-size", "99")
        assert code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-pairing-size", "99"], "cap must be <= 12, got 99"),
            (["--report", "terms", "--max-pairing-size", "99"], "cap must be <= 12, got 99"),
        ],
        ids=["value", "terms"],
    )
    def test_hard_bounds_are_the_library_refusals(self, capsys, flags, message):
        # at 2pr = 12: the terms report exits 2 on the flag, not 3 on its listing cap
        code = main(["moment", "--p", "2", "--r", "3", "--k", "2", "--n", "3", "--t", "0.5", "--input", "mixed",
                     *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_thread_count_above_its_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("ORTHOCHAN_THREADS", "1000000")
        code = main(["simulate", *_DIMS, "--r", "1", "--input", "mixed", "--samples", "10", "--seed", "0"])
        assert code == 2
        assert capsys.readouterr().err == "error: ORTHOCHAN_THREADS must be <= 256, got 1000000\n"

    def test_missing_input_file(self, capsys):
        code, _ = run_cli(capsys, "moment", "--p", "1", "--r", "1", "--k", "2",
                          "--n", "3", "--t", "0.5", "--input", "file")
        assert code == 2

    def test_unreadable_input_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run_cli(capsys, "moment", "--p", "1", "--r", "1", "--k", "2",
                          "--n", "3", "--t", "0.5", "--input", "file",
                          "--input-file", str(path))
        assert code == 2

    @pytest.mark.parametrize("argv", [argv for _, argv in MALFORMED], ids=[name for name, _ in MALFORMED])
    def test_malformed_input_exits_2(self, capsys, tmp_path, argv):
        files = {}
        for name, text in STATE_FILES.items():
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(text)
        try:
            code = main([arg.format(**files) for arg in argv])
        except SystemExit as exc:  # argparse rejects the argument itself
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err

    def test_argparse_usage_error_is_2(self):
        with pytest.raises(SystemExit) as err:
            main(["moment", "--p", "1"])
        assert err.value.code == 2


class TestVerifyGate:
    def test_verify_failure_exits_4(self, capsys, monkeypatch):
        import orthochan.cli as cli
        from orthochan.verify import CriterionResult

        monkeypatch.setattr(cli, "run_all", lambda seed: [CriterionResult(1, "x", False, "boom")])
        code, out = run_cli(capsys, "verify")
        assert code == 4
        assert "FAIL" in out

    def test_verify_success_exits_0(self, capsys, monkeypatch):
        import orthochan.cli as cli
        from orthochan.verify import CriterionResult

        monkeypatch.setattr(cli, "run_all", lambda seed: [CriterionResult(1, "x", True, "ok")])
        code, out = run_cli(capsys, "verify")
        assert code == 0
        assert "1/1 criteria passed" in out

    def test_tampered_mobius_sign_fails_criterion_4(self, monkeypatch):
        import orthochan.weingarten as weingarten
        from orthochan.verify import criterion_4_wg_asymptotics

        real_mobius = weingarten.mobius
        monkeypatch.setattr(weingarten, "mobius", lambda a, b: -real_mobius(a, b))
        result = criterion_4_wg_asymptotics(0)
        assert not result.passed

    def test_report_text_has_no_timestamps(self):
        from orthochan.verify import CriterionResult, report_text

        text = report_text([CriterionResult(1, "x", True, "y")], seed=5)
        assert "seed 5" in text
        assert "criterion 01 PASS x: y" in text

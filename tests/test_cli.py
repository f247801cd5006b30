"""Command-line interface: flags, config files, exit codes, determinism."""

import ast
import dataclasses
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fermigas import kernels
from fermigas.cli import _build_parser, _parse_function, main
from fermigas.errors import NumericalError, ValidationError
from fermigas.experiments import _solve_window
from oracles import airy_oracle, airy_prime_oracle


def run(argv, tmp_path, name="out.csv"):
    """Invoke main with --out and return (exit code, text or None)."""
    path = tmp_path / name
    code = main(list(argv) + ["--out", str(path)])
    text = path.read_text() if path.exists() else None
    return code, text


def data_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


# ---------------------------------------------------------------------------
# exit codes


def test_no_subcommand_exits_one():
    assert main([]) == 1


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_missing_required_flag_exits_one(capsys):
    assert main(["weyl", "--potential", "x1^2"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_missing_seed_is_a_usage_error(capsys):
    code = main(["sample", "--potential", "x1^2", "--mu", "1", "--hbar", "0.05"])
    assert code == 1
    assert "--seed" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("weyl", "kernel", "converge-bulk", "sample", "agmon"):
        assert name in out


def test_validation_error_exits_one(capsys):
    # x0 outside the droplet is rejected by the experiment driver
    code = main(["converge-bulk", "--potential", "x1^2", "--mu", "1",
                 "--x0", "5", "--hbar", "0.02"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_numerical_error_exits_two(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise NumericalError("did not converge")

    monkeypatch.setattr("fermigas.cli.weyl_check", boom)
    code = main(["weyl", "--potential", "x1^2", "--mu", "1", "--hbar", "0.05"])
    assert code == 2
    assert "did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("name, field, message", [
    ("cubature", "status", "did not converge"),
    ("find_root", "success", "root refinement failed"),
])
def test_weyl_2d_quadrature_failures_exit_two(monkeypatch, capsys, name,
                                              field, message):
    # the outer cubature of the line sections stalls, or a root refinement
    # fails: either way the 2-D Weyl constant is a numerical error
    real = getattr(kernels, name)

    def failed(*args, **kwargs):
        res = real(*args, **kwargs)
        setattr(res, field, "not_converged" if field == "status"
                else np.zeros_like(res.success))
        return res

    monkeypatch.setattr(kernels, name, failed)
    code = main(["weyl", "--potential", "x1^2+x2^2", "--mu", "1",
                 "--hbar", "0.1"])
    assert code == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# subcommand output


def test_weyl_reports_half(tmp_path):
    code, text = run(["weyl", "--potential", "x1^2", "--mu", "1",
                      "--hbar", "0.05,0.02"], tmp_path)
    assert code == 0
    cols, rows = data_rows(text)
    k = cols.index("hbar_count")
    for row in rows:
        assert float(row[k]) == pytest.approx(0.5, abs=1e-12)


def test_kernel_bulk_diagonal_is_one(tmp_path):
    code, text = run(["kernel", "--kind", "bulk", "--n", "1",
                      "--window", "-2:2:0.5"], tmp_path)
    assert code == 0
    cols, rows = data_rows(text)
    for x, y, value in rows:
        if x == y:
            assert float(value) == 1.0


def test_kernel_sine_matches_closed_form(tmp_path):
    code, text = run(["kernel", "--kind", "sine", "--window", "0:1:0.25"],
                     tmp_path)
    assert code == 0
    _, rows = data_rows(text)
    for x, y, value in rows:
        d = float(x) - float(y)
        want = 1.0 if d == 0.0 else math.sin(math.pi * d) / (math.pi * d)
        assert float(value) == pytest.approx(want, abs=1e-12)


def test_kernel_airy_needs_one_dimension(capsys):
    assert main(["kernel", "--kind", "airy", "--n", "2",
                 "--window", "0:1:0.5"]) == 1
    capsys.readouterr()


def test_kernel_bad_window_grammar(capsys):
    assert main(["kernel", "--kind", "bulk", "--window", "nonsense"]) == 1
    capsys.readouterr()


def test_kernel_airy_deep_on_the_oscillatory_side(tmp_path):
    code, text = run(["kernel", "--kind", "airy", "--window", "-20:-19:0.5"],
                     tmp_path)
    assert code == 0
    _, rows = data_rows(text)
    diag = {(float(x), float(y)): float(v) for x, y, v in rows}[(-19.0, -19.0)]
    want = airy_prime_oracle(-19.0) ** 2 + 19.0 * airy_oracle(-19.0) ** 2
    assert diag == pytest.approx(want, abs=1e-8)


def test_kernel_edge_deep_on_the_oscillatory_side(tmp_path):
    code, text = run(["kernel", "--kind", "edge", "--window", "-200:-199:1"],
                     tmp_path)
    assert code == 0
    _, rows = data_rows(text)
    assert len(rows) == 4


WEYL = ["weyl", "--potential", "x1^2"]
SOLVE = ["--potential", "x1^2", "--mu", "1", "--hbar", "0.05"]


@pytest.mark.parametrize("argv", [
    WEYL + ["--mu", "1", "--hbar", ""],
    WEYL + ["--mu", "1", "--hbar", ","],
    WEYL + ["--mu", "nan", "--hbar", "0.05"],
    WEYL + ["--mu", "1", "--hbar", "nan"],
    WEYL + ["--mu", "1", "--hbar", "0.05", "--margin", "inf"],
    ["variance", "--mu", "nan", "--function", "gaussian:width=1"],
    ["kernel", "--kind", "bulk", "--window", "0:inf:0.5"],
    ["kernel", "--kind", "bulk", "--n", "0"],
    ["converge-bulk", "--potential", "x1^2", "--mu", "1", "--x0", "0",
     "--hbar", "0.02", "--window", "nan:2"],
    ["converge-bulk", "--potential", "x1^2", "--mu", "1", "--x0", "",
     "--hbar", "0.02"],
    ["converge-bulk", "--potential", "x1^2", "--mu", "1", "--x0", "0",
     "--hbar", "0.02", "--probes", "0"],
    ["sample"] + SOLVE + ["--trials", "-3", "--seed", "1"],
    ["clt"] + SOLVE + ["--function", "gaussian:width=0.2", "--trials", "0",
                       "--seed", "1"],
    ["clt"] + SOLVE + ["--function", "gaussian:width=0.2", "--trials", "-5",
                       "--seed", "1"],
    WEYL + ["--mu", "1", "--hbar", "0.05", "--margin", "0"],
    WEYL + ["--mu", "1", "--hbar", "0.05", "--margin", "-1"],
    WEYL + ["--mu", "1", "--hbar", "0.05", "--resolution", "0"],
    WEYL + ["--mu", "1", "--hbar", "0.05", "--resolution", "-1"],
    ["variance", "--n", "1", "--mu", "10", "--function", "gaussian:width=nan"],
    ["variance", "--n", "1", "--mu", "10", "--function", "gaussian:width=inf"],
    ["variance", "--n", "1", "--mu", "10", "--function", "gaussian:width=abc"],
    ["variance", "--n", "1", "--mu", "10",
     "--function", "gaussian:center=nan,width=1"],
    ["variance", "--n", "2", "--mu", "10",
     "--function", "gaussian:center=0:inf,width=1"],
    ["variance", "--n", "1", "--mu", "10", "--function", "indicator:radius=1e400"],
    ["variance", "--n", "1", "--mu", "10",
     "--function", "indicator:smoothing=nan"],
    ["seminorm", "--n", "1", "--function", "custom:expr=x1^2,radius=inf"],
    # windows and probe counts beyond the point cap, refused before any array
    ["kernel", "--kind", "bulk", "--window", "-2:2:1e-9"],
    ["kernel", "--kind", "bulk", "--window", "-2:2:1e-4"],
    ["kernel", "--kind", "bulk", "--window", "-1e308:1e308:1"],
    ["converge-bulk", "--potential", "x1^2", "--mu", "1", "--x0", "0",
     "--hbar", "0.02", "--probes", "2002"],
    # potentials that are not finite: a literal, a constant product, and a
    # constant division by zero
    ["weyl", "--potential", "x1^2+1e400", "--mu", "1", "--hbar", "0.05"],
    ["weyl", "--potential", "x1^2 + 1e200*1e200", "--mu", "1", "--hbar", "0.05"],
    ["weyl", "--potential", "x1^2 + 1/0", "--mu", "1", "--hbar", "0.05"],
    # probes out to |x| = 63 around x0 = 0, in a box of half-width 1.5
    ["converge-bulk", "--potential", "x1^2", "--mu", "1", "--x0", "0",
     "--hbar", "0.02", "--window", "-1000:1000", "--probes", "5"],
    # hbar^1.5 overflows; (hbar / h)^2 overflows
    WEYL + ["--mu", "1", "--hbar", "1e300"],
    WEYL + ["--mu", "1", "--hbar", "1e200"],
    # kernel dimensions past x3, refused before a (2 pi)^n or an array of
    # n coordinates per point
    ["kernel", "--kind", "bulk", "--n", "4"],
    ["kernel", "--kind", "bulk", "--n", "100000000"],
    ["kernel", "--kind", "edge", "--n", "1000"],
    # potentials in x3: grids exist in dimensions 1 and 2 only
    ["weyl", "--potential", "x1^2+x2^2+x3^2", "--mu", "1", "--hbar", "0.2"],
    ["sample", "--potential", "x1^2+x2^2+x3^2", "--mu", "1", "--hbar", "0.2",
     "--seed", "1"],
    # brute-force variance lattices over the memory budget: 134 TiB, and an
    # infinite point count
    ["variance", "--n", "2", "--mu", "1e6", "--function", "indicator:radius=1"],
    ["variance", "--n", "1", "--mu", "1e308", "--function", "gaussian:width=1"],
])
@pytest.mark.filterwarnings("error")
def test_non_finite_empty_and_non_positive_inputs_exit_one(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    assert "Traceback" not in captured.err


def test_kernel_projector_needs_potential(capsys):
    assert main(["kernel", "--kind", "projector", "--mu", "1",
                 "--window", "0:1:0.5"]) == 1
    capsys.readouterr()


def test_kernel_projector_tabulates_physical_kernel(tmp_path):
    code, text = run(["kernel", "--kind", "projector", "--potential", "x1^2",
                      "--mu", "1", "--hbar", "0.05",
                      "--window", "-0.5:0.5:0.25"], tmp_path)
    assert code == 0
    cols, rows = data_rows(text)
    assert cols == ["x1", "y1", "value"]
    diag = {r[0]: float(r[2]) for r in rows if r[0] == r[1]}
    # density is positive and roughly flat deep inside the droplet
    assert all(v > 0.0 for v in diag.values())


def test_sample_is_byte_deterministic(tmp_path):
    argv = ["sample", "--potential", "x1^2", "--mu", "1", "--hbar", "0.05",
            "--trials", "3", "--seed", "7"]
    code1, t1 = run(argv, tmp_path, "a.csv")
    code2, t2 = run(argv, tmp_path, "b.csv")
    assert code1 == code2 == 0
    assert t1 == t2
    cols, rows = data_rows(t1)
    # ten particles at this energy, three trials
    assert len(rows) == 30
    assert "# seed=7" in t1


def test_sample_seed_changes_points(tmp_path):
    base = ["sample", "--potential", "x1^2", "--mu", "1", "--hbar", "0.05",
            "--trials", "1"]
    _, t1 = run(base + ["--seed", "7"], tmp_path, "a.csv")
    _, t2 = run(base + ["--seed", "8"], tmp_path, "b.csv")
    assert t1 != t2


def test_variance_routes_agree(tmp_path):
    code, text = run(["variance", "--n", "1", "--mu", "10",
                      "--function", "gaussian:width=1"], tmp_path)
    assert code == 0
    cols, rows = data_rows(text)
    row = dict(zip(cols, (float(v) for v in rows[0])))
    assert row["rel_gap"] <= 1e-4
    assert row["exact"] == pytest.approx(row["asymptotic"], rel=0.05)


def test_seminorm_duality_within_one_percent(tmp_path):
    code, text = run(["seminorm", "--n", "1", "--function", "gaussian:width=1"],
                     tmp_path)
    assert code == 0
    cols, rows = data_rows(text)
    ratio = float(rows[0][cols.index("duality_ratio")])
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_clt_runs_and_reports_moments(tmp_path):
    code, text = run(["clt", "--potential", "x1^2", "--mu", "1",
                      "--hbar", "0.05", "--function", "gaussian:width=0.2",
                      "--trials", "200", "--seed", "2718"], tmp_path)
    assert code == 0
    assert "# seed=2718" in text
    cols, rows = data_rows(text)
    assert float(rows[0][cols.index("ks_pvalue")]) > 0.0


def test_lln_distance_decreases(tmp_path):
    code, text = run(["lln", "--potential", "x1^2", "--mu", "1",
                      "--hbar", "0.05,0.02", "--trials", "50",
                      "--seed", "11"], tmp_path)
    assert code == 0
    cols, rows = data_rows(text)
    means = [float(r[cols.index("mean_w1")]) for r in rows]
    assert means[1] < means[0]


def test_agmon_norms_stay_under_bound(tmp_path):
    code, text = run(["agmon", "--potential", "x1^2", "--mu", "1",
                      "--hbar", "0.05", "--delta", "0.2"], tmp_path)
    assert code == 0
    cols, rows = data_rows(text)
    bound = float(rows[0][cols.index("bound")])
    assert bound == pytest.approx(11.0)
    for r in rows:
        assert float(r[cols.index("weighted_norm")]) <= bound


def test_agmon_norms_do_not_depend_on_the_basis_of_a_degenerate_level(
    tmp_path, monkeypatch
):
    # x1^2 + x2^2 has pairs of levels equal up to rounding, swapped by
    # x1 <-> x2; any orthonormal basis of a pair is an eigenbasis, and the
    # CSV must read the same whichever one the solver returns
    solved = []

    def solve_once(*args, **kwargs):
        if not solved:
            solved.append(_solve_window(*args, **kwargs))
        return solved[0]

    def rotated(*args, **kwargs):
        es = solve_once(*args, **kwargs)
        lam, v = es.eigenvalues, es.eigenvectors.copy()
        pairs = np.flatnonzero(np.isclose(lam[:-1], lam[1:], rtol=1e-9, atol=0))
        assert pairs.size >= 5
        c, s = math.cos(0.5), math.sin(0.5)
        for i in pairs:
            a, b = v[:, i].copy(), v[:, i + 1].copy()
            v[:, i], v[:, i + 1] = c * a - s * b, s * a + c * b
        return dataclasses.replace(es, eigenvectors=v)

    argv = ["agmon", "--potential", "x1^2+x2^2", "--mu", "1", "--hbar", "0.1",
            "--delta", "0.2"]
    norms = []
    for solve in (solve_once, rotated):
        monkeypatch.setattr("fermigas.cli._solve_window", solve)
        code, text = run(argv, tmp_path)
        assert code == 0
        cols, rows = data_rows(text)
        norms.append([float(r[cols.index("weighted_norm")]) for r in rows])
    assert len(norms[0]) == 15
    np.testing.assert_allclose(norms[1], norms[0], rtol=1e-12, atol=0)


@pytest.mark.parametrize("delta", ["5", "0"])
def test_agmon_rejects_delta_before_solving(delta, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("the eigensolve ran before the input check")

    monkeypatch.setattr("fermigas.cli._solve_window", no_solve)
    code = main(["agmon", "--potential", "x1^2+x2^2", "--mu", "1",
                 "--hbar", "0.07", "--delta", delta])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("potential, hbar", [
    ("x1^2", "1e-9"),          # G about 4.7e13 nodes, N about 5e8
    ("x1^2+x2^2", "0.005"),    # G = 4242^2 nodes, N about 5000
])
def test_grids_over_the_memory_budget_exit_one_before_solving(
        potential, hbar, monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("a grid over the budget was assembled or solved")

    monkeypatch.setattr("fermigas.experiments.assemble_hamiltonian", no_build)
    monkeypatch.setattr("fermigas.experiments.eigensolve", no_build)
    code = main(["weyl", "--potential", potential, "--mu", "1", "--hbar", hbar])
    assert code == 1
    assert "GiB budget" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sample"] + SOLVE + ["--seed", "1"],
    ["clt"] + SOLVE + ["--function", "gaussian:width=0.2", "--seed", "1"],
    ["lln"] + SOLVE + ["--seed", "1"],
])
def test_trials_above_the_cap_exit_one_before_solving(argv, monkeypatch,
                                                     capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the --trials check")

    monkeypatch.setattr("fermigas.cli._solve_window", no_solve)
    monkeypatch.setattr("fermigas.experiments._solve_window", no_solve)
    assert main(argv + ["--trials", "100001"]) == 1
    assert "at most 100000 trials" in capsys.readouterr().err
    assert _build_parser()[0].parse_args(argv + ["--trials", "100000"]).trials \
        == 100000


@pytest.mark.parametrize("argv", [
    ["converge-bulk", "--x0", "0,0", "--hbar", "0.05"],
    ["converge-edge", "--x0", "1,0", "--hbar", "0.05"],
    ["lln", "--hbar", "0.05", "--seed", "1"],
])
def test_one_dimensional_commands_name_their_dimension(argv, capsys):
    assert main(argv + ["--potential", "x1^2+x2^2", "--mu", "1"]) == 1
    err = capsys.readouterr().err
    assert "supports dimension 1 only" in err
    assert "Traceback" not in err


def test_negative_coordinates_parse(tmp_path):
    code, text = run(["converge-bulk", "--potential", "x1^2", "--mu", "1",
                      "--x0", "-0.3", "--hbar", "0.02"], tmp_path)
    assert code == 0
    cols, rows = data_rows(text)
    assert float(rows[0][cols.index("sup_error")]) < 0.1


# ---------------------------------------------------------------------------
# config files


def test_config_supplies_required_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# harmonic counting\npotential=x1^2\nmu=1\nhbar=0.05,0.02\n")
    code, text = run(["weyl", "--config", str(cfg)], tmp_path)
    assert code == 0
    _, rows = data_rows(text)
    assert len(rows) == 2


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("potential=x1^2\nmu=1\nhbar=0.05,0.02\n")
    code, text = run(["weyl", "--config", str(cfg), "--hbar", "0.1"], tmp_path)
    assert code == 0
    cols, rows = data_rows(text)
    assert len(rows) == 1
    assert float(rows[0][cols.index("hbar")]) == 0.1


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("potential=x1^2\nbogus_key=3\n")
    code = main(["weyl", "--config", str(cfg), "--mu", "1", "--hbar", "0.1"])
    assert code == 1
    assert "bogus_key" in capsys.readouterr().err


def test_missing_config_file_rejected(capsys):
    code = main(["weyl", "--config", "/nonexistent.cfg", "--mu", "1",
                 "--hbar", "0.1", "--potential", "x1^2"])
    assert code == 1
    capsys.readouterr()


def test_malformed_config_line_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("potential x1^2\n")
    code = main(["weyl", "--config", str(cfg), "--mu", "1", "--hbar", "0.1"])
    assert code == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# test-function grammar


def test_parse_function_kinds():
    g = _parse_function("gaussian:center=0.5,width=0.3", 1)
    assert g(0.5) == 1.0
    ind = _parse_function("indicator:radius=1,smoothing=0.5", 1)
    assert ind(0.0) == 1.0
    c = _parse_function("custom:expr=exp(-x1^2),radius=5", 1)
    assert c(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    g2 = _parse_function("gaussian:center=0:1,width=0.3", 2)
    assert g2(np.array([0.0, 1.0])) == 1.0


def test_parse_function_rejects_garbage():
    with pytest.raises(ValidationError):
        _parse_function("polygon:radius=1", 1)
    with pytest.raises(ValidationError):
        _parse_function("gaussian:wdith=1", 1)
    with pytest.raises(ValidationError):
        _parse_function("custom:radius=5", 1)
    with pytest.raises(ValidationError):
        _parse_function("gaussian:center=0:0,width=1", 1)


# ---------------------------------------------------------------------------
# README grammar


def test_readme_commands_parse_and_cover_every_subcommand():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line")[1]
    block = section.split("```sh")[1].split("```")[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("fermigas ")]
    parser, table = _build_parser()
    for argv in commands:  # a mismatch exits through the parser's error
        assert parser.parse_args(argv).subcommand == argv[0]
    assert {argv[0] for argv in commands} == set(table)


# ---------------------------------------------------------------------------
# installed entry point


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_python_dash_m_runs_the_cli(tmp_path):
    out = tmp_path / "w.csv"
    proc = _run_python(
        ["-m", "fermigas", "weyl", "--potential", "x1^2",
         "--mu", "1", "--hbar", "0.05", "--out", str(out)]
    )
    assert proc.returncode == 0, proc.stderr
    assert "# experiment=weyl_check" in out.read_text()


DEFERRED = ("scipy.signal", "scipy.interpolate", "scipy.ndimage")


def test_cli_import_defers_the_scipy_packages_of_one_command_each():
    # variance and seminorm use scipy.signal, kernel --kind projector
    # scipy.interpolate and agmon scipy.ndimage: no module imports them at
    # load time.  scipy.stats, which clt loads with the CLI, brings in the
    # last two itself, so only scipy.signal stays out of sys.modules.
    for path in sorted((SRC / "fermigas").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            assert not [m for m in names if m.startswith(DEFERRED)], path.name
    proc = _run_python(
        ["-c", "import sys, fermigas.cli; print('scipy.signal' in sys.modules)"]
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.skipif(shutil.which("fermigas") is None,
                    reason="console script not installed")
def test_console_script_roundtrip(tmp_path):
    out = tmp_path / "w.csv"
    proc = subprocess.run(
        ["fermigas", "weyl", "--potential", "x1^2", "--mu", "1",
         "--hbar", "0.05", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "# experiment=weyl_check" in out.read_text()

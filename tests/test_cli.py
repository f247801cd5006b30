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
from fermigas.potential import parse_potential
from fermigas.schrodinger import solve
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
    # a bump so narrow that the brute-force lattice step squared underflows,
    # and an indicator so wide that the lattice's point count overflows
    ["variance", "--n", "1", "--mu", "1", "--function", "gaussian:width=1e-300"],
    ["variance", "--n", "2", "--mu", "1", "--function", "indicator:radius=1e300"],
    # mu below min V: an empty droplet, Z = 0 and a scaled count of 0 / 0
    WEYL + ["--mu", "-1", "--hbar", "0.05"],
    ["weyl", "--potential", "x1^2+x2^2+1", "--mu", "1", "--hbar", "0.2"],
    # a bump so narrow that the seminorm lattice step squared underflows
    ["seminorm", "--n", "1", "--function", "gaussian:width=1e-300"],
    # a potential that is nan or inf at every node, and probes so far out
    # that their node indices overflow an int
    ["weyl", "--potential", "x1^2/0", "--mu", "1", "--hbar", "0.05"],
    ["converge-edge", "--potential", "x1^2", "--mu", "1", "--x0", "1",
     "--hbar", "0.01", "--window", "-1e300:1e300"],
    # windows that hold no point: 1e300 + 1/2 rounds back to 1e300
    ["kernel", "--kind", "edge", "--n", "1", "--window", "1e300:1e300:1"],
    ["kernel", "--kind", "edge", "--n", "2", "--window", "1e300:1e300:1"],
    ["kernel", "--kind", "bulk", "--window", "1e300:1e300:1"],
    # a delta whose bound 1 + 2 mu / delta is inf
    ["agmon"] + SOLVE + ["--delta", "5e-324"],
    # mu below the first level, 0.05: no particle to sample
    ["sample", "--potential", "x1^2", "--mu", "0.01", "--hbar", "0.05",
     "--seed", "1"],
])
@pytest.mark.filterwarnings("error")
def test_non_finite_empty_and_non_positive_inputs_exit_one(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err
    assert "Traceback" not in captured.err


def test_weyl_refuses_an_empty_droplet_before_any_grid_or_count(
    monkeypatch, capsys
):
    # no node of the coarse estimate lattice lies below mu, so Z is found,
    # and is 0, before the first grid or inertia count
    def fail(*args, **kwargs):
        raise AssertionError("a grid or count ran for an empty droplet")

    monkeypatch.setattr("fermigas.schrodinger.assemble_hamiltonian", fail)
    monkeypatch.setattr("fermigas.experiments.level_count", fail)
    assert main(["weyl", "--potential", "x1^2+x2^2+1", "--mu", "1",
                 "--hbar", "0.2,0.1,0.07"]) == 1
    assert "droplet" in capsys.readouterr().err


EMPTY_DROPLET = ["--potential", "x1^2+1", "--mu", "1", "--hbar", "0.05"]


@pytest.mark.parametrize("argv", [
    ["sample", *EMPTY_DROPLET, "--seed", "1"],
    ["kernel", "--kind", "projector", *EMPTY_DROPLET,
     "--window", "-0.5:0.5:0.25"],
    ["clt", *EMPTY_DROPLET, "--function", "gaussian:width=0.2", "--seed", "1"],
    ["lln", *EMPTY_DROPLET, "--seed", "1"],
    ["agmon", *EMPTY_DROPLET],
], ids=lambda argv: argv[0])
@pytest.mark.filterwarnings("error")
def test_every_grid_command_refuses_an_empty_droplet(argv, monkeypatch,
                                                     capsys):
    # {x1^2 + 1 <= 1} is one point, Z = 0: sample wrote a header-only CSV,
    # kernel a table of zeros and agmon one with no row, each with exit 0
    def fail(*args, **kwargs):
        raise AssertionError("a grid was built for an empty droplet")

    if argv[0] != "agmon":  # agmon asks once its solve has no level <= mu
        monkeypatch.setattr("fermigas.schrodinger.assemble_hamiltonian", fail)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "droplet" in captured.err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["sample", "--seed", "1"],
    ["clt", "--function", "gaussian:width=0.2", "--seed", "1"],
    ["lln", "--seed", "1"],
], ids=lambda argv: argv[0])
def test_sampling_commands_refuse_an_empty_process(argv, capsys):
    # x1^2 at hbar = 0.05 has no level below mu = 0.01: sample wrote a
    # header-only CSV and clt called the statistic degenerate
    assert main(argv + ["--potential", "x1^2", "--mu", "0.01",
                        "--hbar", "0.05"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no levels below mu: the process is empty\n"


@pytest.mark.filterwarnings("error")
def test_clt_refuses_a_test_function_narrower_than_the_grid(capsys):
    # the statistic lived on one node: exit 0, after an overflow warning
    # from evaluating the bump on the nodes
    assert main(["clt", "--potential", "x1^2", "--mu", "1", "--hbar", "0.05",
                 "--function", "gaussian:width=1e-300", "--trials", "100",
                 "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the test function's support")
    assert captured.err.count("\n") == 1


SEMINORM_RANGE = ("error: the test function is too narrow or too wide: the "
                  "seminorm lattice step {} to the power {} is out of float "
                  "range\n")


@pytest.mark.parametrize("argv, message", [
    (["kernel", "--kind", "airy", "--n", "1", "--window", "-1e300:1e300:1e299"],
     "error: airy_ai requires a finite argument below 2^20\n"),
    (["variance", "--n", "1", "--mu", "5e-324", "--function", "gaussian:width=1"],
     "error: mu must be positive, with pi / mu finite: 5e-324\n"),
    (["variance", "--n", "2", "--mu", "1e-300", "--function", "gaussian:width=1"],
     "error: mu=1e-300 is too small: the free-field variance 0 underflows "
     "below the normal float range\n"),
    (["seminorm", "--n", "1", "--function", "gaussian:width=1e300"],
     SEMINORM_RANGE.format("1.45192e+298", 2)),
    (["seminorm", "--n", "1", "--function", "custom:expr=x1,radius=1e300"],
     SEMINORM_RANGE.format("1.95313e+297", 2)),
    (["seminorm", "--n", "2", "--function", "indicator:radius=1e300,smoothing=1"],
     SEMINORM_RANGE.format("2.5e+298", 3)),
    (["seminorm", "--n", "1", "--function",
      "indicator:radius=1e-300,smoothing=1e-300"],
     SEMINORM_RANGE.format("3.90625e-303", 2)),
    (["kernel", "--kind", "free", "--n", "2", "--mu", "1e200", "--window",
      "-1:1:1"],
     "error: mu=1e+200 is too large: the free kernel's diagonal "
     "mu^2 omega_2 / (2 pi)^2 overflows\n"),
    (["clt", "--potential", "x1^2", "--mu", "1", "--hbar", "0.05",
      "--function", "custom:expr=1/x1,radius=1", "--trials", "10",
      "--seed", "1"],
     "error: the test function is not finite at a node\n"),
    (["kernel", "--kind", "sine", "--n", "1", "--window", "-1e300:1e300:1e299"],
     "error: the window span 2e+300 squares to inf\n"),
    (["kernel", "--kind", "free", "--n", "1", "--mu", "1e300", "--window",
      "-1e10:1e10:1e9"],
     "error: mu=1e+300 times the window span 2e+10 overflows\n"),
    (["kernel", "--kind", "free", "--n", "2", "--mu", "1e200", "--window",
      "-1e150:1e150:1e149"],
     "error: mu=1e+200 times the window span 2e+150 overflows\n"),
], ids=["airy", "variance", "variance-2d-underflow", "seminorm-wide-gaussian",
        "seminorm-wide-custom", "seminorm-wide-indicator",
        "seminorm-narrow-indicator", "free-huge-mu", "clt-pole-on-a-node",
        "sine-huge-window", "free-huge-mu-span", "free-huge-mu-span-2d"])
@pytest.mark.filterwarnings("error")
def test_inputs_without_a_finite_result_are_refused(argv, message, capsys):
    # the airy table held 440 nan rows past scipy's Airy range, and the
    # variance a nan brute force where pi / mu, its lattice scale, overflows,
    # and in 2-D an exact and brute-force variance of 0 and a nan gap where
    # mu^2 underflows.
    # The wide seminorm lattices and the free kernel's mu^2 ended in
    # OverflowError tracebacks from a power; the narrow indicator warned
    # twice in sigma_fourier before the lattice check refused it.
    # clt took 1/x1 on the node x1 = 0 and wrote a nan KS statistic; the
    # sine kernel warned of an overflow in |x - y| before its error, and the
    # free kernel of one in its Bessel argument mu |x - y|
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


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


@pytest.mark.parametrize("n, potential", [(1, "x1^2"), (2, "x1^2+x2^2")])
def test_kernel_projector_reads_pi_at_the_nearest_nodes(n, potential, tmp_path):
    # Pi is exact at the grid nodes; each window point moves to its nearest
    # interior node, which the table prints: -0.495 for -0.5 at hbar = 0.05
    argv = ["kernel", "--kind", "projector", "--n", str(n), "--potential",
            potential, "--mu", "1", "--hbar", "0.05", "--window", "-0.5:0:0.25"]
    code, text = run(argv, tmp_path)
    assert code == 0
    assert text.startswith("# experiment=kernel\n# hbar=0.050000000000000003\n"
                           f"# kind=projector\n# mu=1\n# n={n}\n")
    cols, rows = data_rows(text)
    assert cols == [f"{c}{k + 1}" for c in "xy" for k in range(n)] + ["value"]
    es = solve(parse_potential(potential), 1.0, 0.05)
    nodes = es.grid.interior_points()
    idx = [int(np.argmin(np.sum((nodes - [x, 0.0][:n]) ** 2, axis=1)))
           for x in (-0.5, -0.25, 0.0)]
    assert float(rows[0][0]) == pytest.approx(-0.495, abs=1e-12)
    vecs = es.below(1.0)[1]
    for row, (i, j) in zip(rows, [(i, j) for i in idx for j in idx]):
        assert [float(c) for c in row[:2 * n]] == [*nodes[i], *nodes[j]]
        assert float(row[-1]) == pytest.approx(vecs[i] @ vecs[j], rel=1e-12,
                                               abs=1e-12)


def test_kernel_projector_point_outside_the_box_exits_one(capsys):
    assert main(["kernel", "--kind", "projector", "--potential", "x1^2",
                 "--mu", "1", "--hbar", "0.05", "--window", "0:50:10"]) == 1
    assert "outside the box" in capsys.readouterr().err


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
            solved.append(solve(*args, **kwargs))
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
    for solver in (solve_once, rotated):
        monkeypatch.setattr("fermigas.cli.solve", solver)
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

    monkeypatch.setattr("fermigas.schrodinger.boxed_hamiltonian", no_solve)
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

    monkeypatch.setattr("fermigas.schrodinger.assemble_hamiltonian", no_build)
    monkeypatch.setattr("fermigas.schrodinger.eigensolve", no_build)
    code = main(["weyl", "--potential", potential, "--mu", "1", "--hbar", hbar])
    assert code == 1
    assert "GiB budget" in capsys.readouterr().err


def test_a_rows_only_solve_is_priced_without_its_eigenvectors(monkeypatch,
                                                              capsys):
    # x1^2 below mu = 100 at hbar = 4e-3: every row of the eigenvectors of
    # its 12,500 levels on 41,504 nodes and the DPP's copy of them come to
    # 7.7 GiB; converge-edge keeps 17 rows and is priced at their size and
    # the solve's scratch.  Its levels, 0.008 apart, each get a cluster
    class Solved(Exception):
        pass

    def solved(H, cap, grid, hbar, rows=None):
        assert len(rows) <= 17
        raise Solved

    def no_build(*args, **kwargs):
        raise AssertionError("a grid over the budget was assembled or solved")

    monkeypatch.setattr("fermigas.schrodinger.eigensolve", solved)
    with pytest.raises(Solved):
        main(["converge-edge", "--potential", "x1^2", "--mu", "100", "--x0",
              "10", "--hbar", "4e-3"])
    monkeypatch.setattr("fermigas.schrodinger.assemble_hamiltonian", no_build)
    monkeypatch.setattr("fermigas.schrodinger.eigensolve", no_build)
    assert main(["sample", "--potential", "x1^2", "--mu", "100", "--hbar",
                 "4e-3", "--seed", "1"]) == 1
    assert "7.73 GiB" in capsys.readouterr().err


def test_a_separable_2d_solve_is_priced_as_its_product_columns(
        tmp_path, monkeypatch, capsys):
    # x1^2 + x2^2 at hbar = 0.021 (242,000 nodes): the Lanczos price, 2.76
    # GiB, refused it, but the Kronecker path holds its (m, N) products and
    # one copy of them, 1.1 GB.  Its levels 0.042 (j + 1) avoid the cap:
    # 23 * 24 / 2 below it
    code, text = run(["weyl", "--potential", "x1^2+x2^2", "--mu", "1",
                      "--hbar", "0.021"], tmp_path)
    assert code == 0
    cols, rows = data_rows(text)
    assert rows[0][cols.index("count")] == "276"

    def no_build(*args, **kwargs):
        raise AssertionError("a grid over the budget was assembled or solved")

    monkeypatch.setattr("fermigas.schrodinger.assemble_hamiltonian", no_build)
    assert main(["weyl", "--potential", "x1^2+x2^2+0.1*x1*x2", "--mu", "1",
                 "--hbar", "0.021"]) == 1
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

    monkeypatch.setattr("fermigas.schrodinger.boxed_hamiltonian", no_solve)
    assert main(argv + ["--trials", "100001"]) == 1
    assert "at most 100000 trials" in capsys.readouterr().err
    assert _build_parser()[0].parse_args(argv + ["--trials", "100000"]).trials \
        == 100000


@pytest.mark.parametrize("argv", [
    ["sample"] + SOLVE + ["--seed", "-1"],
    ["clt"] + SOLVE + ["--function", "gaussian:width=0.2",
                       "--seed", "18446744073709551616"],
    ["lln"] + SOLVE + ["--seed", "-1"],
], ids=lambda argv: argv[0])
def test_a_seed_outside_64_bits_exits_one_before_solving(argv, monkeypatch,
                                                        capsys):
    # sample and clt took --seed as any int and refused it after the solve;
    # lln refused it before, but not as a usage error naming --seed
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran before the --seed check")

    monkeypatch.setattr("fermigas.schrodinger.boxed_hamiltonian", no_solve)
    assert main(argv) == 1
    assert "--seed" in capsys.readouterr().err
    top = ["--seed", str(2 ** 64 - 1)]
    assert _build_parser()[0].parse_args(argv[:-2] + top).seed == 2 ** 64 - 1


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


@pytest.mark.parametrize("flag, value", [("margin", "1"), ("resolution", "2")])
def test_removed_solver_flags_are_usage_errors(flag, value, tmp_path, capsys):
    # the box margin and the grid spacing factor are constants: neither is a
    # flag or a config key
    argv = WEYL + ["--mu", "1", "--hbar", "0.05"]
    assert main(argv + [f"--{flag}", value]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag}={value}\n")
    assert main(argv + ["--config", str(cfg)]) == 1
    assert "unknown config key" in capsys.readouterr().err


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


def _readme_commands():
    """Argument lists of the `fermigas ...` lines of the README's Command
    line block, in order."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line")[1]
    block = section.split("```sh")[1].split("```")[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("fermigas ")]


README_COMMANDS = _readme_commands()


def test_readme_commands_parse_and_cover_every_subcommand():
    parser, table = _build_parser()
    for argv in README_COMMANDS:  # a mismatch exits through the parser's error
        assert parser.parse_args(argv).subcommand == argv[0]
    assert {argv[0] for argv in README_COMMANDS} == set(table)


GOLDEN = Path(__file__).resolve().parent / "golden"


def _library_versions():
    """The VERSIONS lines of the libraries this process runs on."""
    import scipy

    lines = [f"numpy={np.__version__}", f"scipy={scipy.__version__}"]
    for name, module in (("numpy", np), ("scipy", scipy)):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        lines.append(f"{name}_blas={blas['name']} {blas['version']}")
    return lines


def _assert_golden(name, argv, tmp_path):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    if out.read_bytes() != (GOLDEN / f"{name}.csv").read_bytes():
        recorded = [line for line in
                    (GOLDEN / "VERSIONS").read_text().splitlines()
                    if not line.startswith("#")]
        pytest.fail(f"fermigas {shlex.join(argv)} no longer writes its golden "
                    f"CSV; recorded with {', '.join(recorded)}; this run has "
                    f"{', '.join(_library_versions())}")


@pytest.mark.parametrize(
    "k, argv", list(enumerate(README_COMMANDS)),
    ids=[f"{k:02d}_{argv[0]}" for k, argv in enumerate(README_COMMANDS)],
)
def test_readme_commands_reproduce_their_golden_csv(k, argv, tmp_path):
    # identical flags and seed must give identical bytes.  A change that
    # moves a CSV on purpose re-records it with
    #   fermigas <README line> --out tests/golden/<id>.csv
    # and names it in CHANGES.md; VERSIONS names the libraries recorded with
    _assert_golden(f"{k:02d}_{argv[0]}", argv, tmp_path)


# 2-D commands, recorded as the README ones are, under tests/golden/<id>.csv
KERNEL_2D = ["kernel", "--kind", "projector", "--n", "2", "--potential",
             "x1^2+2*x2^2", "--mu", "1", "--hbar", "0.1",
             "--window", "-0.5:0.5:0.25"]
GOLDEN_2D = {
    "2d_sample": ["sample", "--potential", "x1^2+x2^2", "--mu", "1",
                  "--hbar", "0.07", "--trials", "64", "--seed", "1"],
    "2d_weyl": ["weyl", "--potential", "x1^2+x2^2", "--mu", "1",
                "--hbar", "0.1,0.07"],
    "2d_kernel": KERNEL_2D,
}


@pytest.mark.parametrize("name", GOLDEN_2D)
def test_2d_commands_reproduce_their_golden_csv(name, tmp_path):
    _assert_golden(name, GOLDEN_2D[name], tmp_path)


# ---------------------------------------------------------------------------
# installed entry point


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(args, **env_vars):
    env = dict(os.environ, **env_vars)
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


def test_2d_kernel_bytes_do_not_depend_on_the_blas_threads():
    # the separable 2-D solve is two LAPACK tridiagonal solves and their
    # products; the CSV is the same on one BLAS thread and on two
    runs = [_run_python(["-m", "fermigas", *KERNEL_2D],
                        OPENBLAS_NUM_THREADS=threads) for threads in "12"]
    assert [p.returncode for p in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout


DEFERRED = ("scipy.signal", "scipy.interpolate", "scipy.ndimage")


def test_cli_import_defers_the_scipy_packages_of_one_command_each():
    # variance and seminorm use scipy.signal and agmon scipy.ndimage; no
    # module imports them, or scipy.interpolate, which nothing uses, at load
    # time.  scipy.stats, which clt loads with the CLI, brings in the last
    # two itself, so only scipy.signal stays out of sys.modules.
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

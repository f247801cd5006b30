"""The benchmark's workloads: CLI argument lists and output checks.

Each workload is one README command.  Its check reads the CSV the command
wrote and holds for every seed, so a failed check means the program is
wrong, not that the seed was unlucky.
"""

import math

# Trial counts.  mc_clt_1d draws enough samples that the sampler is over
# 90% of the call and p99 of the per-draw time has ten draws beyond it, and
# few enough that a run repeats the call several times; sample_2d draws
# enough that p80 has ten draws beyond it and that 64 configurations could
# be in flight at once.
CLT_TRIALS = 1000
SAMPLE_TRIALS = 64

# sample_2d grid, derived by hand from the command's flags: the droplet of
# x1^2 + x2^2 at level mu + margin = 2 has half-width sqrt(2), so the box is
# the next 0.5 step, L = 1.5; c_h * hbar^1.5 = 2 * 0.07^1.5 asks for 82
# points per axis, below the floor of 201, so the spacing is 2L / 200.
SAMPLE_BOX = 1.5
SAMPLE_POINTS_PER_AXIS = 201


def oscillator_count(hbar):
    """Levels of -hbar^2 Laplace + |x|^2 in 2-D at or below 1.

    The levels are 2 hbar (n1 + n2 + 1); m = n1 + n2 has m + 1 states.
    """
    top = math.floor(1.0 / (2.0 * hbar) - 1.0 + 1e-9)
    return (top + 1) * (top + 2) // 2 if top >= 0 else 0


def parse_csv(text):
    """(params, columns, rows) of a fermigas report; rows hold strings."""
    params = {}
    lines = text.splitlines()
    k = 0
    while k < len(lines) and lines[k].startswith("#"):
        key, _, value = lines[k][1:].strip().partition("=")
        params[key] = value
        k += 1
    if k == len(lines):
        raise ValueError("report has no column header")
    columns = lines[k].split(",")
    rows = [line.split(",") for line in lines[k + 1:] if line]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row {row!r} does not match columns {columns!r}")
    return params, columns, rows


def _column(columns, rows, name):
    return [float(row[columns.index(name)]) for row in rows]


def check_clt(text):
    params, columns, rows = parse_csv(text)
    if len(rows) != 1:
        return f"expected one result row, got {len(rows)}"
    trials = _column(columns, rows, "trials")[0]
    skew = _column(columns, rows, "skewness")[0]
    se = _column(columns, rows, "skewness_se")[0]
    exact = float(params["skew_exact"])
    if trials != CLT_TRIALS:
        return f"ran {trials:g} trials, asked for {CLT_TRIALS}"
    if not abs(skew - exact) <= 4.0 * se:
        return f"skewness {skew:.4g} is more than 4 se ({se:.3g}) from {exact:.4g}"
    return None


def check_sample(text):
    params, columns, rows = parse_csv(text)
    particles = int(params["particles"])
    expected = oscillator_count(0.07)
    if particles != expected:
        return f"particles={particles}, the oscillator count is {expected}"
    step = 2.0 * SAMPLE_BOX / (SAMPLE_POINTS_PER_AXIS - 1)
    per_trial = {}
    for row in rows:
        t = int(row[0])
        node = []
        for value in row[1:]:
            u = (float(value) + SAMPLE_BOX) / step
            k = round(u)
            if abs(u - k) > 1e-6 or not 1 <= k <= SAMPLE_POINTS_PER_AXIS - 2:
                return f"trial {t}: {value} is not an interior grid coordinate"
            node.append(k)
        per_trial.setdefault(t, []).append(tuple(node))
    if sorted(per_trial) != list(range(SAMPLE_TRIALS)):
        return f"trials present: {len(per_trial)}, expected {SAMPLE_TRIALS}"
    for t, nodes in per_trial.items():
        if len(nodes) != particles or len(set(nodes)) != particles:
            return f"trial {t} has {len(set(nodes))} distinct nodes, not {particles}"
    return None


def check_edge(text):
    _, columns, rows = parse_csv(text)
    hbar = _column(columns, rows, "hbar")
    err = _column(columns, rows, "sup_error")
    if hbar != [0.01, 0.00125]:
        return f"hbar column is {hbar}"
    ratio = err[1] / err[0]
    if not ratio <= 0.7:
        return f"error(0.00125) / error(0.01) = {ratio:.4g} > 0.7"
    return None


def check_weyl(text):
    _, columns, rows = parse_csv(text)
    hbar = _column(columns, rows, "hbar")
    counts = [int(c) for c in _column(columns, rows, "count")]
    expected = [oscillator_count(h) for h in hbar]
    if hbar != [0.1, 0.07] or counts != expected:
        return f"counts {counts} at hbar {hbar}, expected {expected}"
    return None


def cli_args(name, seed):
    """The CLI argument list of workload `name`, without --out."""
    if name == "mc_clt_1d":
        return ["clt", "--potential", "x1^2", "--mu", "1", "--hbar", "0.02",
                "--function", "gaussian:width=0.2",
                "--trials", str(CLT_TRIALS), "--seed", str(seed)]
    if name == "sample_2d":
        return ["sample", "--potential", "x1^2+x2^2", "--mu", "1",
                "--hbar", "0.07", "--trials", str(SAMPLE_TRIALS),
                "--seed", str(seed)]
    if name == "edge_1d":
        return ["converge-edge", "--potential", "x1^2", "--mu", "1",
                "--x0", "1", "--hbar", "0.01,0.00125"]
    if name == "weyl_2d":
        return ["weyl", "--potential", "x1^2+x2^2", "--mu", "1",
                "--hbar", "0.1,0.07"]
    raise KeyError(name)


CHECKS = {
    "mc_clt_1d": check_clt,
    "sample_2d": check_sample,
    "edge_1d": check_edge,
    "weyl_2d": check_weyl,
}

NAMES = tuple(CHECKS)

# The CSV of these workloads does not depend on the seed.
SEED_FREE = ("edge_1d", "weyl_2d")

"""Command-line front end: parse flags and config, dispatch, write CSV.

Exit codes: 0 on success, 1 for rejected input or a usage error, 2 when a
numerical routine fails on valid input.  Every report is a pure function
of (flags, config, seed), so rerunning a command reproduces its output
byte for byte.
"""

import argparse
import math
import re
import sys

import numpy as np

from .dpp import RngState, from_eigensystem, samples
from .errors import NumericalError, ValidationError
from .experiments import (
    ExperimentReport,
    TestFunction,
    _solve_window,
    bulk_convergence,
    clt_monte_carlo,
    edge_convergence,
    free_variance_asymptotic,
    free_variance_bruteforce,
    free_variance_exact,
    lln_wasserstein,
    sigma_fourier,
    sigma_n_squared,
    sigma_slobodeckij,
    weyl_check,
)
from .kernels import (
    KernelEvaluation,
    KernelKind,
    airy_kernel_1d,
    bulk_kernel,
    edge_kernel,
    free_laplacian_kernel,
)
from .potential import parse_potential
from .schrodinger import agmon_check, rescaled_kernel

class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to status 2; the contract here is 1.

    Values such as windows (-2:2:0.05) and negative coordinates start with
    a minus, so anything of the shape -<digit>... counts as a value: no
    option name here begins with a digit.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d|^-\.\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# most points a --window or --probes value may ask for: kernel tables hold
# one value per pair of points
_MAX_POINTS = 2001

# most coordinates a kernel --n may ask for: potentials stop at x3
_MAX_DIMENSION = 3

# most --trials a sampling command may ask for: every trial keeps its
# stream and its points, about 1 KB each, until the report is written
_MAX_TRIALS = 100_000


def _finite_float(text):
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _at_most(cap, noun):
    """A parser of positive integers up to cap."""
    def parse(text):
        value = _positive_int(text)
        if value > cap:
            raise argparse.ArgumentTypeError(f"at most {cap} {noun}, got {value}")
        return value
    return parse


def _float_list(text):
    values = [_finite_float(v) for v in text.split(",") if v != ""]
    if not values:
        raise argparse.ArgumentTypeError(f"empty float list: {text!r}")
    return values


def _axis_window(text):
    """a:b:step -> sample points a, a+step, ..., up to b inclusive."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected a:b:step, got {text!r}")
    a, b, step = (_finite_float(p) for p in parts)
    if step <= 0.0 or b < a:
        raise argparse.ArgumentTypeError(f"empty window {text!r}")
    # np.arange's own point count, taken before it allocates anything
    if not (b + 0.5 * step - a) / step <= _MAX_POINTS:
        raise argparse.ArgumentTypeError(
            f"window {text!r} has more than {_MAX_POINTS} points"
        )
    return np.arange(a, b + 0.5 * step, step)


def _pair_window(text):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}")
    lo, hi = (_finite_float(p) for p in parts)
    if hi <= lo:
        raise argparse.ArgumentTypeError(f"empty window {text!r}")
    return (lo, hi)


def _parse_function(spec, n):
    """Test-function grammar: kind:key=value,key=value.

    Kinds: gaussian (center, width), indicator (center, radius, smoothing),
    custom (expr, radius).  Vector centers separate components with ':', as
    in center=0:0.
    """
    def number(text):
        try:
            return _finite_float(text)
        except argparse.ArgumentTypeError as exc:
            raise ValidationError(f"test function: {exc}")

    kind, _, rest = spec.partition(":")
    entries = {}
    for item in rest.split(","):
        if not item:
            continue
        if "=" not in item:
            raise ValidationError(f"malformed test-function entry {item!r}")
        key, _, value = item.partition("=")
        entries[key.strip()] = value.strip()

    def center(default=0.0):
        raw = entries.pop("center", None)
        if raw is None:
            return np.full(n, default)
        comps = [number(c) for c in raw.split(":")]
        if len(comps) != n:
            raise ValidationError(
                f"center has {len(comps)} components for dimension {n}"
            )
        return np.asarray(comps)

    if kind == "gaussian":
        c = center()
        width = number(entries.pop("width", 1.0))
        fn = TestFunction.gaussian_bump(n, c, width)
    elif kind == "indicator":
        c = center()
        radius = number(entries.pop("radius", 1.0))
        smoothing = number(entries.pop("smoothing", 0.5))
        fn = TestFunction.smooth_indicator(n, c, radius, smoothing)
    elif kind == "custom":
        if "expr" not in entries:
            raise ValidationError("custom test function needs expr=...")
        expr = parse_potential(entries.pop("expr"))
        if expr.dimension != n:
            raise ValidationError(
                f"expression dimension {expr.dimension} does not match --n {n}"
            )
        radius = number(entries.pop("radius", 10.0))
        fn = TestFunction.custom(expr, radius)
    else:
        raise ValidationError(f"unknown test-function kind {kind!r}")
    if entries:
        raise ValidationError(
            f"unknown test-function keys: {', '.join(sorted(entries))}"
        )
    return fn


# ---------------------------------------------------------------------------
# subcommand runners


def _grid_potential(text):
    """A potential for a grid solve: grids exist in 1-D and 2-D only."""
    V = parse_potential(text)
    if V.dimension > 2:
        raise ValidationError(f"the potential has dimension {V.dimension}; "
                              "grid solves support dimensions 1 and 2")
    return V


def _run_weyl(args):
    V = _grid_potential(args.potential)
    rep = weyl_check(
        V, args.mu, args.hbar, margin=args.margin, c_h=args.resolution
    )
    return rep.to_csv()


def _run_kernel(args):
    n = args.n
    ax = args.window
    pts = np.zeros((ax.size, n))
    pts[:, 0] = ax
    if args.kind == "projector":
        if args.potential is None or args.hbar is None:
            raise ValidationError(
                "kernel --kind projector needs --potential and --hbar"
            )
        V = _grid_potential(args.potential)
        if V.dimension != n:
            raise ValidationError("--n disagrees with the potential dimension")
        eigs = _solve_window(
            V, args.mu, args.hbar, margin=args.margin, c_h=args.resolution
        )
        return rescaled_kernel(eigs, args.mu, pts).to_csv()
    if args.kind in ("sine", "airy") and n != 1:
        raise ValidationError(f"the {args.kind} kernel is one-dimensional")
    kind, params, fn = {
        "bulk": (KernelKind.BULK, {}, lambda x, y: bulk_kernel(n, x, y)),
        "sine": (KernelKind.SINE_1D, {}, lambda x, y: bulk_kernel(1, x, y)),
        "airy": (
            KernelKind.AIRY_1D, {},
            lambda x, y: airy_kernel_1d(x[..., 0], y[..., 0]),
        ),
        "free": (
            KernelKind.FREE_LAPLACIAN, {"mu": args.mu},
            lambda x, y: free_laplacian_kernel(n, args.mu, x, y),
        ),
        "edge": (KernelKind.EDGE, {}, lambda x, y: edge_kernel(n, x, y)),
    }[args.kind]
    values = fn(pts[:, None], pts[None, :])
    return KernelEvaluation(kind, n, params, pts, pts, values).to_csv()


def _run_converge(args):
    V = _grid_potential(args.potential)
    rep = args.driver(
        V,
        args.mu,
        args.x0,
        args.hbar,
        window=args.window,
        probes=args.probes,
        margin=args.margin,
        c_h=args.resolution,
    )
    return rep.to_csv()


def _run_sample(args):
    V = _grid_potential(args.potential)
    eigs = _solve_window(
        V, args.mu, args.hbar, margin=args.margin, c_h=args.resolution
    )
    dpp = from_eigensystem(eigs, args.mu)
    rng = RngState(args.seed)
    n = V.dimension
    rows = []
    configs = samples(dpp, [rng.stream(t) for t in range(args.trials)])
    for t, config in enumerate(configs):
        for pt in config.points:
            rows.append((t,) + tuple(float(c) for c in pt))
    rep = ExperimentReport(
        "sample",
        ("trial",) + tuple(f"x{k + 1}" for k in range(n)),
        rows,
        params={
            "potential": V.to_text(),
            "mu": float(args.mu),
            "hbar": float(args.hbar),
            "trials": args.trials,
            "particles": dpp.N,
        },
        seed=args.seed,
    )
    return rep.to_csv()


def _run_variance(args):
    g = _parse_function(args.function, args.n)
    # first: it refuses a mu whose lattice cannot fit before any work
    brute = free_variance_bruteforce(args.n, args.mu, g)
    exact = free_variance_exact(args.n, args.mu, g)
    asym = free_variance_asymptotic(args.n, args.mu, g)
    gap = abs(exact - brute) / exact if exact > 0.0 else math.nan
    rep = ExperimentReport(
        "free_variance",
        ("mu", "exact", "bruteforce", "asymptotic", "rel_gap"),
        [(float(args.mu), exact, brute, asym, gap)],
        params={"n": args.n, "function": args.function},
    )
    return rep.to_csv()


def _run_seminorm(args):
    g = _parse_function(args.function, args.n)
    fourier = sigma_fourier(g)
    slobodeckij = sigma_slobodeckij(g)
    scale = (2.0 * math.pi) ** (args.n + 1) * sigma_n_squared(args.n)
    duality = slobodeckij / (scale * fourier) if fourier > 0.0 else math.nan
    rep = ExperimentReport(
        "seminorm",
        ("sigma_fourier", "slobodeckij", "duality_ratio"),
        [(fourier, slobodeckij, duality)],
        params={"n": args.n, "function": args.function},
    )
    return rep.to_csv()


def _run_clt(args):
    V = _grid_potential(args.potential)
    eigs = _solve_window(
        V, args.mu, args.hbar, margin=args.margin, c_h=args.resolution
    )
    dpp = from_eigensystem(eigs, args.mu)
    g = _parse_function(args.function, V.dimension)
    rep = clt_monte_carlo(dpp, g(dpp.nodes), args.trials, RngState(args.seed))
    rep.params["potential"] = V.to_text()
    rep.params["mu"] = float(args.mu)
    rep.params["hbar"] = float(args.hbar)
    rep.params["function"] = args.function
    return rep.to_csv()


def _run_lln(args):
    V = _grid_potential(args.potential)
    rep = lln_wasserstein(
        V,
        args.mu,
        args.hbar,
        args.trials,
        RngState(args.seed),
        margin=args.margin,
        c_h=args.resolution,
    )
    return rep.to_csv()


def _run_agmon(args):
    V = _grid_potential(args.potential)
    if not 0.0 < args.delta <= 1.0:
        raise ValidationError("delta must lie in (0, 1]")
    eigs = _solve_window(
        V, args.mu + args.delta, args.hbar,
        margin=args.margin, c_h=args.resolution,
    )
    rep = agmon_check(eigs, V, args.mu, args.delta)
    rows = [
        (float(lam), float(norm), rep.bound)
        for lam, norm in zip(rep.eigenvalues, rep.norms)
    ]
    out = ExperimentReport(
        "agmon_check",
        ("eigenvalue", "weighted_norm", "bound"),
        rows,
        params={
            "potential": V.to_text(),
            "mu": float(args.mu),
            "hbar": float(args.hbar),
            "delta": float(args.delta),
        },
    )
    return out.to_csv()


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser():
    common = _Parser(add_help=False)
    common.add_argument(
        "--config",
        help="key=value file supplying defaults; explicit flags win",
    )
    common.add_argument(
        "--out", help="output path (default: stdout)"
    )
    solver = _Parser(add_help=False)
    solver.add_argument(
        "--margin", type=_finite_float, default=1.0,
        help="energy margin fixing the computational box (default 1.0)",
    )
    solver.add_argument(
        "--resolution", type=_finite_float, default=2.0,
        help="grid spacing prefactor of hbar^{3/2} (default 2.0)",
    )

    parser = _Parser(
        prog="fermigas",
        description="Numerical experiments on semiclassical free fermions.",
    )
    subs = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    trials = _at_most(_MAX_TRIALS, "trials")
    table = {}

    def add(name, runner, helptext, parents):
        sp = subs.add_parser(name, help=helptext, parents=parents)
        sp.set_defaults(runner=runner)
        table[name] = sp
        return sp

    sp = add("weyl", _run_weyl, "eigenvalue counts against the phase-space volume",
             [common, solver])
    sp.add_argument("--potential", required=True, help="potential expression")
    sp.add_argument("--mu", type=_finite_float, required=True,
                    help="Fermi energy")
    sp.add_argument("--hbar", type=_float_list, required=True,
                    help="comma-separated hbar values")

    sp = add("kernel", _run_kernel, "tabulate a limiting or numeric kernel",
             [common, solver])
    sp.add_argument("--kind", required=True,
                    choices=["bulk", "edge", "free", "sine", "airy", "projector"])
    sp.add_argument("--n", type=_at_most(_MAX_DIMENSION, "dimensions"),
                    default=1, help="dimension (default 1)")
    sp.add_argument("--mu", type=_finite_float, default=1.0,
                    help="energy for free/projector kinds (default 1.0)")
    sp.add_argument("--window", type=_axis_window, default="-2:2:0.1",
                    help="a:b:step points along the first axis (default -2:2:0.1)")
    sp.add_argument("--potential", help="potential, projector kind only")
    sp.add_argument("--hbar", type=_finite_float,
                    help="hbar, projector kind only")

    for target, driver, deftext in (
        ("bulk", bulk_convergence, "-2:2"),
        ("edge", edge_convergence, "-4:2"),
    ):
        sp = add(f"converge-{target}", _run_converge,
                 f"rescaled projector against the {target} limit",
                 [common, solver])
        sp.set_defaults(driver=driver)
        sp.add_argument("--potential", required=True)
        sp.add_argument("--mu", type=_finite_float, required=True)
        sp.add_argument("--x0", type=_float_list, required=True,
                        help="comma-separated reference point")
        sp.add_argument("--hbar", type=_float_list, required=True)
        sp.add_argument("--window", type=_pair_window, default=deftext,
                        help=f"lo:hi probe window (default {deftext})")
        sp.add_argument("--probes", type=_at_most(_MAX_POINTS, "points"),
                        default=17)

    sp = add("sample", _run_sample, "draw exact point configurations",
             [common, solver])
    sp.add_argument("--potential", required=True)
    sp.add_argument("--mu", type=_finite_float, required=True)
    sp.add_argument("--hbar", type=_finite_float, required=True)
    sp.add_argument("--trials", type=trials, default=1)
    sp.add_argument("--seed", type=int, required=True)

    sp = add("variance", _run_variance,
             "free-kernel variance: exact, brute-force, asymptotic", [common])
    sp.add_argument("--n", type=_positive_int, default=1)
    sp.add_argument("--mu", type=_finite_float, required=True)
    sp.add_argument("--function", required=True,
                    help="kind:key=value,... e.g. gaussian:width=0.5")

    sp = add("seminorm", _run_seminorm,
             "H^{1/2} seminorm by Fourier and Slobodeckij routes", [common])
    sp.add_argument("--n", type=_positive_int, default=1)
    sp.add_argument("--function", required=True)

    sp = add("clt", _run_clt, "Monte-Carlo normality of a linear statistic",
             [common, solver])
    sp.add_argument("--potential", required=True)
    sp.add_argument("--mu", type=_finite_float, required=True)
    sp.add_argument("--hbar", type=_finite_float, required=True)
    sp.add_argument("--function", required=True)
    sp.add_argument("--trials", type=trials, default=1000)
    sp.add_argument("--seed", type=int, required=True)

    sp = add("lln", _run_lln, "Wasserstein distance to the limiting density",
             [common, solver])
    sp.add_argument("--potential", required=True)
    sp.add_argument("--mu", type=_finite_float, required=True)
    sp.add_argument("--hbar", type=_float_list, required=True)
    sp.add_argument("--trials", type=trials, default=100)
    sp.add_argument("--seed", type=int, required=True)

    sp = add("agmon", _run_agmon, "weighted-norm bound outside the droplet",
             [common, solver])
    sp.add_argument("--potential", required=True)
    sp.add_argument("--mu", type=_finite_float, required=True)
    sp.add_argument("--hbar", type=_finite_float, required=True)
    sp.add_argument("--delta", type=_finite_float, default=0.2)

    return parser, table


def _load_config(path):
    pairs = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValidationError(
                        f"{path}:{lineno}: expected key=value, got {line!r}"
                    )
                key, _, value = line.partition("=")
                pairs.append((key.strip(), value.strip()))
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}")
    return pairs


def _inject_config(argv, table):
    """Convert config pairs into flags placed before the explicit ones.

    argparse keeps the last occurrence of a repeated flag, so anything
    given on the command line overrides its config counterpart.
    """
    sub = next((a for a in argv if not a.startswith("-")), None)
    path = None
    for i, a in enumerate(argv):
        if a == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif a.startswith("--config="):
            path = a.split("=", 1)[1]
    if path is None or sub not in table:
        return argv
    allowed = set(table[sub]._option_string_actions)
    injected = []
    for key, value in _load_config(path):
        flag = "--" + key.replace("_", "-")
        if flag == "--config" or flag not in allowed:
            raise ValidationError(f"unknown config key {key!r} for {sub!r}")
        injected.extend([flag, value])
    at = argv.index(sub) + 1
    return argv[:at] + injected + argv[at:]


def _write_out(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, table = _build_parser()
    try:
        argv = _inject_config(argv, table)
        args = parser.parse_args(argv)
        if getattr(args, "runner", None) is None:
            parser.print_help(sys.stderr)
            return 1
        text = args.runner(args)
        _write_out(text, args.out)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        if exc.code is None:
            return 0
        return exc.code if isinstance(exc.code, int) else 1
    return 0

"""End-to-end benchmark of the fermigas command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; NAME is one of the workloads in
workloads.py, or `all` to run each in turn.  Load is a closed loop from one
process: one CLI call at a time, each in a fresh interpreter, so that no
in-process cache (the Weyl-constant table, ARPACK's start-vector seed)
carries over from one repetition to the next.  Children run with the BLAS
thread count pinned to BLAS_THREADS.

With --trace 0 the run repeats the workload's CLI call for about S seconds
(at least twice) and reports the median `wall_s` (time inside
`cli.main`), the median `setup_s` (process start until `fermigas.cli` is
imported, from the repetitions plus SETUP_PROBES import-only processes) and
the median `peak_rss_mb`.  With --trace 1 it makes untraced calls, leaving
room for one traced call, and reports the per-layer metrics of the traced
call, its `trace_wall_s`, and `trace_overhead_s` = trace_wall_s - the
untraced median.

Every call's CSV is checked (see workloads.py); a call that exits non-zero
or fails its check counts in `failed`, and error_rate = failed / attempted.
The medians cover every call that ran, failed or not; any failure makes the
result read `"correct": false`.
Each CSV's sha256 is compared with reference.json, for information only.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
# at most nproc on any machine; eigsh and per-draw times and the last digits
# of some CSVs shift with the BLAS thread count, and reference.json is at 1
BLAS_THREADS = 1
SETUP_PROBES = 1
CHILD_TIMEOUT_S = 170
# a traced call is given this multiple of the slowest untraced call
TRACE_ALLOWANCE = 1.3

MATCH = {True: "match", False: "differs", None: "none"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def machine():
    """CPU count, CPU model and the BLAS threads children run with."""
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "blas_threads": BLAS_THREADS}


def spawn(mode, record, cli_argv):
    """Run child.py; returns (record dict or None, seconds it took, the
    tail of its stderr).  setup_s counts from just before the spawn."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(record)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + cli_argv, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        err = proc.stderr
    except subprocess.TimeoutExpired:
        err = f"timed out after {CHILD_TIMEOUT_S} s"
    elapsed = time.monotonic() - spawned
    if not record.exists():
        return None, elapsed, err.strip()[-2000:]
    with open(record, encoding="utf-8") as fh:
        data = json.load(fh)
    data["setup_s"] = data["ready"] - spawned
    return data, elapsed, err.strip()[-2000:]


class Run:
    """The repetitions of one workload at one seed."""

    def __init__(self, name, seed, workdir, reference):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.reps = []       # records of the untraced calls that ran
        self.setups = []     # setup_s of every child, probes included
        self.attempted = 0
        self.failed = 0
        self.versions = None

    def call(self, mode):
        """One CLI call of the workload; returns its record (or None)."""
        k = self.attempted
        self.attempted += 1
        out = self.workdir / f"{mode}-{k}.csv"
        argv = workloads.cli_args(self.name, self.seed) + ["--out", str(out)]
        rec, elapsed, err = spawn(mode, self.workdir / f"{mode}-{k}.json", argv)
        problem = None
        if rec is None:
            problem = f"no record: {err}"
        elif rec["rc"] != 0:
            problem = f"exit code {rec['rc']}: {err}"
        elif not out.exists():
            problem = "no CSV written"
        else:
            text = out.read_text(encoding="utf-8")
            try:
                problem = workloads.CHECKS[self.name](text)
            except (ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable CSV: {exc!r}"
        if rec is None:
            self.failed += 1
            print(f"{self.name} {mode} #{k}: FAILED {problem}")
            return None
        rec["elapsed"] = elapsed
        rec["sha256"] = digest = (
            hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        )
        expected = self.expected_digest()
        rec["digest_match"] = None if expected is None else digest == expected
        rec["problem"] = problem
        self.versions = rec["versions"]
        if problem is not None:
            self.failed += 1
        print(
            f"{self.name} {mode} #{k}: wall_s={rec['wall_s']:.4f} "
            f"setup_s={rec['setup_s']:.4f} peak_rss_mb={rec['peak_rss_mb']:.1f} "
            f"check={'ok' if problem is None else 'FAILED ' + problem} "
            f"sha256={digest} reference={MATCH[rec['digest_match']]}"
        )
        return rec

    def expected_digest(self):
        """The reference digest at this seed and BLAS thread count, if any."""
        if self.reference.get("blas_threads") != BLAS_THREADS:
            return None
        table = self.reference["digests"].get(self.name, {})
        key = "any" if self.name in workloads.SEED_FREE else str(self.seed)
        return table.get(key)

    def untraced(self, deadline, min_reps, reserve):
        """Untraced calls until the next one (plus `reserve` times its
        length) would pass the deadline, but at least min_reps of them."""
        while True:
            rec = self.call("run")
            if rec is not None:
                self.reps.append(rec)
                self.setups.append(rec["setup_s"])
            longest = max([r["elapsed"] for r in self.reps], default=0.0)
            # stop retrying a call that keeps failing
            done = len(self.reps) >= min_reps or self.attempted >= 2 * min_reps
            if done and time.monotonic() + longest * (1.0 + reserve) > deadline:
                return

    def probe_setup(self):
        for k in range(SETUP_PROBES):
            rec, _, err = spawn("setup", self.workdir / f"setup-{k}.json", [])
            if rec is None:
                raise RuntimeError(f"import-only child failed: {err}")
            self.setups.append(rec["setup_s"])


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def measure(name, seed, seconds, trace, reference):
    """Run one workload; returns (metrics {name: (value, unit)}, run)."""
    start = time.monotonic()
    deadline = start + seconds
    workdir = SCRATCH / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(name, seed, workdir, reference)
    try:
        if not trace:
            run.probe_setup()
            run.untraced(deadline, min_reps=2, reserve=0.0)
            if not run.reps:
                return None, run
            metrics = {
                "wall_s": (median_of(run.reps, "wall_s"), "s"),
                "setup_s": (statistics.median(run.setups), "s"),
                "peak_rss_mb": (median_of(run.reps, "peak_rss_mb"), "MB"),
            }
        else:
            run.untraced(deadline, min_reps=1, reserve=TRACE_ALLOWANCE)
            traced = run.call("trace")
            if not run.reps or traced is None:
                return None, run
            layers = dict(traced["layers"])
            layers["trace_wall_s"] = traced["wall_s"]
            layers["trace_overhead_s"] = (
                traced["wall_s"] - median_of(run.reps, "wall_s")
            )
            units = dict(tracer.PER_LAYER)
            metrics = {key: (layers[key], units[key]) for key, _ in tracer.PER_LAYER}
            spans = workdir / f"trace-{run.attempted - 1}.json.spans.npz"
            if spans.exists():
                shutil.copyfile(spans, SCRATCH / f"{name}-seed{seed}.spans.npz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{name}: {len(run.reps)} untraced calls, {run.attempted} attempted, "
          f"{run.failed} failed, error_rate={run.failed / run.attempted:.4g} ratio, "
          f"{time.monotonic() - start:.1f} s")
    digests = {r["sha256"] for r in run.reps}
    print(f"{name}: {len(digests)} distinct CSV digest(s) over the untraced calls")
    return metrics, run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fermigas" / "cli.py").is_file():
        print(f"error: no fermigas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, versions = {}, 0, 0, None
    for name in names:
        got, run = measure(name, args.seed, args.seconds, args.trace, reference)
        attempted += run.attempted
        failed += run.failed
        versions = versions or run.versions
        if got is None:
            print(f"error: {name} produced no measurement", file=sys.stderr)
            return 1
        prefix = f"{name}/" if args.workload == "all" else ""
        for key, (value, unit) in got.items():
            print(f"{prefix}{key} = {value:.6g} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
        if not args.trace:
            print(f"{prefix}error_rate = {run.failed / run.attempted:.6g} ratio")
    print("environment " + json.dumps({**machine(), **(versions or {})}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

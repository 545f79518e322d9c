"""ringadmm benchmark: one workload per process, every op through the CLI.

    python3 perfbench/run.py --workload runs --seed 1 --seconds 30 --trace 0

Workloads (see README.md): `runs` (single `ringadmm run` ops over every
solver variant), `attacks` (`ringadmm attack` ops on transcripts recorded
during set-up) and `sweep` (`ringadmm sweep` ops over grids of short runs).

The timed loop is closed, with one client: each op is a call of
`ringadmm.cli.main(argv)` in this process, and the next starts when it
returns.  Ops run until `--seconds` have passed.  Outputs are checked after
the loop, so checking costs no op time.  Op times are divided by the host's
slowdown, measured with a reference kernel between ops (see REFERENCE_S).
With `--trace 1` the loop runs for half the time untraced, then the same
ops run again with per-layer tracing; the per-layer metrics and the tracing
overhead come from that pair.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  An op fails if it exits
non-zero or its output check fails; `correct` is false only when an op
exited 0 with wrong output.  An op that stops on the program's known
defect (see `Op.known_defect` in workloads.py) is not ok, so it lowers
`ok_frac` and `ops_per_s`, but it is not counted in `failed`.  A fuller
record, with the environment, goes to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import os

# pin BLAS before numpy can be imported
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import LAYER_SELF, Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("runs", "attacks", "sweep")
TAIL = 10  # ops that must lie beyond the reported upper percentile

# The host's speed can drift by a factor of three over tens of seconds, the
# same for every CPU-bound job on it.  A fixed reference kernel runs before
# each op; its time over REFERENCE_S is the host's slowdown around that op,
# and every reported time is divided by it.  REFERENCE_S is the kernel's time
# on a 2-vCPU x86_64 VM (Python 3.11, numpy 2.4) in its fast phase, so the
# figures read as seconds on that machine at full speed.
REFERENCE_ITERS = 500
REFERENCE_S = 0.006
SLOWDOWN_WINDOW = 3  # kernel runs on each side of an op in its slowdown median

# Fresh-interpreter import time moves with the host in the same way, but it
# does not follow REFERENCE_S's kernel.  It follows a reference import of the
# package's own dependencies: package / reference import time stays within a
# few percent while either alone moves by 40%.  The package's import time is
# that ratio times REFERENCE_IMPORT_S, the reference import's time on the same
# VM in its fast phase.
PACKAGE_IMPORT = "import sys; sys.path.insert(0, sys.argv[1]); import ringadmm.cli, ringadmm.harness"
REFERENCE_IMPORT = "import numpy, scipy.sparse"
REFERENCE_IMPORT_S = 0.30
IMPORT_PAIRS = 6

STDERR_FILE = "bench_stderr.txt"
# op outcomes: passed its check; stopped on the program's known defect;
# exited non-zero otherwise; exited 0 with wrong output
OK, KNOWN_DEFECT, FAILED, WRONG = "ok", "known_defect", "failed", "wrong"


def import_seconds(code: str) -> float:
    """Wall time of a fresh interpreter that runs the import statement `code`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, SRC], check=True)
    return time.perf_counter() - t0


def import_ratio() -> tuple[float, list]:
    """Package import time over a reference import, as the median over
    IMPORT_PAIRS back-to-back pairs.  Returns (ratio, [[package s, reference s]])."""
    pairs = [[import_seconds(PACKAGE_IMPORT), import_seconds(REFERENCE_IMPORT)]
             for _ in range(IMPORT_PAIRS)]
    return statistics.median(p / r for p, r in pairs), pairs


def reference_kernel() -> float:
    """Seconds for a fixed mix of tiny numpy solves and Python arithmetic,
    the same kind of work as a solver step, independent of the package."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    eye = np.eye(2)
    acc = 0.0
    for i in range(REFERENCE_ITERS):
        x = np.linalg.solve(a + 0.1 * eye, np.array([1.0, float(i % 7)]))
        acc += float(np.sqrt(np.einsum("i,i->", x, x)))
    return time.perf_counter() - t0


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
    }


def setup(workload: str, seed: int, work: str, size: str):
    """Write the inputs.  Returns (op pool, set-up seconds, raw set-up record).

    Set-up is importing the package and writing the inputs.  The import time
    is IMPORT_PAIRS samples scaled by a reference import (see
    REFERENCE_IMPORT_S).  The inputs are written in SETUP_PARTS parts; each is
    divided by the slowdown measured on both sides of it, and the median part
    counts SETUP_PARTS times.
    """
    ratio, pairs = import_ratio()
    kernel_s = [reference_kernel() for _ in range(SLOWDOWN_WINDOW)]
    parts, part_s, raw_part_s = [], [], []
    for part in range(workloads.SETUP_PARTS):
        t0 = time.perf_counter()
        parts.append(workloads.setup_part(workload, seed, part, work, size))
        took = time.perf_counter() - t0
        kernel_s += [reference_kernel() for _ in range(SLOWDOWN_WINDOW)]
        slowdown = statistics.median(kernel_s[-2 * SLOWDOWN_WINDOW:]) / REFERENCE_S
        raw_part_s.append(took)
        part_s.append(took / slowdown)
    import_s = ratio * REFERENCE_IMPORT_S
    raw = {"import_s": import_s, "import_pairs_s": pairs, "part_s": part_s,
           "raw_part_s": raw_part_s}
    return (workloads.interleave(parts),
            import_s + workloads.SETUP_PARTS * statistics.median(part_s), raw)


def run_ops(cli_main, ops, out_root, seconds=None, count=None, min_ops=0, start=0):
    """Closed loop over the op pool, cycling through it from `ops[start]`.

    Stops after `count` ops, or once `seconds` have passed and at least
    `min_ops` ops ran.  The reference kernel runs before each op and after
    the last.  A record is
    [op, output dir, exit code, op seconds, host slowdown around the op].
    A failed op's standard error goes to STDERR_FILE in its output dir.
    """
    records, kernel_s = [], [reference_kernel()]
    t_start = time.perf_counter()
    while True:
        i = len(records)
        if count is not None and i >= count:
            break
        if count is None and i >= min_ops and time.perf_counter() - t_start >= seconds:
            break
        op = ops[(start + i) % len(ops)]
        out = os.path.join(out_root, str(i))
        err = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                rc = cli_main(op.argv + ["--out", out])
            except SystemExit as exc:  # argparse rejects the argv
                rc = exc.code if isinstance(exc.code, int) else 1
        records.append([op, out, rc, time.perf_counter() - t0])
        if rc != 0:
            os.makedirs(out, exist_ok=True)
            with open(os.path.join(out, STDERR_FILE), "w") as fh:
                fh.write(err.getvalue())
        kernel_s.append(reference_kernel())
    w = SLOWDOWN_WINDOW
    for i, rec in enumerate(records):
        rec.append(statistics.median(kernel_s[max(0, i + 1 - w): i + 1 + w]) / REFERENCE_S)
    return records


def check(records):
    """Check every op's output.  Returns a list with, for each record,
    (comm units, OK) or (None, KNOWN_DEFECT, FAILED or WRONG)."""
    outcomes = []
    for op, out, rc, *_ in records:
        if rc != 0:
            try:
                with open(os.path.join(out, STDERR_FILE)) as fh:
                    err = fh.read()
            except OSError:
                err = ""
            known = op.known_defect is not None and rc == 2 and op.known_defect.search(err)
            if not known:
                print(f"op failed: {op.label} in {out}: exit {rc}: {err.strip()}",
                      file=sys.stderr)
            outcomes.append((None, KNOWN_DEFECT if known else FAILED))
            continue
        try:
            outcomes.append((op.check(out), OK))
        except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
            print(f"check failed: {op.label} in {out}: {exc}", file=sys.stderr)
            outcomes.append((None, WRONG))
    return outcomes


def op_seconds(records) -> list[float]:
    """Op times divided by the host slowdown around each op."""
    return [r[3] / r[4] for r in records]


def end_to_end(records, units, setup_s):
    times = op_seconds(records)
    ok = [u for u in units if u is not None]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ok) / sum(times), "1/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_p75_s": (statistics.quantiles(times, n=4, method="inclusive")[2], "s"),
        "comm_units_per_s": (sum(ok) / sum(times), "1/s"),
        "ok_frac": (len(ok) / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_table(metrics) -> str:
    """Each layer's self time next to the op wall time, per op."""
    wall = metrics["trace.op_wall_s"][0]
    lines = [f"{'self time per op':<28}{'seconds':>12}{'share':>9}"]
    for name in [*LAYER_SELF.values(), "trace.uncovered_s", "trace.op_wall_s"]:
        value = metrics[name][0]
        lines.append(f"{name:<28}{value:>12.6f}{value / wall:>9.1%}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every op, for the benchmark's self-tests")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "ringadmm")):
        print(f"benchmark: no ringadmm sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    import ringadmm.cli
    import ringadmm.harness  # noqa: F401  (the CLI imports it on first use)

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    env = environment(args)
    print(json.dumps({"environment": env}))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        ops, setup_s, setup_raw = setup(args.workload, args.seed, work, args.size)
        min_ops = 4 * TAIL
        if not args.trace:
            records = run_ops(ringadmm.cli.main, ops, os.path.join(work, "out"),
                                      seconds=args.seconds, min_ops=min_ops)
            outcomes = check(records)
            metrics = end_to_end(records, [u for u, _ in outcomes], setup_s)
        else:
            first = run_ops(ringadmm.cli.main, ops, os.path.join(work, "plain"),
                                     seconds=args.seconds / 2, min_ops=min_ops // 2)
            if len(first) % len(ops) == 1 and len(ops) > 1:
                # the replay starts with ops[0]; the harness caches the last
                # regenerated run, so the op before it must differ
                first += run_ops(ringadmm.cli.main, ops, os.path.join(work, "tail"),
                                 count=1, start=len(first))
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_ops(ringadmm.cli.main, ops,
                                           os.path.join(work, "traced"), count=len(first))
            finally:
                tracer.uninstall()
            records = first + traced
            outcomes = check(records)
            slowdown = statistics.median(r[4] for r in traced)
            metrics = layer_metrics(tracer, len(traced), sum(r[3] for r in traced), slowdown)
            metrics["host.slowdown"] = (slowdown, "ratio")
            metrics["trace.overhead_frac"] = (
                sum(op_seconds(traced)) / sum(op_seconds(first)) - 1.0, "ratio")
            print(layer_table(metrics), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    count = {k: sum(1 for _, o in outcomes if o == k)
             for k in (OK, KNOWN_DEFECT, FAILED, WRONG)}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"ops: {count[OK]} ok, {count[KNOWN_DEFECT]} known defect, "
          f"{count[FAILED]} failed, {count[WRONG]} wrong")
    result = {
        "correct": count[WRONG] == 0,
        "attempted": len(records),
        "failed": count[FAILED] + count[WRONG],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    by_label: dict[str, list] = {}
    for (op, _, rc, sec, slow), (_, outcome) in zip(records, outcomes):
        by_label.setdefault(op.label, []).append([rc, outcome, round(sec, 6),
                                                  round(slow, 4)])
    record = {"environment": env, "result": result, "outcomes": count,
              "setup": setup_raw, "ops": by_label}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""qselci benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload is set up from the
seed, then ops run one at a time (a closed loop with one client) while the
next op is expected to end within ``--seconds``.  At least ``MIN_OPS`` and
the workload's ``accuracy_ops`` ops run, whatever the time budget; the accuracy
figures average exactly those ops, so they repeat for a seed.
Every op's output is checked.

``--trace 0`` prints the end-to-end metrics declared in BENCHMARK.json;
setup is repeated in fresh processes and ``setup_s`` is the median.
``setup_s`` and ``op_p50_s`` are times at nominal machine speed: a fixed
reference computation is timed while the work runs and the wall time is
rescaled by it (benchmarks/reference.py), so that drift in the host's
speed cancels.  Wall times are printed, and the traced run reports the op
wall-time median as ``op.wall_p50_s``.
``--trace 1`` wraps qselci's public functions (benchmarks/spans.py), runs
each op once untraced and once traced, and prints the per-layer metrics,
including the tracing overhead.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The run
environment and, for traced runs, the spans go to benchmarks/out/.

BLAS and OpenMP pools are fixed at one thread before numpy is imported.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from typing import NamedTuple  # noqa: E402

import spans  # noqa: E402
from reference import NOMINAL_S, SpeedGauge, nominal_seconds  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
MAX_OPS = 4096
MIN_OPS = 3  # ops every run makes, whatever --seconds allows
SETUP_TIMEOUT_S = 170
_MODULE_START = time.perf_counter()


def process_age():
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _MODULE_START


def load_declarations():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile_info(times):
    """The highest whole percentile with at least ten ops beyond it, or None
    below 20 ops (nearest-rank)."""
    n = len(times)
    if n < 20:
        return None
    q = int(100 * (n - 10) / n)
    ordered = sorted(times)
    rank = max(1, -(-q * n // 100))
    return q, ordered[rank - 1]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(args, n_ops):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "trace": args.trace,
        "ops": n_ops,
    }


class OpResult(NamedTuple):
    seconds: float  # wall time, less the speed gauge's own samples
    errors: list  # failed output checks
    values: dict  # per-op figures from the workload's check
    ref_s: float = None  # mean reference time during the op (gauged ops)

    @property
    def nominal_s(self):
        return nominal_seconds(self.seconds, self.ref_s)


def timed_op(workload, i, seed, gauge=None):
    """Op ``i``, checked; an op that raises counts as failed.  With a
    ``SpeedGauge`` the reference computation is sampled while it runs."""
    error = None
    t0 = time.perf_counter()
    with gauge if gauge is not None else contextlib.nullcontext():
        try:
            output = workload.op(i, seed)
        except Exception as exc:
            traceback.print_exc()
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
    ref_s = None
    if gauge is not None:
        elapsed -= gauge.spent
        ref_s = gauge.mean
    if error:
        return OpResult(elapsed, [error], {}, ref_s)
    errors, values = workload.check(output)
    return OpResult(elapsed, errors, values, ref_s)


def repeated_setups(args, reps):
    """(nominal, wall) setup seconds of ``reps`` fresh processes, imports
    included."""
    out = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        out.append((result["setup_s"], result["wall_s"]))
    return out


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload.work_in_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def accuracy_means(per_op, k):
    """Mean of each ``accuracy.*`` figure over ops 0..k-1.

    Op i's inputs depend only on the workload seed and i, so the first k
    ops give the same figures however many ops the time budget lets run.
    """
    if len(per_op) < k:
        raise ValueError(f"{len(per_op)} ops ran, accuracy needs the first {k}")
    first = per_op[:k]
    names = {n for values in first for n in values if n.startswith("accuracy.")}
    return {
        n: statistics.fmean(values[n] for values in first if n in values)
        for n in names
    }


def layer_metrics(recorder, plain, traced, import_s, accuracy_ops):
    """Per-layer metrics from the traced ops (op ids 0..len(traced)-1);
    accuracy figures average the first ``accuracy_ops`` of them."""
    ops = range(len(traced))
    self_s = spans.per_op_totals(recorder.spans)
    whole_s = spans.per_op_totals(recorder.spans, inclusive=True)
    setup_whole = whole_s.get(spans.SETUP, {})
    counters = recorder.counters

    def span_med(name):
        return statistics.median(self_s.get(op, {}).get(name, 0.0) for op in ops)

    def count_med(name):
        return statistics.median(counters.get((op, name), 0.0) for op in ops)

    def ratio(num, den):
        total = sum(counters.get((op, den), 0.0) for op in ops)
        return sum(counters.get((op, num), 0.0) for op in ops) / total if total else 0.0

    m = {
        "op.wall_p50_s": statistics.median(r.seconds for r in plain),
        "op.ref_s": statistics.median(r.ref_s for r in plain),
        "hamiltonian.build_subspace.s": span_med("hamiltonian.build_subspace"),
        "hamiltonian.build_subspace.dim": count_med("hamiltonian.build_subspace.dim"),
        "hamiltonian.build_subspace.nnz": count_med("hamiltonian.build_subspace.nnz"),
        "hamiltonian.slater_condon_calls": count_med("hamiltonian.slater_condon_calls"),
        "hamiltonian.sc_nonzero_ratio": ratio(
            "hamiltonian.slater_condon_nonzero", "hamiltonian.slater_condon_calls"
        ),
        "hamiltonian.fci_oracle.s": setup_whole.get("hamiltonian.fci_oracle", 0.0),
        "hamiltonian.davidson.s": span_med("hamiltonian.davidson"),
        "hamiltonian.davidson_matvecs": count_med("hamiltonian.davidson_matvecs"),
        "simulator.apply_circuit.s": span_med("simulator.apply_circuit"),
        "simulator.amps_touched.computed": count_med("simulator.amps_touched.computed"),
        "sampling.distribution.s": span_med("sampling.distribution"),
        "sampling.distribution.listed": count_med("sampling.distribution.listed"),
        "sampling.sample.s": span_med("sampling.sample"),
        "sampling.readout.s": span_med("sampling.readout"),
        "sampling.filter.s": span_med("sampling.filter"),
        "sampling.shots": count_med("sampling.shots"),
        "sampling.kept_ratio": ratio("sampling.kept", "sampling.shots"),
        "sampling.unique": count_med("sampling.unique"),
        "circuits.build_usci.s": setup_whole.get("circuits.build_usci", 0.0),
        "circuits.gates": counters.get((spans.SETUP, "circuits.gates"), 0.0),
        "pipeline.run_qsci_once.self_s": span_med("pipeline.run_qsci_once"),
        "expansion.connected_set.s": span_med("expansion.connected_set"),
        "expansion.connected_set.candidates": count_med(
            "expansion.connected_set.candidates"
        ),
        "expansion.score.s": span_med("expansion.score"),
        "expansion.expand.self_s": span_med("expansion.expand"),
        "expansion.expand.added": count_med("expansion.expand.added"),
        "expansion.pt2.self_s": span_med("expansion.pt2"),
        "expansion.pt2.skipped": count_med("expansion.pt2.skipped"),
        "fcidump.parse_s": setup_whole.get("fcidump.parse", 0.0),
        "cli.import_s": statistics.median(import_s) if import_s else 0.0,
    }
    for sub in ("qsci", "pt2", "analyze", "bounds"):
        for kind in ("wall_s", "stage_s"):
            m[f"cli.{sub}.{kind}"] = 0.0
    m["accuracy.energy_err_mha"] = m["accuracy.pt2_err_mha"] = 0.0
    per_op = [r.values for r in traced]
    for name in set().union(*per_op):
        if not name.startswith("accuracy."):
            m[name] = statistics.median(v[name] for v in per_op if name in v)
    m.update(accuracy_means(per_op, accuracy_ops))
    traced_p50 = statistics.median(r.seconds for r in traced)
    m["trace.op_s"] = traced_p50
    m["trace.overhead_ratio"] = traced_p50 / m["op.wall_p50_s"] - 1
    return m


def emit(declared, values):
    """Metrics in declaration order with declared units; every declared
    metric must be measured and nothing undeclared reported."""
    names = [d["name"] for d in declared]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise RuntimeError(f"metrics missing {missing}, undeclared {extra}")
    return {
        d["name"]: {"value": float(values[d["name"]]), "unit": d["unit"]}
        for d in declared
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qselci", "__init__.py")):
        print(f"error: no qselci source tree at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the set-up gauge samples from here, before the heavy imports, to the
    # first op; the traced run reports no setup_s and leaves it idle
    setup_gauge = SpeedGauge(in_process=not args.trace).__enter__()
    work_dir = None
    try:
        from qselci.pipeline import derive_seeds
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; "
                  f"available: {sorted(WORKLOADS)}", file=sys.stderr)
            return 2
        work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
        os.makedirs(work_dir, exist_ok=True)
        workload = WORKLOADS[args.workload](ROOT, work_dir)
        return run(args, workload, derive_seeds(args.seed, 1 + MAX_OPS),
                   setup_gauge)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if work_dir:
            shutil.rmtree(work_dir, ignore_errors=True)


def run(args, workload, seeds, setup_gauge):
    """Set up, run the ops and print the result; ``seeds[0]`` makes the
    inputs and ``seeds[1 + i]`` is op i's seed.  ``setup_gauge`` has been
    sampling since start-up and is closed when the set-up ends."""
    input_seed, op_seeds = seeds[0], seeds[1:]

    recorder = uninstall = None
    if args.trace:
        recorder = spans.Recorder()
        uninstall = spans.install(recorder)
    workload.setup(input_seed)
    setup_wall_s = process_age()
    setup_gauge.__exit__(None, None, None)
    first_setup_s = setup_gauge.nominal(setup_wall_s)
    if args.setup_only:
        print(json.dumps({"setup_s": first_setup_s, "wall_s": setup_wall_s}))
        return 0

    gauge = workload.gauge = SpeedGauge(in_process=not workload.work_in_children)
    plain, traced, import_s = [], [], []
    start = time.perf_counter()
    while len(plain) < max(workload.accuracy_ops, MIN_OPS) or (
        time.perf_counter() - start + statistics.median(r.seconds for r in plain)
        <= args.seconds and len(plain) < MAX_OPS
    ):
        i = len(plain)
        if args.trace:
            uninstall()
        plain.append(timed_op(workload, i, op_seeds[i], gauge))
        if args.trace:
            uninstall = spans.install(recorder)
            recorder.op = i
            traced.append(timed_op(workload, i, op_seeds[i]))
            recorder.op = spans.SETUP
            if hasattr(workload, "import_seconds"):
                import_s.append(workload.import_seconds())
    if args.trace:
        uninstall()

    runs = plain + traced
    failed = sum(1 for r in runs if r.errors)
    for i, r in enumerate(runs):
        for e in r.errors:
            print(f"op {i % len(plain)} failed: {e}", file=sys.stderr)
    times = [r.seconds for r in plain]
    ref_s = [r.ref_s for r in plain]
    nominal_s = [r.nominal_s for r in plain]

    env = environment(args, len(plain))
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {len(plain)} ops, "
          f"op wall p50 {statistics.median(times):.4f} s, "
          f"reference p50 {statistics.median(ref_s) * 1e3:.4f} ms "
          f"(nominal {NOMINAL_S * 1e3} ms), "
          f"op p50 at nominal speed {statistics.median(nominal_s):.4f} s")
    info = percentile_info(nominal_s)
    if info:
        print(f"op p{info[0]} at nominal speed (information only): "
              f"{info[1]:.4f} s")

    declared = load_declarations()
    if args.trace:
        values = layer_metrics(recorder, plain, traced, import_s,
                               workload.accuracy_ops)
        metrics = emit(declared["per_layer"], values)
        record = {"environment": env, "metrics": metrics,
                  "trace": recorder.to_json_dict()}
    else:
        rss = peak_rss_mb(workload)
        setups = [(first_setup_s, setup_wall_s)] + repeated_setups(
            args, workload.setup_reps - 1
        )
        print("setup wall times: " + ", ".join(f"{w:.4f} s" for _n, w in setups))
        values = {
            "setup_s": statistics.median(n for n, _w in setups),
            "op_p50_s": statistics.median(nominal_s),
            "peak_rss_mb": rss,
            "ops_ok_ratio": (len(runs) - failed) / len(runs),
        }
        metrics = emit(declared["end_to_end"], values)
        record = {"environment": env, "metrics": metrics,
                  "setups_nominal_wall_s": setups, "op_wall_s_all": times,
                  "op_ref_s_all": ref_s, "op_nominal_s_all": nominal_s}
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

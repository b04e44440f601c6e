#!/usr/bin/env python3
"""Benchmark of the johnswalk sampler and its inscribed-ellipsoid solvers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload john-box --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One process, one client, closed loop: each operation starts when the
previous one ends, and BLAS runs on one thread. Operations go through the
package's public entry points, `johnswalk.cli.main(["sample", ...])` for
chains and `johnswalk.mve.solve_mve` for solves, and every output is checked.

The seed makes the operations (workloads.py). The run goes through them in
passes and starts another pass only while the last pass's duration still
fits in --seconds. On the John workloads every pass draws new chains, and
one chain of each walk is run again at the end; mve-crossval repeats its
solves. Every later run of an operation must reproduce the first run's
output byte for byte. Each pass runs pinned to the CPU that is fastest at
its start.

Times are at a reference speed (clock.py). On a shared 2-vCPU virtual
machine other tenants slowed every instruction by up to 2x, for
milliseconds to minutes at a time, and the middle half of ten runs of the
same code spread over 30-45% of their median. So an interval timer
interrupts every timed call every 10 ms to time a fixed probe block, the
probes' time is taken out of the call's wall, and each wall is divided by
the slowdown those probes measured during its pass's calls of the same
kind; the set-ups, in child processes, are probed right after each. The
report prints the slowdowns and the walls as measured.

With --trace 0 the last line of standard output is a JSON object whose
metrics are the end-to-end metrics below. One workload-independent name
covers each role:

  primary.useful_per_s   John walk: effective samples per second (sum of the
                         chains' minimum per-coordinate ESS / their wall);
                         mve-crossval: certified cutting-plane solves per
                         second of cutting-plane wall, failures included
  primary.ms_per_op      John walk: ms per step; mve-crossval: ms per
                         cutting-plane attempt
  baseline.ms_per_op     hit-and-run and ball walk on the same bodies: ms per
                         step; mve-crossval: ms per oracle solve
  setup_s                median wall of SETUP_REPEATS fresh set-ups (imports,
                         body generation, polytope files), each in a child
                         interpreter, scaled like every other time
  peak_rss_mb            peak resident memory of the benchmark process

The report above that line gives the same figures under the per-walk and
per-route names (john.ess_per_s, hitrun.ess_per_s, vaidya.s_per_solve, ...)
with their sample counts, failed_share, and the environment.

With --trace 1 the run alternates untraced and traced passes over the same
batch while pairs fit in --seconds; its JSON holds the per-layer metrics of
tracing.PER_LAYER, from the first traced pass, and trace_overhead: the
operations' mean traced wall over their mean untraced wall, minus 1.
Spans of the first traced pass go to .perfbench/trace-<workload>-<seed>.json.

`attempted` counts every run of every operation. `failed` counts runs that
raised, failed a check or did not reproduce the first run; a solve that
fails with the error text of a documented defect (workloads.py) is reported
as a known failure in the report and in failed_share instead.
"""

import os

# Pin BLAS to one thread before numpy loads: results must not depend on how
# many cores happen to be free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# The package under test is this checkout's src/, never an installed copy.
sys.path.insert(0, str(SRC))
try:
    import johnswalk
except ImportError as exc:
    sys.exit(f"error: cannot import johnswalk from {SRC}: {exc}")
if not Path(johnswalk.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"error: johnswalk was found at {johnswalk.__file__}, outside {SRC}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ops  # noqa: E402
import tracing  # noqa: E402
from clock import PROBE_REF_S, Clock  # noqa: E402
from johnswalk import Ellipsoid, symmetrize  # noqa: E402
from workloads import (  # noqa: E402
    EXCLUDED, GAP, JOHN_CHAINS, JOHN_STEPS, WHY, WORKLOADS, ChainOp, SolveOp,
    batch_ops, make_bodies,
)

SETUP_REPEATS = 3
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
_PROBE = np.linspace(1.0, 2.0, 400).reshape(20, 20) + 20.0 * np.eye(20)

E2E = (
    ("primary.useful_per_s", "1/s"),
    ("primary.ms_per_op", "ms"),
    ("baseline.ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one short batch of every workload plus a self-check of the output checks")
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    return args


# ---------------------------------------------------------------------------
# set-up


def setup(workload: str, seed: int, workdir: Path, smoke: bool = False):
    """Generate the bodies and write one polytope file per body."""
    bodies = make_bodies(workload, seed, smoke)
    paths = {}
    for name, body in bodies.items():
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps({"A": body.poly.A.tolist(),
                                           "b": body.poly.b.tolist()}))
    return bodies, paths


def time_setups(workload: str, seed: int, workdir: Path, clock) -> list:
    """Wall of SETUP_REPEATS fresh set-ups, each in a child interpreter, so
    imports are paid every time as a user pays them; ``clock`` samples the
    speed after each."""
    clock.new_segment("set-ups")
    times = []
    for i in range(SETUP_REPEATS):
        target = workdir / f"setup{i}"
        target.mkdir()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(target),
             "--workload", workload, "--seed", str(seed)],
            check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
        clock.sample("setup", times[-1])
    return times


# ---------------------------------------------------------------------------
# passes


def _probe() -> float:
    t0 = time.perf_counter()
    for _ in range(200):
        np.linalg.solve(_PROBE, _PROBE[0])
    return time.perf_counter() - t0


def pin_to_fastest_cpu() -> int:
    """Pin this process to the allowed CPU that runs a short fixed loop
    fastest, and return that CPU. On a shared host a busy sibling thread can
    slow every instruction of one core by up to 1.8x for minutes, which the
    scheduler does not see. The probe takes about 30 ms."""
    timings = {}
    for cpu in ALLOWED_CPUS:
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = min(_probe() for _ in range(3))
    best = min(timings, key=timings.get)
    os.sched_setaffinity(0, {best})
    return best


class Runner:
    """Runs the seed's operations, pass after pass."""

    def __init__(self, workload, seed, bodies, paths, workdir, clock, smoke=False):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.bodies, self.paths, self.workdir, self.clock = bodies, paths, workdir, clock
        self.ids: dict = {}
        self.runs = 0
        self.pass_cpus: list = []

    def batch(self, round: int) -> list:
        batch = batch_ops(self.workload, self.bodies, self.seed, round, self.smoke)
        for op in batch:
            self.ids.setdefault(op, len(self.ids))
        return batch

    def run_pass(self, outcomes: dict, tracer=None, round: int = 0) -> float:
        """Run every operation of the round's batch once more, recording into
        ``outcomes`` (operation -> Outcome), on the fastest CPU. Returns the
        pass's wall."""
        self.pass_cpus.append(pin_to_fastest_cpu())
        start = time.perf_counter()
        self.run_ops(self.batch(round), outcomes, tracer)
        return time.perf_counter() - start

    def run_ops(self, batch: list, outcomes: dict, tracer=None, label: str = "pass") -> None:
        """Run each operation once more; operations that already failed are
        not run again. The batch is one segment of the clock: each wall is
        scaled by the slowdown of the probes that ran during its kind of
        call in the batch."""
        segment = self.clock.new_segment(f"{label} {len(self.clock.segments)}"
                                         + (" traced" if tracer else ""))
        timed_now = []
        for op in batch:
            res = outcomes.setdefault(op, ops.Outcome(op))
            if res.problems:
                continue
            body = self.bodies[op.body]
            kind = op.walk if isinstance(op, ChainOp) else op.route
            span = tracer.op_span(kind, self.ids[op]) if tracer else contextlib.nullcontext
            self.runs += 1
            timed = len(res.walls)
            if isinstance(op, ChainOp):
                prefix = self.workdir / f"run{self.runs}"
                ops.guarded(res, lambda: ops.run_chain(
                    res, body, self.paths[op.body], prefix, self.clock, span))
            else:
                ops.guarded(res, lambda: ops.run_solve(res, body, self.clock, span))
            if len(res.walls) > timed:
                timed_now.append((res, kind, res.walls[-1]))
        for res, kind, wall in timed_now:
            res.scaled.append(wall / Clock.slowdown(segment, kind))


def cross_check(outcomes: dict) -> None:
    """Each body's cutting-plane log-det must agree with its oracle log-det."""
    oracle = {o.op.body: o for o in outcomes.values()
              if isinstance(o.op, SolveOp) and o.op.route == "oracle" and o.ok}
    for res in outcomes.values():
        if isinstance(res.op, SolveOp) and res.op.route == "vaidya" and res.ok \
                and res.op.body in oracle:
            problems = ops.check_agreement(oracle[res.op.body].solution, res.solution)
            if problems:
                res.fail("; ".join(problems))


def run_passes(runner: Runner, seconds: float) -> tuple:
    """Closed loop over passes, each of a new round, until the next pass
    would end past the deadline (at least one pass); then the first chain
    of each walk runs once more and must reproduce its CSV. Returns
    (outcomes, wall of each pass)."""
    deadline = time.perf_counter() + seconds
    outcomes: dict = {}
    passes = []
    while True:
        passes.append(runner.run_pass(outcomes, round=len(passes)))
        if time.perf_counter() + passes[-1] > deadline:
            break
    first = {}
    for op, res in outcomes.items():
        if isinstance(op, ChainOp) and res.walls:
            first.setdefault(op.walk, op)
    if first:
        runner.run_ops(list(first.values()), outcomes, label="re-run")
    cross_check(outcomes)
    return outcomes, passes


def traced_copy(outcomes: dict) -> dict:
    """Fresh outcomes for a traced pass that must reproduce the untraced
    pass's outputs; operations that failed untraced stay failed."""
    return {op: dataclasses.replace(res, walls=[], scaled=[], runs=0, bad_runs=0,
                                    problems=list(res.problems))
            for op, res in outcomes.items()}


# ---------------------------------------------------------------------------
# metrics


def _ratio(num: float, den: float):
    return num / den if den > 0 else None


def _chains(outcomes, walks):
    return [o for o in outcomes if isinstance(o.op, ChainOp) and o.op.walk in walks and o.ok]


def _solves(outcomes, route, ok_only=True):
    return [o for o in outcomes if isinstance(o.op, SolveOp) and o.op.route == route
            and (o.ok or (not ok_only and o.walls))]


def gated_metrics(outcomes: list, setup_times: list, setup_slowdown: float) -> dict:
    """The end-to-end metrics of BENCHMARK.json, over the distinct
    operations, each timed by the mean of its runs at the reference speed;
    failed operations are left out (they are counted in `failed`)."""
    john = _chains(outcomes, ("john",))
    if john:
        base = _chains(outcomes, ("hitrun", "ball"))
        wall = sum(o.scaled_wall for o in john)
        metrics = {
            "primary.useful_per_s": _ratio(sum(o.min_ess for o in john), wall),
            "primary.ms_per_op": _ratio(1000.0 * wall, sum(o.op.steps for o in john)),
            "baseline.ms_per_op": _ratio(1000.0 * sum(o.scaled_wall for o in base),
                                         sum(o.op.steps for o in base)),
        }
    else:
        attempts = _solves(outcomes, "vaidya", ok_only=False)
        wall = sum(o.scaled_wall for o in attempts)
        oracle = _solves(outcomes, "oracle")
        metrics = {
            "primary.useful_per_s": _ratio(len(_solves(outcomes, "vaidya")), wall),
            "primary.ms_per_op": _ratio(1000.0 * wall, len(attempts)),
            "baseline.ms_per_op": _ratio(1000.0 * sum(o.scaled_wall for o in oracle),
                                         sum(o.op.repeats for o in oracle)),
        }
    metrics["setup_s"] = statistics.median(setup_times) / setup_slowdown
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def named_metrics(outcomes: list) -> list:
    """The per-walk and per-route figures at the reference speed: (name,
    value, unit, samples)."""
    rows = []
    john = _chains(outcomes, ("john",))
    if john:
        wall = sum(o.scaled_wall for o in john)
        rows.append(("john.ess_per_s", sum(o.min_ess for o in john) / wall, "1/s",
                     f"{len(john)} chains"))
        steps = sum(o.op.steps for o in john)
        rows.append(("john.ms_per_step", 1000.0 * wall / steps, "ms", f"{steps} steps"))
    for walk in ("hitrun", "ball"):
        chains = _chains(outcomes, (walk,))
        if chains:
            rows.append((f"{walk}.ess_per_s", sum(o.min_ess for o in chains)
                         / sum(o.scaled_wall for o in chains), "1/s", f"{len(chains)} chains"))
    attempts = _solves(outcomes, "vaidya", ok_only=False)
    if attempts:
        rows.append(("vaidya.s_per_solve",
                     sum(o.scaled_wall for o in attempts) / len(attempts), "s",
                     f"{len(attempts)} attempts"))
    oracle = _solves(outcomes, "oracle")
    if oracle:
        solves = sum(o.op.repeats for o in oracle)
        rows.append(("oracle.ms_per_solve",
                     1000.0 * sum(o.scaled_wall for o in oracle) / solves,
                     "ms", f"{solves} solves"))
    return rows


def wall_percentiles(outcomes: list) -> list:
    """Mean wall per operation as measured, by kind of operation: count,
    median and the highest percentile with at least ten samples beyond it."""
    by_kind: dict = {}
    for o in outcomes:
        if o.walls:
            label = o.op.walk if isinstance(o.op, ChainOp) else o.op.route
            by_kind.setdefault(f"{label}:{o.op.body}", []).append(o.wall)
    rows = []
    for label, walls in sorted(by_kind.items()):
        row = {"op": label, "count": len(walls), "p50_s": statistics.median(walls)}
        tail = next((q for q in (99, 90) if len(walls) * (100 - q) / 100 >= 10), None)
        if tail is not None:
            row[f"p{tail}_s"] = statistics.quantiles(walls, n=100)[tail - 1]
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# environment


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be
    asked."""
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                      .glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(ALLOWED_CPUS),
        "cpu": cpu,
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


# ---------------------------------------------------------------------------
# report


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report(args, env, bodies, outcomes, passes, metrics, setup_times, clock):
    print(f"johnswalk benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  why: {WHY[args.workload]}")
    print("  environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, body in bodies.items():
        props = " ".join(f"{k}={v}" for k, v in body.properties().items())
        chains = (f" john_chains={JOHN_CHAINS[name]} john_steps={JOHN_STEPS[name]}"
                  if name in JOHN_STEPS else "")
        print(f"  {props}{chains}")
    for case in EXCLUDED:
        print(f"  excluded: {case['case']}: {case['reason']}")
    done = list(outcomes.values())
    print(f"  closed loop, one client, one process; {len(done)} operations, "
          f"{len(passes)} passes of " + ", ".join(f"{p:.2f}" for p in passes) + " s")
    print(f"  slowdown against a {1000.0 * PROBE_REF_S:g} ms probe block, by segment and "
          "kind of call (probe blocks); times below except the walls are divided by it:")
    for label, segment in clock.segments:
        print(f"    {label}: " + ", ".join(f"{kind} {Clock.slowdown(segment, kind):.4f} ({n})"
                                         for kind, (_, n) in segment.items()))
    print(f"  {'metric':28s} {'value':>12s} {'unit':8s} samples")
    for name, value, unit, samples in named_metrics(done):
        print(f"  {name:28s} {_fmt(value):>12s} {unit:8s} {samples}")
    for name, unit in E2E:
        samples = {"setup_s": f"median of {len(setup_times)} set-ups",
                   "peak_rss_mb": "1 process"}.get(name, "mean run of each operation")
        print(f"  {name:28s} {_fmt(metrics[name]):>12s} {unit:8s} {samples}")
    for row in wall_percentiles(done):
        print("  wall " + " ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}"
                                   for k, v in row.items()))


def tally(outcome_sets: list) -> tuple:
    """(attempted runs, failed runs, runs showing a known defect, outcomes
    with a failure or a known defect)."""
    everything = [o for outcomes in outcome_sets for o in outcomes.values()]
    attempted = sum(o.runs for o in everything)
    failed = sum(o.bad_runs for o in everything)
    known = (sum(len(o.walls) for o in everything if o.known_failure)
             + sum(1 for o in everything if o.rounding_defect))
    return attempted, failed, known, [o for o in everything
                                      if o.problems or o.known_failure or o.rounding_defect]


def measure(args, runner: Runner) -> tuple:
    """The run's passes: (outcomes, untraced pass walls, traced pass walls,
    outcomes of each traced pass, their tracers)."""
    if not args.trace:
        outcomes, passes = run_passes(runner, args.seconds)
        return outcomes, passes, [], [], []
    # Untraced and traced passes alternate over the same batch; the first
    # traced pass gives the per-layer metrics, and trace_overhead compares
    # the operations' traced and untraced runs.
    deadline = time.perf_counter() + args.seconds
    outcomes: dict = {}
    passes, traced_passes, traced_sets, tracers = [], [], [], []
    while True:
        passes.append(runner.run_pass(outcomes))
        traced_sets.append(traced_copy(outcomes))
        tracers.append(tracing.Tracer(runner.clock.program_time))
        with tracers[-1].installed():
            traced_passes.append(runner.run_pass(traced_sets[-1], tracers[-1]))
        if time.perf_counter() + passes[-1] + traced_passes[-1] > deadline:
            break
    cross_check(outcomes)
    return outcomes, passes, traced_passes, traced_sets, tracers


def run(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        pin_to_fastest_cpu()  # the set-up children inherit the pinning
        clock = Clock()
        setup_times = time_setups(args.workload, args.seed, workdir, clock)
        setup_slowdown = Clock.slowdown(clock.segments[0][1])
        bodies, paths = setup(args.workload, args.seed, workdir)
        runner = Runner(args.workload, args.seed, bodies, paths, workdir, clock)
        with clock.ticking():
            outcomes, passes, traced_passes, traced_sets, tracers = measure(args, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = gated_metrics(list(outcomes.values()), setup_times, setup_slowdown)
    env = environment()
    report(args, env, bodies, outcomes, passes, metrics, setup_times, clock)
    attempted, failed, known, bad = tally([outcomes, *traced_sets])
    print(f"  {'failed_share':28s} {_fmt((failed + known) / attempted):>12s} "
          f"{'fraction':8s} {attempted} runs ({failed} failed, {known} known defects)")
    for o in bad:
        label = "FAILED" if o.problems else "known defect"
        print(f"  {label}: {o.op}: {'; '.join(o.problems) or o.known_failure or o.rounding_defect}")

    if args.trace:
        # Only operations that ran traced and untraced compare like for like.
        same = [op for op, res in outcomes.items()
                if res.walls and all(t[op].walls for t in traced_sets)]
        untraced = sum(outcomes[op].scaled_wall for op in same)
        traced_walls = {op: [w for t in traced_sets for w in t[op].scaled] for op in same}
        overhead = (sum(sum(w) / len(w) for w in traced_walls.values())
                    / untraced - 1.0) if untraced > 0 else None
        tracer, traced = tracers[0], traced_sets[0]
        out_metrics = tracing.layer_metrics(tracer, list(traced.values()), runner.ids, overhead)
        layers = tracer.layers()
        zero = tracer.zero_call_sites()
        print("  traced passes " + ", ".join(f"{p:.3f}" for p in traced_passes)
              + " s; untraced passes " + ", ".join(f"{p:.3f}" for p in passes) + " s")
        print("  layer self seconds: " + ", ".join(
            f"{k}={v:.4g}" for k, v in layers["layer_self_s"].items()))
        print("  wrapped module attributes with zero calls: " + (", ".join(zero) or "none"))
        for name, unit, _ in tracing.PER_LAYER:
            print(f"  {name:28s} {_fmt(out_metrics[name]):>12s} {unit}")
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "env": env, "zero_call_sites": zero, "layers": layers,
            "ops": {i: repr(op) for op, i in runner.ids.items()},
            "spans": tracer.dump()}))
        print(f"  spans written to {trace_file.relative_to(ROOT)}")
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        out_metrics = metrics
        units = dict(E2E)

    result = {
        "correct": failed == 0 and None not in out_metrics.values(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in out_metrics.items()},
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "bodies": [b.properties() for b in bodies.values()],
                    "pass_s": passes, "pass_cpus": runner.pass_cpus,
                    "setup_s": setup_times, "probes": clock.segments,
                    "named": named_metrics(list(outcomes.values())),
                    "problems": [[repr(o.op), o.problems or o.known_failure or o.rounding_defect]
                                 for o in bad],
                    **result}, indent=1))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# smoke mode


def self_check(runner: Runner, outcomes: dict) -> list:
    """Corrupt one checked output of each kind and confirm that the checks
    count it as failed. Returns the corruptions that went unnoticed."""
    missed = []
    chains = {o.op.walk: o for o in outcomes.values() if isinstance(o.op, ChainOp) and o.ok}
    for walk, good in chains.items():
        body = runner.bodies[good.op.body]
        prefix = runner.workdir / f"selfcheck-{walk}"
        res = ops.Outcome(good.op)
        ops.run_chain(res, body, runner.paths[good.op.body], prefix, runner.clock, keep=True)
        csv = Path(f"{prefix}.samples.csv")
        samples = ops.read_samples(csv)
        header = csv.read_text().splitlines()[0]
        a0, b0 = body.poly.A[0], body.poly.b[0]
        outside = samples.copy()
        outside[len(outside) // 2] = body.center + a0 * (
            (abs(b0) + 1.0 + b0 - a0 @ body.center) / (a0 @ a0))
        for label, data in (("sample moved outside", outside), ("row dropped", samples[:-1])):
            np.savetxt(csv, data, delimiter=",", header=header, comments="", fmt="%.17g")
            if not ops.score_chain(res, body, csv):
                missed.append(f"{label} in a {walk} chain")
        if res.tallies is not None:
            np.savetxt(csv, samples, delimiter=",", header=header, comments="", fmt="%.17g")
            res.tallies = {**res.tallies, "accept": res.tallies["accept"] + 1}
            if not ops.score_chain(res, body, csv):
                missed.append("John tallies off by one")
    for good in (o for o in outcomes.values() if o.ok and o.solution is not None):
        body = runner.bodies[good.op.body]
        sym = symmetrize(body.poly, body.center)
        sol = good.solution
        uncertified = dataclasses.replace(sol, logdet_gap=2 * GAP)
        outside = dataclasses.replace(sol, ellipsoid=Ellipsoid(1.01 * sol.ellipsoid.mat,
                                                               sol.ellipsoid.center))
        for label, bad in (("uncertified gap", uncertified), ("ellipsoid outside", outside)):
            if not ops.check_solution(bad, sym, GAP)[0]:
                missed.append(f"{label} on {good.op.body}")
        shifted = dataclasses.replace(sol, logdet_gap=0.0, ellipsoid=Ellipsoid(
            0.99 * sol.ellipsoid.mat, sol.ellipsoid.center))
        if not ops.check_agreement(dataclasses.replace(sol, logdet_gap=0.0), shifted):
            missed.append(f"route disagreement on {good.op.body}")
    return missed


def smoke() -> int:
    """One short batch of every workload, untraced and then traced, and the
    self-check of the output checks. Exit code 0 when all pass."""
    expected = json.loads(BENCHMARK_JSON.read_text()) if BENCHMARK_JSON.is_file() else None
    OUT.mkdir(exist_ok=True)
    failed = 0
    for workload in WORKLOADS:
        workdir = Path(tempfile.mkdtemp(prefix=f"smoke-{workload}-", dir=OUT))
        try:
            bodies, paths = setup(workload, 1, workdir, smoke=True)
            runner = Runner(workload, 1, bodies, paths, workdir, Clock(), smoke=True)
            outcomes: dict = {}
            runner.run_pass(outcomes)
            cross_check(outcomes)
            tracer = tracing.Tracer()
            traced = traced_copy(outcomes)
            with tracer.installed():
                runner.run_pass(traced, tracer)
            missed = self_check(runner, outcomes)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        attempted, bad_runs, _, bad = tally([outcomes, traced])
        e2e = gated_metrics(list(outcomes.values()), [0.0], 1.0)
        layer = tracing.layer_metrics(tracer, list(traced.values()), runner.ids, 0.0)
        names_ok = expected is None or (
            list(e2e) == [m["name"] for m in expected["end_to_end"]]
            and list(layer) == [m["name"] for m in expected["per_layer"]])
        ok = not bad_runs and not missed and names_ok and None not in e2e.values()
        failed += not ok
        print(f"smoke {workload}: {attempted} runs, {bad_runs} failed, corruptions "
              f"missed: {missed or 'none'}, metric names match BENCHMARK.json: "
              f"{names_ok} -> {'ok' if ok else 'FAIL'}")
        for o in bad:
            print(f"  {o.op}: {o.problems or o.known_failure or o.rounding_defect}")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed, Path(args.setup_only))
        return 0
    if args.smoke:
        return smoke()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())

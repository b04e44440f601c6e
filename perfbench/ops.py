"""Running one benchmark operation through the package's public entry points,
and checking its output.

An operation is timed around the call into the package only; reading the
CSV back, checking it and scoring it with ESS happen outside that wall. The
first run of an operation is checked and scored; every later run must
reproduce its output byte for byte. Walls leave out the speed probes that
interrupted the call (clock.py); run.py adds each one scaled to the
reference speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from johnswalk import NumericalError, cli, contains, geometry, mve
from johnswalk.diagnostics import ess

from workloads import GAP, Body, ChainOp, SolveOp

TALLY_NAMES = ("accept", "lazy_hold", "reject_outside",
               "reject_reversibility", "reject_filter")


@dataclass
class Outcome:
    """Everything measured about one distinct operation over its runs."""

    op: object
    walls: list = field(default_factory=list)  # seconds, one per successful run
    scaled: list = field(default_factory=list)  # the walls at the reference speed
    runs: int = 0
    bad_runs: int = 0  # runs that raised, failed a check or differed from the first
    problems: list = field(default_factory=list)
    known_failure: Optional[str] = None  # error text of a documented defect
    rounding_defect: Optional[str] = None  # the known rounding excess, in a usable output
    min_ess: Optional[float] = None
    tallies: Optional[dict] = None
    solution: object = None  # JohnSolution of a solve, for cross-checks
    digest: Optional[str] = None  # of the first run's output

    @property
    def ok(self) -> bool:
        return not self.problems and self.known_failure is None

    @property
    def wall(self) -> float:
        """Mean wall of the successful runs, in seconds as measured."""
        return sum(self.walls) / len(self.walls)

    @property
    def scaled_wall(self) -> float:
        """Mean wall of the successful runs at the reference speed."""
        return sum(self.scaled) / len(self.scaled)

    def fail(self, problem: str) -> None:
        self.bad_runs += 1
        self.problems.append(problem)


def parse_tallies(summary: str) -> Optional[dict]:
    """Tallies from the `accept=.. lazy_hold=..` line `sample` prints."""
    found = {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", summary)}
    if set(found) != set(TALLY_NAMES):
        return None
    return found


def check_chain(body: Body, walk: str, steps: int, samples: np.ndarray,
                tallies: Optional[dict]) -> list:
    """Problems with the samples of one chain; empty when all checks pass."""
    poly = body.poly
    if samples.shape != (steps + 1, poly.n):
        return [f"CSV holds {samples.shape} values, expected {(steps + 1, poly.n)}"]
    problems = []
    if walk == "john":
        slack = poly.b[None, :] - samples @ poly.A.T
        bad = int(np.sum(np.any(slack <= 0.0, axis=1)))
        if bad:
            problems.append(f"{bad} John samples are not strictly interior")
        if tallies is None:
            problems.append("summary line holds no tallies")
        elif sum(tallies.values()) != steps:
            problems.append(f"tallies sum to {sum(tallies.values())}, expected {steps}")
    else:
        bad = sum(1 for row in samples if not contains(poly, row))
        if bad:
            problems.append(f"{bad} {walk} samples fail contains")
    return problems


# The oracle route's factor can stick out of the body by rounding alone: for
# one rotated (3, 9) body exact rational arithmetic gave |E a_i|^2 - 1 =
# 9.9e-15. An excess up to ROUNDING_EXCESS is reported as that known defect;
# a larger one fails the solve.
ROUNDING_EXCESS = 1e-12


def check_solution(sol, sym, gap: float) -> tuple:
    """A solution must certify its gap and lie inside the symmetric body.
    Returns (problems, text of the known rounding defect or None)."""
    problems = []
    if not sol.logdet_gap <= gap:
        problems.append(f"certified gap {sol.logdet_gap:.3e} > requested {gap:.3e}")
    reach = float(np.linalg.norm(sym.A @ sol.ellipsoid.mat, axis=1).max())
    if not reach <= 1.0 + ROUNDING_EXCESS:
        problems.append(f"max_i |E a_i| = {reach!r} > 1")
    elif reach > 1.0:
        return problems, f"max_i |E a_i| = {reach!r} exceeds 1 by rounding"
    return problems, None


def check_agreement(oracle_sol, vaidya_sol) -> list:
    """The two routes' log-dets must agree within the sum of their certified
    gaps, plus a few ulps: each log-det and gap is rounded at its own size."""
    a, b = oracle_sol.ellipsoid.logdet, vaidya_sol.ellipsoid.logdet
    diff = abs(a - b)
    rounding = 16.0 * np.finfo(float).eps * (1.0 + max(abs(a), abs(b)))
    allowed = oracle_sol.logdet_gap + vaidya_sol.logdet_gap + rounding
    if not diff <= allowed:
        return [f"route log-dets differ by {diff:.3e} > certified {allowed:.3e}"]
    return []


def read_samples(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def score_chain(res: Outcome, body: Body, csv_path: Path) -> list:
    """Check a chain's CSV and, when it passes, score it with its minimum
    per-coordinate ESS. Returns the problems found."""
    samples = read_samples(csv_path)
    problems = check_chain(body, res.op.walk, res.op.steps, samples, res.tallies)
    if not problems:
        res.min_ess = min(ess(samples[:, j]) for j in range(samples.shape[1]))
    return problems


def run_chain(res: Outcome, body: Body, poly_path: Path, prefix: Path, clock,
              span=contextlib.nullcontext, keep: bool = False) -> None:
    """Run `johnswalk sample` for the chain once more, timed by ``clock``
    (clock.Clock)."""
    op: ChainOp = res.op
    argv = ["sample", "--polytope", str(poly_path), "--walk", op.walk,
            "--steps", str(op.steps), "--seed", str(op.seed), "--out", str(prefix)]
    if op.start is not None:
        argv.append("--start=" + ",".join(repr(v) for v in op.start))
    res.runs += 1
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span(), \
            clock.timing(op.walk) as timed:
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits on flags it rejects
            code = exc.code
    wall = timed[0]
    csv_path = Path(f"{prefix}.samples.csv")
    try:
        if code != 0:
            res.fail(f"exit code {code}: {err.getvalue().strip()}")
            return
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        if res.digest is None:
            res.digest = digest
            if op.walk == "john":
                res.tallies = parse_tallies(out.getvalue())
            problems = score_chain(res, body, csv_path)
            if problems:
                res.fail("; ".join(problems))
                return
        elif digest != res.digest:
            res.fail(f"run {res.runs} CSV differs from the first run's")
            return
        res.walls.append(wall)
    finally:
        if not keep:
            for path in (csv_path, Path(f"{prefix}.manifest.json")):
                path.unlink(missing_ok=True)


def run_solve(res: Outcome, body: Body, clock, span=contextlib.nullcontext) -> None:
    """Run `solve_mve(symmetrize(P, x))` op.repeats times, once more, timed
    by ``clock`` (clock.Clock)."""
    op: SolveOp = res.op
    res.runs += 1
    try:
        with span(), clock.timing(op.route) as timed:
            for _ in range(op.repeats):
                sym = geometry.symmetrize(body.poly, body.center)
                sol = mve.solve_mve(sym, method=op.route, gap=GAP)
    except NumericalError as exc:
        wall = timed[0]
        text = f"{type(exc).__name__}: {exc}"
        if op.known_defect and op.known_defect in str(exc):
            res.known_failure = text
            res.walls.append(wall)  # failed attempts count in the route's wall
        else:
            res.fail(text)
        return
    wall = timed[0]
    digest = hashlib.sha256(sol.ellipsoid.mat.tobytes()).hexdigest()
    if res.digest is None:
        res.digest, res.solution = digest, sol
        problems, res.rounding_defect = check_solution(sol, sym, GAP)
        if problems:
            res.fail("; ".join(problems))
            return
    elif digest != res.digest:
        res.fail(f"run {res.runs} factor differs from the first run's")
        return
    res.walls.append(wall)


def guarded(res: Outcome, run) -> None:
    """Call ``run()``; an unexpected exception fails the run and is recorded
    with its traceback instead of stopping the benchmark."""
    try:
        run()
    except Exception:  # the benchmark must finish and report every failure
        res.fail(traceback.format_exc(limit=4).strip())

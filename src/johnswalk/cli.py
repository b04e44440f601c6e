"""Command-line interface.

Polytopes are read from JSON files holding {"A": [[...], ...], "b": [...]}.
Every sampling run writes its manifest JSON before the samples CSV; the
manifest records the resolved configuration (including the resolved start
point), so re-running from the manifest reproduces the CSV byte for byte.
Parameters are checked when the manifest is built, so a refused run writes
nothing.
Floats are written with 17 significant digits, which round-trips binary64
exactly.

Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from . import __version__
from .diagnostics import check_step_lemmas
from .errors import InputDataError, NumericalError
from .geometry import Polytope, analytic_center, refuse_outside, symmetrize
from .mve import ROUTES, extract_contacts, solve_mve, verify_john_conditions
from .walk import WalkConfig, run_ball_walk, run_chain, run_hit_and_run


def load_polytope(path: str) -> Polytope:
    """Read a polytope from a JSON file with keys "A" and "b"."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputDataError(f"cannot read polytope file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputDataError(f"polytope file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "A" not in data or "b" not in data:
        raise InputDataError(f'polytope file {path} must hold keys "A" and "b"')
    try:
        return Polytope(np.asarray(data["A"], dtype=float), np.asarray(data["b"], dtype=float))
    except ValueError as exc:
        raise InputDataError(f"polytope file {path} is invalid: {exc}") from exc


def emit_samples(samples: np.ndarray, path: str) -> None:
    """Write samples as CSV with header x1..xn and 17-significant-digit
    floats (exact binary64 round trip). A chain repeats its state at every
    lazy hold and rejection, so each run of bitwise equal rows is formatted
    once; the bits decide, since -0.0 == 0.0 prints differently."""
    samples = np.ascontiguousarray(samples, dtype=float)
    n = samples.shape[1]
    row = ",".join(["%.17g"] * n) + "\n"  # np.savetxt's lines, without its wrappers
    bits = samples.view(np.uint64)
    fresh = np.ones(samples.shape[0], dtype=bool)
    fresh[1:] = (bits[1:] != bits[:-1]).any(axis=1)
    starts = np.flatnonzero(fresh)
    repeats = np.diff(np.append(starts, samples.shape[0]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(f"x{j + 1}" for j in range(n)) + "\n")
        fh.writelines((row % tuple(values)) * k
                      for values, k in zip(samples[starts].tolist(), repeats.tolist()))


# Annotation of a scalar manifest field -> (accepted JSON value types, wording).
# Types compare exactly, so JSON true is not an integer.
_MANIFEST_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
    "str": ((str,), "a string"),
    "Optional[float]": ((int, float, type(None)), "null or a number"),
}


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a sampling run bit for bit."""

    artifact_version: str
    command: str
    polytope_path: str
    walk: str
    steps: int
    seed: int
    c: float
    lazy: bool
    solver: str
    gap: Optional[float]
    delta: float
    start: list
    samples_path: str
    manifest_path: str

    def __post_init__(self):
        """Refuse a run that cannot go through; WalkConfig checks c, gap and
        solver."""
        if self.walk not in ("john", "ball", "hitrun"):
            raise InputDataError(f"unknown walk {self.walk!r}")
        if self.steps < 0:
            raise InputDataError("steps must be nonnegative")
        if not 0.0 < self.delta < math.inf:
            raise InputDataError(
                f"ball walk radius must be positive and finite, not {self.delta}")
        self.walk_config()

    def write(self) -> None:
        try:
            with open(self.manifest_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise InputDataError(f"cannot write manifest {self.manifest_path}: {exc}") from exc

    @classmethod
    def read(cls, path: str) -> "RunManifest":
        """Load a manifest written by ``write``. A missing or unknown field,
        or a scalar or string field whose JSON type does not match, raises
        InputDataError naming it."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                spec = json.load(fh)
        except OSError as exc:
            raise InputDataError(f"cannot read manifest {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputDataError(f"manifest {path} is not valid JSON: {exc}") from exc
        if not isinstance(spec, dict):
            raise InputDataError(f"manifest {path} must hold a JSON object")
        names = {f.name for f in fields(cls)}
        for name in sorted(names ^ spec.keys()):
            kind = "missing" if name in names else "unknown"
            raise InputDataError(f"manifest {path}: {kind} field {name!r}")
        # Annotations are strings here; check the scalar and string fields by
        # type name.
        values = {}
        for f in fields(cls):
            value = spec[f.name]
            if f.type in _MANIFEST_TYPES:
                types, wanted = _MANIFEST_TYPES[f.type]
                if type(value) not in types:
                    raise InputDataError(f"manifest {path}: field {f.name!r} must "
                                         f"be {wanted}, not {json.dumps(value)}")
            values[f.name] = float(value) if f.type == "float" else value
        return cls(**values)

    def walk_config(self) -> WalkConfig:
        return WalkConfig(c=self.c, lazy=self.lazy, solver=self.solver,
                          gap=self.gap, seed=self.seed)


def _check_point(values, poly: Polytope) -> np.ndarray:
    """The point as a float vector of n finite entries, strictly interior."""
    try:
        vec = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputDataError(f"point {values!r} is not a vector: {exc}") from exc
    if vec.shape != (poly.n,):
        raise InputDataError(f"point has {vec.size} entries, expected {poly.n}")
    if not np.all(np.isfinite(vec)):
        raise InputDataError(f"point {values} has non-finite entries")
    refuse_outside(poly.slacks(vec), f"point {values}")
    return vec


def _parse_vector(text: str, poly: Polytope) -> np.ndarray:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputDataError(f"cannot parse vector {text!r}: {exc}") from exc
    return _check_point(values, poly)


def _cmd_sample(args) -> int:
    outputs = dict(artifact_version=__version__, command="sample",
                   samples_path=f"{args.out}.samples.csv",
                   manifest_path=f"{args.out}.manifest.json")
    if args.manifest is not None:
        manifest = replace(RunManifest.read(args.manifest), **outputs)
        poly = load_polytope(manifest.polytope_path)
        _check_point(manifest.start, poly)
    else:
        if not args.polytope:
            raise InputDataError("either --polytope or --manifest is required")
        poly = load_polytope(args.polytope)
        start = analytic_center(poly) if args.start is None else _parse_vector(args.start, poly)
        manifest = RunManifest(
            polytope_path=args.polytope,
            walk=args.walk,
            steps=args.steps,
            seed=args.seed,
            c=args.c,
            lazy=args.lazy,
            solver=args.solver,
            gap=args.gap,
            delta=args.delta,
            start=[float(v) for v in start],
            **outputs,
        )
    manifest.write()
    start = np.asarray(manifest.start, dtype=float)
    if manifest.walk == "john":
        samples, tallies = run_chain(poly, start, manifest.steps, manifest.walk_config())
        summary = (
            f"accept={tallies.accept} lazy_hold={tallies.lazy_hold} "
            f"reject_outside={tallies.reject_outside} "
            f"reject_reversibility={tallies.reject_reversibility} "
            f"reject_filter={tallies.reject_filter}"
        )
    elif manifest.walk == "ball":
        samples = run_ball_walk(poly, start, manifest.steps, manifest.delta, seed=manifest.seed)
        summary = f"delta={manifest.delta}"
    else:
        samples = run_hit_and_run(poly, start, manifest.steps, seed=manifest.seed)
        summary = ""
    emit_samples(samples, manifest.samples_path)
    print(f"wrote {manifest.manifest_path} and {manifest.samples_path}")
    if summary:
        print(summary)
    return 0


def _cmd_mve(args) -> int:
    poly = load_polytope(args.polytope)
    point = analytic_center(poly) if args.point is None else _parse_vector(args.point, poly)
    body = symmetrize(poly, point)
    sol = solve_mve(body, method=args.solver, gap=args.gap)
    contacts = extract_contacts(sol, body)
    resid = verify_john_conditions(contacts)
    print(f"solver={sol.solver_tag} logdet={sol.ellipsoid.logdet:.12g} "
          f"logdet_gap<={sol.logdet_gap:.3g} iterations={sol.iterations} "
          f"newton_steps={sol.newton_steps}")
    for row in sol.ellipsoid.mat:
        print("  " + " ".join(f"{v: .12g}" for v in row))
    print(f"contacts={len(contacts)} frobenius_residual={resid.frobenius:.3g} "
          f"weight_sum_residual={resid.weight_sum:.3g} "
          f"balance_residual={resid.balance:.3g}")
    return 0


def _parse_n_range(text: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi = text.split(":")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise InputDataError(f"cannot parse n range {text!r}: {exc}") from exc
    if not values or min(values) < 1:
        raise InputDataError(f"empty or invalid n range {text!r}")
    return values


def _cube(n: int) -> Polytope:
    eye = np.eye(n)
    return Polytope(np.vstack([eye, -eye]), np.ones(2 * n))


def _cmd_diagnose(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = 0
    for n in _parse_n_range(args.n_range):
        report = check_step_lemmas(_cube(n), args.trials, args.c, rng)
        records = [
            ("det_dev_max", report.max_det_dev, 3.0),
            ("mineig_dev_max", report.min_eig_dev, 3.0),
            ("crossratio_violations", float(report.crossratio_violations), 0.0),
        ]
        for name, value, bound in records:
            ok = value <= bound
            failures += 0 if ok else 1
            print(f"{name} n={n} value={value:.6g} bound={bound:g} "
                  f"{'pass' if ok else 'fail'}")
    return 0 if failures == 0 else 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="johnswalk",
        description="Uniform polytope sampling with inscribed-ellipsoid walks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sample = sub.add_parser("sample", help="run a walk and write samples")
    p_sample.add_argument("--polytope", default=None)
    p_sample.add_argument("--manifest", default=None,
                          help="re-run the configuration stored in a manifest")
    p_sample.add_argument("--walk", choices=("john", "ball", "hitrun"), default="john")
    p_sample.add_argument("--steps", type=int, default=1000)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--c", type=float, default=0.5)
    p_sample.add_argument("--lazy", action=argparse.BooleanOptionalAction, default=True)
    p_sample.add_argument("--solver", choices=tuple(ROUTES), default="oracle")
    p_sample.add_argument("--gap", type=float, default=None)
    p_sample.add_argument("--start", default=None,
                          help="comma-separated start point; default analytic center")
    p_sample.add_argument("--delta", type=float, default=0.1,
                          help="ball-walk step radius")
    p_sample.add_argument("--out", default="run",
                          help="output prefix for manifest and CSV")
    p_sample.set_defaults(func=_cmd_sample)

    p_mve = sub.add_parser("mve", help="inscribed ellipsoid at a point")
    p_mve.add_argument("--polytope", required=True)
    p_mve.add_argument("--point", default=None)
    p_mve.add_argument("--solver", choices=tuple(ROUTES), default="oracle")
    p_mve.add_argument("--gap", type=float, default=1e-9)
    p_mve.set_defaults(func=_cmd_mve)

    p_diag = sub.add_parser("diagnose", help="step-geometry checks on cubes")
    p_diag.add_argument("--n-range", default="2:6")
    p_diag.add_argument("--trials", type=int, default=50)
    p_diag.add_argument("--c", type=float, default=0.5)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputDataError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

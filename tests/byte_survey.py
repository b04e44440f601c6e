"""Byte survey: every output that a change meant to keep behaviour must keep.

    python tests/byte_survey.py OUT

In one interpreter, through ``johnswalk.cli.main``, writes into the new
directory OUT the bodies below as JSON, then for each run its files and its
stdout, and prints the ``johnswalk.__file__`` it imported and one
``sha256  name`` line per file. The BLAS thread count comes from the
environment. Two surveys compare with ``diff -r``: the walk's Metropolis
filter is exact only if the ellipsoid is a function of the point, so the
outputs must not depend on how BLAS splits its products over threads, nor on
a refactor. A solver change may move them at rounding level and must then
keep every certified gap (ROADMAP item 15).

- john, ball, hitrun: every walk on the square. ``diagnose`` draws its
  displacements through ``ball_point``, the one ball sampler the walks use.
- c8, c8v: the square chains at c = 8 never hold, and take every non-lazy
  branch of a step, the outside reject included, one per solver route.
- thin: from an off-center start the thin box's symmetrized row pairs have
  unequal slacks, so each step keeps the longer row of each pair.
- vaidya, tall: cutting-plane chains; the route runs its own LAPACK
  factorizations. The tall body, (n, m) = (5, 1000), certifies from its own
  contact weights at the walk's default gap, and its 1000-row products are
  ones two threads could split. Its oracle route spins to the iteration cap.
- tall20, r10, r20: oracle chains whose ascents take steps, on 1000-row
  products and on bodies in general position.
- ess.txt: the per-coordinate ``diagnostics.ess`` of every chain above, to
  17 digits, the statistic the benchmark's useful samples per second rest
  on.
- mve-*: solves at the center, printed to 17 digits. r8 = (8, 24) is large
  enough that a threaded product over its cuts would change bits. The
  oracle route's exact recompute calls dgeqrf and dtrtri beside numpy
  products. At a loose gap the contacts are taken at the slack of the gap
  the solve recorded. On r2 = (2, 100) and r3 = (3, 100) at the default
  gap the Newton polish does not certify, and the weight ascent resumes
  from its weights for hundreds and thousands of iterations, many of them
  past a round of ``_EXACT_EVERY`` rank-one steps.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys

import numpy as np

import johnswalk
from johnswalk.cli import main
from johnswalk.diagnostics import ess
from johnswalk.geometry import Polytope

from conftest import box, unit_normal_polytope

RANDOM = {"r2": (2, 100), "r3": (3, 100), "r8": (8, 24), "tall": (5, 1000),
          "tall20": (20, 1000), "r10": (10, 60), "r20": (20, 120)}
WALK = "--polytope square.json --steps 200 --seed 3"
SAMPLES = {
    "john": WALK,
    "ball": f"{WALK} --walk ball",
    "hitrun": f"{WALK} --walk hitrun",
    "c8": f"{WALK} --c 8 --no-lazy",
    "c8v": f"{WALK} --c 8 --no-lazy --solver vaidya --gap 1e-5",
    "thin": "--polytope thin.json --start 0.3,-0.2,0.1,0.4,0.003 --steps 200 --seed 3",
    "vaidya": "--polytope square.json --solver vaidya --gap 1e-5 --steps 20 --seed 3",
    "tall": "--polytope tall.json --solver vaidya --steps 20 --seed 3",
    "tall20": "--polytope tall20.json --steps 60 --seed 7 --c 32 --gap 1e-6",
    "r10": "--polytope r10.json --steps 60 --seed 5 --c 16",
    "r20": "--polytope r20.json --steps 30 --seed 5 --c 16",
}
# (body, solver, gap); None is the command's default gap.
SOLVES = [("square", "vaidya", "1e-5"), ("square", "vaidya", "1e-1"),
          ("r8", "vaidya", "1e-5"), ("r8", "vaidya", "1e-3"),
          ("r8", "oracle", None), ("r8", "oracle", "1e-3"),
          ("tall", "vaidya", "2e-7"), ("r10", "oracle", "1e-9"),
          ("r20", "oracle", "1e-9"), ("r2", "oracle", None), ("r3", "oracle", None)]


def run(name: str, argv: list) -> None:
    """``johnswalk ARGV`` with its stdout written to NAME."""
    with open(name, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"johnswalk {' '.join(argv)} exited {code}")


def survey(out: str) -> None:
    os.makedirs(out)
    os.chdir(out)
    bodies = {"square": Polytope([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, 1, 1, 1]),
              "thin": box([1, 1, 1, 1, 0.01])}
    bodies.update((name, unit_normal_polytope(n, m, 0)) for name, (n, m) in RANDOM.items())
    for name, poly in bodies.items():
        with open(f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump({"A": poly.A.tolist(), "b": poly.b.tolist()}, fh)
    for name, flags in SAMPLES.items():
        run(f"{name}.stdout.txt", ["sample", *flags.split(), "--out", name])
    with open("ess.txt", "w", encoding="utf-8") as fh:
        for name in SAMPLES:
            chain = np.loadtxt(f"{name}.samples.csv", delimiter=",", skiprows=1)
            fh.write(" ".join([name, *(f"{ess(col):.17g}" for col in chain.T)]) + "\n")
    for body, solver, gap in SOLVES:
        flags = ["--polytope", f"{body}.json", "--solver", solver]
        flags += [] if gap is None else ["--gap", gap]
        run(f"mve-{body}-{solver}-{gap or 'default'}.txt", ["mve", *flags])
    run("diagnose.txt", ["diagnose", "--n-range", "2:3", "--trials", "5"])
    print(johnswalk.__file__)
    for name in sorted(os.listdir(".")):
        with open(name, "rb") as fh:
            print(f"{hashlib.sha256(fh.read()).hexdigest()}  {name}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    survey(sys.argv[1])

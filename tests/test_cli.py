import json

import numpy as np
import pytest

from johnswalk.cli import (
    _parse_n_range,
    emit_samples,
    load_polytope,
    main,
)
from johnswalk.errors import InputDataError

from conftest import unit_normal_polytope


def write_polytope(path, a, b):
    path.write_text(json.dumps({"A": a, "b": b}))
    return str(path)


@pytest.fixture
def square(tmp_path):
    return write_polytope(
        tmp_path / "square.json",
        [[1, 0], [-1, 0], [0, 1], [0, -1]],
        [1, 1, 1, 1],
    )


class TestLoadPolytope:
    def test_interval(self, tmp_path):
        path = write_polytope(tmp_path / "p.json", [[1], [-1]], [1, 1])
        poly = load_polytope(path)
        assert poly.m == 2
        assert poly.n == 1
        assert np.all(poly.slacks(np.zeros(1)) == 1.0)

    def test_under_determined_loads(self, tmp_path):
        # A single halfspace cannot bound a body but must still load;
        # unboundedness surfaces later, in the operations that need a body.
        path = write_polytope(tmp_path / "p.json", [[1, 0]], [1])
        poly = load_polytope(path)
        assert (poly.m, poly.n) == (1, 2)

    def test_b_length_mismatch(self, tmp_path):
        path = write_polytope(tmp_path / "p.json", [[1], [-1]], [1, 1, 1])
        with pytest.raises(InputDataError, match="p.json"):
            load_polytope(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{not json")
        with pytest.raises(InputDataError, match="JSON"):
            load_polytope(str(path))

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"A": [[1]]}))
        with pytest.raises(InputDataError, match='"A" and "b"'):
            load_polytope(str(path))

    def test_non_finite_entries(self, tmp_path):
        path = write_polytope(tmp_path / "p.json", [[1], [-1]],
                              [1, float("inf")])
        with pytest.raises(InputDataError):
            load_polytope(path)

    def test_object_as_matrix(self, tmp_path):
        path = write_polytope(tmp_path / "p.json", {"x": 1}, [1])
        with pytest.raises(InputDataError, match="p.json is invalid"):
            load_polytope(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputDataError, match="cannot read"):
            load_polytope(str(tmp_path / "absent.json"))


class TestEmitSamples:
    def test_empty_writes_header_only(self, tmp_path):
        path = tmp_path / "s.csv"
        emit_samples(np.empty((0, 3)), str(path))
        assert path.read_text() == "x1,x2,x3\n"

    def test_single_sample_two_lines(self, tmp_path):
        path = tmp_path / "s.csv"
        emit_samples(np.array([[0.5, -0.25]]), str(path))
        lines = path.read_text().splitlines()
        assert lines == ["x1,x2", "0.5,-0.25"]

    def test_round_trip_exact(self, tmp_path, rng):
        path = tmp_path / "s.csv"
        original = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(
            -8, 9, size=(40, 3)
        )
        emit_samples(original, str(path))
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back, original)

    def test_lines_match_savetxt(self, tmp_path, rng):
        # np.savetxt is the reference for the sample lines, signed zeros,
        # subnormals and extreme exponents included.
        samples = rng.standard_normal((30, 4)) * 10.0 ** rng.integers(-320, 308, size=(30, 4))
        samples[0] = [-0.0, 0.0, 5e-324, -1.7976931348623157e308]
        path = tmp_path / "s.csv"
        emit_samples(samples, str(path))
        with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x1,x2,x3,x4\n")
            np.savetxt(fh, samples, fmt="%.17g", delimiter=",")
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_repeated_rows_match_savetxt(self, tmp_path, rng):
        # Runs of equal rows are formatted once, but only bitwise equal rows
        # share a line: 0.0 and -0.0 compare equal and print differently.
        a, b = rng.standard_normal((2, 2))
        samples = np.array([a, a, a, b, b, a, [0.0, 1.5], [-0.0, 1.5], [-0.0, 1.5]])
        path = tmp_path / "s.csv"
        emit_samples(samples, str(path))
        with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("x1,x2\n")
            np.savetxt(fh, samples, fmt="%.17g", delimiter=",")
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestParseNRange:
    def test_colon_range(self):
        assert _parse_n_range("2:5") == [2, 3, 4, 5]

    def test_comma_list(self):
        assert _parse_n_range("2,4,7") == [2, 4, 7]

    def test_rejects_garbage_and_zero(self):
        with pytest.raises(InputDataError):
            _parse_n_range("two:five")
        with pytest.raises(InputDataError):
            _parse_n_range("0,3")


class TestSampleCommand:
    def test_john_run_writes_manifest_and_csv(self, square, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = main([
            "sample", "--polytope", square, "--steps", "50",
            "--seed", "3", "--out", out,
        ])
        assert code == 0
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["walk"] == "john"
        assert manifest["steps"] == 50
        assert manifest["seed"] == 3
        assert manifest["start"] == [0.0, 0.0]
        assert manifest["gap"] is None
        lines = (tmp_path / "run.samples.csv").read_text().splitlines()
        assert lines[0] == "x1,x2"
        assert len(lines) == 52
        assert "accept=" in capsys.readouterr().out

    def test_manifest_rerun_reproduces_csv(self, square, tmp_path):
        first = str(tmp_path / "a")
        assert main([
            "sample", "--polytope", square, "--steps", "80",
            "--seed", "11", "--out", first,
        ]) == 0
        second = str(tmp_path / "b")
        assert main([
            "sample", "--manifest", f"{first}.manifest.json", "--out", second,
        ]) == 0
        a = (tmp_path / "a.samples.csv").read_bytes()
        b = (tmp_path / "b.samples.csv").read_bytes()
        assert a == b

    def test_manifest_written_before_samples(self, tmp_path):
        # An unbounded body with an interior start fails inside the walk,
        # after the manifest is on disk but before any CSV appears.
        path = write_polytope(tmp_path / "open.json", [[1, 0]], [1])
        out = str(tmp_path / "run")
        code = main([
            "sample", "--polytope", path, "--steps", "5",
            "--start", "0.0,0.0", "--out", out,
        ])
        assert code == 3
        assert (tmp_path / "run.manifest.json").exists()
        assert not (tmp_path / "run.samples.csv").exists()

    @pytest.mark.parametrize("field, change, message", [
        ("c", None, "missing field 'c'"),
        ("speed", 2, "unknown field 'speed'"),
        ("lazy", "false", "field 'lazy' must be true or false"),
        ("steps", 20.9, "field 'steps' must be an integer"),
        ("seed", True, "field 'seed' must be an integer"),
        ("c", True, "field 'c' must be a number"),
        ("delta", "0.1", "field 'delta' must be a number"),
        ("gap", "1e-9", "field 'gap' must be null or a number"),
        pytest.param("polytope_path", ["x"], "field 'polytope_path' must be a string",
                     id="polytope_path-list"),
        ("polytope_path", 0, "field 'polytope_path' must be a string"),
        ("walk", "jump", "unknown walk 'jump'"),
        ("solver", "exact", "unknown solver method 'exact'"),
        ("gap", -1, "gap must be positive and finite"),
    ])
    def test_manifest_field_errors_exit_two(self, square, tmp_path, capsys,
                                            field, change, message):
        first = str(tmp_path / "a")
        assert main(["sample", "--polytope", square, "--steps", "5",
                     "--out", first]) == 0
        path = tmp_path / "a.manifest.json"
        spec = json.loads(path.read_text())
        if change is None:
            del spec[field]
        else:
            spec[field] = change
        path.write_text(json.dumps(spec))
        capsys.readouterr()
        code = main(["sample", "--manifest", str(path), "--out", str(tmp_path / "b")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.glob("b.*")) == []

    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--c", "nan"], "finite c", id="c"),
        pytest.param(["--gap", "-1"], "gap must be positive and finite", id="gap"),
        pytest.param(["--steps", "-1"], "steps must be nonnegative", id="steps"),
        pytest.param(["--walk", "ball", "--delta", "nan"], "ball walk radius", id="delta"),
    ])
    def test_bad_parameter_writes_nothing(self, square, tmp_path, capsys, flags, message):
        code = main(["sample", "--polytope", square, *flags, "--out", str(tmp_path / "r")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.glob("r.*")) == []

    def test_out_in_missing_directory_exits_two(self, square, tmp_path, capsys):
        code = main(["sample", "--polytope", square, "--steps", "5",
                     "--out", str(tmp_path / "absent" / "r")])
        assert code == 2
        assert "cannot write manifest" in capsys.readouterr().err

    def test_unwritable_samples_path_exits_two(self, square, tmp_path, capsys):
        (tmp_path / "r.samples.csv").mkdir()
        code = main(["sample", "--polytope", square, "--steps", "5",
                     "--out", str(tmp_path / "r")])
        assert code == 2
        assert "cannot write samples" in capsys.readouterr().err
        assert not (tmp_path / "r.manifest.json").exists()

    def test_refused_rerun_in_place_keeps_its_manifest(self, square, tmp_path):
        # Re-run from a manifest onto its own --out: the refusal must not
        # delete the manifest the run was read from.
        out = str(tmp_path / "r")
        assert main(["sample", "--polytope", square, "--steps", "5", "--out", out]) == 0
        manifest = (tmp_path / "r.manifest.json").read_bytes()
        (tmp_path / "r.samples.csv").unlink()
        (tmp_path / "r.samples.csv").mkdir()
        assert main(["sample", "--manifest", f"{out}.manifest.json", "--out", out]) == 2
        assert (tmp_path / "r.manifest.json").read_bytes() == manifest

    def test_vaidya_solver_run(self, square, tmp_path, capsys):
        # The walk on approximate ellipsoids from the cutting-plane route.
        first = str(tmp_path / "a")
        assert main(["sample", "--polytope", square, "--solver", "vaidya",
                     "--steps", "20", "--seed", "4", "--out", first]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert sum(int(part.split("=")[1]) for part in summary.split()) == 20
        samples = np.loadtxt(f"{first}.samples.csv", delimiter=",", skiprows=1)
        assert samples.shape == (21, 2)
        assert np.all(np.abs(samples) < 1.0)
        second = str(tmp_path / "b")
        assert main(["sample", "--manifest", f"{first}.manifest.json",
                     "--out", second]) == 0
        a = (tmp_path / "a.samples.csv").read_bytes()
        assert a == (tmp_path / "b.samples.csv").read_bytes()

    def test_ball_and_hitrun_walks(self, square, tmp_path):
        for walk in ("ball", "hitrun"):
            out = str(tmp_path / walk)
            code = main([
                "sample", "--polytope", square, "--walk", walk,
                "--steps", "30", "--out", out,
            ])
            assert code == 0
            lines = (tmp_path / f"{walk}.samples.csv").read_text().splitlines()
            assert len(lines) == 32

    @pytest.mark.parametrize("walk", ["ball", "hitrun"])
    def test_baseline_negative_steps_exit_two(self, square, tmp_path, capsys, walk):
        code = main(["sample", "--polytope", square, "--walk", walk,
                     "--steps", "-1", "--out", str(tmp_path / walk)])
        assert code == 2
        assert "steps" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("walk, flag", [("ball", "--delta"), ("john", "--c")])
    def test_non_finite_parameter_exits_two(self, square, tmp_path, capsys,
                                            walk, flag, value):
        code = main(["sample", "--polytope", square, "--walk", walk, flag, value,
                     "--steps", "5", "--out", str(tmp_path / "r")])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("walk", ["john", "ball", "hitrun"])
    def test_non_finite_start_exits_two(self, square, tmp_path, capsys, walk):
        code = main(["sample", "--polytope", square, "--walk", walk, "--start", "nan,0",
                     "--steps", "5", "--out", str(tmp_path / "r")])
        assert code == 2
        assert "point [nan, 0.0] has non-finite entries" in capsys.readouterr().err
        assert list(tmp_path.glob("r.*")) == []

    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--start", "5,5"], "point [5.0, 5.0] is not strictly interior",
                     id="start-outside"),
        pytest.param(["--start", "1,0"], "point [1.0, 0.0] is not strictly interior",
                     id="start-boundary"),
        pytest.param(["--seed", "-1"], "seed must be nonnegative, not -1", id="seed"),
        pytest.param(["--start="], "cannot parse vector ''", id="start-empty"),
        pytest.param(["--manifest="], "cannot read manifest", id="manifest-empty"),
    ])
    @pytest.mark.parametrize("walk", ["john", "ball", "hitrun"])
    def test_refused_start_or_seed_writes_nothing(self, square, tmp_path, capsys,
                                                  walk, flags, message):
        code = main(["sample", "--polytope", square, "--walk", walk, *flags,
                     "--steps", "5", "--out", str(tmp_path / "r")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.glob("r.*")) == []

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("start", [5.0, 5.0], "point [5.0, 5.0] is not strictly interior",
                     id="start-outside"),
        pytest.param("seed", -1, "seed must be nonnegative, not -1", id="seed"),
    ])
    @pytest.mark.parametrize("walk", ["john", "ball", "hitrun"])
    def test_manifest_refused_start_or_seed_writes_nothing(self, square, tmp_path, capsys,
                                                           walk, field, value, message):
        first = str(tmp_path / "a")
        assert main(["sample", "--polytope", square, "--walk", walk, "--steps", "5",
                     "--out", first]) == 0
        path = tmp_path / "a.manifest.json"
        spec = json.loads(path.read_text())
        spec[field] = value
        path.write_text(json.dumps(spec))
        capsys.readouterr()
        code = main(["sample", "--manifest", str(path), "--out", str(tmp_path / "b")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.glob("b.*")) == []

    def test_manifest_non_finite_start_exits_two(self, square, tmp_path, capsys):
        first = str(tmp_path / "a")
        assert main(["sample", "--polytope", square, "--steps", "5",
                     "--out", first]) == 0
        path = tmp_path / "a.manifest.json"
        spec = json.loads(path.read_text())
        spec["start"] = [float("nan"), 0.0]
        path.write_text(json.dumps(spec))
        capsys.readouterr()
        code = main(["sample", "--manifest", str(path), "--out", str(tmp_path / "b")])
        assert code == 2
        assert "non-finite entries" in capsys.readouterr().err
        assert list(tmp_path.glob("b.*")) == []

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda spec: "{not json", "is not valid JSON", id="not-json"),
        pytest.param(lambda spec: "[]", "must hold a JSON object", id="array"),
        pytest.param(lambda spec: json.dumps({**spec, "start": "abc"}),
                     "is not a vector", id="start-string"),
        pytest.param(lambda spec: json.dumps({**spec, "start": [[1.0], [2.0, 3.0]]}),
                     "is not a vector", id="start-ragged"),
    ])
    def test_unreadable_manifest_writes_nothing(self, square, tmp_path, capsys,
                                                edit, message):
        assert main(["sample", "--polytope", square, "--steps", "5",
                     "--out", str(tmp_path / "a")]) == 0
        path = tmp_path / "a.manifest.json"
        path.write_text(edit(json.loads(path.read_text())))
        capsys.readouterr()
        code = main(["sample", "--manifest", str(path), "--out", str(tmp_path / "b")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.glob("b.*")) == []

    def test_reused_parser_carries_no_state(self, square, tmp_path):
        # The parser is built once per process: a call that sets every walk
        # flag must leave the next call's defaults as they were.
        def run(name, *flags):
            assert main(["sample", "--polytope", square, "--steps", "10", "--seed", "4",
                         *flags, "--out", str(tmp_path / name)]) == 0
            manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
            return manifest, (tmp_path / f"{name}.samples.csv").read_bytes()

        first, csv = run("a")
        middle, _ = run("b", "--no-lazy", "--c", "2", "--solver", "vaidya", "--gap", "1e-5",
                        "--start", "0.1,-0.2")
        assert (middle["lazy"], middle["c"], middle["solver"], middle["gap"]) \
            == (False, 2.0, "vaidya", 1e-5)
        third, csv_third = run("c")
        assert (third["lazy"], third["c"], third["solver"], third["gap"], third["start"]) \
            == (True, 0.5, "oracle", None, [0.0, 0.0])
        assert csv_third == csv

    def test_requires_polytope_or_manifest(self, capsys):
        assert main(["sample"]) == 2
        assert "either --polytope or --manifest" in capsys.readouterr().err

    def test_bad_start_vector(self, square, tmp_path, capsys):
        code = main([
            "sample", "--polytope", square, "--start", "0.1",
            "--out", str(tmp_path / "r"),
        ])
        assert code == 2
        assert "expected 2" in capsys.readouterr().err

    def test_missing_polytope_file(self, tmp_path, capsys):
        code = main([
            "sample", "--polytope", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "r"),
        ])
        assert code == 2

    def test_unbounded_body_exits_three(self, tmp_path, capsys):
        path = write_polytope(tmp_path / "open.json", [[1, 0]], [1])
        code = main([
            "sample", "--polytope", path, "--out", str(tmp_path / "r"),
        ])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


    @pytest.mark.parametrize("a, b, message", [
        pytest.param([[1, 0], [-1, 0], [0, 1], [0, -1]], [-1, -1, 1, 1],
                     "no strictly interior point found", id="empty"),
        pytest.param([[1, 0], [0, 1], [0, -1]], [1, 1, 1],
                     "analytic center failed to converge", id="strip"),
        pytest.param([[1, 0], [-1, 0], [0, 1], [0, -1]], [1, -1, 1, 1],
                     "no strictly interior point found", id="flat"),
        pytest.param([[-1, 0], [0, 1], [0, -1]], [-2, 1, 1],
                     "analytic center failed to converge", id="unbounded-away"),
    ])
    def test_no_start_point_exits_three_and_writes_nothing(self, tmp_path, capsys,
                                                           a, b, message):
        path = write_polytope(tmp_path / "p.json", a, b)
        code = main(["sample", "--polytope", path, "--out", str(tmp_path / "r")])
        assert code == 3
        assert message in capsys.readouterr().err
        assert list(tmp_path.glob("r.*")) == []


class TestMveCommand:
    def test_square_report(self, square, capsys):
        assert main(["mve", "--polytope", square]) == 0
        out = capsys.readouterr().out
        assert "logdet=" in out
        assert "contacts=4" in out
        first = next(line for line in out.splitlines() if "logdet=" in line)
        logdet = float(first.split("logdet=")[1].split()[0])
        assert abs(logdet) <= 1e-8

    def test_off_center_point(self, square, capsys):
        assert main(["mve", "--polytope", square, "--point", "0.5,0.0"]) == 0
        out = capsys.readouterr().out
        logdet = float(out.split("logdet=")[1].split()[0])
        # Symmetrized square at (0.5, 0): box widths 0.5 and 1.
        assert np.isclose(logdet, np.log(0.5), atol=1e-8)

    def test_vaidya_on_ill_conditioned_body_does_not_exit_two(self, tmp_path, capsys):
        # A factorization breakdown inside the cutting-plane engine is a
        # numerical failure (exit 3) at worst, never an input error.
        poly = unit_normal_polytope(6, 18, 7)
        path = write_polytope(tmp_path / "rand6x18.json", poly.A.tolist(), poly.b.tolist())
        code = main(["mve", "--solver", "vaidya", "--gap", "1e-5", "--polytope", path])
        assert code in (0, 3)
        assert "input error" not in capsys.readouterr().err


    def test_loose_gap_on_the_cutting_plane_route(self, square, capsys):
        assert main(["mve", "--polytope", square, "--solver", "vaidya", "--gap", "1e6"]) == 0
        assert capsys.readouterr().out.startswith("solver=vaidya ")

    @pytest.mark.parametrize("gap", ["nan", "inf"])
    def test_non_finite_gap_exits_two(self, square, capsys, gap):
        assert main(["mve", "--solver", "vaidya", "--gap", gap, "--polytope", square]) == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_point_exits_two(self, square, capsys):
        assert main(["mve", "--polytope", square, "--point", "nan,0"]) == 2
        assert "point [nan, 0.0] has non-finite entries" in capsys.readouterr().err

    def test_empty_point_exits_two(self, square, capsys):
        # An empty value is a malformed point, not a request for the center.
        assert main(["mve", "--polytope", square, "--point="]) == 2
        captured = capsys.readouterr()
        assert "cannot parse vector ''" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("solver, gap", [
        pytest.param("oracle", "1e-9", id="oracle"),
        pytest.param("vaidya", "1e-9", id="vaidya"),
        # A coarse gap must still leave a full-rank contact set (else exit 3).
        pytest.param("oracle", "1e-5", id="oracle-gap1e-5"),
    ])
    def test_summary_counts_iterations(self, tmp_path, capsys, solver, gap):
        poly = unit_normal_polytope(5, 15, 7)
        path = write_polytope(tmp_path / "rand5x15.json", poly.A.tolist(), poly.b.tolist())
        assert main(["mve", "--solver", solver, "--gap", gap, "--polytope", path]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        assert summary.startswith(f"solver={solver} ")
        assert int(summary.split("iterations=")[1].split()[0]) > 0
        assert int(summary.split("newton_steps=")[1]) > 0

    @pytest.mark.parametrize("solver, shape", [
        pytest.param("oracle", (4, 12), id="oracle"),
        pytest.param("vaidya", (2, 6), id="vaidya"),
    ])
    def test_loose_gap_answer_reports_its_contacts(self, tmp_path, capsys, solver, shape):
        # A gap-1e-1 answer sits further from its facets than the fixed
        # contact slack 1e-6; the report looks for contacts at the slack
        # that gap allows, as the cutting-plane certificate does.
        poly = unit_normal_polytope(*shape, 0)
        path = write_polytope(tmp_path / "body.json", poly.A.tolist(), poly.b.tolist())
        assert main(["mve", "--solver", solver, "--gap", "1e-1", "--polytope", path]) == 0
        contacts = int(capsys.readouterr().out.split("contacts=")[1].split()[0])
        assert contacts >= 2 * poly.n


class TestDiagnoseCommand:
    def test_small_sweep_passes(self, capsys):
        code = main(["diagnose", "--n-range", "2:3", "--trials", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 6
        assert "fail" not in out

    def test_bad_c_refused_before_any_solve(self, monkeypatch, capsys):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before c was checked")

        monkeypatch.setattr("johnswalk.walk.solve_mve", no_solve)
        assert main(["diagnose", "--n-range", "2", "--c", "nan"]) == 2
        assert "finite c" in capsys.readouterr().err


class TestRemovedBenchCommand:
    def test_bench_is_not_a_subcommand(self, square):
        # perfbench/ is the one harness that compares walks.
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--polytope", square])
        assert exc.value.code == 2

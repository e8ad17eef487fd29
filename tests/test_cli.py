import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from minkcenters import CircumResult, cli, dump_report
from minkcenters.cli import EXIT_INVALID, EXIT_NO_CENTER, EXIT_OK, main
from test_circumcenter import SEED7_6732


def write_instance(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


SIMPLEX_EUCL = {
    "norm": {"kind": "euclidean"},
    "problem": {"simplex": {"vertices": [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]]}},
    "seed": 0,
}
SIMPLEX_L1 = {
    "norm": {"kind": "lp", "p": 1},
    "problem": {"simplex": {"vertices": [[1, 0], [0, 1], [-1, 0]]}},
}
NO_CENTER_L1 = {
    "norm": {"kind": "lp", "p": 1},
    "problem": {"simplex": {"vertices": [[0.13, -0.13], [0.64, 0.1], [-0.54, 0.36]]}},
}
DEGENERATE = {
    "norm": {"kind": "euclidean"},
    "problem": {"simplex": {"vertices": [[0, 0], [1, 0], [2, 0]]}},
}


class TestCenters:
    def test_trirectangular_report(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "t.json", SIMPLEX_EUCL)
        assert main(["centers", inst]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "simplex"
        assert np.allclose(report["report"]["M"], [1, 1, 1], atol=1e-9)
        assert np.allclose(report["report"]["N_M"], [0, 0, 0], atol=1e-9)
        assert report["instance"] == SIMPLEX_EUCL

    def test_out_file_and_determinism(self, tmp_path):
        inst = write_instance(tmp_path / "t.json", SIMPLEX_EUCL)
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["centers", inst, "--out", out1]) == EXIT_OK
        assert main(["centers", inst, "--out", out2]) == EXIT_OK
        b1 = Path(out1).read_bytes()
        assert b1 == Path(out2).read_bytes()
        assert b1.endswith(b"\n")
        json.loads(b1)  # valid JSON

    def test_assume_center(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "t.json", SIMPLEX_L1)
        assert main(["centers", inst, "--assume-center", "0,0"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["report"]["M"] == [0, 0]
        assert report["report"]["R"] == pytest.approx(1.0)
        assert report["diagnostics"]["solver"]["status"] == "assumed"

    def test_assume_center_wrong_point(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "t.json", SIMPLEX_L1)
        assert main(["centers", inst, "--assume-center", "0.3,0.1"]) == EXIT_NO_CENTER
        assert "not a circumcenter" in capsys.readouterr().err

    def test_assume_center_beyond_float_resolution(self, tmp_path, capsys):
        # every distance from (1e17, 1e17) rounds to the same float
        obj = {"norm": {"kind": "lp", "p": 3},
               "problem": {"simplex": {"vertices": [[0, 0], [1, 0], [0, 1]]}}}
        inst = write_instance(tmp_path / "t.json", obj)
        assert main(["centers", inst, "--assume-center=1e17,1e17"]) == EXIT_NO_CENTER
        assert "not a circumcenter" in capsys.readouterr().err

    def test_flat_triangle_far_center(self, tmp_path, capsys):
        # R = 5e5 * diameter, within float resolution at the default tolerance
        obj = {"norm": {"kind": "euclidean"},
               "problem": {"simplex": {"vertices": [[-1, 0], [1, 0], [0, 1e-6]]}}}
        inst = write_instance(tmp_path / "t.json", obj)
        assert main(["centers", inst]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["report"]["R"] == pytest.approx(5e5, rel=1e-6)

    @pytest.mark.parametrize("norm, height, radius", [
        ({"kind": "euclidean"}, 0.03, 16.68), ({"kind": "lp", "p": 3}, 8e-4, 20.41)],
        ids=["l2", "l3"])
    def test_tight_tol_obtuse_triangle(self, tmp_path, capsys, norm, height, radius):
        # R is about 8-10 * diameter, inside float resolution at eps_geom = 1e-13
        obj = {"norm": norm,
               "problem": {"simplex": {"vertices": [[-1, 0], [1, 0], [0, height]]}}}
        inst = write_instance(tmp_path / "t.json", obj)
        assert main(["centers", inst, "--tol", "1e-13"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["diagnostics"]["tolerances"]["eps_geom"] == 1e-13
        assert report["report"]["R"] == pytest.approx(radius, abs=0.01)
        assert report["diagnostics"]["solver"]["residual"] <= 1e-13 * 2

    def test_assume_center_negative_coordinate(self, tmp_path, capsys):
        obj = {"norm": {"kind": "lp", "p": "inf"},
               "problem": {"simplex": {"vertices": [[0, 0], [-1, 1], [-2, 0]]}}}
        inst = write_instance(tmp_path / "t.json", obj)
        assert main(["centers", inst, "--assume-center", "-1,0"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["report"]["M"] == [-1, 0]

    def test_no_center_exit_code(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "t.json", NO_CENTER_L1)
        assert main(["centers", inst]) == EXIT_NO_CENTER
        assert "no circumcenter exists" in capsys.readouterr().err

    def test_smooth_miss_has_its_own_message(self, tmp_path, capsys, monkeypatch):
        miss = CircumResult("not_found", None, None, 0.1, 11)
        monkeypatch.setattr(cli, "solve_circumcenter", lambda *args: miss)
        inst = write_instance(tmp_path / "t.json", SIMPLEX_EUCL)
        assert main(["centers", inst]) == EXIT_NO_CENTER
        assert "no circumcenter found at tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["centers"], [], ["centers", "x.json", "--bogus"]])
    def test_usage_error_exits_invalid(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_INVALID
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["centers", "--help"]])
    def test_help_and_version_exit_ok(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_OK

    def test_degenerate_simplex_invalid(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "t.json", DEGENERATE)
        assert main(["centers", inst]) == EXIT_INVALID
        assert "general position" in capsys.readouterr().err

    def test_huge_vertex_invalid_without_warning(self, tmp_path):
        # the general-position test once raised scale ** d, which overflows here
        obj = dict(DEGENERATE, problem={"simplex": {"vertices": [[0, 0], [1, 0], [1e300, 1]]}})
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "minkcenters.cli", "centers",
             write_instance(tmp_path / "t.json", obj)],
            env=_src_env(), capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_INVALID
        assert proc.stderr == "error: general position violated\n"

    def test_polygon_report(self, tmp_path, capsys):
        obj = {
            "norm": {"kind": "lp", "p": 1},
            "problem": {"polygon": {
                "vertices": [[1, 0], [0, 1], [-1, 0], [0.5, -0.5], [-0.2, -0.8]],
                "center": [0, 0], "radius": 1.0,
            }},
        }
        inst = write_instance(tmp_path / "p.json", obj)
        assert main(["centers", inst]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "polygon"
        assert all(v["ok"] for v in report["residuals"].values())

    def test_missing_file(self, tmp_path, capsys):
        assert main(["centers", str(tmp_path / "nope.json")]) == EXIT_INVALID
        assert "error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["centers", str(p)]) == EXIT_INVALID
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        obj = dict(SIMPLEX_EUCL, extra=1)
        inst = write_instance(tmp_path / "t.json", obj)
        assert main(["centers", inst]) == EXIT_INVALID
        assert "unknown fields" in capsys.readouterr().err

    def test_tolerances_schema(self, tmp_path, capsys):
        obj = dict(SIMPLEX_EUCL, tolerances={"eps_geom": 1e-8})
        assert main(["centers", write_instance(tmp_path / "t.json", obj)]) == EXIT_OK
        diag = json.loads(capsys.readouterr().out)["diagnostics"]
        assert diag["tolerances"] == {"eps_geom": 1e-8}
        for retired in ({"eps_opt": 1e-12}, {"max_iters": 50}):
            obj = dict(SIMPLEX_EUCL, tolerances=retired)
            assert main(["centers", write_instance(tmp_path / "u.json", obj)]) == EXIT_INVALID
            assert "unknown fields in tolerances" in capsys.readouterr().err

    def test_tol_flag_wins_over_file(self, tmp_path, capsys):
        obj = dict(SIMPLEX_L1, tolerances={"eps_geom": 1e-6})
        inst = write_instance(tmp_path / "t.json", obj)
        assert main(["centers", inst, "--tol", "1e-3"]) == EXIT_OK
        tol = json.loads(capsys.readouterr().out)["diagnostics"]["tolerances"]
        assert tol == {"eps_geom": 1e-3}

    @pytest.mark.parametrize("obj", [
        dict(SIMPLEX_L1, norm={"kind": "lp"}),
        dict(SIMPLEX_L1, norm={"kind": "lp", "p": None}),
        dict(SIMPLEX_L1, norm={"kind": "lp", "p": [2]}),
        dict(SIMPLEX_L1, tolerances={"eps_geom": None}),
        {"norm": {"kind": "lp", "p": 1},
         "problem": {"polygon": {"vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                                 "center": [0, 0], "radius": None}}},
        dict(SIMPLEX_L1, problem={"simplex": {}}),
        dict(SIMPLEX_L1, seed=True),
        *[dict(SIMPLEX_L1, tolerances=value) for value in (5, [], 0, False, "", None)],
        dict(SIMPLEX_L1, problem={"simplex": SIMPLEX_L1["problem"]["simplex"],
                                  "polygon": {"vertices": [[1, 0], [0, 1], [-1, 0]],
                                              "center": [0, 0], "radius": 1.0}}),
        dict(SIMPLEX_L1, norm={"kind": "lp", "p": True}),
        dict(SIMPLEX_L1, norm={"kind": "lp", "p": "3"}),
        {"norm": {"kind": "lp", "p": 1},
         "problem": {"polygon": {"vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                                 "center": [0, 0], "radius": True}}},
        dict(SIMPLEX_L1, tolerances={"eps_geom": "1e-9"}),
        dict(SIMPLEX_L1, problem={"simplex": {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}}),
        dict(SIMPLEX_L1, norm={"kind": "polyhedral",
                               "vertices": [[math.inf, 0], [-math.inf, 0], [0, 1], [0, -1]]}),
        dict(SIMPLEX_L1, norm={"kind": "polyhedral",
                               "vertices": [[1e-10, 0], [0, 1e-10], [-1e-10, 0], [0, -3e-10]]}),
    ], ids=["lp_missing_p", "lp_null_p", "lp_list_p", "null_eps_geom", "null_radius",
            "simplex_missing_vertices", "bool_seed", "number_tolerances", "list_tolerances",
            "zero_tolerances", "false_tolerances", "string_tolerances", "null_tolerances",
            "simplex_and_polygon", "bool_p", "string_p", "bool_radius", "string_eps_geom",
            "string_vertices", "infinite_polytope_vertex", "tiny_asymmetric_polytope"])
    def test_malformed_record_invalid(self, tmp_path, capsys, obj):
        assert main(["centers", write_instance(tmp_path / "t.json", obj)]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("obj, message", [
        (dict(SIMPLEX_L1, tolerances={"eps_geom": True}), "eps_geom must be a number"),
        (dict(SIMPLEX_L1, problem={"simplex": {"vertices": [[True, 0], [1, 0], [0, 1]]}}),
         "vertex coordinates must be a list of lists of numbers"),
    ], ids=["bool_eps_geom", "bool_in_number_list"])
    def test_bool_rejected_by_the_input_checker(self, tmp_path, capsys, obj, message):
        # converted as numbers, True reads as 1 (eps_geom 1, a vertex at
        # (1, 0)), and the instance fails as "general position violated"
        assert main(["centers", write_instance(tmp_path / "t.json", obj)]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("obj, argv, message", [
        ({"norm": {"kind": "euclidean"},
          "problem": {"simplex": {"vertices": [[0, 0], [1e300, 0], [0, 1e300]]}}},
         [], "vertex coordinates must be below 1e150 in magnitude"),
        ({"norm": {"kind": "lp", "p": 3},
          "problem": {"simplex": {"vertices": [[0, 0], [1e-300, 0], [0, 1e-300]]}}},
         [], "simplex diameter must be above 1e-150"),
        (SIMPLEX_L1, ["--assume-center=1e300,0"],
         "point '1e300,0' coordinates must be below 1e150 in magnitude"),
    ], ids=["legs_1e300", "legs_1e-300_l3", "assume_center_1e300"])
    def test_out_of_range_coordinates_invalid(self, tmp_path, capsys, obj, argv, message):
        # beyond these bounds squared coordinates or distances overflow, or
        # underflow to a diameter of 0
        inst = write_instance(tmp_path / "t.json", obj)
        assert main(["centers", inst] + argv) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["--assume-center", "0"], "needs 2 coordinates, not 1"),
        (["--assume-center", "0,0,0"], "needs 2 coordinates, not 3"),
        (["--assume-center=nan,0"], "coordinates must be finite"),
    ], ids=["one_coordinate", "three_coordinates", "nan_coordinate"])
    def test_bad_assume_center_invalid(self, tmp_path, capsys, argv, message):
        # the instance is the 2-D l1 triangle with center (0, 0)
        inst = write_instance(tmp_path / "t.json", SIMPLEX_L1)
        assert main(["centers", inst] + argv) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err.startswith("error: point ") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("polygon", [
        {"vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]], "center": [math.nan, 0], "radius": 1},
        {"vertices": [[1, 0], [0, 1], [-1, 0], [math.nan, -1]], "center": [0, 0], "radius": 1},
        {"vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]], "center": [0, 0], "radius": math.inf},
    ], ids=["nan_center", "nan_vertex", "infinite_radius"])
    def test_non_finite_polygon_invalid(self, tmp_path, capsys, polygon):
        obj = {"norm": {"kind": "euclidean"}, "problem": {"polygon": polygon}}
        assert main(["centers", write_instance(tmp_path / "t.json", obj)]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize("p", ["Infinity", "-Infinity", "NaN", "1e999"])
    @pytest.mark.parametrize("command", ["centers", "figure"])
    def test_non_finite_exponent_invalid(self, tmp_path, capsys, command, p):
        # json reads each as a float; only the string "inf" names l_inf
        path = tmp_path / "t.json"
        path.write_text(json.dumps(SIMPLEX_L1).replace('"p": 1', f'"p": {p}'))
        out = tmp_path / "f.svg"
        argv = [command, str(path)] + (["--out", str(out)] if command == "figure" else [])
        assert main(argv) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err == "error: lp exponent must be finite\n" and captured.out == ""
        assert not out.exists()

    def test_polygon_center_shape_invalid(self, tmp_path, capsys):
        polygon = {"vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]], "center": [0, 0, 0],
                   "radius": 1}
        obj = {"norm": {"kind": "euclidean"}, "problem": {"polygon": polygon}}
        assert main(["centers", write_instance(tmp_path / "t.json", obj)]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err == "error: the center must be a point of the plane\n"
        assert captured.out == ""

    def test_unparsable_assume_center_invalid(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "t.json", SIMPLEX_L1)
        assert main(["centers", inst, "--assume-center", "1,x"]) == EXIT_INVALID
        assert capsys.readouterr().err.startswith("error: cannot parse point")


class TestVerify:
    def test_small_run_passes(self, capsys):
        code = main(["verify", "--suite", "simplex", "--trials", "5",
                     "--dims", "2,3", "--norms", "euclidean,l3", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = [l for l in out.strip().splitlines()]
        assert lines and all(l.startswith("PASS simplex/") for l in lines)
        assert "trials=" in lines[0] and "max_residual=" in lines[0]

    def test_polygon_suite(self, capsys):
        code = main(["verify", "--suite", "polygon", "--trials", "5", "--seed", "2"])
        assert code == EXIT_OK
        assert all(l.startswith("PASS polygon/")
                   for l in capsys.readouterr().out.strip().splitlines())

    def test_infinite_tol_invalid(self, capsys):
        # rejected by the input checker before any suite runs
        assert main(["verify", "--tol", "inf", "--trials", "2"]) == EXIT_INVALID
        assert capsys.readouterr().err == "error: eps_geom must be finite\n"

    def test_zero_trials_invalid(self, capsys):
        assert main(["verify", "--trials", "0"]) == EXIT_INVALID
        assert "empty suite" in capsys.readouterr().err

    @pytest.mark.parametrize("suite,message", [("simplex", "simplex dimensions"),
                                               ("polygon", "polygon degrees")])
    def test_too_small_dims_invalid(self, capsys, suite, message):
        argv = ["verify", "--suite", suite, "--dims", "1", "--trials", "1"]
        assert main(argv) == EXIT_INVALID
        assert message in capsys.readouterr().err

    def test_nonsmooth_norms_pass_without_smooth_claim(self, capsys):
        code = main(["verify", "--suite", "simplex", "--norms", "linf", "--dims", "2",
                     "--trials", "10"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "smooth_solver_success" not in out

    def test_affine_image_outside_general_position_test(self, capsys):
        # seed 525's affine map A (cond 211) sends the simplex to vertices that
        # fail Simplex's general-position test, which is not affine-invariant;
        # the check must still run and pass on the mapped vertex array
        code = main(["verify", "--suite", "simplex", "--norms", "euclidean", "--dims", "6",
                     "--trials", "1", "--seed", "525"])
        captured = capsys.readouterr()
        assert code == EXIT_OK, captured.err
        assert "PASS simplex/affine_invariance: trials=1 " in captured.out

    def test_deterministic_output(self, capsys):
        args = ["verify", "--suite", "orthogonality", "--trials", "10", "--seed", "7"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert capsys.readouterr().out == first


class TestFigure:
    def test_writes_svg(self, tmp_path):
        inst = write_instance(tmp_path / "t.json", SIMPLEX_L1)
        out = str(tmp_path / "fig.svg")
        assert main(["figure", inst, "--out", out, "--show", "feuerbach"]) == EXIT_OK
        text = Path(out).read_text()
        assert text.startswith("<svg") and 'class="marker"' in text

    @pytest.mark.parametrize("width", ["0", "-5"])
    def test_non_positive_width_invalid(self, tmp_path, capsys, width):
        inst = write_instance(tmp_path / "t.json", SIMPLEX_L1)
        out = tmp_path / "f.svg"
        assert main(["figure", inst, "--out", str(out), "--width", width]) == EXIT_INVALID
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_3d_instance_invalid(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "t.json", SIMPLEX_EUCL)
        assert main(["figure", inst, "--out", str(tmp_path / "f.svg")]) == EXIT_INVALID
        assert "planar" in capsys.readouterr().err


FUZZ_SEEDS = [
    SIMPLEX_EUCL,
    SIMPLEX_L1,
    {"norm": {"kind": "lp", "p": 3}, "tolerances": {"eps_geom": 1e-9}, "seed": 3,
     "problem": {"simplex": {"vertices": [[0, 0], [2, 0.5], [0.3, 1.5]]}}},
    {"norm": {"kind": "polyhedral", "vertices": [[1, 0], [-1, 0], [0.5, 1], [-0.5, -1]]},
     "problem": {"simplex": {"vertices": [[0, 0], [1, 0], [0, 1]]}}},
    {"norm": {"kind": "lp", "p": "inf"},
     "problem": {"polygon": {"vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                             "center": [0, 0], "radius": 1, "norm": {"kind": "lp", "p": 1}}}},
]
FUZZ_VALUES = [math.nan, math.inf, -math.inf, 1e300, -1e300, 1e-300, 0, -1, True, False,
               None, "1", "inf", [], [0], [0, 0, 0], [[0, 0]], {}]


def _fuzz_paths(node, path=()):
    """Every path of keys and indices into a JSON value, the root's first."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _fuzz_paths(child, path + (key,))


@st.composite
def fuzzed_instances(draw):
    """A valid instance file with one to three fields dropped, retyped, set to
    a special value, or grown by one entry (a wrong shape or dimension)."""
    obj = copy.deepcopy(draw(st.sampled_from(FUZZ_SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_fuzz_paths(obj))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        how = draw(st.sampled_from(["drop", "set", "grow"]))
        if how == "drop":
            del parent[path[-1]]
        elif how == "grow" and isinstance(node, list):
            node.append(copy.deepcopy(node[-1]) if node else 0)
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
    return obj


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(obj=fuzzed_instances(), command=st.sampled_from(["centers", "figure"]))
def test_fuzzed_instance_files(tmp_path_factory, obj, command):
    # bad input exits 1 with an error line, never a traceback or a warning
    # (warnings are errors here); every exit-0 report is strict JSON
    folder = tmp_path_factory.mktemp("fuzz")
    inst = write_instance(folder / "t.json", obj)
    argv = ["centers", inst] if command == "centers" else [
        "figure", inst, "--out", str(folder / "f.svg")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_NO_CENTER)
    if code == EXIT_INVALID:
        assert err.getvalue().startswith("error: ")
    if code == EXIT_OK and command == "centers":
        _strict_json(out.getvalue())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dump_report_rejects_non_finite(value):
    with pytest.raises(ValueError, match="JSON compliant"):
        dump_report({"report": {"M": np.array([0.0, value])}})


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def _scipy_submodules_after(code):
    """Output lines of a fresh interpreter running code, then printing the
    SciPy submodules it loaded."""
    env = _src_env()
    code += ("; print(sorted(m for m in ('scipy.spatial', 'scipy.ndimage', 'scipy.optimize') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    return out.strip().splitlines()


def test_cli_import_loads_no_scipy_submodules():
    # scipy.spatial and scipy.ndimage load only on the polyhedral and
    # grid-oracle paths; no path loads scipy.optimize
    assert _scipy_submodules_after("import sys, minkcenters.cli") == ["[]"]


def test_newton_solve_loads_no_scipy_submodules():
    code = ("import sys, numpy as np; from minkcenters import Norm, solve_circumcenter; "
            "from minkcenters.verify import random_simplex; "
            "res = solve_circumcenter(Norm.lp(3), random_simplex(4, np.random.default_rng(0))); "
            "print(res.found, res.starts_used)")
    assert _scipy_submodules_after(code) == ["True 1", "[]"]


def test_start_list_solve_loads_no_scipy_submodules():
    # found only after the first Newton run fails
    code = ("import sys; from minkcenters import Norm, Simplex, solve_circumcenter; "
            f"res = solve_circumcenter(Norm.lp(1.5), Simplex({SEED7_6732!r})); "
            "print(res.found, res.starts_used > 1)")
    assert _scipy_submodules_after(code) == ["True True", "[]"]

import json
import math
import os
import subprocess
import sys

import pytest

import sobolev_lab

from sobolev_lab import constants as cst
from sobolev_lab import discretization as dz
from sobolev_lab import optimize as opt
from sobolev_lab import stability as st
from sobolev_lab.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_NUMERICAL_ERROR,
    EXIT_OK,
    HELP,
    OPTIONS,
    ConfigError,
    _resolve,
    _write_atomic,
    build_parser,
    main,
)
from sobolev_lab.discretization import build, laplace_eigenpairs
from sobolev_lab.geometry import make_product

# for every option, a value of the default's type that is not the default
OTHER = {
    "model": "product", "d": 4, "q": 3.0, "n": 64, "b_budget": 1, "seed": 2, "A": 1.5,
    "B": 0.5, "init": "random", "multistart": True, "k": 3, "mode_index": 2, "eps_lo": 2e-3,
    "eps_hi": 5e-2, "eps_count": 6, "family": "bubbles_and_constants",
}


def _flags(values: dict) -> list:
    argv = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    return argv


def _run(argv, tmp_path, name):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    return json.loads(out.read_text())


def test_constants_writes_report(tmp_path, capsys):
    out = tmp_path / "const.json"
    code = main([
        "constants", "--model", "sphere", "--d", "3", "--q", "4", "--n", "64",
        "--b-budget", "1", "--out", str(out),
    ])
    assert code == EXIT_OK
    # the nine-row table, then the report path
    lines = capsys.readouterr().out.splitlines()
    assert lines[5].startswith("A_opt (closed-form-sphere)  ")
    assert lines[8].endswith("  True")
    assert lines[9:] == [f"wrote {out}"]
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["config"]["model"] == "sphere"
    assert payload["config"]["n"] == 64
    assert payload["strict_binding"] is True
    assert payload["A_opt"] == pytest.approx(cst.a_opt_sphere_closed_form(3, 4.0))


@pytest.mark.parametrize("command", list(OPTIONS))
def test_every_option_resolves_from_flag_and_from_config(tmp_path, command):
    args = {key: OTHER[key] for key in OPTIONS[command]}
    for key, value in args.items():
        assert type(value) is type(OPTIONS[command][key]) and value != OPTIONS[command][key]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(args))
    for argv in (_flags(args), ["--config", str(cfg)]):
        resolved = _resolve(build_parser().parse_args([command, *argv]))
        assert list(resolved.items()) == list(args.items())


def _valid_values(command: str) -> dict:
    # scan's bubble family needs the sphere, so scan keeps the default family
    spec = cst.default_spec(build(make_product(4), 64), 3.0)
    values = {**OTHER, "A": 1.5 * spec.A, "B": spec.B, "family": "constants"}
    return {key: values[key] for key in OPTIONS[command]}


@pytest.mark.parametrize("command", list(OPTIONS))
def test_every_option_reaches_the_report_config_in_table_order(tmp_path, command):
    values = _valid_values(command)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    by_flag = _run([command, *_flags(values)], tmp_path, "flags.json")
    by_config = _run([command, "--config", str(cfg)], tmp_path, "config.json")
    assert list(by_flag["config"].items()) == list(values.items())
    assert by_config == by_flag


@pytest.mark.parametrize("command", [*OPTIONS, "fit", "reproduce"])
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: sobolev-lab {command}")


def test_every_option_has_a_help_string():
    assert all(HELP[key] for row in OPTIONS.values() for key in row)


def test_report_without_out_is_printed(capsys):
    assert main(["spectrum", "--n", "64", "--k", "3"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["eigenvalues"]) == 3 and payload["config"]["k"] == 3


@pytest.mark.parametrize("argv, keys", [
    (["constants", "--n", "64", "--b-budget", "1"],
     ["schema_version", "model", "d", "q", "S_d", "beta", "A_opt", "A_opt_provenance",
      "B_lower", "B_opt_estimate", "strict_binding", "spectral_gap", "config"]),
    (["minimize", "--n", "64", "--q", "4"],
     ["schema_version", "value", "grad_residual", "hessian_eigenvalues", "kernel_dim",
      "converged", "iterations", "certificate_residual", "config"]),
    (["spectrum", "--n", "64"],
     ["eigenvalues", "residuals", "schema_version", "config"]),
    (["scan", "--n", "64", "--q", "4"],
     ["schema_version", "rows", "fitted_slope", "slope_stderr", "fit_window",
      "classification", "metadata", "config"]),
    (["reproduce", "--only", "strict_binding"],
     ["schema_version", "results"]),
], ids=["constants", "minimize", "spectrum", "scan", "reproduce"])
def test_report_key_order(tmp_path, argv, keys):
    # the report schema: every key, in order
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert list(json.loads(out.read_text())) == keys


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "sphere", "d": 4, "n": 64, "k": 3}))
    out = tmp_path / "spec.json"
    # the flag overrides the config file value for k
    code = main([
        "spectrum", "--config", str(cfg), "--k", "4", "--out", str(out),
    ])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["config"]["d"] == 4
    assert payload["config"]["k"] == 4
    assert len(payload["eigenvalues"]) == 4
    assert payload["eigenvalues"][1] == pytest.approx(4.0, abs=1e-8)


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicate": True}))
    assert main(["spectrum", "--config", str(cfg)]) == EXIT_CONFIG_ERROR


def test_wrong_config_type_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "many"}))
    assert main(["spectrum", "--config", str(cfg)]) == EXIT_CONFIG_ERROR


def test_nan_q_in_config_rejected(tmp_path):
    # only q <= 0 selects 2*; NaN is out of range, as from the flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": float("nan"), "n": 64}))
    assert main(["minimize", "--config", str(cfg)]) == EXIT_CONFIG_ERROR


def test_malformed_config_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["spectrum", "--config", str(cfg)]) == EXIT_CONFIG_ERROR


def test_config_file_holding_an_array_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["spectrum", "--config", str(cfg)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == "configuration error: config file must hold a JSON object\n"


def test_minimize_reports_certificate(tmp_path):
    out = tmp_path / "min.json"
    code = main([
        "minimize", "--model", "sphere", "--d", "3", "--q", "4", "--n", "64",
        "--init", "constant", "--out", str(out),
    ])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["converged"] is True
    assert len(payload["hessian_eigenvalues"]) == 8
    assert payload["certificate_residual"] < 1e-10
    assert payload["value"] == pytest.approx(1.0, abs=1e-10)


def test_minimize_from_a_seeded_random_start(tmp_path):
    argv = ["minimize", "--n", "64", "--q", "4", "--init", "random", "--seed", "3"]
    first = _run(argv, tmp_path, "first.json")
    assert first["converged"] is True and first["config"]["seed"] == 3
    assert _run(argv, tmp_path, "again.json") == first
    assert _run([*argv[:-1], "4"], tmp_path, "other.json")["iterations"] != first["iterations"]


def test_minimize_that_does_not_converge_writes_its_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(opt, "GRAD_TOL", 0.0)
    out = tmp_path / "min.json"
    assert main(["minimize", "--n", "64", "--q", "4", "--out", str(out)]) == EXIT_NUMERICAL_ERROR
    assert json.loads(out.read_text())["converged"] is False
    assert capsys.readouterr().err.startswith("numerical failure: minimization did not converge")


def test_minimize_bad_init_is_config_error():
    code = main([
        "minimize", "--model", "sphere", "--d", "3", "--q", "4", "--n", "64",
        "--init", "sombrero",
    ])
    assert code == EXIT_CONFIG_ERROR


def test_scan_then_fit_round_trip(tmp_path, capsys):
    out = tmp_path / "scan.json"
    csv_out = tmp_path / "scan.csv"
    code = main([
        "scan", "--model", "sphere", "--d", "3", "--q", "4", "--n", "64",
        "--out", str(out), "--csv", str(csv_out),
    ])
    assert code == EXIT_OK
    csv_lines = csv_out.read_text().splitlines()
    assert csv_lines[0] == "epsilon,deficit,distance,q_value,in_fit_window"
    assert len(csv_lines) == 26
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 1
    assert payload["metadata"]["family"] == "constants"
    assert payload["classification"] == "degenerate"
    capsys.readouterr()
    assert main(["fit", "--input", str(out)]) == EXIT_OK
    assert "degenerate" in capsys.readouterr().out


def test_scan_bad_epsilon_window_rejected():
    code = main([
        "scan", "--model", "sphere", "--d", "3", "--n", "64",
        "--family", "constants", "--eps-lo", "0.1", "--eps-hi", "0.01",
    ])
    assert code == EXIT_CONFIG_ERROR


def test_scan_below_the_noise_floor_writes_its_report(tmp_path, capsys):
    out = tmp_path / "scan.json"
    argv = ["scan", "--n", "64", "--eps-lo", "1e-9", "--eps-hi", "1e-8", "--out", str(out)]
    assert main(argv) == EXIT_NUMERICAL_ERROR
    payload = json.loads(out.read_text())
    assert not any(row["in_fit_window"] for row in payload["rows"])
    assert math.isnan(payload["fitted_slope"])
    assert capsys.readouterr().err == "numerical failure: scan produced no usable fit window\n"


def test_fit_missing_file_is_config_error(tmp_path):
    assert main(["fit", "--input", str(tmp_path / "nope.json")]) == EXIT_CONFIG_ERROR


@pytest.mark.parametrize("report", [
    {"rows": [{"in_fit_window": True}]},
    {"rows": 5},
    [1, 2],
    {"rows": [{"in_fit_window": True, "deficit": "x", "distance": 0.1}]},
], ids=["row-without-deficit", "rows-not-a-list", "not-an-object", "deficit-not-a-number"])
def test_fit_malformed_report_is_config_error(tmp_path, capsys, report):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(report))
    assert main(["fit", "--input", str(path)]) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1


def test_fit_with_one_usable_point_is_numerical_failure(tmp_path, capsys):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(
        {"rows": [{"deficit": 1e-4, "distance": 1e-2, "in_fit_window": True}]}
    ))
    assert main(["fit", "--input", str(path)]) == EXIT_NUMERICAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ")
    assert captured.err.count("\n") == 1


def _window_rows(distances, first_deficit=1e-4):
    return {"rows": [
        {"deficit": first_deficit * (k + 1), "distance": x, "in_fit_window": True}
        for k, x in enumerate(distances)
    ]}


@pytest.mark.parametrize("first_distance, first_deficit", [
    (0.0, 1e-4), (-0.01, 1e-4), (0.01, float("inf")),
], ids=["zero-distance", "negative-distance", "infinite-deficit"])
def test_fit_bad_window_row_is_config_error(tmp_path, capfd, first_distance, first_deficit):
    # checked before np.log, so LAPACK prints nothing to the stderr file descriptor
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(_window_rows([first_distance, 0.02, 0.03, 0.04, 0.05], first_deficit)))
    assert main(["fit", "--input", str(path)]) == EXIT_CONFIG_ERROR
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1


def test_fit_with_equal_distances_is_numerical_failure(tmp_path, capfd):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(_window_rows([0.01] * 5)))
    assert main(["fit", "--input", str(path)]) == EXIT_NUMERICAL_ERROR
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ")
    assert captured.err.count("\n") == 1


def test_fit_with_distances_equal_to_rounding_is_numerical_failure(tmp_path, capfd):
    path = tmp_path / "scan.json"
    distances = [0.01, math.nextafter(0.01, 1.0), 0.01 * (1.0 + 16 * 1.1e-16)]
    path.write_text(json.dumps(_window_rows(distances)))
    assert main(["fit", "--input", str(path)]) == EXIT_NUMERICAL_ERROR
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ")
    assert captured.err.count("\n") == 1


def test_fit_with_two_points_reports_no_error(tmp_path, capsys):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({"rows": [
        {"deficit": 1e-4, "distance": 0.01, "in_fit_window": True},
        {"deficit": 1.7e-3, "distance": 0.02, "in_fit_window": True},
    ]}))
    assert main(["fit", "--input", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "slope 4.0875 +/- nan over 2 points -> degenerate\n"


def _fresh_cli(argv):
    """(exit code, stdout, stderr) of the CLI in a fresh interpreter: pytest captures warnings,
    a fresh interpreter shows what reaches fd 2."""
    src = os.path.dirname(os.path.dirname(sobolev_lab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "sobolev_lab.cli", *argv],
                         env=env, capture_output=True, text=True)
    return out.returncode, out.stdout, out.stderr


@pytest.mark.parametrize("argv", [
    ["minimize", "--n", "64", "--q", "4", "--A", "1e300"],
    ["minimize", "--n", "64", "--q", "4", "--B", "1e300"],
    ["minimize", "--n", "64", "--q", "4", "--A", "1e300", "--multistart"],
    ["minimize", "--n", "34", "--q", "4", "--B", "1e300"],
], ids=["huge-A", "huge-B", "huge-A-multistart", "huge-B-n34"])
def test_minimize_solver_value_error_is_numerical_failure(argv, capsys):
    # at n = 34 the descent's G = F - kappa u^{q-1} cancels to exactly 0 at the constant start,
    # so only F's own overflow shows that the terms are not finite
    line = "numerical failure: non-finite gradient in projected-gradient descent\n"
    assert main(argv) == EXIT_NUMERICAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line
    assert _fresh_cli(argv) == (EXIT_NUMERICAL_ERROR, "", line)


def test_minimize_overflow_in_the_polish_is_numerical_failure(capsys):
    # the descent passes this start to the polish, whose residual norm and rounding floor
    # overflow: an infinite floor would certify the polish, and the run exited 0 with warnings
    argv = ["minimize", "--model", "product", "--d", "4", "--n", "20", "--q", "4", "--A", "1e300"]
    assert main(argv) == EXIT_NUMERICAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: ") and captured.err.count("\n") == 1
    code, out, err = _fresh_cli(argv)
    assert (code, out) == (EXIT_NUMERICAL_ERROR, "")
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert "Warning" not in err


def test_reproduce_single_criterion(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["reproduce", "--only", "strict_binding", "--out", str(out)])
    assert code == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    assert payload["results"][0]["name"] == "strict_binding"
    assert payload["results"][0]["passed"] is True


@pytest.mark.parametrize("argv", [
    ["constants", "--n", "64", "--b-budget", "1"],
    ["minimize", "--n", "64", "--q", "4"],
    ["spectrum", "--n", "64"],
    ["scan", "--n", "64", "--q", "4"],
], ids=["constants", "minimize", "spectrum", "scan"])
def test_report_is_reproducible(tmp_path, argv):
    reports = []
    for run in range(2):
        out = tmp_path / f"run{run}.json"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_reproduce_report_differs_only_in_seconds(tmp_path):
    reports = []
    for run in range(2):
        out = tmp_path / f"run{run}.json"
        assert main(["reproduce", "--only", "strict_binding", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        for result in report["results"]:
            assert result.pop("seconds") >= 0
        reports.append(json.dumps(report))
    assert reports[0] == reports[1]


def test_reproduce_unmatched_filter_is_config_error():
    assert main(["reproduce", "--only", "zzz"]) == EXIT_CONFIG_ERROR


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out = tmp_path / "const.json"
    main([
        "constants", "--model", "sphere", "--d", "3", "--n", "64",
        "--b-budget", "1", "--out", str(out),
    ])
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []


def test_atomic_write_removes_its_temp_file_when_the_write_fails(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # os.replace cannot put a file in a directory's place
    with pytest.raises(OSError):
        _write_atomic(str(target), "text")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_spectrum_residual_guard_is_numerical_failure(capsys, monkeypatch):
    real = dz._refine

    def loose(S, V):
        values, vecs, residuals = real(S, V)
        return values, vecs, residuals + 1.0

    monkeypatch.setattr(dz, "_refine", loose)
    assert main(["spectrum", "--n", "64"]) == EXIT_NUMERICAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: eigen-solve residuals too large: 1.0")


def test_thread_cap_is_set_before_blas_loads():
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    env["SOBOLEV_LAB_THREADS"] = "1"
    src = os.path.dirname(os.path.dirname(sobolev_lab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import os, sobolev_lab; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "1"


@pytest.mark.parametrize("argv", [
    ["constants", "--q", "7"],
    ["constants", "--n", "10"],
    ["constants", "--d", "2"],
    ["constants", "--b-budget", "-1"],
    ["spectrum", "--model", "product", "--n", "63"],
    ["minimize", "--n", "10"],
    ["scan", "--q", "1.5"],
    ["reproduce", "--n", "10"],
    ["reproduce", "--n", "65"],
    ["constants", "--seed", "-1"],
    ["minimize", "--init", "random", "--seed", "-1"],
    ["scan", "--n", "64", "--mode-index", "0"],
    ["scan", "--n", "64", "--mode-index", "-1"],
    ["scan", "--n", "64", "--mode-index", "99"],
    ["minimize", "--n", "64", "--init", "bubble:abc"],
    ["minimize", "--n", "64", "--init", "bubble:1.5"],
    ["minimize", "--model", "product", "--d", "4", "--n", "64", "--init", "bubble:0.5"],
    ["scan", "--model", "product", "--d", "4", "--n", "64", "--family", "bubbles_and_constants"],
    ["scan", "--n", "64", "--eps-count", "-1"],
    ["scan", "--n", "64", "--eps-count", "4"],
    ["scan", "--n", "64", "--q", "4", "--eps-hi", "inf"],
    ["scan", "--n", "64", "--q", "nan"],
    ["minimize", "--n", "64", "--q", "nan"],
    ["constants", "--n", "64", "--q", "nan"],
    ["minimize", "--n", "64", "--q", "4", "--A", "nan"],
    ["minimize", "--n", "64", "--q", "4", "--B", "nan"],
    ["spectrum", "--model", "torus"],
    ["scan", "--family", "spheres"],
    # a JSON bool is not an int or a float
    ["spectrum", "--n", "64", "--config", {"k": True}],
    ["constants", "--n", "64", "--config", {"seed": False}],
    ["minimize", "--n", "64", "--q", "4", "--config", {"A": True}],
    ["spectrum", "--n", "64", "--k", "0"],
    ["spectrum", "--n", "64", "--k", "65"],
    ["minimize", "--n", "16", "--q", "4", "--multistart", "--init", "sombrero"],
])
def test_out_of_range_input_is_config_error(argv, capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    if isinstance(argv[-1], dict):
        cfg.write_text(json.dumps(argv[-1]))
        argv = argv[:-1] + [str(cfg)]
    assert main(argv) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: ")
    assert captured.err.count("\n") == 1


# Inputs the CLI passes on unchecked: the library function that uses each rejects it, and main
# maps that ValueError to exit 2 (test_out_of_range_input_is_config_error runs each through main).
@pytest.mark.parametrize("spec_name, call, message", [
    ("subcritical_spec", lambda s: laplace_eigenpairs(s.disc, 65),
     r"k must be in \[1, 64\], got 65"),
    ("subcritical_spec", lambda s: st.ray_from_constants(s, 0),
     r"mode_index must be in \[1, 63\], got 0"),
    ("subcritical_spec", lambda s: st.default_epsilons(25, 0.1, 0.01),
     "need 0 < lo < hi < inf, got lo = 0.1, hi = 0.01"),
    ("subcritical_spec", lambda s: st.ray_scan(s, st.ray_from_constants(s), "spheres"),
     "unknown family 'spheres'"),
    ("critical_product_spec",
     lambda s: st.ray_scan(s, st.ray_from_constants(s), "bubbles_and_constants"),
     "bubbles are defined on the sphere-radial model only"),
    ("subcritical_spec", lambda s: cst.estimate_b_opt(s.disc.model, s.disc, budget=-1),
     "budget must be >= 0, got -1"),
], ids=["k", "mode-index", "eps-window", "family", "bubbles-on-product", "budget"])
def test_library_rejects_what_the_cli_passes_on(spec_name, call, message, request):
    with pytest.raises(ValueError, match=message) as raised:
        call(request.getfixturevalue(spec_name))
    assert not isinstance(raised.value, ConfigError)


@pytest.mark.parametrize("mode_index", [2, 3])
@pytest.mark.parametrize("n", [64, 128, 256])
def test_bubble_scan_along_a_mode_with_its_nearest_bubble_at_b_0(tmp_path, n, mode_index):
    # the envelope slope's root is b = 0: the search ends at its rounding level there
    out = tmp_path / "scan.json"
    argv = ["scan", "--q", "4", "--family", "bubbles_and_constants", "--n", str(n),
            "--mode-index", str(mode_index), "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert all(0.0 < row["distance"] < 1.0 for row in json.loads(out.read_text())["rows"])


@pytest.mark.parametrize("mode_index", [2, 4])
@pytest.mark.parametrize("n", [64, 65, 128, 129, 256, 512])
@pytest.mark.parametrize("d,q", [(3, 4), (3, 5), (8, 2.5)])
def test_bubble_scan_at_b_0_reads_the_rounding_of_d_r(tmp_path, d, q, n, mode_index):
    # at b = 0 the slope of an even u is its Gram pairings' rounding, which the fit reads as 0
    out = tmp_path / "scan.json"
    argv = ["scan", "--d", str(d), "--q", str(q), "--family", "bubbles_and_constants",
            "--n", str(n), "--mode-index", str(mode_index), "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert all(0.0 < row["distance"] < 1.0 for row in json.loads(out.read_text())["rows"])


def test_minimize_non_finite_value_is_numerical_failure(capsys, monkeypatch):
    monkeypatch.setattr(opt, "minimize",
                        lambda spec, init: opt.CriticalPoint(init, math.nan, 0.0, True, 0))
    assert main(["minimize", "--n", "16", "--q", "4"]) == EXIT_NUMERICAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numerical failure: minimization produced a non-finite value\n"

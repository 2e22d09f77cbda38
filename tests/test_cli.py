import csv
import json

import pytest
import yaml

from bdie2d import cli, verification
from bdie2d.errors import ConfigError
from bdie2d.geometry import boundary_grid, domain_mesh


def _write_cfg(tmp_path, payload, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return str(path)


def test_default_config_has_documented_sections():
    cfg = cli.default_config()
    for key in ("case", "seed", "discretization", "tolerances",
                "source_override", "study", "conditioning", "output"):
        assert key in cfg


def test_load_config_merges_partial_override(tmp_path):
    path = _write_cfg(tmp_path, {"discretization": {"n_boundary": 32}})
    cfg = cli.load_config(path)
    assert cfg["discretization"]["n_boundary"] == 32
    assert cfg["case"] == "laplace-dipole"


def test_conditioning_rejects_a_zero_width_bump_with_status_2(tmp_path):
    path = _write_cfg(tmp_path, {"conditioning": {
        "coefficient": {"kind": "gaussian_bump", "sigma": 0.0}}})
    out = tmp_path / "out"
    status = cli.main(["conditioning", "--config", path, "--out", str(out)])
    assert status == cli.EXIT_CONFIG == 2
    error = json.loads((out / "error.json").read_text())
    assert error["error"]["category"] == "CoefficientError"


def test_unknown_key_rejected(tmp_path):
    path = _write_cfg(tmp_path, {"meshiness": 3})
    with pytest.raises(ConfigError):
        cli.load_config(path)
    path = _write_cfg(tmp_path, {"solver": {"tolerance": 1e-8}})
    with pytest.raises(ConfigError):
        cli.load_config(path)


def test_invalid_yaml_rejected(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("a: [unterminated\n")
    with pytest.raises(ConfigError):
        cli.load_config(str(path))


def test_missing_config_file_exits_with_config_status(tmp_path):
    status = cli.main(["solve", "--config", str(tmp_path / "absent.yaml"),
                       "--out", str(tmp_path / "out")])
    assert status == cli.EXIT_CONFIG


def test_solve_command_writes_reports(tmp_path):
    path = _write_cfg(tmp_path, {"discretization": {"n_boundary": 32}})
    out = tmp_path / "out"
    status = cli.main(["solve", "--config", path, "--out", str(out)])
    assert status == cli.EXIT_OK
    summary = json.loads((out / "solve.json").read_text())
    assert summary["results"]["err_psi"] <= 1e-10
    assert summary["config"]["discretization"]["n_boundary"] == 32
    assert summary["condition_check"]["passed"]
    assert "assembly_s" in summary["timings"]
    with open(out / "psi.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["t", "psi"]


def _resolved(path, out):
    """The config that a run with ``--config path --out out`` resolves."""
    cfg = cli.load_config(path)
    cfg["output"]["directory"] = str(out)
    return cfg


@pytest.mark.parametrize("command,payload", [
    ("solve", {"discretization": {"n_boundary": 16}}),
    ("verify", {"discretization": {"n_boundary": 32}}),
    ("convergence", {"study": {"n_values": [16]}}),
    ("conditioning", {"conditioning": {"n_values": [16], "mesh_n": 16}}),
    ("selftest", {})])
def test_each_command_writes_its_report_with_the_resolved_config(
        tmp_path, command, payload):
    path = _write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    assert cli.main([command, "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / f"{command}.json").read_text())
    assert report["command"] == command
    assert report["config"] == _resolved(path, out)


def test_a_failed_condition_check_writes_the_solve_report_with_status_3(
        tmp_path, capsys):
    # on the outer ring at radius 3, w |grad a| exceeds the decay tolerance
    path = _write_cfg(tmp_path, {"case": "bump-dipole", "discretization": {
        "n_boundary": 32, "r_trunc": 3.0}})
    out = tmp_path / "out"
    status = cli.main(["solve", "--config", path, "--out", str(out)])
    assert status == cli.EXIT_COMPAT == 3
    report = json.loads((out / "solve.json").read_text())
    assert report["command"] == "solve"
    assert report["config"] == _resolved(path, out)
    assert report["condition_check"]["passed"] is False
    assert report["error"]["category"] == "ConditionCheckFailure"
    assert not (out / "psi.csv").exists()
    assert "error[ConditionCheckFailure]" in capsys.readouterr().err


def test_solve_rejects_nonzero_mean_source_with_status_3(tmp_path):
    path = _write_cfg(tmp_path, {
        "discretization": {"n_boundary": 32},
        "source_override": {"kind": "gaussian_blob"},
    })
    out = tmp_path / "out"
    status = cli.main(["solve", "--config", path, "--out", str(out)])
    assert status == cli.EXIT_COMPAT
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["category"] == "CompatibilityError"


def test_solve_rejects_bad_truncation_radius_with_status_2(tmp_path):
    path = _write_cfg(tmp_path, {"discretization": {"r_trunc": 0.5}})
    out = tmp_path / "out"
    status = cli.main(["solve", "--config", path, "--out", str(out)])
    assert status == cli.EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["category"] == "GeometryError"


@pytest.mark.parametrize("disc,category", [
    ({"r_trunc": float("inf")}, "GeometryError"),
    ({"r_trunc": float("nan")}, "GeometryError"),
    ({"h": float("nan")}, "DiscretizationError"),
    ({"h": float("inf")}, "DiscretizationError")],
    ids=["r_trunc-inf", "r_trunc-nan", "h-nan", "h-inf"])
def test_solve_rejects_a_non_finite_mesh_size_with_status_2(tmp_path, disc,
                                                            category):
    path = _write_cfg(tmp_path, {"discretization": disc})
    out = tmp_path / "out"
    status = cli.main(["solve", "--config", path, "--out", str(out)])
    assert status == cli.EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["category"] == category


@pytest.mark.parametrize("command,payload,key", [
    ("solve", {"discretization": {"n_boundary": "abc"}},
     "discretization.n_boundary"),
    ("convergence", {"study": {"n_values": [16, "x"]}}, "study.n_values"),
    ("conditioning", {"conditioning": {"coefficient": {"beta": "big"}}},
     "conditioning.coefficient.beta"),
    # int() would truncate 2.5 to 2 and solve on that mesh
    ("solve", {"discretization": {"n_boundary": 32, "m_theta": 2.5}},
     "discretization.m_theta")],
    ids=["solve", "convergence", "conditioning", "solve-fractional-int"])
def test_a_value_of_the_wrong_type_exits_with_config_status(tmp_path, command,
                                                            payload, key):
    path = _write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    status = cli.main([command, "--config", path, "--out", str(out)])
    assert status == cli.EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["category"] == "ConfigError"
    assert key in err["error"]["message"]


@pytest.mark.parametrize("m_theta", [0, -4, 2])
def test_solve_rejects_too_few_angular_columns_with_status_2(tmp_path,
                                                            m_theta):
    path = _write_cfg(tmp_path, {"discretization": {"n_boundary": 32,
                                                    "m_theta": m_theta}})
    out = tmp_path / "out"
    status = cli.main(["solve", "--config", path, "--out", str(out)])
    assert status == cli.EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["category"] == "DiscretizationError"


@pytest.mark.parametrize("command,payload", [
    ("solve", {"discretization": {"n_boundary": 0}}),
    ("verify", {"discretization": {"n_boundary": 0}}),
    ("conditioning", {"conditioning": {"mesh_n": 0}})],
    ids=["solve-n-boundary-0", "verify-n-boundary-0", "conditioning-mesh-n-0"])
def test_a_zero_resolution_exits_with_status_2(tmp_path, command, payload):
    # the resolution is checked before the default mesh spacing 4 pi / N
    path = _write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    status = cli.main([command, "--config", path, "--out", str(out)])
    assert status == cli.EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["category"] == "DiscretizationError"


@pytest.mark.parametrize("command,payload,args,key", [
    ("conditioning", {"conditioning": {"n_values": []}}, [],
     "conditioning.n_values"),
    ("verify", {"study": {"n_probes": 0}}, [], "study.n_probes"),
    ("verify", {"case": "bump-dipole", "study": {"radii": [3.0, 2.0]}}, [],
     "study.radii"),
    ("verify", {}, ["--seed", "-1"], "seed"),
    ("convergence", {"study": {"n_values": []}}, [], "study.n_values")],
    ids=["conditioning-no-n", "verify-no-probes", "verify-decreasing-radii",
         "verify-negative-seed", "convergence-no-n"])
def test_a_bad_study_input_exits_with_status_2_before_any_study(
        tmp_path, monkeypatch, command, payload, args, key):
    studies = []
    for name in ("conditioning_study", "convergence_study",
                 "green_identity_residuals", "split_decay_study"):
        monkeypatch.setattr(verification, name,
                            lambda *a, name=name, **k: studies.append(name))
    path = _write_cfg(tmp_path, {"discretization": {"n_boundary": 16},
                                 **payload})
    out = tmp_path / "out"
    status = cli.main([command, "--config", path, "--out", str(out), *args])
    assert status == cli.EXIT_CONFIG
    assert studies == []
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["category"] == "ConfigError"
    assert err["error"]["message"].startswith(f"config key {key}:")


@pytest.mark.parametrize("command,payload", [
    ("convergence", {"study": {"n_values": [16, 7]}}),
    ("conditioning", {"conditioning": {"n_values": [16, 7]}})],
    ids=["convergence-odd-n", "conditioning-odd-n"])
def test_a_bad_study_level_exits_with_status_2_before_any_assembly(
        tmp_path, monkeypatch, command, payload):
    # every level is discretized before the first one is assembled
    monkeypatch.setattr(verification, "assemble_system",
                        lambda *a, **k: pytest.fail("assembled a level"))
    path = _write_cfg(tmp_path, payload)
    out = tmp_path / "out"
    status = cli.main([command, "--config", path, "--out", str(out)])
    assert status == cli.EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["category"] == "DiscretizationError"


@pytest.mark.parametrize("blob", [
    {"center": [1.0, 2.0, 3.0]}, {"center": [1.5, float("inf")]},
    {"amplitude": float("nan")}, {"sigma": 0.0}, {"sigma": float("nan")}],
    ids=["center-3d", "center-inf", "amplitude-nan", "sigma-zero",
         "sigma-nan"])
def test_solve_rejects_a_bad_gaussian_blob_with_status_2(tmp_path, blob):
    path = _write_cfg(tmp_path, {
        "discretization": {"n_boundary": 32},
        "source_override": {"kind": "gaussian_blob", **blob},
    })
    out = tmp_path / "out"
    status = cli.main(["solve", "--config", path, "--out", str(out)])
    assert status == cli.EXIT_CONFIG
    err = json.loads((out / "error.json").read_text())
    assert err["error"]["category"] == "ConfigError"


def test_verify_checks_the_configured_mesh(tmp_path):
    disc = {"n_boundary": 32, "h": 0.3, "m_theta": 48}
    path = _write_cfg(tmp_path, {"case": "bump-dipole",
                                 "discretization": disc})
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "verify.json").read_text())["results"]
    cfg = cli.default_config()
    case = verification.manufactured_case("bump-dipole")
    probes = verification.default_probes(cfg["study"]["n_probes"],
                                          seed=cfg["seed"])
    green = verification.green_identity_residuals(
        case, probes, boundary_grid(case.curve, 32),
        domain_mesh(case.curve, case.r_trunc, 0.3, m_theta=48))
    assert (report["green_identity"]["max_interior_residual"]
            == green["max_interior_residual"])


def test_verify_command(tmp_path):
    path = _write_cfg(tmp_path, {"discretization": {"n_boundary": 32}})
    out = tmp_path / "out"
    status = cli.main(["verify", "--config", path, "--out", str(out)])
    assert status == cli.EXIT_OK
    report = json.loads((out / "verify.json").read_text())
    assert all(report["results"]["verdicts"].values())
    assert report["results"]["remainder_norm"] <= 1e-12


def test_convergence_command_csv_schema(tmp_path):
    path = _write_cfg(tmp_path, {"study": {"n_values": [16, 32]}})
    out = tmp_path / "out"
    status = cli.main(["convergence", "--config", path, "--out", str(out)])
    assert status == cli.EXIT_OK
    with open(out / "convergence.csv") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert header == ["N", "h", "err_u", "err_psi", "order"]
    assert len(body) == 2
    assert body[1][0] == "32"
    assert float(body[1][3]) <= 1e-10


def test_conditioning_command_csv_schema(tmp_path):
    path = _write_cfg(tmp_path, {
        "conditioning": {"n_values": [16, 32], "mesh_n": 32},
    })
    out = tmp_path / "out"
    status = cli.main(["conditioning", "--config", path, "--out", str(out)])
    assert status == cli.EXIT_OK
    with open(out / "conditioning.csv") as fh:
        header = next(csv.reader(fh))
    assert header == ["N", "cond_M", "sigma_min_V"]
    report = json.loads((out / "conditioning.json").read_text())
    assert report["results"]["max_cond_ratio"] <= 2.0


def test_conditioning_runs_with_a_constant_coefficient(tmp_path):
    path = _write_cfg(tmp_path, {"conditioning": {
        "n_values": [16, 32], "mesh_n": 32,
        "coefficient": {"kind": "constant"}}})
    out = tmp_path / "out"
    status = cli.main(["conditioning", "--config", path, "--out", str(out)])
    assert status == cli.EXIT_OK
    with open(out / "conditioning.csv") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["16", "32"]


def test_selftest_passes_and_is_deterministic(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["selftest", "--out", str(out)]) == cli.EXIT_OK
    first = (out / "selftest.json").read_bytes()
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    assert cli.main(["selftest", "--out", str(out)]) == cli.EXIT_OK
    assert (out / "selftest.json").read_bytes() == first


def test_selftest_normal_flip_negative_control(tmp_path, capsys):
    out = tmp_path / "out"
    status = cli.main(["selftest", "--flip-normals", "--out", str(out)])
    assert status == cli.EXIT_FAIL
    text = capsys.readouterr().out
    assert "FAIL constant-density-interior-circle" in text


def test_seed_flag_overrides_config(tmp_path):
    path = _write_cfg(tmp_path, {"seed": 5,
                                 "discretization": {"n_boundary": 32}})
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", path, "--seed", "9",
                     "--out", str(out)]) == 0
    summary = json.loads((out / "solve.json").read_text())
    assert summary["config"]["seed"] == 9

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cpacontract.cli import (
    Config,
    certificate_bytes,
    cmd_check_complex,
    cmd_export_sdpa,
    cmd_floquet,
    cmd_synthesize,
    cmd_verify,
    load_certificate,
    main,
    rebuild_from_certificate,
)
from cpacontract.errors import InputError, SingularSimplexError
from cpacontract.triangulation import ScalingMatrix, build_complex

LINEAR_CONFIG = {
    "system": "dim=1; period=6.283185307179586; f1 = -x1 + sin(t)",
    "region": [[[-2.0, 1.0]]],
    "epsilon0": 0.01,
    "k_min": 4,
    "k_max": 8,
    "mode": {"uniform_cd": True, "objective": "min_c"},
    "verify": {"samples": 20000, "seed": 12345, "tol": 1e-6},
}


def quiet(*args, **kwargs):
    pass


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("certs") / "linear.json"
    code, cert = cmd_synthesize(Config.from_dict(LINEAR_CONFIG),
                                out_path=str(path), progress=quiet)
    assert code == 0
    return str(path)


class TestConfig:
    def test_defaults(self):
        cfg = Config.from_dict(LINEAR_CONFIG)
        assert cfg.epsilon0 == 0.01
        assert cfg.uniform_cd is True
        assert cfg.solver.feas_tol == 1e-8

    def test_bad_epsilon(self):
        bad = dict(LINEAR_CONFIG, epsilon0=0.0)
        with pytest.raises(InputError):
            Config.from_dict(bad)

    def test_bad_k_range(self):
        bad = dict(LINEAR_CONFIG, k_min=5, k_max=3)
        with pytest.raises(InputError):
            Config.from_dict(bad)

    def test_bad_objective(self):
        bad = dict(LINEAR_CONFIG, mode={"objective": "max_c"})
        with pytest.raises(InputError):
            Config.from_dict(bad)

    def test_smoothness_override(self):
        cfg = Config.from_dict(dict(LINEAR_CONFIG, smoothness="C3"))
        assert cfg.build_system().smoothness == "C3"

    def test_smoothness_conflict(self):
        raw = dict(LINEAR_CONFIG)
        raw["system"] = "dim=1; period=1; smoothness=c2; f1 = -x1"
        raw["smoothness"] = "C3"
        with pytest.raises(InputError):
            Config.from_dict(raw).build_system()


class TestSynthesize:
    def test_certificate_and_verify(self, cert_path):
        cert = load_certificate(cert_path)
        assert cert["k"] == 5
        assert cert["solver"]["status"] in ("Optimal", "Feasible")
        assert cert["verification"]["passed"] is True
        assert -1.0 <= float(cert["floquet_bound"]) < 0.0
        assert cmd_verify(cert_path, samples=20000, progress=quiet) == 0

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["synthesize", "--config", str(path)]) == 3

    def test_coarse_budget_fails(self):
        cfg = Config.from_dict(dict(LINEAR_CONFIG, k_min=0, k_max=0))
        assert cmd_synthesize(cfg, progress=quiet) == (1, None)

    def test_ill_conditioned_mesh(self):
        # the mesh takes the single-simplex conditioning check: cells
        # 1e-13 wide in x against a t step of 1 give cond ~2e13
        raw = {"system": "dim=1; period=1; f1 = -x1",
               "region": [[[0.0, 1e-13]]], "scaling": [1e-13],
               "k_min": 0, "k_max": 0}
        with pytest.raises(SingularSimplexError):
            build_complex(raw["region"], 1.0, 0,
                          ScalingMatrix.from_spatial(raw["scaling"]))
        code, cert = cmd_synthesize(Config.from_dict(raw), progress=quiet)
        assert code == 3 and cert is None

    def test_bad_system_text(self):
        raw = dict(LINEAR_CONFIG)
        raw["system"] = "dim=1; period=1; f1 = -x1 +"
        code, cert = cmd_synthesize(Config.from_dict(raw), progress=quiet)
        assert code == 3 and cert is None


class TestVerify:
    def test_perturbed_metric_fails(self, cert_path, tmp_path):
        cert = load_certificate(cert_path)
        vals = [list(row) for row in cert["metric_upper"]]
        vals[3][0] = format(float(vals[3][0]) + 10.0, ".17g")
        cert["metric_upper"] = vals
        bad = tmp_path / "tampered.json"
        bad.write_bytes(certificate_bytes(cert))
        assert cmd_verify(str(bad), samples=20000, progress=quiet) == 2

    def test_truncated_file(self, cert_path, tmp_path):
        data = open(cert_path, "rb").read()
        bad = tmp_path / "trunc.json"
        bad.write_bytes(data[: len(data) // 2])
        assert cmd_verify(str(bad), progress=quiet) == 3

    def test_repeated_slot_key(self, cert_path, tmp_path):
        # row 1 names slot 0 again, coordinates included, so slot 1 would
        # be left unset
        cert = load_certificate(cert_path)
        cert["slot_keys"][1] = cert["slot_keys"][0]
        cert["slot_coordinates"][1] = cert["slot_coordinates"][0]
        bad = tmp_path / "repeated.json"
        bad.write_bytes(certificate_bytes(cert))
        assert cmd_verify(str(bad), progress=quiet) == 3

    def test_dropped_metric_row(self, cert_path, tmp_path):
        cert = load_certificate(cert_path)
        del cert["metric_upper"][-1]
        bad = tmp_path / "dropped.json"
        bad.write_bytes(certificate_bytes(cert))
        assert cmd_verify(str(bad), progress=quiet) == 3

    def test_disconnected_region(self, cert_path, tmp_path):
        cert = load_certificate(cert_path)
        cert["config"]["region"] = [[[-2.0, -1.0]], [[0.0, 1.0]]]
        bad = tmp_path / "disconnected.json"
        bad.write_bytes(certificate_bytes(cert))
        assert main(["verify", str(bad)]) == 3

    def test_round_trip_bit_exact(self, cert_path):
        cert = load_certificate(cert_path)
        again = json.loads(certificate_bytes(cert))
        assert certificate_bytes(again) == certificate_bytes(cert)

    def test_rebuild_matches(self, cert_path):
        cert = load_certificate(cert_path)
        _, _, cx, cpa = rebuild_from_certificate(cert)
        assert cx.n_slots == cert["n_slots"]
        assert cx.n_simplices == cert["n_simplices"]


class TestFloquet:
    def test_oracle_only(self):
        cfg = Config.from_dict(dict(LINEAR_CONFIG, orbit_guess=[0.0]))
        assert cmd_floquet(cfg, progress=quiet) == 0

    def test_with_certificate(self, cert_path):
        cfg = Config.from_dict(dict(LINEAR_CONFIG, orbit_guess=[0.0]))
        assert cmd_floquet(cfg, cert_path, progress=quiet) == 0

    def test_violation_flagged(self, cert_path, tmp_path):
        cert = load_certificate(cert_path)
        cert["floquet_bound"] = format(-5.0, ".17g")  # below the exponent -1
        bad = tmp_path / "bound.json"
        bad.write_bytes(certificate_bytes(cert))
        cfg = Config.from_dict(dict(LINEAR_CONFIG, orbit_guess=[0.0]))
        assert cmd_floquet(cfg, str(bad), progress=quiet) == 2


class TestExportAndCheck:
    def test_export_import_certify(self, tmp_path):
        cfg = Config.from_dict(dict(LINEAR_CONFIG, k_min=2, k_max=2))
        out = tmp_path / "problem.dat-s"
        assert cmd_export_sdpa(cfg, 2, str(out), progress=quiet) == 0
        text = out.read_text()
        assert text.splitlines()[0].strip().isdigit()

        # solve ourselves, dump y, re-import through the CLI path
        from cpacontract.assembly import assemble
        from cpacontract.solver import solve
        from cpacontract.triangulation import build_complex
        sys0 = cfg.build_system()
        cx = build_complex(cfg.region, sys0.T, 2, cfg.scaling_matrix(sys0.n))
        prob, _ = assemble(cx, sys0, cfg.epsilon0, uniform_cd=True,
                           objective="min_c")
        sol = solve(prob)
        ypath = tmp_path / "y.txt"
        np.savetxt(ypath, sol.y)
        code = cmd_export_sdpa(cfg, 2, str(out), import_y=str(ypath),
                               tol=1e-6, progress=quiet)
        # K=2 is infeasible for this system, so the solver returns its
        # best phase-1 point; certify flags it accordingly
        assert code in (0, 2)

    def test_import_feasible_y_clean(self, tmp_path):
        cfg = Config.from_dict(dict(LINEAR_CONFIG, k_min=5, k_max=5))
        out = tmp_path / "problem5.dat-s"
        from cpacontract.assembly import assemble
        from cpacontract.solver import solve
        from cpacontract.triangulation import build_complex
        sys0 = cfg.build_system()
        cx = build_complex(cfg.region, sys0.T, 5, cfg.scaling_matrix(sys0.n))
        prob, _ = assemble(cx, sys0, cfg.epsilon0, uniform_cd=True,
                           objective="min_c")
        sol = solve(prob)
        assert sol.status in ("Optimal", "Feasible")
        ypath = tmp_path / "y5.txt"
        np.savetxt(ypath, sol.y)
        assert cmd_export_sdpa(cfg, 5, str(out), import_y=str(ypath),
                               tol=1e-6, progress=quiet) == 0

    def test_check_complex(self):
        cfg = Config.from_dict(LINEAR_CONFIG)
        assert cmd_check_complex(cfg, 2, progress=quiet) == 0

    def test_empty_selection(self):
        raw = dict(LINEAR_CONFIG)
        raw["region"] = [[[0.4, 0.45]]]
        cfg = Config.from_dict(raw)
        # fine cells exist at K=4 even for a thin region
        assert cmd_check_complex(cfg, 4, progress=quiet) == 0


class TestDumps:
    def test_verify_csv_and_report(self, cert_path, tmp_path):
        csv = tmp_path / "samples.csv"
        rep = tmp_path / "report.json"
        code = cmd_verify(cert_path, samples=2000, progress=quiet,
                          csv_path=str(csv), report_path=str(rep))
        assert code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,x1,lambda_max,L_M"
        assert len(lines) > 2000
        data = json.loads(rep.read_text())
        assert data["passed"] is True

    def test_floquet_trajectory_csv(self, tmp_path):
        cfg = Config.from_dict(dict(LINEAR_CONFIG, orbit_guess=[0.0]))
        csv = tmp_path / "orbit.csv"
        assert cmd_floquet(cfg, progress=quiet, csv_path=str(csv)) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "t,x1"
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[1] == pytest.approx(-0.5, abs=1e-7)
        assert last[1] == pytest.approx(first[1], abs=1e-7)

    def test_certificate_coordinates_checked(self, cert_path, tmp_path):
        cert = load_certificate(cert_path)
        coords = [list(row) for row in cert["slot_coordinates"]]
        coords[0][0] = format(float(coords[0][0]) + 0.5, ".17g")
        cert["slot_coordinates"] = coords
        bad = tmp_path / "coords.json"
        bad.write_bytes(certificate_bytes(cert))
        assert cmd_verify(str(bad), progress=quiet) == 3


class TestDeterminism:
    def test_identical_certificates(self, tmp_path):
        cfg = dict(LINEAR_CONFIG, k_min=5, k_max=5,
                   verify={"samples": 5000, "seed": 1, "tol": 1e-6})
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        code1, _ = cmd_synthesize(Config.from_dict(cfg), out_path=str(p1),
                                  progress=quiet)
        code2, _ = cmd_synthesize(Config.from_dict(cfg), out_path=str(p2),
                                  progress=quiet)
        assert code1 == code2 == 0
        assert p1.read_bytes() == p2.read_bytes()


class TestMainEntry:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("command, patch", [
        ("synthesize", {"verify": {"samples": "abc"}}),
        ("synthesize", {"mode": "x"}),
        ("synthesize", {"solver": []}),
        ("floquet", {"orbit_guess": [0.0, 0.0]}),
        ("floquet", {"region": [[-2.0, 1.0]]}),
    ])
    def test_bad_config_is_input_error(self, tmp_path, command, patch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(LINEAR_CONFIG, **patch)))
        assert main([command, "--config", str(path)]) == 3

    def test_check_complex_subcommand(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(LINEAR_CONFIG))
        assert main(["check-complex", "--config", str(path), "--k", "1"]) == 0

    def test_max_k_echoed_in_certificate(self, tmp_path):
        # the certificate's config echo records the override, and the
        # certificate verifies; without the flag it echoes the file
        cfg = dict(LINEAR_CONFIG, k_min=5,
                   verify={"samples": 5000, "seed": 1, "tol": 1e-6})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for flag, k_max in ((["--max-k", "5"], 5), ([], 8)):
            out = tmp_path / f"cert-{k_max}.json"
            assert main(["synthesize", "--config", str(path),
                         "--out", str(out), *flag]) == 0
            cert = load_certificate(str(out))
            assert cert["k"] == 5
            assert cert["config"] == dict(cfg, k_max=k_max)
            assert main(["verify", str(out)]) == 0

    @pytest.mark.parametrize("max_k", ["-3", "3"])
    def test_max_k_below_k_min_is_input_error(self, tmp_path, max_k, capsys):
        # LINEAR_CONFIG has k_min 4; the override takes the config's check
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(LINEAR_CONFIG))
        assert main(["synthesize", "--config", str(path),
                     "--max-k", max_k]) == 3
        assert "k_min" in capsys.readouterr().err


class TestImports:
    def test_no_scipy_optimize(self):
        # every entry point loads numpy, scipy.sparse and scipy.linalg only
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        code = ("import sys, cpacontract, cpacontract.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.startswith('scipy.optimize')))")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                [src, os.environ.get("PYTHONPATH", "")])))
        assert out.stdout.strip() == "[]"

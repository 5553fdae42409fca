import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from cpacontract import cli, solver
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

    def test_unbounded_system_is_input_error(self, cert_path, tmp_path):
        # a pole inside the region: the derivative bounds cannot be taken
        cert = load_certificate(cert_path)
        cert["config"]["system"] = ("dim=1; period=6.283185307179586; "
                                    "f1 = -x1 + sin(t) + 1e-9/(x1 - 0.3)")
        bad = tmp_path / "pole.json"
        bad.write_bytes(certificate_bytes(cert))
        lines = []
        assert cmd_verify(str(bad), progress=lines.append) == 3
        assert lines[-1].startswith("input error")

    def test_round_trip_bit_exact(self, cert_path):
        cert = load_certificate(cert_path)
        again = json.loads(certificate_bytes(cert))
        assert certificate_bytes(again) == certificate_bytes(cert)

    def test_rebuild_matches(self, cert_path):
        cert = load_certificate(cert_path)
        _, _, cx, cpa = rebuild_from_certificate(cert)
        assert cx.n_slots == cert["n_slots"]
        assert cx.n_simplices == cert["n_simplices"]

    def test_certificate_with_the_dropped_notes_key_verifies(self, cert_path,
                                                             tmp_path):
        # certificates written before the report lost its empty `notes`
        # list hold `"notes": []`; verify reads no field of the report
        cert = load_certificate(cert_path)
        assert "notes" not in cert["verification"]
        cert["verification"]["notes"] = []
        old = tmp_path / "with_notes.json"
        old.write_bytes(certificate_bytes(cert))
        assert cmd_verify(str(old), progress=quiet) == 0


# each is not T-periodic in t by its form
NON_PERIODIC = [
    "dim=1; period=6.283185307179586; f1 = -x1 + 0.1*t",
    "dim=1; period=3; f1 = -x1 + sin(t)",
    "dim=1; period=6.283185307179586; f1 = -x1 + sin(t^2)",
    "dim=1; period=6.283185307179586; f1 = -x1 + t*sin(t)",
]


class TestPeriodicity:
    @pytest.mark.parametrize("system", NON_PERIODIC)
    def test_synthesize_refuses(self, system):
        lines = []
        code, cert = cmd_synthesize(
            Config.from_dict(dict(LINEAR_CONFIG, system=system)),
            progress=lines.append)
        assert (code, cert) == (3, None)
        assert "not periodic in t" in lines[-1]

    @pytest.mark.parametrize("system", NON_PERIODIC)
    def test_verify_refuses_a_hand_edited_certificate(self, cert_path,
                                                      tmp_path, system):
        cert = load_certificate(cert_path)
        cert["config"]["system"] = system
        bad = tmp_path / "non_periodic.json"
        bad.write_bytes(certificate_bytes(cert))
        lines = []
        assert cmd_verify(str(bad), progress=lines.append) == 3
        assert "not periodic in t" in lines[-1]
        assert main(["verify", str(bad)]) == 3


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
        ("synthesize", {"system": 5}),
        ("floquet", {"system": 5}),
        ("check-complex", {"system": 5}),
        ("synthesize", {"scaling": 0.5}),
        ("synthesize", {"scaling": [None]}),
        ("check-complex", {"scaling": 0.5}),
        ("check-complex", {"scaling": [None]}),
        ("floquet", {"scaling": "1"}),
        # non-finite numbers, written as JSON's NaN and Infinity
        ("synthesize", {"epsilon0": math.nan}),
        ("synthesize", {"epsilon0": 1e400}),
        ("synthesize", {"scaling": [math.nan]}),
        ("check-complex", {"scaling": [math.inf]}),
        ("floquet", {"scaling": [math.nan]}),
        ("synthesize", {"solver": {"feas_tol": math.nan}}),
        ("synthesize", {"solver": {"gap_tol": math.nan}}),
        ("synthesize", {"verify": {"samples": 20000, "seed": 12345,
                                   "tol": math.nan}}),
    ])
    def test_bad_config_is_input_error(self, tmp_path, command, patch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(LINEAR_CONFIG, **patch)))
        extra = ["--k", "1"] if command == "check-complex" else []
        assert main([command, "--config", str(path)] + extra) == 3

    @pytest.mark.parametrize("field, patch", [
        ("epsilon0", {"epsilon0": math.nan}),
        ("epsilon0", {"epsilon0": math.inf}),
        ("scaling", {"scaling": [math.nan]}),
        ("feas_tol", {"solver": {"feas_tol": math.nan}}),
        ("gap_tol", {"solver": {"gap_tol": math.inf}}),
        ("verify.tol", {"verify": {"tol": math.nan}}),
    ])
    def test_non_finite_number_names_its_field(self, tmp_path, capsys,
                                               field, patch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(LINEAR_CONFIG, **patch)))
        assert main(["synthesize", "--config", str(path)]) == 3
        assert field in capsys.readouterr().err

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

    def test_unwritable_output_is_input_error(self, cert_path, tmp_path,
                                              capsys):
        cfg = dict(LINEAR_CONFIG, k_min=5, k_max=5,
                   verify={"samples": 500, "seed": 1, "tol": 1e-6})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "missing" / "out.json")
        assert main(["synthesize", "--config", str(path), "--out", out]) == 3
        assert main(["verify", cert_path, "--samples", "500",
                     "--out", out]) == 3
        assert capsys.readouterr().err.count("cannot write output") == 2

    def test_unwritable_output_fails_before_the_first_level(
            self, tmp_path, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("a level ran before the output check")

        monkeypatch.setattr(cli, "build_complex", unreachable)
        monkeypatch.setattr(cli, "solve", unreachable)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(LINEAR_CONFIG))
        out = str(tmp_path / "missing" / "out.json")
        assert main(["synthesize", "--config", str(path), "--out", out]) == 3
        assert "cannot write output" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["devnull", "empty file"])
    def test_output_check_removes_nothing_it_did_not_make(
            self, tmp_path, monkeypatch, target):
        def forbidden(path):
            raise AssertionError(f"os.remove({path!r}) called")

        monkeypatch.setattr(cli.os, "remove", forbidden)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(
            LINEAR_CONFIG, k_min=5, k_max=5,
            verify={"samples": 500, "seed": 1, "tol": 1e-6})))
        if target == "devnull":
            out = os.devnull
        else:
            out = str(tmp_path / "out.json")
            open(out, "wb").close()
        assert main(["synthesize", "--config", str(path), "--out", out]) == 0
        if target == "empty file":
            assert json.loads(open(out).read())["k"] == 5

    def test_refused_schur_plan_is_numerical_failure(self, tmp_path,
                                                     monkeypatch, capsys):
        # every mesh's Schur band is wider than 2 variables
        monkeypatch.setattr(solver, "_MAX_BAND", 2)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(LINEAR_CONFIG, k_min=1, k_max=1)))
        out = tmp_path / "out.json"
        assert main(["synthesize", "--config", str(path),
                     "--out", str(out)]) == 4
        lines = capsys.readouterr().out
        assert "Schur plan kind refused" in lines
        assert "numerical failure at K=1" in lines
        assert not out.exists()

    @pytest.mark.parametrize("max_k", ["-3", "3"])
    def test_max_k_below_k_min_is_input_error(self, tmp_path, max_k, capsys):
        # LINEAR_CONFIG has k_min 4; the override takes the config's check
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(LINEAR_CONFIG))
        assert main(["synthesize", "--config", str(path),
                     "--max-k", max_k]) == 3
        assert "k_min" in capsys.readouterr().err


def _write_cert(cert, path):
    path.write_bytes(certificate_bytes(cert))
    return str(path)


class TestMalformedCertificates:
    """Malformed certificates are input errors, exit 3; none may end in a
    traceback (exit 1 means infeasible) or a pass."""

    def test_certificate_holding_a_list(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(LINEAR_CONFIG, orbit_guess=[0.0])))
        assert main(["verify", str(bad)]) == 3
        assert main(["floquet", "--config", str(cfg), "--cert",
                     str(bad)]) == 3

    def test_missing_constants(self, cert_path, tmp_path):
        cert = load_certificate(cert_path)
        del cert["constants"]
        assert main(["verify", _write_cert(cert, tmp_path / "c.json")]) == 3

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "nan", "inf"])
    def test_bad_C(self, cert_path, tmp_path, value):
        cert = load_certificate(cert_path)
        cert["constants"]["C"] = value
        assert main(["verify", _write_cert(cert, tmp_path / "c.json")]) == 3

    def test_bad_D(self, cert_path, tmp_path):
        cert = load_certificate(cert_path)
        cert["constants"]["D"] = "nan"
        assert main(["verify", _write_cert(cert, tmp_path / "c.json")]) == 3

    def test_epsilon0_differs_from_config(self, cert_path, tmp_path):
        # with epsilon0 = 0 the positive-definiteness gate would read
        # min eig >= -tol and pass an indefinite metric
        cert = load_certificate(cert_path)
        assert main(["verify", _write_cert(cert, tmp_path / "ok.json")]) == 0
        cert["constants"]["epsilon0"] = "0"
        assert main(["verify", _write_cert(cert, tmp_path / "c.json")]) == 3

    @pytest.mark.parametrize("value", [None, "abc", [1.0], {"bound": -1.0},
                                       "missing"])
    def test_missing_or_unparsable_floquet_bound(self, cert_path, tmp_path,
                                                 value):
        # both commands that read the bound refuse it as an input error
        cert = load_certificate(cert_path)
        if value == "missing":
            del cert["floquet_bound"]
        else:
            cert["floquet_bound"] = value
        path = _write_cert(cert, tmp_path / "c.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(LINEAR_CONFIG, orbit_guess=[0.0])))
        assert main(["verify", path]) == 3
        assert main(["floquet", "--config", str(cfg), "--cert", path]) == 3

    @pytest.mark.parametrize("change", ["-50", "nan", "one ulp"])
    def test_floquet_bound_must_be_the_one_C_proves(self, cert_path,
                                                    tmp_path, change):
        # a certificate may claim no stronger bound than its C proves, not
        # even by one ulp: verify fails it (exit 2), as it fails a wrong C
        cert = load_certificate(cert_path)
        bound = float(cert["floquet_bound"])
        assert bound == -1.0 / (2.0 * float(cert["constants"]["C"]))
        assert main(["verify", _write_cert(cert, tmp_path / "ok.json")]) == 0
        cert["floquet_bound"] = (
            format(float(np.nextafter(bound, -np.inf)), ".17g")
            if change == "one ulp" else change)
        lines = []
        assert cmd_verify(_write_cert(cert, tmp_path / "c.json"),
                          progress=lines.append) == 2
        assert lines[-2].startswith("BOUND MISMATCH")
        assert lines[-1] == "verification FAIL"


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC, os.environ.get("PYTHONPATH", "")]))


def run_cli(*args):
    """`python -m cpacontract.cli ARGS` in a fresh process."""
    return subprocess.run([sys.executable, "-m", "cpacontract.cli", *args],
                          capture_output=True, text=True, timeout=300,
                          env=ENV)


class TestGatesRejectNaN:
    """A gate passes only when its `>=` holds, so a NaN fails it."""

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_certify_rejects_non_finite_y(self, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(LINEAR_CONFIG))
        out = tmp_path / "p.dat-s"
        assert cmd_export_sdpa(Config.from_dict(LINEAR_CONFIG), 0, str(out),
                               progress=quiet) == 0
        ypath = tmp_path / "y.txt"
        np.savetxt(ypath, np.full(int(out.read_text().split()[0]), value))
        run = run_cli("export-sdpa", "--config", str(cfg), "--k", "0",
                      "--out", str(out), "--import-y", str(ypath))
        assert run.returncode == 2, run.stdout + run.stderr
        assert " 0 flagged" not in run.stdout

    def test_floquet_rejects_nan_bound(self, cert_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(LINEAR_CONFIG, orbit_guess=[0.0])))
        cert = load_certificate(cert_path)
        assert run_cli("floquet", "--config", str(cfg), "--cert",
                       cert_path).returncode == 0
        cert["floquet_bound"] = "nan"
        run = run_cli("floquet", "--config", str(cfg), "--cert",
                      _write_cert(cert, tmp_path / "nan.json"))
        assert run.returncode == 2, run.stdout + run.stderr
        assert "BOUND VIOLATION" in run.stdout


def scipy_after(*steps):
    """The scipy modules loaded in one fresh process after each of `steps`,
    Python statements that it runs in turn, one sorted list per step."""
    lines = ["import json, sys"]
    for step in steps:
        lines += [step, "print('SCIPY', json.dumps(sorted(m for m in "
                  "sys.modules if m.partition('.')[0] == 'scipy')))"]
    out = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)], capture_output=True,
        text=True, check=True, timeout=300, env=ENV)
    return [json.loads(line[6:]) for line in out.stdout.splitlines()
            if line.startswith("SCIPY ")]


class TestImports:
    def test_no_scipy_at_import(self):
        assert scipy_after("import cpacontract, cpacontract.cli, "
                           "cpacontract.assembly, cpacontract.solver") == [[]]

    def test_certificate_consumer_loads_no_scipy(self, cert_path, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(dict(LINEAR_CONFIG, orbit_guess=[0.0])))
        cert, cfg = json.dumps(cert_path), json.dumps(str(config))
        after = scipy_after(
            "from cpacontract import cli, orbits",
            f"assert cli.main(['verify', {cert}]) == 0",
            f"assert cli.main(['floquet', '--config', {cfg}, "
            f"'--cert', {cert}]) == 0",
            f"assert cli.main(['check-complex', '--config', {cfg}, "
            "'--k', '2']) == 0",
            "_, sys0, _, cpa = cli.rebuild_from_certificate("
            f"cli.load_certificate({cert})); "
            "d = orbits.contraction_probe(cpa, sys0, [-0.5], [1e-3], "
            "sys0.T, 500); assert d[-1] < d[0]")
        assert after == [[]] * 5

    def test_building_an_sdp_loads_scipy(self):
        # the positive control of the two cases above: scipy.sparse loads
        # with the first A, scipy.linalg with the first factor
        imported, assembled, solved = scipy_after(
            "from cpacontract import assembly, solver, systems, "
            "triangulation",
            "sys0 = systems.parse_system('dim=1; period=6.283185307179586; "
            "f1 = -x1 + sin(t)'); "
            "cx = triangulation.build_complex([[[-2.0, 1.0]]], sys0.T, 2); "
            "problem, _ = assembly.assemble(cx, sys0, 0.01)",
            "solver.solve(problem)")
        assert imported == []
        assert "scipy.sparse" in assembled
        assert "scipy.linalg" not in assembled
        assert "scipy.linalg" in solved

import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lpns.cli
import lpns.solver
from lpns.bounds import riccati_solve
from lpns.cli import CSV_COLUMNS, main, parse_config_text
from lpns.errors import ConfigurationError, DivergenceError, StepSizeError
from lpns.lp import build_filter_bank
from lpns.snapshots import read_snapshot, sidecar_path, write_snapshot
from lpns.solver import SolverParams, TrajectoryRow, simulate
from lpns.spectral import (
    GridSpec,
    PhysicalVelocity,
    dealias,
    forward_transform,
    inverse_transform,
    leray_project,
    make_taylor_green,
    zero_mean,
    zero_velocity,
)
from lpns.verify import nlt_suite

EXPECTED_HEADER = "t,E,enstrophy,H1,H32,y,riccati_lhs,riccati_rhs,A,B,C,flux_sum"


def write_config(path, **overrides):
    base = {
        "n": 16,
        "nu": 0.5,
        "dt": 1e-3,
        "t_end": 0.01,
        "ic": "taylor_green",
        "amplitude": 1.0,
        "diag_every": 5,
        "snapshot_every": 0,
        "out": str(path.parent / "out"),
    }
    base.update(overrides)
    lines = [f"{k} = {v}" for k, v in base.items() if v is not None]
    path.write_text("\n".join(lines) + "\n")
    return base


class TestConfigParsing:
    def test_comments_and_spacing(self):
        data = parse_config_text("# hello\n n = 32  # trailing\n\nnu=0.1\n")
        assert data == {"n": "32", "nu": "0.1"}

    def test_bad_line(self):
        with pytest.raises(ConfigurationError):
            parse_config_text("just words\n")


class TestSimulateCommand:
    def test_taylor_green_run(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, snapshot_every=5)
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == EXPECTED_HEADER + ",Eq0,Eq1,Eq2,Eq3,Eq4"
        assert len(lines) == 1 + 3  # rows at steps 0, 5, 10
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["psi_profile"]
        assert manifest["config"]["nu"] == 0.5
        assert (out / "snapshot_00000005.lpns").exists()
        assert (out / "snapshot_00000005.json").exists()
        assert manifest["status"] == "ok"
        assert "error" not in manifest and "last_good_time" not in manifest

    def test_manifest_records_the_parsed_thread_count(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        monkeypatch.setenv("LPNS_THREADS", "01")
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert json.loads((tmp_path / "out" / "run_manifest.json").read_text())["threads"] == "1"

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_bad_thread_count_exits_2(self, tmp_path, capsys, monkeypatch, value):
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        monkeypatch.setenv("LPNS_THREADS", value)
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "LPNS_THREADS" in err and repr(value) in err
        assert not (tmp_path / "out" / "run_manifest.json").exists()

    def test_missing_nu_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, nu=None)
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "nu" in capsys.readouterr().err

    def test_cfl_violation_exits_2_with_admissible_dt(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, dt=0.5, t_end=1.0)
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "admissible dt" in err
        adm = float(err.rsplit("<=", 1)[1].strip())
        assert 0.0 < adm < 0.5

    @pytest.mark.parametrize(
        "overrides",
        [{"nu": "nan"}, {"dt": "nan"}, {"t_end": "inf"}, {"diag_evry": 5}, {"dealias": "0/0"},
         {"s": 7}, {"amplitude": "nan", "ic": "random", "spectrum": "0:0.1"},
         {"seed": -1, "ic": "random", "spectrum": "0:0.1"}, {"nonlinear": "ture"},
         {"snapshot_every": -1}],
        ids=["nu-nan", "dt-nan", "t_end-inf", "unknown-key", "dealias-zero-division",
             "removed-s-key", "amplitude-nan", "negative-seed", "misspelled-nonlinear",
             "negative-snapshot-every"],
    )
    def test_bad_value_or_key_exits_2(self, tmp_path, capsys, overrides):
        cfg = tmp_path / "run.cfg"
        write_config(cfg, **overrides)
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert next(iter(overrides)) in err

    @pytest.mark.parametrize(
        "error",
        [StepSizeError("dt violates the CFL bound", admissible_dt=1e-4),
         DivergenceError("solution diverged", last_good_time=2e-3)],
        ids=["step-size", "divergence"],
    )
    def test_failed_run_keeps_its_rows(self, tmp_path, monkeypatch, error):
        """A numerical failure on the third step exits 3 and leaves the rows, the
        snapshots of steps 0-2 and a manifest that records the failure."""
        real_step = lpns.solver.step
        calls = {"n": 0}

        def failing(u, params, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise error
            return real_step(u, params, **kwargs)

        monkeypatch.setattr(lpns.solver, "step", failing)
        cfg = tmp_path / "run.cfg"
        write_config(cfg, diag_every=1, snapshot_every=1)
        assert main(["simulate", "--config", str(cfg)]) == 3
        out = tmp_path / "out"
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == EXPECTED_HEADER + ",Eq0,Eq1,Eq2,Eq3,Eq4"
        assert [float(line.split(",")[0]) for line in lines[1:]] == pytest.approx([0.0, 1e-3, 2e-3])
        snapshots = sorted(path.name for path in out.glob("snapshot_*.lpns"))
        assert snapshots == [f"snapshot_{i:08d}.lpns" for i in range(3)]
        for i in range(3):
            phys, _ = read_snapshot(out / f"snapshot_{i:08d}.lpns")
            assert phys.time == pytest.approx(i * 1e-3)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"] == {"kind": type(error).__name__, "message": str(error)}
        assert manifest["last_good_time"] == pytest.approx(2e-3)

    @pytest.mark.parametrize("under", ["", "sub"], ids=["existing-file", "path-under-a-file"])
    def test_unusable_output_directory_exits_2(self, tmp_path, capsys, under):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / under if under else blocker
        cfg = tmp_path / "run.cfg"
        write_config(cfg, out=str(out))
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err

    @pytest.mark.parametrize("name", ["diagnostics.csv", "run_manifest.json",
                                      "snapshot_00000000.lpns", "snapshot_00000000.json"])
    def test_unwritable_output_file_exits_2(self, tmp_path, capsys, name):
        """A directory at an output file's path is a configuration error naming that path."""
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        cfg = tmp_path / "run.cfg"
        write_config(cfg, snapshot_every=5)
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out / name) in err

    def test_unwritable_snapshot_mid_run_keeps_the_rows(self, tmp_path, capsys):
        """A snapshot that cannot be written at step 5 exits 2, and the run still
        writes the rows of steps 0-5 and a manifest that records the failure."""
        out = tmp_path / "out"
        (out / "snapshot_00000005.lpns").mkdir(parents=True)
        cfg = tmp_path / "run.cfg"
        write_config(cfg, diag_every=1, snapshot_every=5)
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out / "snapshot_00000005.lpns") in err
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == EXPECTED_HEADER + ",Eq0,Eq1,Eq2,Eq3,Eq4"
        assert len(lines) == 1 + 6
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["kind"] == "ConfigurationError"
        assert manifest["last_good_time"] == pytest.approx(5e-3)

    def test_unwritable_csv_after_a_failed_snapshot_keeps_the_run_error(self, tmp_path, capsys):
        """A snapshot fails at step 5 and diagnostics.csv cannot be written either:
        both errors are printed, the snapshot's decides the exit code, and the
        manifest still records it."""
        out = tmp_path / "out"
        (out / "snapshot_00000005.lpns").mkdir(parents=True)
        (out / "diagnostics.csv").mkdir()
        cfg = tmp_path / "run.cfg"
        write_config(cfg, diag_every=1, snapshot_every=5)
        assert main(["simulate", "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and all(line.startswith("error: ") for line in lines)
        assert str(out / "diagnostics.csv") in lines[0]
        assert str(out / "snapshot_00000005.lpns") in lines[1]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["error"]["kind"] == "ConfigurationError"
        assert str(out / "snapshot_00000005.lpns") in manifest["error"]["message"]
        assert manifest["last_good_time"] == pytest.approx(5e-3)

    @pytest.mark.parametrize("unwritable", [("diagnostics.csv",), ("run_manifest.json",),
                                            ("diagnostics.csv", "run_manifest.json")],
                             ids=["csv", "manifest", "both"])
    def test_unwritable_output_after_a_numerical_failure_exits_3(self, tmp_path, capsys,
                                                                 monkeypatch, unwritable):
        """A step-size failure on the third step still exits 3 when an output file
        cannot be written; each write error is printed, and the file that can be
        written is."""
        real_step = lpns.solver.step
        calls = {"n": 0}

        def failing(u, params, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise StepSizeError("dt violates the CFL bound", admissible_dt=1e-4)
            return real_step(u, params, **kwargs)

        monkeypatch.setattr(lpns.solver, "step", failing)
        out = tmp_path / "out"
        for name in unwritable:
            (out / name).mkdir(parents=True)
        cfg = tmp_path / "run.cfg"
        write_config(cfg, diag_every=1)
        assert main(["simulate", "--config", str(cfg)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(" ", 1)[0] for line in lines] == ["error:"] * len(unwritable) + ["numerical"]
        assert all(str(out / name) in line for name, line in zip(unwritable, lines))
        assert "dt violates the CFL bound" in lines[-1]
        if "diagnostics.csv" not in unwritable:
            assert len((out / "diagnostics.csv").read_text().splitlines()) == 1 + 3
        if "run_manifest.json" not in unwritable:
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["status"] == "failed"
            assert manifest["error"]["kind"] == "StepSizeError"
            assert manifest["last_good_time"] == pytest.approx(2e-3)

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"n = 16\nnu = \xff\n")
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unreadable_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 2

    @pytest.mark.parametrize("fraction", ["2/3", "1/2"])
    def test_snapshot_start_writes_the_bytes_of_the_full_transform(self, tmp_path, monkeypatch,
                                                                  fraction):
        """An ``ic = snapshot`` run from a field that is not solenoidal writes the
        CSV and manifest of the full-spectrum formula that the block transform
        replaced.  At fraction 1 ``dealiased_spectrum`` is that formula."""
        grid = GridSpec(16)
        snapshot = tmp_path / "noise.lpns"
        noise = 0.05 * np.random.default_rng(2).standard_normal((3, 16, 16, 16))
        write_snapshot(snapshot, PhysicalVelocity(grid, noise), {"nu": 0.5})

        def full_formula(f, project=False):
            return zero_mean(dealias(leray_project(forward_transform(f))))

        outputs = []
        for formula in (None, full_formula):
            if formula is not None:
                monkeypatch.setattr(lpns.cli, "dealiased_spectrum", formula)
            out = tmp_path / f"out{len(outputs)}"
            cfg = tmp_path / "snap.cfg"
            write_config(cfg, ic="snapshot", snapshot=str(snapshot), amplitude=None,
                         dealias=fraction, diag_every=1, t_end=0.005, out=str(out))
            assert main(["simulate", "--config", str(cfg)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("diagnostics.csv", "run_manifest.json")])
        assert outputs[0] == outputs[1]

    def test_determinism_byte_identical(self, tmp_path):
        cfg1 = tmp_path / "a.cfg"
        write_config(cfg1, ic="random", seed=7, spectrum="0:0.2,1:0.1", out=str(tmp_path / "o1"))
        cfg2 = tmp_path / "b.cfg"
        write_config(cfg2, ic="random", seed=7, spectrum="0:0.2,1:0.1", out=str(tmp_path / "o2"))
        assert main(["simulate", "--config", str(cfg1)]) == 0
        assert main(["simulate", "--config", str(cfg2)]) == 0
        csv1 = (tmp_path / "o1" / "diagnostics.csv").read_bytes()
        csv2 = (tmp_path / "o2" / "diagnostics.csv").read_bytes()
        assert csv1 == csv2
        man1 = (tmp_path / "o1" / "run_manifest.json").read_bytes()
        man2 = (tmp_path / "o2" / "run_manifest.json").read_bytes()
        assert man1 == man2

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc/self/status")
    def test_peak_rss_of_a_short_n64_run(self, tmp_path):
        """A fresh process runs 2 steps at n = 64 with a row each and a snapshot
        at the end.  Its resident peak beyond what the imports hold stays under 7
        velocity arrays: the march keeps no state per step and does not keep u0
        (6.2 measured).  With a new state per step, held beside the old one, and
        u0 kept for the whole run, it read 8.4 to 8.5."""
        cfg = tmp_path / "run.cfg"
        write_config(cfg, n=64, nu=0.05, t_end=0.002, ic="random", seed=1, amplitude=None,
                     spectrum="0:0.3,1:0.2,2:0.1,3:0.05", diag_every=1, snapshot_every=2,
                     out=str(tmp_path / "out"))
        script = (
            "import sys\n"
            "import lpns.cli\n"
            "def status(key):\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh if line.startswith(key + ':'))\n"
            "base = status('VmRSS')\n"
            "code = lpns.cli.main(['simulate', '--config', sys.argv[1]])\n"
            "print(code, base, status('VmHWM'))\n"
        )
        src = str(Path(lpns.solver.__file__).resolve().parents[1])
        env = {**os.environ, "LPNS_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", script, str(cfg)], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        code, base_kb, peak_kb = map(int, out.split())
        assert code == 0
        velocity_kb = 3 * 64 * 64 * 33 * 16 / 1024
        assert (peak_kb - base_kb) / velocity_kb < 7.0


class TestCsvColumns:
    def test_table_names_every_row_field_once(self):
        names = [name for name, _ in CSV_COLUMNS]
        attrs = [attr for _, attr in CSV_COLUMNS]
        fields = [f.name for f in dataclasses.fields(TrajectoryRow) if f.name != "shell_energies"]
        assert sorted(attrs) == sorted(fields)
        assert len(set(names)) == len(names)

    def test_header_manifest_and_rows_agree(self, tmp_path):
        """The header is the manifest's columns, and each row holds one value per
        column: the row attribute the table pairs with it, then Eq<q> per shell."""
        cfg = tmp_path / "run.cfg"
        write_config(cfg)
        assert main(["simulate", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        lines = (out / "diagnostics.csv").read_text().splitlines()
        columns = json.loads((out / "run_manifest.json").read_text())["columns"]
        assert lines[0].split(",") == columns
        grid = GridSpec(16)
        bank = build_filter_bank(grid)
        result = simulate(make_taylor_green(grid, 1.0),
                          SolverParams(nu=0.5, dt=1e-3, t_end=0.01, diag_every=5), bank)
        assert columns[len(CSV_COLUMNS):] == [f"Eq{q}" for q in bank.shells]
        assert len(lines) == 1 + len(result.rows)
        for line, row in zip(lines[1:], result.rows):
            values = [float(v) for v in line.split(",")]
            assert len(values) == len(columns)
            assert values == [*(getattr(row, attr) for _, attr in CSV_COLUMNS), *row.shell_energies]


class TestAnalyzeCommand:
    def test_zero_field_report(self, tmp_path, grid16, capsys):
        path = tmp_path / "zero.lpns"
        write_snapshot(path, inverse_transform(zero_velocity(grid16)), {"nu": 0.3})
        assert main(["analyze", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["nu"] == 0.3
        assert all(v == 0.0 for v in report["shell_energies"].values())
        assert report["flux_sum"] == 0.0

    def test_taylor_green_two_shells(self, tmp_path, grid32, capsys):
        path = tmp_path / "tg.lpns"
        write_snapshot(path, inverse_transform(make_taylor_green(grid32, 1.0)), {"nu": 0.1})
        assert main(["analyze", str(path), "--s", "1.5"]) == 0
        report = json.loads(capsys.readouterr().out)
        populated = [q for q, e in sorted(report["shell_energies"].items()) if e > 1e-20]
        assert populated == ["Eq0", "Eq1"]
        assert report["riccati"]["y"] > 0

    @pytest.mark.parametrize(
        "sidecar_nu,args",
        [(math.nan, []), (math.inf, []), (0.1, ["--nu", "nan"]), (0.1, ["--nu", "inf"]),
         (0.1, ["--nu", "0"])],
        ids=["sidecar-nan", "sidecar-inf", "flag-nan", "flag-inf", "flag-zero"],
    )
    def test_bad_viscosity_exits_2(self, tmp_path, grid16, capsys, sidecar_nu, args):
        path = tmp_path / "tg.lpns"
        write_snapshot(path, inverse_transform(make_taylor_green(grid16, 1.0)), {"nu": 0.1})
        # write_snapshot refuses non-finite values, so the NaN / Infinity token is written by hand.
        side = sidecar_path(path)
        side.write_text(side.read_text().replace('"nu": 0.1', f'"nu": {json.dumps(sidecar_nu)}'))
        assert main(["analyze", str(path), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: viscosity") and captured.err.count("\n") == 1

    def test_overflowing_report_exits_2(self, tmp_path, grid16, capsys):
        """A finite viscosity whose report overflows is refused, not printed as Infinity."""
        path = tmp_path / "tg.lpns"
        write_snapshot(path, inverse_transform(make_taylor_green(grid16, 1.0)), {"nu": 0.1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", str(path), "--nu", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_reads_and_builds_through_the_module_globals(self, tmp_path, grid32, capsys,
                                                         monkeypatch):
        """The benchmark tracer wraps ``read_snapshot`` and ``build_filter_bank``
        as attributes of ``lpns.cli``, and fails a traced run they do not fire in."""
        path = tmp_path / "tg.lpns"
        write_snapshot(path, inverse_transform(make_taylor_green(grid32, 1.0)), {"nu": 0.1})
        fired = []
        for name in ("read_snapshot", "build_filter_bank"):
            fn = getattr(lpns.cli, name)
            monkeypatch.setattr(lpns.cli, name,
                                lambda *a, _fn=fn, _name=name: fired.append(_name) or _fn(*a))
        assert main(["analyze", str(path)]) == 0
        assert fired == ["read_snapshot", "build_filter_bank"]

    def test_truncated_file_exits_2(self, tmp_path, grid16):
        path = tmp_path / "tg.lpns"
        write_snapshot(path, inverse_transform(make_taylor_green(grid16, 1.0)), {"nu": 0.1})
        raw = path.read_bytes()
        path.write_bytes(raw[:100])
        assert main(["analyze", str(path)]) == 2


class TestVerifyCommand:
    def test_partition_suite_passes(self, capsys):
        assert main(["verify", "--suite", "partition", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_nlt_suite_passes(self, capsys):
        assert main(["verify", "--suite", "nlt", "--seed", "5", "--n", "16"]) == 0

    def test_nlt_negative_injection_fails(self, grid16):
        """A non-solenoidal field must break the flux-sum check."""
        rng = np.random.default_rng(0)
        from lpns.spectral import PhysicalVelocity, dealias, forward_transform

        bad = dealias(forward_transform(
            PhysicalVelocity(grid16, rng.standard_normal((3, 16, 16, 16)))
        ))
        bad.coeffs[:, 0, 0, 0] = 0.0
        results = nlt_suite(seed=0, n=16, field=bad)
        flux_checks = [r for r in results if r.name.startswith("flux_sum")]
        assert flux_checks and not flux_checks[0].passed

    def test_negative_seed_exits_2(self, capsys):
        assert main(["verify", "--suite", "nlt", "--seed", "-1", "--n", "16"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "seed" in err

    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


class TestBoundsCommand:
    def _write_series_csv(self, path, t, y, energy=None):
        lines = ["t,y" + (",E" if energy is not None else "")]
        for i, (ti, yi) in enumerate(zip(t, y)):
            row = f"{float(ti)!r},{float(yi)!r}"
            if energy is not None:
                row += f",{float(energy[i])!r}"
            lines.append(row)
        path.write_text("\n".join(lines) + "\n")

    def test_synthetic_riccati_floor(self, tmp_path, capsys):
        sol = riccati_solve(1.0, 1.0)
        t = np.linspace(0.0, 0.9, 60)
        self._write_series_csv(tmp_path / "series.csv", t, sol(t))
        assert main(["bounds", str(tmp_path / "series.csv"), "--c-emp", "1.0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["blowup_floor"] == pytest.approx(1.0, abs=1e-9)
        assert report["fit"]["alpha"] == pytest.approx(1.0, abs=1e-6)
        assert not report["no_blowup_signal"] or report["blowup_floor"] > 0.9

    def test_decaying_series_flagged(self, tmp_path, capsys):
        t = np.linspace(0.0, 1.0, 30)
        y = 5.0 * np.exp(-2.0 * t)
        self._write_series_csv(tmp_path / "decay.csv", t, y)
        assert main(["bounds", str(tmp_path / "decay.csv")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["no_blowup_signal"] is True
        assert report["blowup_floor"] > 1.0

    def test_envelope_kinds(self, tmp_path, capsys):
        sol = riccati_solve(1.0, 1.0)
        t = np.linspace(0.0, 0.9, 30)
        self._write_series_csv(tmp_path / "series.csv", t, sol(t), energy=np.full(30, 4.0))
        code = main([
            "bounds", str(tmp_path / "series.csv"),
            "--kinds", "main_h32,leray_h1,giga_hs", "--s", "1.0", "--c", "2.0",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["envelope"]) == {"main_h32", "leray_h1", "giga_hs"}
        t0, v0 = report["envelope"]["main_h32"][0]
        floor = report["blowup_floor"]
        assert v0 == pytest.approx(2.0 / math.sqrt(floor - t0), rel=1e-12)

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_bad_empirical_constant_exits_2(self, tmp_path, capsys, value):
        self._write_series_csv(tmp_path / "series.csv", [0.0, 0.5], [1.0, 2.0])
        assert main(["bounds", str(tmp_path / "series.csv"), "--c-emp", value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: empirical constant") and err.count("\n") == 1

    def test_missing_y_column_exits_2(self, tmp_path):
        (tmp_path / "bad.csv").write_text("t,z\n0.0,1.0\n")
        assert main(["bounds", str(tmp_path / "bad.csv")]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["bounds", str(tmp_path / "none.csv")]) == 2

    @pytest.mark.parametrize(
        "content",
        [b"t,y\n0.0,abc\n", b"t,y,E\n0.0,1.0,abc\n", b"t,y\n0.0,1.0\n0.1\n", b"t,y\n0.0,\xff\n",
         b"t,y,E\n0.0,1.0,-4.0\n0.1,2.0,1.0\n"],
        ids=["non-numeric-y", "non-numeric-E", "short-row", "undecodable", "negative-E"],
    )
    def test_malformed_csv_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        assert main(["bounds", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(path) in err

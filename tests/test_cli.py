import json
import subprocess
import sys

import pytest

from satrep.cli import main
from satrep.config import default_scenario, load_scenario, sweepable_keys
from satrep.repeater import distance_sweep


def read_csv(path):
    """Split an output file into (provenance dict, header list, data rows)."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# {")
    provenance = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return provenance, header, rows


def split_stdout_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("# {")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


class TestTopLevel:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        assert main(["rates", "--frobnicate"]) == 1

    def test_missing_config_file(self):
        assert main(["rates", "--config", "/no/such/file.cfg"]) == 1

    def test_unknown_override_key(self):
        assert main(["rates", "--set", "orbit.altitude=1e6"]) == 1

    def test_unphysical_override_is_model_error(self):
        assert main(["rates", "--set", "source.pair_fidelity=0.1"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key", ["orbit.altitude_m", "channel.beam_waist_m", "node.caps_fidelity"]
    )
    def test_non_finite_override_is_config_error(self, key, value, capsys):
        assert key in sweepable_keys()
        args = ["rates", "--set", f"{key}={value}", "--distances-km", "10000"]
        assert main(args + ["--links", "4"]) == 1
        assert "is not finite" in capsys.readouterr().err

    def test_nan_efficiency_is_model_error(self, capsys):
        # A vanishing beam waist makes the diffracted waist 0 * inf = NaN.
        code = main(
            ["rates", "--set", "channel.beam_waist_m=1e-300",
             "--distances-km", "10000", "--links", "4"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "satrep: model error:" in err
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    def test_underflowing_beam_waist_warns_nothing(self, capsys):
        # w0^2 underflows to 0; numpy must not warn on its way to the NaN.
        code = main(
            ["rates", "--set", "channel.beam_waist_m=1e-300",
             "--distances-km", "10000", "--links", "4"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "satrep: model error: efficiency exceeded 1 beyond noise or is NaN\n"

    @pytest.mark.filterwarnings("error")
    def test_grazing_pass_overflow_warns_nothing(self, capsys):
        # Near the horizon (1 + n_bar/eta)^2 overflows to inf in
        # channel.pair_fidelity; its limit 1/4 is the right value.
        code = main(
            ["rates", "--set", "orbit.altitude_m=2e5", "--set", "orbit.max_zenith_deg=89.9",
             "--set", "channel.zenith_transmittance=0.5",
             "--set", "channel.beam_waist_m=0.005", "--distances-km", "400",
             "--links", "4"]
        )
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "key",
        ["orbit.earth_radius_m", "channel.wavelength_m", "channel.beam_quality_m2",
         "channel.receiver_radius_m", "channel.pointing_sigma_rad"],
    )
    def test_overflowing_override_is_model_error(self, key, capsys):
        # Squaring 1e300 overflows a Python float in the pass geometry or
        # the diffraction and pointing efficiencies.
        code = main(
            ["rates", "--set", f"{key}=1e300", "--distances-km", "10000", "--links", "4"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("satrep: model error:") and "overflows" in err
        assert "Traceback" not in err

    def test_unwritable_output_is_usage_error(self, capsys):
        code = main(
            ["caps-curve", "--points", "2", "--output", "/no/such/dir/out.csv"]
        )
        assert code == 1
        assert "cannot write" in capsys.readouterr().err


class TestFlyby:
    def test_requires_output(self, capsys):
        assert main(["flyby"]) == 1
        assert "requires --output" in capsys.readouterr().err

    def test_writes_profile_and_prints_aggregates(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code = main(["flyby", "--samples", "101", "--output", str(out)])
        assert code == 0
        provenance, header, rows = read_csv(out)
        assert provenance == default_scenario().flat_dict()
        assert header == ["t_s", "d_m", "zenith_rad", "eta_tr", "eta2_tr", "f_pair"]
        assert len(rows) == 101
        assert float(rows[0][0]) == 0.0
        captured = capsys.readouterr().out
        assert "T_FB_s = " in captured and "P0 = " in captured
        t_fb = float(captured.split("T_FB_s = ")[1].splitlines()[0])
        assert t_fb == pytest.approx(960.9376804008787, rel=1e-9)
        assert float(rows[-1][0]) == pytest.approx(t_fb, rel=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["flyby", "--samples", "101", "--output", str(a)]) == 0
        assert main(["flyby", "--samples", "101", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_even_samples_rejected(self):
        assert main(["flyby", "--samples", "100", "--output", "/dev/null"]) == 1

    def test_no_visibility_is_model_error(self, tmp_path):
        code = main(
            [
                "flyby",
                "--set",
                "orbit.link_length_m=1.2e7",
                "--output",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2


class TestRates:
    def test_single_point_matches_analytic_pipeline(self, capsys):
        code = main(["rates", "--distances-km", "10000", "--links", "4"])
        assert code == 0
        header, rows = split_stdout_csv(capsys.readouterr().out)
        assert header == [
            "L_total_km", "n_levels", "h_km", "L0_km", "T_FB_s", "P0",
            "F_pair_avg", "rate_hz", "pairs_per_flyby", "fidelity_final",
            "visible", "status", "F0", "F1", "F2",
        ]
        (row,) = rows
        record = dict(zip(header, row))
        assert record["n_levels"] == "2"
        assert record["visible"] == "true"
        assert float(record["pairs_per_flyby"]) == pytest.approx(
            2517.402952786971, rel=1e-8
        )
        assert float(record["fidelity_final"]) == pytest.approx(
            0.8861435190168458, rel=1e-8
        )
        assert float(record["F2"]) == float(record["fidelity_final"])

    def test_invisible_distance_yields_blank_row(self, capsys):
        assert main(["rates", "--distances-km", "80000", "--links", "4"]) == 0
        header, rows = split_stdout_csv(capsys.readouterr().out)
        record = dict(zip(header, rows[0]))
        assert record["visible"] == "false"
        assert record["T_FB_s"] == "0.0"
        assert record["P0"] == ""
        assert record["pairs_per_flyby"] == ""

    def test_with_direct_appends_depth_zero_rows(self, capsys):
        code = main(
            ["rates", "--distances-km", "2000,10000", "--links", "4", "--with-direct"]
        )
        assert code == 0
        header, rows = split_stdout_csv(capsys.readouterr().out)
        records = [dict(zip(header, r)) for r in rows]
        assert len(records) == 4
        direct = [r for r in records if r["n_levels"] == "0"]
        assert len(direct) == 2
        # 2000 km fits in one downlink window; 10000 km cannot be seen directly
        assert direct[0]["visible"] == "true"
        assert direct[0]["fidelity_final"] == direct[0]["F_pair_avg"]
        assert direct[1]["visible"] == "false"

    def test_empty_grid_emits_header_only(self, capsys):
        assert main(["rates", "--distances-km", ",", "--links", "4"]) == 0
        header, rows = split_stdout_csv(capsys.readouterr().out)
        assert header[0] == "L_total_km"
        assert rows == [] or rows == [[""]]

    @pytest.mark.parametrize("links", ["3", "1", "0", "4,5", "four"])
    def test_bad_links_rejected(self, links):
        assert main(["rates", "--distances-km", "10000", "--links", links]) == 1

    def test_bad_distances_rejected(self):
        assert main(["rates", "--distances-km", "10q0", "--links", "4"]) == 1

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        args = ["rates", "--distances-km", "10000", "--links", "4"]
        assert main(args) == 0
        stdout_text = capsys.readouterr().out
        out = tmp_path / "rates.csv"
        assert main(args + ["--output", str(out)]) == 0
        assert out.read_text() == stdout_text


class TestSweepStatus:
    @staticmethod
    def records(capsys, *args):
        assert main(["rates", *args]) == 0
        header, rows = split_stdout_csv(capsys.readouterr().out)
        return [dict(zip(header, r)) for r in rows]

    def test_defaults_are_ok(self, capsys):
        assert {r["status"] for r in self.records(capsys)} == {"ok"}

    def test_out_of_sight_is_no_visibility(self, capsys):
        # The direct row spans 80,000 km, past 3 pi R_E, where the visibility
        # cosine turns positive again.
        records = self.records(
            capsys, "--distances-km", "80000", "--links", "4", "--with-direct"
        )
        assert [(r["n_levels"], r["status"], r["visible"]) for r in records] == [
            ("2", "no_visibility", "false"),
            ("0", "no_visibility", "false"),
        ]
        assert all(r["T_FB_s"] == "0.0" and r["P0"] == "" for r in records)

    def test_zero_transmission_is_visible(self, capsys):
        (record,) = self.records(
            capsys, "--set", "channel.receiver_radius_m=1e-300",
            "--distances-km", "10000", "--links", "4",
        )
        assert record["status"] == "zero_transmission"
        assert record["visible"] == "true"
        assert record["T_FB_s"] == record["P0"] == record["pairs_per_flyby"] == ""

    def test_zero_herald_rate_keeps_aggregates(self, capsys):
        chain, direct = self.records(
            capsys, "--set", "node.caps_success_probability=0",
            "--distances-km", "2000", "--links", "4", "--with-direct",
        )
        assert chain["status"] == "zero_herald_rate"
        assert chain["P0"] != "" and chain["pairs_per_flyby"] == ""
        # Direct transmission uses no memory, so it does not need a herald.
        assert direct["status"] == "ok"
        assert float(direct["pairs_per_flyby"]) > 0

    @pytest.mark.parametrize(
        "overrides",
        [(), ("channel.receiver_radius_m=1e-300",), ("node.caps_success_probability=0",)],
    )
    def test_rows_agree_with_distance_sweep(self, overrides, capsys):
        args = [a for o in overrides for a in ("--set", o)]
        records = self.records(
            capsys, *args, "--distances-km", "5000,10000,40000", "--links", "4,8"
        )
        cfg = load_scenario(None, overrides).repeater_config()
        points = distance_sweep(cfg, [5.0e6, 1.0e7, 4.0e7], levels=[2, 3])
        assert len(records) == len(points)
        for r, pt in zip(records, points):
            assert r["n_levels"] == str(pt.n_levels)
            assert r["status"] == pt.status
            assert r["visible"] == ("true" if pt.visible else "false")
            result = pt.result
            assert r["pairs_per_flyby"] == (repr(result.pairs_per_flyby) if result else "")
            assert r["fidelity_final"] == (repr(result.fidelity_final) if result else "")


class TestSensitivity:
    def test_unknown_param_lists_sweepable_keys(self, capsys):
        code = main(
            ["sensitivity", "--param", "node.bogus", "--values", "1", "--distances-km",
             "10000", "--links", "4"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "sweepable keys" in err
        assert "node.caps_fidelity" in err

    def test_structural_key_not_sweepable(self):
        code = main(
            ["sensitivity", "--param", "repeater.nesting_levels", "--values", "2",
             "--distances-km", "10000", "--links", "4"]
        )
        assert code == 1

    def test_two_value_sweep(self, capsys):
        code = main(
            ["sensitivity", "--param", "node.caps_fidelity", "--values", "0.99,0.95",
             "--distances-km", "10000", "--links", "4"]
        )
        assert code == 0
        header, rows = split_stdout_csv(capsys.readouterr().out)
        assert header[:2] == ["param", "value"]
        records = [dict(zip(header, r)) for r in rows]
        assert [r["value"] for r in records] == ["0.99", "0.95"]
        assert all(r["param"] == "node.caps_fidelity" for r in records)
        # same geometry, worse gate: fidelity must drop, rate must not change
        assert float(records[1]["fidelity_final"]) < float(records[0]["fidelity_final"])
        assert records[0]["rate_hz"] == records[1]["rate_hz"]

    def test_non_finite_value_is_config_error(self):
        code = main(
            ["sensitivity", "--param", "node.caps_fidelity", "--values", "nan",
             "--distances-km", "10000", "--links", "4"]
        )
        assert code == 1

    def test_malformed_values_rejected(self):
        code = main(
            ["sensitivity", "--param", "node.caps_fidelity", "--values", "a,b",
             "--distances-km", "10000", "--links", "4"]
        )
        assert code == 1


class TestMc:
    def test_baseline_comparison_fails_on_gap_heuristic(self, capsys):
        code = main(["mc", "--trials", "300", "--seed", "1"])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_pass"] is False
        entries = {e["quantity"]: e for e in payload["entries"]}
        assert set(entries) == {
            "pairs_per_flyby", "fidelity_final", "elementary_time_s",
            "waiting_gap_level_1", "waiting_gap_level_2",
        }
        for entry in entries.values():
            assert set(entry) == {"quantity", "analytic", "mc_mean", "mc_stderr", "z", "pass"}
        # the z-graded rows validate the simulation; the gap rows grade the
        # (3/2)^(k-1) waiting heuristic, which sits outside its own band here
        assert entries["pairs_per_flyby"]["pass"] is True
        assert entries["elementary_time_s"]["pass"] is True
        assert entries["waiting_gap_level_1"]["pass"] is False
        assert payload["parameters"]["mc.trials"] == 300

    def test_deterministic_output(self, capsys):
        assert main(["mc", "--trials", "200", "--seed", "5"]) == 3
        first = capsys.readouterr().out
        assert main(["mc", "--trials", "200", "--seed", "5"]) == 3
        assert capsys.readouterr().out == first

    def test_dump_trials(self, tmp_path, capsys):
        dump = tmp_path / "trials.csv"
        code = main(
            ["mc", "--trials", "50", "--seed", "2", "--dump-trials", str(dump)]
        )
        assert code == 3
        capsys.readouterr()
        provenance, header, rows = read_csv(dump)
        assert header == ["trial", "pairs", "fidelity"]
        assert len(rows) == 50
        assert [r[0] for r in rows[:3]] == ["0", "1", "2"]
        assert all(r[2] != "" for r in rows)  # constant-p always completes

    def test_slot_count_beyond_int64_is_model_error(self, capsys):
        # A near-massless Earth stretches the pass past 2^63 attempt slots.
        code = main(["mc", "--trials", "10", "--seed", "1", "--set", "orbit.mu_m3_s2=2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("satrep: model error:")
        assert "beyond int64" in err and "Traceback" not in err

    def test_oversized_time_resolved_pass_is_model_error(self, capsys):
        # 1e17 attempts/s expects ~6e13 heralds per leaf; refused before any draw.
        code = main(
            ["mc", "--trials", "1", "--seed", "1", "--set", "mc.time_model=time-resolved",
             "--set", "source.repetition_rate_hz=1e17"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("satrep: model error: a trial expects")
        assert "Traceback" not in err

    def test_bad_trials_and_seed(self):
        assert main(["mc", "--trials", "0"]) == 1
        assert main(["mc", "--seed", "-1"]) == 1

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["mc", "--trials", "100", "--seed", "3", "--output", str(out)]) == 3
        payload = json.loads(out.read_text())
        assert payload["trials"] == 100 and payload["seed"] == 3


class TestCapsCurve:
    def test_curve_starts_at_zero(self, capsys):
        code = main(["caps-curve", "--cin-min", "0", "--cin-max", "10", "--points", "5"])
        assert code == 0
        header, rows = split_stdout_csv(capsys.readouterr().out)
        assert header == ["c_in", "eta_caps"]
        assert len(rows) == 5
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == 0.0
        assert float(rows[-1][0]) == 10.0
        values = [float(r[1]) for r in rows]
        assert values == sorted(values)

    def test_bad_grid_rejected(self):
        assert main(["caps-curve", "--points", "1"]) == 1
        assert main(["caps-curve", "--cin-min", "5", "--cin-max", "5"]) == 1
        assert main(["caps-curve", "--cin-min", "-1"]) == 1


def test_rates_runs_on_numpy_alone():
    # The runtime depends on numpy only: a fresh interpreter that runs a sweep
    # must never import scipy (the tests use it as a reference only).
    code = (
        "import sys\n"
        "from satrep.cli import main\n"
        "assert main(['rates']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"

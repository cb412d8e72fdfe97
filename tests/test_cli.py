import contextlib
import csv
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from satrep import cli, config
from satrep.cli import main
from satrep.config import (
    bundled_baseline_text,
    default_scenario,
    load_scenario,
    sweepable_keys,
)
from satrep.node import caps_success
from satrep.repeater import Chain, distance_sweep, pairs_per_flyby


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


def expected_record(cfg, row, n_levels, l_total_m, max_level):
    """The CSV record of one sweep row at depth ``n_levels``: each float
    ``repr``-formatted, the depth as ``str``, blank where the row has no
    value."""
    agg, status = row.aggregates, row.status
    visible = status != "no_visibility"
    if agg is None:
        t_fb, p0, f_pair = (None if visible else 0.0), None, None
    else:
        t_fb, p0, f_pair = agg.flyby_duration_s, agg.p0, agg.f_pair_avg
    rate = pairs = fidelity = None
    levels = ()
    if n_levels == 0 and agg is not None:
        rate = Chain(cfg).rate_direct(agg.p0)
        pairs, fidelity = pairs_per_flyby(rate, t_fb), f_pair
    elif row.rate_hz is not None:
        rate, pairs = row.rate_hz, row.pairs_per_flyby
        fidelity, levels = row.fidelity_per_level[-1], row.fidelity_per_level
    numbers = {
        "L_total_km": l_total_m / 1e3,
        "h_km": cfg.geometry.altitude_m / 1e3,
        "L0_km": row.link_length_m / 1e3,
        "T_FB_s": t_fb,
        "P0": p0,
        "F_pair_avg": f_pair,
        "rate_hz": rate,
        "pairs_per_flyby": pairs,
        "fidelity_final": fidelity,
    }
    for k in range(max_level + 1):
        numbers[f"F{k}"] = levels[k] if k < len(levels) else None
    record = {key: "" if value is None else repr(value) for key, value in numbers.items()}
    record["n_levels"] = str(n_levels)
    record["visible"] = "true" if visible else "false"
    record["status"] = status
    return record


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["caps-curve", "--points", "3", "--output", "{dir}"],
            ["mc", "--trials", "5", "--seed", "1", "--dump-trials", "{dir}"],
            ["mc", "--trials", "5", "--seed", "1", "--output", "{file}",
             "--dump-trials", "{dir}"],
        ],
    )
    def test_directory_as_output_is_usage_error(self, argv, tmp_path, capsys):
        # The rename onto an existing directory fails; the temp file goes,
        # and an mc report is neither printed nor written.
        target = tmp_path / "out"
        target.mkdir()
        paths = {"{dir}": str(target), "{file}": str(tmp_path / "report.json")}
        assert main([paths.get(a, a) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"satrep: error: cannot write {target}:")
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_written_file_has_the_mode_a_plain_create_gives(self, umask, mode, tmp_path):
        # 0o666 less the umask, for a new file and over an existing one of
        # another mode; the temp file does not stay behind.
        out = tmp_path / "rates.csv"
        argv = ["rates", "--distances-km", "10000", "--links", "4", "--output", str(out)]
        previous = os.umask(umask)
        try:
            assert main(argv) == 0
            assert stat.S_IMODE(out.stat().st_mode) == mode
            out.chmod(0o640)
            assert main(argv) == 0
            assert stat.S_IMODE(out.stat().st_mode) == mode
        finally:
            os.umask(previous)
        assert [p.name for p in tmp_path.iterdir()] == ["rates.csv"]

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("[orbit]\n# h\xf6he\naltitude_m = 1.2e6\n".encode("latin-1"))
        assert main(["rates", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("satrep: config error: cannot read")


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

    def test_even_samples_write_that_many_rows(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert main(["flyby", "--samples", "2000", "--output", str(out)]) == 0
        assert len(read_csv(out)[2]) == 2000

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

    @pytest.mark.parametrize("distances", ["nan", "inf", "10000,-inf", "1e400"])
    def test_non_finite_distances_are_usage_errors(self, distances, capsys):
        assert main(["rates", "--distances-km", distances, "--links", "4"]) == 1
        assert "--distances-km values must be finite" in capsys.readouterr().err

    def test_distance_overflowing_metres_is_model_error(self, capsys):
        # 1e308 km is finite, 1e311 m is not.
        assert main(["rates", "--distances-km", "1e308"]) == 2
        assert capsys.readouterr() == (
            "", "satrep: model error: total distance must be finite in metres\n"
        )

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        args = ["rates", "--distances-km", "10000", "--links", "4"]
        assert main(args) == 0
        stdout_text = capsys.readouterr().out
        out = tmp_path / "rates.csv"
        assert main(args + ["--output", str(out)]) == 0
        assert out.read_text() == stdout_text

    def test_row_does_not_depend_on_the_other_distances(self, capsys):
        # A pass converged beside other passes has the bits it has alone.
        rows = {}
        for distances in ("10000", "10000,12500"):
            assert main(["rates", "--links", "4", "--distances-km", distances]) == 0
            rows[distances] = capsys.readouterr().out.splitlines()[2]
        assert rows["10000"].startswith("10000.0,")
        assert rows["10000,12500"] == rows["10000"]


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

    def test_underflowing_two_photon_transmission_is_zero_transmission(self, capsys):
        # eta ~ 1e-303 is positive, but eta^2 underflows to 0 on every node,
        # so P0 is 0 and F_pair_avg undefined: a status, not a quadrature error.
        (record,) = self.records(
            capsys, "--set", "channel.coupling_efficiency=1e-300",
            "--distances-km", "10000", "--links", "4",
        )
        assert (record["status"], record["visible"]) == ("zero_transmission", "true")
        assert record["P0"] == record["pairs_per_flyby"] == ""

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
            capsys, *args, "--distances-km", "2000,10000,40000,80000", "--links", "4,8",
            "--with-direct",
        )
        cfg = load_scenario(None, overrides).repeater
        distances = [2.0e6, 1.0e7, 4.0e7, 8.0e7]
        (sweep,) = distance_sweep([cfg], distances, levels=[2, 3, 0])
        points = [
            (row, n, d) for n, rows in zip([2, 3, 0], sweep) for row, d in zip(rows, distances)
        ]
        assert [expected_record(cfg, *pt, 3) for pt in points] == records
        # The 80,000 km rows, direct one included, are out of sight.
        far = [r for r in records if r["L_total_km"] == "80000.0"]
        assert [(r["n_levels"], r["status"], r["T_FB_s"]) for r in far] == [
            ("2", "no_visibility", "0.0"),
            ("3", "no_visibility", "0.0"),
            ("0", "no_visibility", "0.0"),
        ]


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

    def test_node_key_sweep_equals_single_value_rates(self, capsys):
        # Later values reuse the first one's cached passes, the invisible and
        # the zero-herald ones included; every row must read as if computed
        # alone.
        key, values = "node.caps_success_probability", ["0", "0.5", "1"]
        grid = ["--distances-km", "2000,10000,80000", "--links", "4,8", "--with-direct"]
        sweep = ["sensitivity", "--param", key, "--values", ",".join(values)]
        assert main(sweep + grid) == 0
        header, rows = split_stdout_csv(capsys.readouterr().out)
        expected = []
        for value in values:
            assert main(["rates", "--set", f"{key}={value}", *grid]) == 0
            rates_header, rates_rows = split_stdout_csv(capsys.readouterr().out)
            assert header == ["param", "value", *rates_header]
            expected += [[key, repr(float(value)), *row] for row in rates_rows]
        assert rows == expected
        assert {row[header.index("status")] for row in rows} == {
            "ok", "no_visibility", "zero_herald_rate",
        }

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

    def test_every_value_is_loaded_before_any_pass_converges(self, capsys):
        # The first value's pass would fail the model (a NaN efficiency), but
        # the second value is not a number, and every value is checked first.
        code = main(
            ["sensitivity", "--param", "channel.beam_waist_m", "--values", "1e-300,abc",
             "--distances-km", "10000", "--links", "4"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "satrep: config error: value 'abc' for channel.beam_waist_m is not a number\n"
        )

    def test_config_file_is_read_once(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            bundled_baseline_text().replace("altitude_m = 1.5e6", "altitude_m = 1.2e6")
        )
        key, values = "node.caps_fidelity", ["0.95", "0.97", "0.99"]
        grid = ["--distances-km", "10000,80000", "--links", "4", "--with-direct"]
        reads = []
        read_text = Path.read_text

        def counted(path, *args, **kwargs):
            reads.append(path)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counted)
        sweep = ["sensitivity", "--config", str(cfg), "--param", key]
        assert main(sweep + ["--values", ",".join(values), *grid]) == 0
        assert reads == [cfg]
        out = capsys.readouterr().out
        expected = []
        for value in values:
            assert main(["rates", "--config", str(cfg), "--set", f"{key}={value}", *grid]) == 0
            _, rates_rows = split_stdout_csv(capsys.readouterr().out)
            expected += [[key, repr(float(value)), *row] for row in rates_rows]
        assert split_stdout_csv(out)[1] == expected
        assert out.splitlines()[0] == "# " + json.dumps(load_scenario(cfg).flat_dict())

    @pytest.mark.parametrize("with_file", [False, True])
    def test_cooperativity_sweep_keeps_the_user_set_rule(self, with_file, tmp_path, capsys):
        # The bundled file sets node.caps_success_probability, which then wins
        # over each swept cooperativity; with no file each cooperativity
        # replaces the default probability.
        cfg = tmp_path / "table1.cfg"
        cfg.write_text(bundled_baseline_text())
        config = ["--config", str(cfg)] if with_file else []
        key, values = "node.internal_cooperativity", ["20", "200"]
        grid = ["--distances-km", "10000", "--links", "4"]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            sweep = ["sensitivity", *config, "--param", key, "--values", ",".join(values)]
            assert main(sweep + grid) == 0
            header, rows = split_stdout_csv(capsys.readouterr().out)
            expected = []
            for value in values:
                assert main(["rates", *config, "--set", f"{key}={value}", *grid]) == 0
                _, rates_rows = split_stdout_csv(capsys.readouterr().out)
                expected += [[key, repr(float(value)), *row] for row in rates_rows]
        assert rows == expected
        rates = {row[header.index("rate_hz")] for row in rows}
        assert len(rates) == (1 if with_file else 2)

    def test_cooperativity_provenance_reruns_identically(self, capsys):
        # The provenance holds the probability the cooperativity implied, so
        # setting every key it records reproduces the run, with no warning.
        grid = ["--distances-km", "10000", "--links", "4"]
        assert main(["rates", "--set", "node.internal_cooperativity=10", *grid]) == 0
        first = capsys.readouterr().out
        params = json.loads(first.splitlines()[0][2:])
        assert params["node.caps_success_probability"] == caps_success(10.0)
        sets = [a for k, v in params.items() for a in ("--set", f"{k}={v}")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["rates", *sets, *grid]) == 0
        assert capsys.readouterr().out == first


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

    def test_leaf_times_beyond_double_range_refused_before_any_stream(
        self, monkeypatch, capsys
    ):
        # A slot of 1e306 s: 2^63 slots, the longest leaf time, overflow.
        from satrep import mc_oracle

        def no_stream(seed):
            raise AssertionError("a random stream was made")

        monkeypatch.setattr(mc_oracle, "_streams", no_stream)
        argv = [
            "mc", "--trials", "100", "--set", "source.repetition_rate_hz=1e-306",
            "--set", "source.multiplexing_channels=1",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr() == ("", (
            "satrep: model error: constant-p leaf times of up to 2^63 slots of 1e+306 s "
            "leave double precision\n"
        ))

    @pytest.mark.parametrize("model", ["constant-p", "time-resolved"])
    def test_infinite_mean_link_time_refused_in_both_models(
        self, model, monkeypatch, capsys
    ):
        # A slot of 1e306 s over a per-attempt probability below 1: the mean
        # link time T0 = slot / p overflows, so no run of either model has a
        # finite analytic reference to compare with.
        from satrep import mc_oracle

        def no_stream(seed):
            raise AssertionError("a random stream was made")

        monkeypatch.setattr(mc_oracle, "_streams", no_stream)
        argv = [
            "mc", "--trials", "2", "--seed", "1", "--set", f"mc.time_model={model}",
            "--set", "source.repetition_rate_hz=1e-306",
            "--set", "source.multiplexing_channels=1",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("satrep: model error: ") and "double precision" in err
        if model == "time-resolved":
            assert err.startswith("satrep: model error: the mean link time 1e+306 s / ")

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

    @pytest.mark.parametrize("setting, message", [
        ("mc.trials=0", "trial count must be >= 1"),
        ("mc.seed=-1", "seed must fit in 64 bits"),
        ("mc.seed=18446744073709551616", "does not fit in 64 bits"),
        ("mc.time_model=foo", "time model must be one of"),
    ])
    def test_bad_mc_setting_is_config_error(self, setting, message, tmp_path, capsys):
        # A run setting exits 1 as a --set value, as a file value, and on a
        # command that runs no Monte Carlo.
        key, _, value = setting.partition("=")
        cfg = tmp_path / "mc.cfg"
        cfg.write_text(f"[mc]\n{key.removeprefix('mc.')} = {value}\n")
        for argv in (["mc", "--set", setting], ["mc", "--config", str(cfg)],
                     ["rates", "--set", setting]):
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("satrep: config error: ")
            assert message in captured.err

    def test_trials_and_seed_flags_set_provenance(self, capsys):
        assert main(["mc", "--trials", "500", "--seed", "77"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 500 and payload["seed"] == 77
        assert payload["parameters"]["mc.trials"] == 500
        assert payload["parameters"]["mc.seed"] == 77

    def test_flags_apply_after_set(self, capsys):
        assert main(["mc", "--set", "mc.trials=9", "--trials", "500"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 500 and payload["parameters"]["mc.trials"] == 500
        # a flag replaces only its own key
        assert main(["mc", "--set", "mc.trials=9", "--seed", "4"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert (payload["trials"], payload["seed"]) == (9, 4)

    def test_trials_flag_replaces_file_value_before_validation(self, tmp_path, capsys):
        cfg = tmp_path / "mc.cfg"
        cfg.write_text("[mc]\ntrials = 0\n")
        assert main(["mc", "--config", str(cfg), "--trials", "5"]) in (0, 3)
        assert json.loads(capsys.readouterr().out)["trials"] == 5
        assert main(["mc", "--config", str(cfg), "--trials", "0"]) == 1

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["mc", "--trials", "100", "--seed", "3", "--output", str(out)]) == 3
        payload = json.loads(out.read_text())
        assert payload["trials"] == 100 and payload["seed"] == 3


class TestRepeatedCalls:
    def test_successive_calls_share_no_state(self, tmp_path, capsys):
        from satrep import cli

        def provenance(text):
            return json.loads(text.splitlines()[0][2:])

        first = tmp_path / "first.csv"
        assert main(
            ["rates", "--set", "orbit.altitude_m=1e6", "--distances-km", "5000",
             "--links", "4", "--with-direct", "--output", str(first)]
        ) == 0
        written = first.read_text()
        assert provenance(written)["orbit.altitude_m"] == 1e6
        assert len(written.splitlines()) == 4  # provenance, header, chain, direct
        # Another subcommand with its own override, output file and defaults.
        profile = tmp_path / "profile.csv"
        assert main(
            ["flyby", "--set", "channel.beam_waist_m=0.03", "--samples", "5",
             "--output", str(profile)]
        ) == 0
        params = provenance(profile.read_text())
        assert (params["orbit.altitude_m"], params["channel.beam_waist_m"]) == (1.5e6, 0.03)
        capsys.readouterr()
        # Back to the first subcommand without --set, --output or --with-direct.
        assert main(["rates", "--distances-km", "5000", "--links", "4"]) == 0
        out = capsys.readouterr().out
        params = provenance(out)
        assert (params["orbit.altitude_m"], params["channel.beam_waist_m"]) == (1.5e6, 0.025)
        assert len(out.splitlines()) == 3
        assert first.read_text() == written
        assert main(["caps-curve", "--points", "2"]) == 0
        assert provenance(capsys.readouterr().out) == default_scenario().flat_dict()
        assert cli._build_parser.cache_info().misses == 1


EXTREME_VALUES = ("0", "1e-300", "-1e-300", "1e300", "-1e300", "-1", "1e308", "5e-324")
SMALL_SWEEP = ["--distances-km", "10000", "--links", "4"]
EXTREME_COMMANDS = {
    "caps-curve": ["caps-curve", "--points", "3"],
    "flyby": ["flyby", "--samples", "11"],  # the test adds --output
    "rates": ["rates", "--with-direct", "--links", "2,4,8"],
    "sensitivity": [
        "sensitivity", "--param", "node.caps_fidelity", "--values", "0.9,0.99", *SMALL_SWEEP
    ],
    "mc-const": ["mc", "--trials", "2", "--seed", "1"],
    "mc-timed": [
        "mc", "--trials", "2", "--seed", "1", "--set", "mc.time_model=time-resolved",
    ],
}
# Number flags, each given one of EXTREME_VALUES as --flag=value.
EXTREME_FLAGS = [
    (["rates", "--links", "4"], "--distances-km"),
    (["sensitivity", "--param", "node.caps_fidelity", "--values", "0.9", "--links", "4"],
     "--distances-km"),
    (["sensitivity", "--param", "node.caps_fidelity", *SMALL_SWEEP], "--values"),
    (["sensitivity", "--param", "orbit.altitude_m", *SMALL_SWEEP], "--values"),
    (["caps-curve", "--points", "3"], "--cin-min"),
    (["caps-curve", "--points", "3"], "--cin-max"),
    (["caps-curve"], "--points"),
    (["flyby"], "--samples"),
    (["mc", "--seed", "1"], "--trials"),
    (["rates", "--distances-km", "10000"], "--links"),
]


def non_finite_numbers(text):
    """The non-finite numbers in a JSON report or in a CSV, its provenance
    line included; JSON null is not a number."""
    found = []

    def walk(x):
        if isinstance(x, float) and not math.isfinite(x):
            found.append(x)
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, list):
            for v in x:
                walk(v)

    if text.startswith("{"):
        walk(json.loads(text))
        return found
    first, _, table = text.partition("\n")
    walk(json.loads(first[2:]))
    for row in csv.reader(io.StringIO(table)):
        for cell in row:
            try:
                walk(float(cell))
            except ValueError:
                pass  # a header, status, flag or blank cell
    return found


def assert_typed_exit(argv, output=None):
    """Run ``argv``: it must end in a typed exit code, never in a traceback,
    and on success print only finite numbers (to ``output``, a path, if
    given; stdout then holds ``name = number`` lines)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv if output is None else [*argv, "--output", str(output)])
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 0 and output is None:
        assert non_finite_numbers(out.getvalue()) == [], argv
    elif code == 0:
        assert non_finite_numbers(output.read_text()) == [], argv
        printed = [float(line.partition(" = ")[2]) for line in out.getvalue().splitlines()]
        assert all(math.isfinite(x) for x in printed), argv


class TestExtremeInputs:
    # Each sweepable key at 0, +-1e-300, +-1e300 or -1, and each number flag
    # at those values, ends in a typed exit code with finite numbers, never
    # in a traceback: every key, value and command (28 x 6 x 6 today) and
    # every flag and value (10 x 6).
    def test_extreme_value_ends_in_typed_exit(self, tmp_path):
        output = tmp_path / "out.csv"
        cases = itertools.product(sorted(EXTREME_COMMANDS), sweepable_keys(), EXTREME_VALUES)
        for command, key, value in cases:
            argv = EXTREME_COMMANDS[command] + ["--set", f"{key}={value}"]
            assert_typed_exit(argv, output if command == "flyby" else None)

    @pytest.mark.parametrize("value", EXTREME_VALUES)
    @pytest.mark.parametrize("argv, flag", EXTREME_FLAGS)
    def test_extreme_flag_value_ends_in_typed_exit(self, argv, flag, value, tmp_path):
        output = tmp_path / "out.csv" if argv[0] == "flyby" else None
        assert_typed_exit([*argv, f"{flag}={value}"], output)

    # Keys that reach together what no one of them reaches alone: at
    # gamma_s = 0, a T0 that overflows (a 1e306 s slot, or a herald
    # probability below the smallest normal double) made every level past
    # F0 NaN, with exit 0.
    @pytest.mark.parametrize("keys", [
        ("node.spin_decoherence_rate_hz=0", "source.repetition_rate_hz=1e-306",
         "source.multiplexing_channels=1"),
        ("node.spin_decoherence_rate_hz=0", "node.caps_success_probability=1e-300",
         "node.detection_efficiency=1e-10"),
        ("node.spin_decoherence_rate_hz=1e300", "source.repetition_rate_hz=1e-306",
         "source.multiplexing_channels=1"),
        ("node.spin_decoherence_rate_hz=0", "channel.receiver_radius_m=1e-300"),
    ])
    def test_extreme_key_set_ends_in_typed_exit(self, keys, tmp_path):
        output = tmp_path / "out.csv"
        sets = [arg for key in keys for arg in ("--set", key)]
        for command in sorted(EXTREME_COMMANDS):
            assert_typed_exit(
                EXTREME_COMMANDS[command] + sets, output if command == "flyby" else None
            )

    # Just above the row cap: 1,001 x 1,000 x 1 and 1,000 x (1,000 + 1) rows.
    # Every --values entry is invalid, so the cap is checked before any
    # scenario value is built.
    @pytest.mark.parametrize("argv", [
        ["sensitivity", "--param", "node.caps_fidelity", "--values", ",".join(["x"] * 1001),
         "--distances-km", ",".join(map(str, range(1, 1001))), "--links", "4"],
        ["rates", "--distances-km", ",".join(map(str, range(1, 1001))),
         "--links", ",".join(["4"] * 1000), "--with-direct"],
    ], ids=["sensitivity", "rates"])
    def test_oversized_sweep_ends_in_exit_1(self, argv, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("satrep: error: ")
        assert err.rstrip().endswith("= 1001000 rows, more than 1000000")

    # An integer text beyond the double range, for every integer key, as
    # --set on every command and as a file value, and for --trials.
    @pytest.mark.parametrize("sign", ["", "-"])
    def test_huge_integer_ends_in_exit_1(self, sign, tmp_path):
        value = sign + "1" + "0" * 400
        output = tmp_path / "out.csv"
        keys = [
            f"{section}.{key}"
            for section, entries in config._SCHEMA.items()
            for key, (conv, _) in entries.items()
            if conv is int
        ]
        assert len(keys) == 5
        runs = [["mc", "--seed", "1", f"--trials={value}"]]
        for key in keys:
            section, _, name = key.partition(".")
            cfg = tmp_path / f"{key}.cfg"
            cfg.write_text(f"[{section}]\n{name} = {value}\n")
            runs.append(["rates", "--config", str(cfg)])
            runs += [[*EXTREME_COMMANDS[c], "--set", f"{key}={value}"]
                     for c in sorted(EXTREME_COMMANDS)]
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--output", str(output)] if argv[0] == "flyby" else argv)
            assert code == 1, argv
            assert err.getvalue().startswith("satrep: config error: value "), argv
            assert err.getvalue().rstrip().endswith("does not fit in 64 bits"), argv

    # N_mux x R_s beyond the double range, from 2^64 - 1 channels at 1e300 Hz
    # or the default 100 at 1e308 Hz, is a model error on every command.
    @pytest.mark.parametrize("overrides", [
        ("source.multiplexing_channels=18446744073709551615", "source.repetition_rate_hz=1e300"),
        ("source.repetition_rate_hz=1e308",),
    ])
    def test_overflowing_attempt_rate_is_model_error(self, overrides, tmp_path):
        output = tmp_path / "out.csv"
        sets = [arg for override in overrides for arg in ("--set", override)]
        for command in sorted(EXTREME_COMMANDS):
            argv = [*EXTREME_COMMANDS[command], *sets]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--output", str(output)] if command == "flyby" else argv)
            assert code == 2, argv
            assert err.getvalue() == (
                "satrep: model error: the attempt rate N_mux R_s overflows double precision\n"
            ), argv
            # No number is printed, so no non-finite one.
            assert out.getvalue() == "" and not output.exists(), argv

    def test_row_cap_allows_the_cap_itself(self):
        from satrep import cli

        assert cli._MAX_ROWS == 10**6
        args = cli._build_parser().parse_args(["rates"])
        cli._check_rows(args, 1000, [1.0] * 1000, [2])

    # 5 x 1,000 x 1 rows, under the row cap, of a chain 1,000 levels deep:
    # 5,005,000 level cells, each row about 47 KB.  Every --values entry is
    # invalid, so the cap is checked before any scenario value is built.
    def test_deep_sweep_over_the_cell_cap_ends_in_exit_1(self, capsys):
        argv = [
            "sensitivity", "--param", "node.caps_fidelity", "--values", "x,x,x,x,x",
            "--distances-km", ",".join(map(str, range(1, 1001))), "--links", str(2**1000),
        ]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("satrep: error: ")
        assert err.rstrip().endswith(
            "5000 rows x 1001 (deepest level + 1) = 5005000 level cells, more than 5000000"
        )

    def test_cell_cap_allows_the_cap_itself(self):
        from satrep import cli

        assert cli._MAX_CELLS == 5 * 10**6
        args = cli._build_parser().parse_args(["rates"])
        cli._check_rows(args, 5, [1.0] * 1000, [999])


# Scenario text for the property test below: schema keys and a few unknown
# ones, given extreme, malformed or named values, and now and then arbitrary
# text.  Numbers come from a fixed list, so no drawn scenario asks for a
# long run.
FUZZ_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
FUZZ_VALUES = st.sampled_from([
    *EXTREME_VALUES, "1", "2", "3", "0.5", "0.9", "nan", "inf", "", "x",
    "18446744073709551615", "1" + "0" * 400, "constant-p", "time-resolved", "radius",
])
FUZZ_KEYS = [f"{section}.{key}" for section, keys in config._SCHEMA.items() for key in keys]
FUZZ_KEYS += ["orbit.bogus", "bogus.altitude_m", "altitude_m"]
FUZZ_SETS = st.tuples(st.sampled_from(FUZZ_KEYS), FUZZ_VALUES).map("=".join)
FUZZ_LINES = st.one_of(
    st.sampled_from([*config._SCHEMA, "bogus"]).map("[{}]".format),
    st.tuples(
        st.sampled_from(FUZZ_KEYS).map(lambda key: key.rpartition(".")[2]), FUZZ_VALUES
    ).map(" = ".join),
)
FUZZ_COMMANDS = [
    ["rates", "--distances-km", "10000", "--links", "4"],
    ["mc", "--trials", "2", "--seed", "1"],
]


@settings(
    max_examples=100, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(FUZZ_COMMANDS),
    lines=st.lists(FUZZ_LINES, max_size=6) | st.lists(FUZZ_TEXT, max_size=2) | st.none(),
    sets=st.lists(FUZZ_SETS, max_size=3) | st.lists(FUZZ_TEXT, max_size=1),
)
def test_any_scenario_ends_in_a_documented_exit(command, lines, sets, tmp_path):
    # Each run ends in exit 0-3, with no exception out of main and no
    # traceback, and prints only finite numbers; the file, when drawn, is
    # rewritten for every example.
    argv = [*command, *(f"--set={token}" for token in sets)]
    if lines is not None:
        path = tmp_path / "scenario.cfg"
        path.write_text("\n".join(lines), encoding="utf-8")
        argv += ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue(), argv
    if code in (0, 3):
        assert non_finite_numbers(out.getvalue()) == [], argv


# JSON documents as the mc report's indenter may meet them: str keys, every
# scalar json writes (big ints, NaN, infinities, -0.0, non-ASCII and control
# characters), and lists, tuples and dicts nested, empty ones among them.
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70)
    | st.sampled_from([2**64, -(2**64) - 1, 10**40])
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
    | st.text() | st.sampled_from(["", "é", "\x00\x1f\n\t\"\\", "\u2028\U0001f600"])
)
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=JSON_DOCUMENTS)
@example(doc={"a": {}, "b": [], "c": [[], {}, [[]], {"d": {"e": []}}], "f": ()})
@example(doc=[{"x": math.nan, "y": -math.inf, "z": -0.0}, [2**65, True, None, "\x7f\u00e9"]])
@example(doc={"report": [{"entry": 1.5}], "parameters": {"k": "v", "n": 2**64}})
def test_report_indenter_matches_json_dumps(doc):
    assert cli._json_text(doc) == json.dumps(doc, sort_keys=True, indent=2)


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

    @pytest.mark.parametrize(
        "flag, bounds",
        [
            ("--cin-min", ["--cin-min", "nan"]),
            ("--cin-max", ["--cin-min", "1", "--cin-max", "inf"]),
            ("--cin-max", ["--cin-max", "nan"]),
        ],
    )
    def test_non_finite_bounds_are_usage_errors(self, flag, bounds, capsys):
        assert main(["caps-curve", *bounds, "--points", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"satrep: error: {flag} must be finite" in captured.err


FAR = ["--distances-km", "2000,10000,80000", "--links", "4,8", "--with-direct"]
# Every CSV writer, with the row statuses each sweep must hold: together the
# two sensitivity runs hold all four.
CSV_WRITERS = {
    "flyby": (["flyby", "--samples", "101"], None),
    "rates": (["rates", "--links", "2,4,8", "--with-direct"], None),
    "sensitivity-node-key": (
        ["sensitivity", "--param", "node.caps_success_probability", "--values", "0,1",
         *FAR],
        {"ok", "no_visibility", "zero_herald_rate"},
    ),
    "sensitivity-aggregate-key": (
        ["sensitivity", "--param", "channel.coupling_efficiency", "--values", "1e-300,1",
         *FAR],
        {"ok", "no_visibility", "zero_transmission"},
    ),
    "caps-curve": (["caps-curve", "--points", "11"], None),
    "mc-const-dump": (["mc", "--trials", "50", "--seed", "2"], None),
    # Some trials complete no pair here, so their fidelity cells are blank.
    "mc-timed-dump": (
        ["mc", "--trials", "3", "--seed", "2", "--set", "mc.time_model=time-resolved",
         "--set", "node.caps_success_probability=1e-4"],
        None,
    ),
}


@pytest.mark.parametrize("writer", sorted(CSV_WRITERS))
def test_csv_cells_need_no_quoting(writer, tmp_path, capsys):
    # The CLI joins cells with commas and never quotes one.  That is valid CSV
    # only while no cell holds a comma, a quote or a newline and no row is a
    # single empty cell: then csv.writer writes back exactly what csv.reader
    # parses, and every row has the header's width.  The provenance line is a
    # comment, not CSV, and is kept as it is.
    argv, statuses = CSV_WRITERS[writer]
    out = tmp_path / "out.csv"
    flag = "--dump-trials" if argv[0] == "mc" else "--output"
    assert main([*argv, flag, str(out)]) in (0, 3)
    capsys.readouterr()
    text = out.read_text()
    provenance, _, table = text.partition("\n")
    header, *rows = csv.reader(io.StringIO(table))
    assert rows and all(len(row) == len(header) for row in rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    assert provenance + "\n" + buf.getvalue() == text
    if statuses is not None:
        assert {row[header.index("status")] for row in rows} == statuses
    if writer == "mc-timed-dump":
        assert "" in {row[2] for row in rows}


class TestDeepChains:
    # 2^n links convert to a float only up to n = 1,023, so a deeper chain is
    # refused as a model error naming its depth, on every path that builds one.
    @pytest.mark.parametrize(
        "argv, depth",
        [
            (["mc", "--trials", "1", "--set", "repeater.nesting_levels=2000"], 2000),
            (["rates", "--links", str(2**2000), "--distances-km", "10000"], 2000),
            (["rates", "--links", str(2**1024), "--distances-km", "10000",
              "--with-direct"], 1024),
            (["sensitivity", "--param", "node.caps_fidelity", "--values", "0.9",
              "--links", str(2**1024), "--distances-km", "10000"], 1024),
        ],
    )
    def test_too_deep_chain_is_model_error(self, argv, depth, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"satrep: model error: nesting depth must lie in [0, 1023], got {depth}\n"
        )

    def test_deepest_chain_runs(self, capsys):
        argv = ["rates", "--links", str(2**1023), "--distances-km", "10000"]
        assert main(argv) == 0
        text = capsys.readouterr().out
        header, rows = split_stdout_csv(text)
        assert [row[header.index("n_levels")] for row in rows] == ["1023"]
        assert len(header) == len(rows[0]) and non_finite_numbers(text) == []


# Counts that would ask numpy for terabytes (7.3 TiB each for the first three,
# 80 GiB of leaf times for the 2^30-leaf chain), with the exit code and the
# start of the message that must refuse them first.
OVERSIZED_COUNTS = {
    "caps-curve --points 1000000000000": (1, "satrep: error: --points must be at most"),
    "flyby --samples 1000000000001 --output {out}": (
        1, "satrep: error: --samples must be at most"
    ),
    "mc --trials 1000000000000": (
        2, "satrep: model error: 1000000000000 trials of 2^2 leaves exceed"
    ),
    "mc --trials 10 --set repeater.nesting_levels=30": (
        2, "satrep: model error: 10 trials of 2^30 leaves exceed"
    ),
    "mc --trials 1 --set repeater.nesting_levels=1023": (
        2, "satrep: model error: 1 trials of 2^1023 leaves exceed"
    ),
}


@pytest.fixture(scope="module")
def oversized_runs(tmp_path_factory):
    """Exit code and stderr of each OVERSIZED_COUNTS command, all run in one
    child process whose address space is capped at 3 GiB, so that a count
    the CLI fails to refuse ends in a MemoryError there, not in an
    allocation that takes the machine's memory."""
    out = tmp_path_factory.mktemp("oversized") / "profile.csv"
    code = (
        "import contextlib, io, json, resource, sys\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "cap = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from satrep.cli import main\n"
        "runs = {}\n"
        "for argv in json.load(sys.stdin):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            code = main(argv)\n"
        "        except Exception as exc:\n"
        "            code = f'raised {type(exc).__name__}'\n"
        "    runs[' '.join(argv)] = (code, err.getvalue())\n"
        "print(json.dumps(runs))\n"
    )
    argvs = [cmd.format(out=out).split() for cmd in OVERSIZED_COUNTS]
    proc = subprocess.run(
        [sys.executable, "-c", code], input=json.dumps(argvs),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert not out.exists()
    return {cmd: runs[cmd.format(out=out)] for cmd in OVERSIZED_COUNTS}


@pytest.mark.parametrize("command", sorted(OVERSIZED_COUNTS))
def test_oversized_count_is_refused_before_allocation(command, oversized_runs):
    expected_code, message = OVERSIZED_COUNTS[command]
    code, err = oversized_runs[command]
    assert code == expected_code, err
    assert err.startswith(message)


def test_rates_runs_on_numpy_alone():
    # The runtime depends on numpy only: a fresh interpreter that runs a sweep
    # must never import scipy (the tests use it as a reference only).  The
    # cold start the benchmark times (the CLI's import and the default
    # scenario) imports neither scipy nor numpy.polynomial, which only a
    # pass's first quadrature rule needs, nor concurrent, which satrep
    # never needs.
    code = (
        "import sys\n"
        "import satrep.cli\n"
        "from satrep.config import load_scenario\n"
        "def loaded(*packages):\n"
        "    return sorted(m for m in sys.modules if m.startswith(packages))\n"
        "load_scenario(None)\n"
        "print(loaded('scipy', 'numpy.polynomial', 'concurrent'))\n"
        "assert satrep.cli.main(['rates']) == 0\n"
        "print(loaded('scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stdout.splitlines()[-1] == "[]"

import dataclasses
import math
import subprocess
import sys
import warnings

import pytest

from satrep.config import (
    ConfigError,
    bundled_baseline_text,
    default_scenario,
    load_scenario,
    load_scenarios,
    parse_override,
    sweepable_keys,
)
from satrep.node import caps_success


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDefaults:
    def test_bundled_baseline_reproduces_defaults(self, tmp_path):
        path = write_cfg(tmp_path, bundled_baseline_text())
        from_file = load_scenario(path)
        defaults = default_scenario()
        assert from_file.repeater == defaults.repeater
        assert from_file.mc == defaults.mc
        assert from_file.flat_dict() == defaults.flat_dict()

    def test_default_values_spot_checks(self):
        s = default_scenario()
        cfg = s.repeater
        assert cfg.geometry.altitude_m == 1.5e6
        assert cfg.geometry.max_zenith_rad == pytest.approx(math.radians(80.0), rel=1e-15)
        assert cfg.channel.wavelength_m == 780e-9
        assert cfg.channel.aperture_interpretation == "literal"
        assert cfg.source.multiplexing_channels == 100
        assert cfg.node.caps_success_probability == 0.75
        assert "node.internal_cooperativity" not in s.flat_dict()
        assert cfg.n_levels == 2
        assert cfg.detector_exponent == 1
        assert s.mc.trials == 100_000 and s.mc.seed == 1

    def test_resolved_mapping_is_complete_and_ordered(self):
        s = default_scenario()
        keys = list(s.flat_dict())
        assert keys[0] == "orbit.altitude_m"
        assert "node.internal_cooperativity" not in keys  # unset optional
        assert len(keys) == len(set(keys))
        flat = s.flat_dict()
        assert flat["source.pair_fidelity"] == 0.998
        assert flat["mc.time_model"] == "constant-p"


class TestFileParsing:
    def test_file_overrides_defaults(self, tmp_path):
        path = write_cfg(tmp_path, "[orbit]\naltitude_m = 1.0e6\n")
        s = load_scenario(path)
        assert s.repeater.geometry.altitude_m == 1.0e6
        assert s.repeater.geometry.link_length_m == 2.5e6  # untouched default

    def test_set_override_beats_file(self, tmp_path):
        path = write_cfg(tmp_path, "[orbit]\naltitude_m = 1.0e6\n")
        s = load_scenario(path, overrides=("orbit.altitude_m=2.0e6",))
        assert s.repeater.geometry.altitude_m == 2.0e6

    def test_later_override_wins(self):
        s = load_scenario(
            None, overrides=("orbit.altitude_m=1.0e6", "orbit.altitude_m=0.5e6")
        )
        assert s.repeater.geometry.altitude_m == 0.5e6

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(tmp_path / "nope.cfg")

    def test_non_utf8_file_is_config_error(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_bytes(b"[orbit]\naltitude_m = 1.2e6 \xff\n")
        with pytest.raises(ConfigError, match="cannot read config file .*utf-8"):
            load_scenario(path)

    def test_malformed_ini_is_config_error(self, tmp_path):
        path = write_cfg(tmp_path, "orbit]\naltitude_m 1e6\n")
        with pytest.raises(ConfigError, match="malformed"):
            load_scenario(path)

    def test_default_section_is_not_special(self, tmp_path):
        # A literal [DEFAULT] section must not silently seed every other
        # section; it is treated as an ordinary (and unknown) section name.
        path = write_cfg(tmp_path, "[DEFAULT]\naltitude_m = 1.0e6\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_scenario(path)

    def test_unknown_section_suggests_closest(self, tmp_path):
        path = write_cfg(tmp_path, "[orbits]\naltitude_m = 1.0e6\n")
        with pytest.raises(ConfigError, match=r"did you mean 'orbit'"):
            load_scenario(path)

    def test_unknown_key_suggests_closest(self, tmp_path):
        path = write_cfg(tmp_path, "[orbit]\naltitude = 1.0e6\n")
        with pytest.raises(ConfigError, match=r"did you mean 'altitude_m'"):
            load_scenario(path)

    def test_bad_float_is_config_error(self, tmp_path):
        path = write_cfg(tmp_path, "[orbit]\naltitude_m = tall\n")
        with pytest.raises(ConfigError, match="not a number"):
            load_scenario(path)

    def test_non_finite_float_is_config_error(self, tmp_path):
        path = write_cfg(tmp_path, "[orbit]\naltitude_m = inf\n")
        with pytest.raises(ConfigError, match="not finite"):
            load_scenario(path)

    def test_bad_int_is_config_error(self):
        with pytest.raises(ConfigError, match="not an integer"):
            load_scenario(None, overrides=("source.multiplexing_channels=2.5",))


class TestOverrideSyntax:
    def test_parse_override_splits_on_first_equals(self):
        assert parse_override("orbit.altitude_m=1e6") == ("orbit", "altitude_m", "1e6")
        assert parse_override(" channel.aperture_interpretation = radius ") == (
            "channel",
            "aperture_interpretation",
            "radius",
        )

    @pytest.mark.parametrize("expr", ["altitude_m=1e6", "orbit.=1", ".key=1", "noequals"])
    def test_parse_override_rejects_malformed(self, expr):
        with pytest.raises(ConfigError):
            parse_override(expr)

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_scenario(None, overrides=("orbit.altitude=1e6",))


class TestCapsResolution:
    def test_cooperativity_alone_derives_probability(self):
        s = load_scenario(None, overrides=("node.internal_cooperativity=96.5",))
        # The same node as the derived probability set alone.
        derived = f"node.caps_success_probability={caps_success(96.5)!r}"
        assert s.repeater.node == load_scenario(None, (derived,)).repeater.node
        assert s.repeater.node.caps_success_probability == pytest.approx(
            caps_success(96.5), rel=1e-15
        )
        assert s.repeater.node.caps_success_probability == pytest.approx(0.75, abs=1e-5)
        # The provenance records the probability the node used.
        resolved = s.flat_dict()
        assert resolved["node.caps_success_probability"] == caps_success(96.5)
        assert resolved["node.internal_cooperativity"] == 96.5

    def test_both_set_explicit_wins_with_warning(self):
        with pytest.warns(UserWarning, match="overrides"):
            s = load_scenario(
                None,
                overrides=(
                    "node.internal_cooperativity=96.5",
                    "node.caps_success_probability=0.6",
                ),
            )
        assert s.repeater.node.caps_success_probability == 0.6

    def test_neither_set_keeps_default(self):
        s = default_scenario()
        assert s.repeater.node.caps_success_probability == 0.75


class TestValidationBoundary:
    def test_physical_violation_is_value_error_not_config_error(self):
        # well-formed input, physically invalid: the parameter class rejects it
        with pytest.raises(ValueError) as excinfo:
            load_scenario(None, overrides=("source.pair_fidelity=0.1",))
        assert not isinstance(excinfo.value, ConfigError)

    def test_repeater_section_validated_eagerly(self):
        with pytest.raises(ValueError) as excinfo:
            load_scenario(None, overrides=("repeater.detector_exponent=5",))
        assert not isinstance(excinfo.value, ConfigError)

    def test_mc_section_validated_eagerly(self):
        # Run settings are usage errors, not physics the model rejects.
        for override in ("mc.trials=0", "mc.seed=-1", "mc.time_model=foo"):
            with pytest.raises(ConfigError):
                load_scenario(None, overrides=(override,))

    @pytest.mark.parametrize("value", [2**64, -(2**64), 10**400])
    def test_integers_are_bounded_to_64_bits(self, value):
        with pytest.raises(ConfigError, match="does not fit in 64 bits"):
            load_scenario(None, overrides=(f"source.multiplexing_channels={value}",))

    def test_largest_seed_is_an_integer_within_the_bound(self):
        assert load_scenario(None, overrides=(f"mc.seed={2**64 - 1}",)).mc.seed == 2**64 - 1


class TestScenarioHelpers:
    def test_sweepable_keys_are_float_physics_knobs(self):
        keys = sweepable_keys()
        assert "orbit.altitude_m" in keys
        assert "source.pair_fidelity" in keys
        assert "node.spin_decoherence_rate_hz" in keys
        # structural and textual knobs stay out
        assert "repeater.nesting_levels" not in keys
        assert "mc.trials" not in keys
        assert "channel.aperture_interpretation" not in keys
        assert "source.multiplexing_channels" not in keys


# Variants off one base, each in one key, over every section.
VARIANTS = (
    "orbit.altitude_m=1.2e6", "orbit.max_zenith_deg=70", "channel.beam_waist_m=0.05",
    "channel.aperture_interpretation=radius", "source.pair_fidelity=0.97",
    "source.multiplexing_channels=50", "node.caps_fidelity=0.95",
    "node.internal_cooperativity=50", "repeater.nesting_levels=3",
    "repeater.detector_exponent=2", "mc.trials=7", "mc.time_model=time-resolved",
)
# Each section's object in a scenario.
SECTION_OBJECTS = {
    "orbit": lambda s: s.repeater.geometry,
    "channel": lambda s: s.repeater.channel,
    "source": lambda s: s.repeater.source,
    "node": lambda s: s.repeater.node,
    "mc": lambda s: s.mc,
}


def fields_of(obj, prefix=""):
    """Every leaf field of a (nested) dataclass, by dotted name."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out.update(fields_of(value, f"{prefix}{f.name}."))
        else:
            out[prefix + f.name] = value
    return out


class TestLoadScenarios:
    OVERRIDES = ("channel.coupling_efficiency=0.3", "mc.seed=9")

    def test_each_variant_is_the_scenario_of_its_override(self, tmp_path):
        cfg = write_cfg(tmp_path, "[orbit]\naltitude_m = 1.4e6\n[node]\ncaps_fidelity = 0.98\n")
        base, *variants = load_scenarios(cfg, self.OVERRIDES, VARIANTS)
        assert fields_of(base) == fields_of(load_scenario(cfg, self.OVERRIDES))
        assert len(variants) == len(VARIANTS)
        for expr, scenario in zip(VARIANTS, variants):
            expected = load_scenario(cfg, (*self.OVERRIDES, expr))
            assert fields_of(scenario) == fields_of(expected), expr
            assert list(scenario.flat_dict().items()) == list(expected.flat_dict().items())
            assert scenario == expected

    def test_variant_shares_the_sections_its_key_leaves_alone(self):
        base, *variants = load_scenarios(None, self.OVERRIDES, VARIANTS)
        for expr, scenario in zip(VARIANTS, variants):
            touched = expr.partition(".")[0]
            for section, part in SECTION_OBJECTS.items():
                assert (part(scenario) is part(base)) == (section != touched), expr
            assert (scenario.repeater is base.repeater) == (touched == "mc"), expr

    @pytest.mark.parametrize("bad", [
        "channel.beam_waist_m=-1", "orbit.altitude_m=0", "node.caps_fidelity=2",
        "repeater.detector_exponent=5", "mc.trials=0", "node.bogus=1", "node.caps_fidelity=x",
        "source.multiplexing_channels=1e3",
    ])
    def test_bad_variant_fails_when_reached_as_a_load_would(self, bad):
        scenarios = load_scenarios(None, (), ("node.caps_fidelity=0.95", bad, "orbit.altitude_m=1e6"))
        next(scenarios)
        next(scenarios)
        with pytest.raises(ValueError) as alone:
            load_scenario(None, (bad,))
        with pytest.raises(ValueError) as reached:
            next(scenarios)
        assert type(reached.value) is type(alone.value)
        assert str(reached.value) == str(alone.value)

    def test_caps_warnings_are_those_of_one_load_per_scenario(self):
        overrides = ("node.internal_cooperativity=96.5", "node.caps_success_probability=0.6")
        variants = ("node.caps_fidelity=0.95", "node.internal_cooperativity=50",
                    "orbit.altitude_m=1.2e6", "node.caps_success_probability=0.5")

        def record(load):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                load()
            return [(str(w.message), w.category, w.filename, w.lineno) for w in caught]

        together = record(lambda: list(load_scenarios(None, overrides, variants)))
        alone = record(lambda: [
            load_scenario(None, (*overrides, *extra)) for extra in [(), *zip(variants)]
        ])
        assert together == alone
        assert len(together) == 1 + len(variants)

    def test_sweep_prints_each_caps_warning_once(self):
        # Under the default filters a message is shown once per place: the
        # base's, then each new one a variant brings.
        argv = [
            "sensitivity", "--param", "node.internal_cooperativity", "--values", "50,50,60",
            "--set", "node.internal_cooperativity=96.5",
            "--set", "node.caps_success_probability=0.6",
            "--distances-km", "10000", "--links", "4",
        ]
        proc = subprocess.run(
            [sys.executable, "-m", "satrep.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        shown = [line for line in proc.stderr.splitlines() if "UserWarning" in line]
        cooperativities = [line.rpartition(" ")[2] for line in shown]
        assert cooperativities == ["96.5", "50.0", "60.0"]

import math

import pytest

from satrep.config import (
    ConfigError,
    bundled_baseline_text,
    default_scenario,
    load_scenario,
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
        keys = [k for k, _ in s.resolved]
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
        with pytest.raises(ValueError):
            load_scenario(None, overrides=("mc.trials=0",))


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

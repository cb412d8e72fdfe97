"""Scenario files: INI-style configuration with a strict schema.

A scenario bundles everything one run needs: pass geometry, optical channel,
source, memory node, chain layout, and Monte Carlo settings.  Keys carry their
units in the name (``altitude_m``, ``repetition_rate_hz``) so there is no unit
inference anywhere.  Unknown sections or keys fail fast with the closest valid
name suggested.  The bundled ``table1.cfg`` resource spells out the baseline
explicitly, and loading it alone reproduces the defaults exactly; under a set
``node.internal_cooperativity`` its explicit probability still wins.

Precedence: built-in defaults, then the config file, then ``--set`` style
overrides, later wins.  The ``mc`` command's ``--trials`` and ``--seed`` act
as ``--set mc.trials=`` and ``--set mc.seed=`` applied last, so they replace
a file's value before it is validated.  The memory-loading success
probability can be given directly (``node.caps_success_probability``) or
derived from ``node.internal_cooperativity``; neither key has a default, and
:func:`_caps_probability` resolves the two.  The resolved parameter set
records the probability the node used, so a run from that provenance sets
both keys in agreement and gives the same result without a warning.
"""

from __future__ import annotations

import configparser
import difflib
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .channel import ChannelParams
from .mc_oracle import McConfig
from .node import NodeParams, SourceParams, caps_success
from .orbit import OrbitGeometry
from .repeater import RepeaterConfig

__all__ = [
    "ConfigError",
    "Scenario",
    "bundled_baseline_text",
    "default_scenario",
    "load_scenario",
    "load_scenarios",
    "parse_override",
    "sweepable_keys",
]


class ConfigError(ValueError):
    """Malformed or unknown configuration input (a usage error, as opposed to
    a well-formed scenario that fails physical validation)."""


_MISSING = object()

# (converter, default) per key; _MISSING means optional with no default.
_SCHEMA: dict[str, dict[str, tuple[type, object]]] = {
    "orbit": {
        "altitude_m": (float, 1.5e6),
        "link_length_m": (float, 2.5e6),
        "earth_radius_m": (float, 6.378e6),
        "mu_m3_s2": (float, 3.986004418e14),
        "max_zenith_deg": (float, 80.0),
    },
    "channel": {
        "wavelength_m": (float, 780e-9),
        "beam_waist_m": (float, 0.025),
        "beam_quality_m2": (float, 1.0),
        "receiver_radius_m": (float, 1.0),
        "pointing_sigma_rad": (float, 0.5e-6),
        "zenith_transmittance": (float, 0.79),
        "coupling_efficiency": (float, 0.25),
        "sky_spectral_irradiance_w_m2_um_sr": (float, 1.5e-5),
        "field_of_view_sr": (float, 1.0e-8),
        "filter_bandwidth_m": (float, 1.0e-9),
        "coincidence_window_s": (float, 1.0e-9),
        "aperture_interpretation": (str, "literal"),
    },
    "source": {
        "pair_fidelity": (float, 0.998),
        "repetition_rate_hz": (float, 1.0e7),
        "emission_efficiency": (float, 0.9),
        "multiplexing_channels": (int, 100),
        "demux_efficiency": (float, 0.73),
        "direct_repetition_rate_hz": (float, 1.0e9),
    },
    "node": {
        "caps_success_probability": (float, _MISSING),
        "internal_cooperativity": (float, _MISSING),
        "caps_fidelity": (float, 0.99),
        "rydberg_gate_fidelity": (float, 0.995),
        "readout_fidelity": (float, 0.999),
        "detection_efficiency": (float, 0.9),
        "spin_decoherence_rate_hz": (float, 0.05),
    },
    "repeater": {
        "nesting_levels": (int, 2),
        "gate_efficiency": (float, 1.0),
        "detector_exponent": (int, 1),
    },
    "mc": {
        "trials": (int, 100_000),
        "seed": (int, 1),
        "time_model": (str, "constant-p"),
    },
}


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run configuration: the repeater chain and the Monte
    Carlo settings.

    ``values`` holds every set ``(section, key)`` value after all overlays,
    from which :meth:`flat_dict` builds the provenance of output files.
    """

    repeater: RepeaterConfig
    mc: McConfig
    values: dict[tuple[str, str], float | int | str] = field(repr=False, hash=False)

    def flat_dict(self) -> dict[str, float | int | str]:
        """The flat ``section.key -> value`` mapping, in schema order."""
        values = self.values
        return {name: values[item] for item, name in _NAMES if item in values}


def _suggest(name: str, candidates) -> str:
    close = difflib.get_close_matches(name, list(candidates), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _check_key(section: str, key: str) -> None:
    if section not in _SCHEMA:
        raise ConfigError(
            f"unknown section {section!r}{_suggest(section, _SCHEMA)}; "
            f"valid sections: {', '.join(_SCHEMA)}"
        )
    if key not in _SCHEMA[section]:
        raise ConfigError(
            f"unknown key {key!r} in section {section!r}"
            f"{_suggest(key, _SCHEMA[section])}; valid keys: "
            f"{', '.join(_SCHEMA[section])}"
        )


def _convert(section: str, key: str, raw: str):
    conv, _ = _SCHEMA[section][key]
    if conv is str:
        return raw
    try:
        value = conv(raw)
    except ValueError:
        kind = "an integer" if conv is int else "a number"
        raise ConfigError(
            f"value {raw!r} for {section}.{key} is not {kind}"
        ) from None
    if conv is int and not -(2**64) < value < 2**64:
        raise ConfigError(f"value {raw!r} for {section}.{key} does not fit in 64 bits")
    if not math.isfinite(value):
        raise ConfigError(f"value {raw!r} for {section}.{key} is not finite")
    return value


def parse_override(expr: str) -> tuple[str, str, str]:
    """Split a ``section.key=value`` override expression."""
    lhs, sep, value = expr.partition("=")
    if not sep:
        raise ConfigError(f"override {expr!r} must have the form section.key=value")
    section, dot, key = lhs.strip().partition(".")
    if not dot or not section or not key:
        raise ConfigError(f"override {expr!r} must name a key as section.key")
    return section, key.strip(), value.strip()


def load_scenario(
    path: str | Path | None = None, overrides: tuple[str, ...] = ()
) -> Scenario:
    """Build a scenario from defaults, an optional INI file, and overrides.

    Raises :class:`ConfigError` for unreadable files, malformed syntax,
    unknown sections/keys, untypeable or non-finite values, integers of
    magnitude 2^64 or more, and ``mc`` settings :class:`McConfig` refuses;
    physical-range violations surface later as ``ValueError`` from the
    parameter classes themselves.
    """
    return next(load_scenarios(path, overrides))


def load_scenarios(
    path: str | Path | None = None,
    overrides: tuple[str, ...] = (),
    variants: tuple[str, ...] = (),
) -> Iterator[Scenario]:
    """The scenario :func:`load_scenario` builds, then, for each
    ``section.key=value`` in ``variants``, that scenario with the one
    override applied last.  The file and ``overrides`` are read once; each
    scenario is built, and fails, when the iterator reaches it; a variant
    builds only its key's section object and shares the first scenario's."""
    values = dict(_DEFAULTS)
    if path is not None:
        parser = configparser.ConfigParser(
            interpolation=None, default_section="+defaults-disabled+"
        )
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            parser.read_string(text, source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        for section in parser.sections():
            for key, raw in parser.items(section):
                _set(values, section, key, raw)

    for expr in overrides:
        _set(values, *parse_override(expr))
    yield (base := _assemble(values))
    for expr in variants:
        variant = dict(values)
        section, key, raw = parse_override(expr)
        _set(variant, section, key, raw)
        yield _assemble(variant, base, section)


def _set(values: dict, section: str, key: str, raw: str) -> None:
    _check_key(section, key)
    values[(section, key)] = _convert(section, key, raw)


def _caps_probability(values: dict[tuple[str, str], object]) -> float:
    """The memory-loading success probability: ``node.caps_success_probability``
    if set, else the one a set ``node.internal_cooperativity`` implies, else
    the baseline's 0.75.  With both set the probability wins, with a warning
    when the two disagree."""
    explicit = values.get(("node", "caps_success_probability"))
    cooperativity = values.get(("node", "internal_cooperativity"))
    if cooperativity is None:
        # 0.75 is applied here, not as a schema default: a default would
        # compete with a set cooperativity as a set probability does.
        return 0.75 if explicit is None else explicit
    implied = caps_success(cooperativity)
    if explicit is not None and not math.isclose(
        implied, explicit, rel_tol=1e-9, abs_tol=1e-12
    ):
        warnings.warn(
            f"explicit caps success probability {explicit} overrides the value "
            f"{implied:.6f} implied by internal cooperativity {cooperativity}",
            stacklevel=2,
        )
    return implied if explicit is None else explicit


# Each schema key's (section, key) pair with its provenance name
# "section.key", in schema order, and the value of each key with a default.
_NAMES = tuple(
    ((section, key), f"{section}.{key}") for section, keys in _SCHEMA.items() for key in keys
)
_DEFAULTS = {(section, key): default for section, keys in _SCHEMA.items()
             for key, (_, default) in keys.items() if default is not _MISSING}


def _by_name(cls, values: dict, section: str):
    """``cls`` from ``section``'s values, for classes whose field names are
    keys of the section."""
    return cls(**{key: values[(section, key)] for key in cls.__dataclass_fields__})


def _assemble(values: dict, base: Scenario | None = None, touched: str = "") -> Scenario:
    """The scenario of ``values``.  Given ``base``, whose values differ only
    in section ``touched``, only that section's object is built anew."""
    # The node uses the resolved probability and the provenance records it,
    # so a run from that provenance sets both node keys, in agreement.
    values = {**values, ("node", "caps_success_probability"): _caps_probability(values)}
    new, old = (_SCHEMA, None) if base is None else ((touched,), base.repeater)
    geometry = OrbitGeometry(
        altitude_m=values[("orbit", "altitude_m")],
        link_length_m=values[("orbit", "link_length_m")],
        earth_radius_m=values[("orbit", "earth_radius_m")],
        mu_m3_per_s2=values[("orbit", "mu_m3_s2")],
        max_zenith_rad=math.radians(values[("orbit", "max_zenith_deg")]),
    ) if "orbit" in new else old.geometry
    channel = _by_name(ChannelParams, values, "channel") if "channel" in new else old.channel
    source = _by_name(SourceParams, values, "source") if "source" in new else old.source
    node = _by_name(NodeParams, values, "node") if "node" in new else old.node
    try:
        mc = _by_name(McConfig, values, "mc") if "mc" in new else base.mc
    except ValueError as exc:  # run settings, not a scenario the model rejects
        raise ConfigError(str(exc)) from None
    repeater = old if new == ("mc",) else RepeaterConfig(
        geometry=geometry,
        channel=channel,
        source=source,
        node=node,
        n_levels=values[("repeater", "nesting_levels")],
        gate_efficiency=values[("repeater", "gate_efficiency")],
        detector_exponent=values[("repeater", "detector_exponent")],
    )
    return Scenario(repeater=repeater, mc=mc, values=values)


def default_scenario() -> Scenario:
    """The baseline parameter set with no file and no overrides."""
    return load_scenario(None)


def sweepable_keys() -> tuple[str, ...]:
    """Physics keys a sensitivity sweep may vary: every real-valued entry in
    the orbit/channel/source/node sections (structural knobs such as nesting
    depth or trial counts are deliberately not sweepable)."""
    return tuple(
        f"{section}.{key}"
        for section in ("orbit", "channel", "source", "node")
        for key, (conv, _) in _SCHEMA[section].items()
        if conv is float
    )


def bundled_baseline_text() -> str:
    """Raw text of the packaged baseline config (alone, identical to the defaults)."""
    return (
        resources.files("satrep.data").joinpath("table1.cfg").read_text()
    )

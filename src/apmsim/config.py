"""Run configuration files: flat INI sections [material], [sarcomere], [spa],
[sweep], [output], whose keys GRAMMAR declares. Lengths in mm, pressures in MPa.

A configuration resolves to a MyofibrilSpec plus a pressure sweep. Design-
rule deviations (non-conforming i_band, actin_arc or myosin_height) emit
warnings, never failures, so measured prototype dimensions stay simulatable.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from .actuation import PressureSweep
from .errors import ConfigError, DomainError
from .geometry import SPA_FIELDS, MyofibrilSpec, SarcomereGeometry, SpaGeometry, design_from_a_band
from .material import MATERIALS, YeohMaterial

# Default per-material study pressure grids (MPa).
DEFAULT_PRESSURE_GRIDS: dict[str, PressureSweep] = {
    "ecoflex-00-30": PressureSweep(0.001, 0.011, 0.001),
    "elastosil-m4601": PressureSweep(0.01, 0.085, 0.005),
    "smooth-sil-950": PressureSweep(0.02, 0.22, 0.02),
    "dragonskin-30": PressureSweep(0.01, 0.1, 0.01),
}


def _built(what: str, build, /, *args, **kwargs):
    # build(*args, **kwargs), where a DomainError is a fault in the config's
    # text: ConfigError "invalid <what>: <error>", chained to the error.
    try:
        return build(*args, **kwargs)
    except DomainError as err:
        raise ConfigError(f"invalid {what}: {err}") from err


def _spa_geometry(values: dict[str, float]) -> SpaGeometry:
    # The SpaGeometry of a complete set of [spa] dimensions; ConfigError
    # naming the missing keys or the invalid dimension otherwise.
    missing = [k for k in SPA_FIELDS if k not in values]
    if missing:
        raise ConfigError(f"[spa] section is missing {', '.join(missing)}")
    return _built("[spa] geometry", SpaGeometry, **values)


@dataclass
class RunConfig:
    """Parsed configuration; geometry construction is deferred to the builders."""

    material: YeohMaterial
    spa_values: dict[str, float]
    sarcomere: SarcomereGeometry
    n: int
    sweep: PressureSweep | None
    assumed_h_ch: float
    out_path: str | None
    out_format: str

    def spa_for_ratio(self, ratio: float) -> SpaGeometry:
        """SPA geometry for a wall ratio study: h_ch = assumed_h_ch, t_w = ratio*h_ch."""
        if ratio <= 0.0:
            raise ConfigError(f"wall ratio must be positive, got {ratio}")
        h_ch = self.assumed_h_ch
        return _spa_geometry({**self.spa_values, "h_ch": h_ch, "t_w": ratio * h_ch})

    def build_spec(self) -> MyofibrilSpec:
        """Complete design from the explicit [spa] section."""
        return self.spec_with_spa(_spa_geometry(self.spa_values))

    def spec_with_spa(self, spa: SpaGeometry, material: YeohMaterial | None = None) -> MyofibrilSpec:
        """Complete design from an SPA geometry and the configured material,
        or the given one."""
        return _built("design", MyofibrilSpec, self.n, self.sarcomere, spa, material or self.material)

    def sweep_for_material(self, material_name: str) -> PressureSweep:
        """The [sweep] grid when present, else the built-in study grid."""
        if self.sweep is not None:
            return self.sweep
        try:
            return DEFAULT_PRESSURE_GRIDS[material_name]
        except KeyError:
            raise ConfigError(
                f"no [sweep] section and no default pressure grid for {material_name!r}"
            ) from None


def parse_ratio(text: str) -> float:
    """Parse a wall ratio given as a fraction ('1/5') or a decimal ('0.2')."""
    try:
        return float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError, OverflowError) as err:
        raise ConfigError(f"bad ratio {text!r}: {err}") from None


def builtin_material(name: str) -> YeohMaterial:
    """The built-in material of that name; ConfigError naming the known ones
    otherwise."""
    try:
        return MATERIALS[name]
    except KeyError:
        known = ", ".join(sorted(MATERIALS))
        raise ConfigError(f"unknown material {name!r}; known: {known}") from None


# REQUIRED marks a key or section a file must give, OPTIONAL a key it may
# leave out, which is then absent from the values read.
REQUIRED = object()
OPTIONAL = object()

# The whole config grammar: section -> (absent, {key: (kind, default)}), in
# reading order. A key left out takes its default; kind turns the text of a
# given key into its value, a ValueError meaning the text is not a number.
# absent is what a left-out section reads as: None for [sweep] (each
# material's built-in grid), an empty section for [output].
GRAMMAR = {
    "material": (REQUIRED, {
        "name": (str.strip, REQUIRED),
        "c1": (float, OPTIONAL),
        "c2": (float, OPTIONAL),
        "c3": (float, OPTIONAL),
        "density": (float, OPTIONAL),
    }),
    "sarcomere": (REQUIRED, {
        "a_band": (float, REQUIRED),
        "i_band": (float, OPTIONAL),
        "actin_arc": (float, OPTIONAL),
        "myosin_height": (float, OPTIONAL),
        "junctions_per_myosin": (int, 2),
        "n": (int, 1),
    }),
    "spa": (REQUIRED, {
        **dict.fromkeys(SPA_FIELDS, (float, OPTIONAL)),
        # Chamber height of a study given by t_w/h_ch ratios only.
        "assumed_h_ch": (float, 10.0),
    }),
    "sweep": (None, dict.fromkeys(("start", "end", "step"), (float, REQUIRED))),
    "output": ({}, {"path": (str, ""), "format": (lambda text: text.strip().lower(), "csv")}),
}


def _check_names(parser: configparser.ConfigParser, path: str | Path) -> None:
    # Faults in names come before any fault in values: an unknown section or
    # key, in file order, then the missing sections. [DEFAULT] is an unknown
    # section, since configparser would copy its keys into every section.
    for name in (["DEFAULT"] if parser.defaults() else []) + parser.sections():
        if name not in GRAMMAR:
            raise ConfigError(f"unknown section [{name}]")
        for key in parser[name]:
            if key not in GRAMMAR[name][1]:
                raise ConfigError(f"unknown key {key!r} in [{name}]")
    missing = [f"[{name}]" for name in GRAMMAR if GRAMMAR[name][0] is REQUIRED and name not in parser]
    if missing:
        raise ConfigError(f"{path}: missing section {', '.join(missing)}")


def _section(parser: configparser.ConfigParser, name: str) -> dict | None:
    # The values of one GRAMMAR section, each key parsed by its kind or
    # defaulted; None for a left-out [sweep].
    section = parser[name] if name in parser else GRAMMAR[name][0]
    if section is None:
        return None
    values = {}
    for key, (kind, default) in GRAMMAR[name][1].items():
        if key in section:
            try:
                values[key] = kind(section[key])
            except ValueError:
                raise ConfigError(f"key {key!r} in [{name}] is not a number") from None
        elif default is REQUIRED:
            raise ConfigError(f"missing key {key!r} in [{name}]")
        elif default is not OPTIONAL:
            values[key] = default
    return values


def load_config(path: str | Path) -> RunConfig:
    """Parse a configuration file into a RunConfig.

    Raises ConfigError for a malformed or inconsistent file and OSError
    when it cannot be read.
    """
    # Values are read literally: the grammar has no % interpolation.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as err:
        # A configparser message can span lines (a tab starts each bad line).
        raise ConfigError(f"{path}: {err}".replace("\n\t", " ").replace("\n", " ")) from None
    _check_names(parser, path)

    # Sections are read and built one by one in GRAMMAR order, so of two
    # faults in values the earlier section's is reported. [material] is a
    # built-in name alone, or a name with c1 and optionally c2, c3, density.
    coefficients = _section(parser, "material")
    name, given = coefficients.pop("name"), ", ".join(coefficients)
    if given and name in MATERIALS:
        raise ConfigError(f"[material] sets {given} next to the built-in name {name!r}")
    if given and "c1" not in coefficients:
        raise ConfigError(f"[material] sets {given} without c1")
    if coefficients:
        material = _built("custom material", YeohMaterial, name, **coefficients)
    else:
        material = builtin_material(name)

    # i_band and actin_arc left out follow from a_band by the design rules.
    lengths = _section(parser, "sarcomere")
    n = lengths.pop("n")
    sarcomere = _built("sarcomere", lambda: replace(design_from_a_band(lengths["a_band"]), **lengths))

    spa_values = _section(parser, "spa")
    assumed_h_ch = spa_values.pop("assumed_h_ch")

    sweep = _section(parser, "sweep")
    if sweep is not None:
        sweep = _built("[sweep]", PressureSweep, **sweep)

    output = _section(parser, "output")
    if output["format"] not in ("csv", "json"):
        raise ConfigError(f"output format must be csv or json, got {output['format']!r}")
    if "\0" in output["path"]:
        raise ConfigError(f"output path {output['path']!r} holds a NUL character")

    return RunConfig(
        material=material,
        spa_values=spa_values,
        sarcomere=sarcomere,
        n=n,
        sweep=sweep,
        assumed_h_ch=assumed_h_ch,
        out_path=output["path"] or None,
        out_format=output["format"],
    )

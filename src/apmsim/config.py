"""Run configuration files: flat INI-style sections [material], [spa],
[sarcomere], [sweep], [output]. Lengths in mm, pressures in MPa.

A configuration resolves to a MyofibrilSpec plus a pressure sweep. Design-
rule deviations (non-conforming i_band, actin_arc or myosin_height) emit
warnings, never failures, so measured prototype dimensions stay simulatable.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .actuation import PressureSweep
from .errors import ConfigError, DomainError
from .geometry import MyofibrilSpec, SarcomereGeometry, SpaGeometry, design_from_a_band
from .material import MATERIALS, YeohMaterial

# Chamber height assumed when a study is specified by t_w/h_ch ratio only.
DEFAULT_ASSUMED_H_CH = 10.0

# Default per-material study pressure grids (MPa).
DEFAULT_PRESSURE_GRIDS: dict[str, PressureSweep] = {
    "ecoflex-00-30": PressureSweep(0.001, 0.011, 0.001),
    "elastosil-m4601": PressureSweep(0.01, 0.085, 0.005),
    "smooth-sil-950": PressureSweep(0.02, 0.22, 0.02),
    "dragonskin-30": PressureSweep(0.01, 0.1, 0.01),
}

_SPA_KEYS = ("t_w", "a_ch", "b_ch", "h_ch", "h_jz", "a_hz", "b_hz")


def _spa_geometry(values: dict[str, float]) -> SpaGeometry:
    # The SpaGeometry of a complete set of [spa] dimensions; ConfigError
    # naming the missing keys or the invalid dimension otherwise.
    missing = [k for k in _SPA_KEYS if k not in values]
    if missing:
        raise ConfigError(f"[spa] section is missing {', '.join(missing)}")
    try:
        return SpaGeometry(**{k: values[k] for k in _SPA_KEYS})
    except DomainError as err:
        raise ConfigError(f"invalid [spa] geometry: {err}") from err


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

    def build_spa(self) -> SpaGeometry:
        """SPA geometry from the explicit [spa] dimensions."""
        return _spa_geometry(self.spa_values)

    def spa_for_ratio(self, ratio: float) -> SpaGeometry:
        """SPA geometry for a wall ratio study: h_ch = assumed_h_ch, t_w = ratio*h_ch."""
        if ratio <= 0.0:
            raise ConfigError(f"wall ratio must be positive, got {ratio}")
        h_ch = self.assumed_h_ch
        return _spa_geometry({**self.spa_values, "h_ch": h_ch, "t_w": ratio * h_ch})

    def build_spec(self) -> MyofibrilSpec:
        """Complete design from the explicit [spa] section."""
        return self.spec_with_spa(self.build_spa())

    def spec_with_spa(self, spa: SpaGeometry, material: YeohMaterial | None = None) -> MyofibrilSpec:
        """Complete design from an SPA geometry and the configured material,
        or the given one."""
        try:
            return MyofibrilSpec(
                n=self.n, sarcomere=self.sarcomere, spa=spa, material=material or self.material
            )
        except DomainError as err:
            raise ConfigError(f"invalid design: {err}") from err

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
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigError(f"bad ratio {text!r}: {err}") from None


def _get_float(section: configparser.SectionProxy, key: str, context: str) -> float:
    try:
        return float(section[key])
    except KeyError:
        raise ConfigError(f"missing key {key!r} in [{context}]") from None
    except ValueError:
        raise ConfigError(f"key {key!r} in [{context}] is not a number") from None


def builtin_material(name: str) -> YeohMaterial:
    """The built-in material of that name; ConfigError naming the known ones
    otherwise."""
    try:
        return MATERIALS[name]
    except KeyError:
        known = ", ".join(sorted(MATERIALS))
        raise ConfigError(f"unknown material {name!r}; known: {known}") from None


def _resolve_material(section: configparser.SectionProxy) -> YeohMaterial:
    name = section.get("name")
    if name is None:
        raise ConfigError("[material] needs a name")
    name = name.strip()
    if "c1" not in section:
        return builtin_material(name)
    try:
        return YeohMaterial(
            name=name,
            c1=_get_float(section, "c1", "material"),
            c2=float(section.get("c2", "0")),
            c3=float(section.get("c3", "0")),
            density=float(section.get("density", "0")),
        )
    except DomainError as err:
        raise ConfigError(f"invalid custom material: {err}") from err
    except ValueError as err:
        raise ConfigError(f"non-numeric value in [material]: {err}") from None


def _resolve_sarcomere(section: configparser.SectionProxy) -> tuple[SarcomereGeometry, int]:
    a_band = _get_float(section, "a_band", "sarcomere")
    try:
        base = design_from_a_band(a_band)
    except DomainError as err:
        raise ConfigError(f"invalid sarcomere: {err}") from err
    try:
        i_band = float(section.get("i_band", base.i_band))
        actin_arc = float(section.get("actin_arc", base.actin_arc))
        myosin_height = float(section["myosin_height"]) if "myosin_height" in section else None
        sarcomere_height = float(section["sarcomere_height"]) if "sarcomere_height" in section else None
        junctions = int(section.get("junctions_per_myosin", "2"))
        n = int(section.get("n", "1"))
    except ValueError as err:
        raise ConfigError(f"non-numeric value in [sarcomere]: {err}") from None
    try:
        sarc = SarcomereGeometry(
            a_band=a_band,
            i_band=i_band,
            actin_arc=actin_arc,
            myosin_height=myosin_height,
            sarcomere_height=sarcomere_height,
            junctions_per_myosin=junctions,
        )
    except DomainError as err:
        raise ConfigError(f"invalid sarcomere: {err}") from err
    return sarc, n


def load_config(path: str | Path) -> RunConfig:
    """Parse a configuration file into a RunConfig."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    # Values are read literally: the grammar has no % interpolation.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: {err}") from None

    for required in ("material", "spa", "sarcomere"):
        if required not in parser:
            raise ConfigError(f"{path}: missing [{required}] section")

    material = _resolve_material(parser["material"])
    sarcomere, n = _resolve_sarcomere(parser["sarcomere"])

    spa_section = parser["spa"]
    spa_values = {}
    for key in _SPA_KEYS:
        if key in spa_section:
            spa_values[key] = _get_float(spa_section, key, "spa")
    try:
        assumed_h_ch = float(spa_section.get("assumed_h_ch", str(DEFAULT_ASSUMED_H_CH)))
    except ValueError:
        raise ConfigError("key 'assumed_h_ch' in [spa] is not a number") from None

    sweep = None
    if "sweep" in parser:
        sec = parser["sweep"]
        try:
            sweep = PressureSweep(
                start=_get_float(sec, "start", "sweep"),
                end=_get_float(sec, "end", "sweep"),
                step=_get_float(sec, "step", "sweep"),
            )
        except DomainError as err:
            raise ConfigError(f"invalid [sweep]: {err}") from err

    out_path = None
    out_format = "csv"
    if "output" in parser:
        out_path = parser["output"].get("path") or None
        out_format = parser["output"].get("format", "csv").strip().lower()
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output format must be csv or json, got {out_format!r}")

    return RunConfig(
        material=material,
        spa_values=spa_values,
        sarcomere=sarcomere,
        n=n,
        sweep=sweep,
        assumed_h_ch=assumed_h_ch,
        out_path=out_path,
        out_format=out_format,
    )

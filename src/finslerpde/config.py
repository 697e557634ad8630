"""Configuration loading: one strict JSON schema shared by every command.

One table, ``_KEYS``, lists each section's allowed keys with the reader
that types each value (``_number``, ``_integer``, ``_numbers``, the norm
matrix or the Hopf pair; none where the library judges the value).  It
drives the rejection of unknown keys by name at load time and the typed
read of a section, which goes to the library call as its keywords: a
domain or material key that ``DEFAULTS`` lacks takes the library's
default.  The norm and the source specs are read by their kind, which
also sets the parameters each may hold.  The
tokens NaN, Infinity and -Infinity, which strict JSON lacks, are rejected
where the file or a ``--set`` value is parsed.
``build_run`` then constructs every object the command uses (material,
norm, source and solver options always; the domain, radial problem, Wulff
or study parameters when the command reads them) before any compute, so
that bad values and admissibility failures surface before anything is
sampled, meshed or solved.  The library's own constructors and checks
decide what is valid; their rejections are reported with the config
section they came from.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
from typing import Optional

import numpy as np

from .errors import ConfigError
from .finsler import FinslerNorm, check_wulff_args
from .material import MaterialProfile, SourceTerm
from .mesh import DomainSpec
from .radial import RadialProblem, check_target
from .solver import SolveOptions
from .verify import check_study

DEFAULTS = {
    "domain": {"kind": "disk", "radius": 1.0},
    "material": {"p": 2.0, "k": 0.0, "kind": "power"},
    "norm": {"kind": "euclidean"},
    "source": {"f": {"kind": "constant", "value": 1.0}, "g": {"kind": "zero"}},
    "h": 0.1,
    "tol_solve": 1e-8,
    "max_iter": 100,
    "seed": 0,
    "radial": {"mode": "barrier", "radius": 1.0, "m": 1.0, "n": 2, "target": 0.0},
    "verify": {"beta": 0.0, "t": 0.5, "q_grid": [1.4, 1.6],
               "levels": 3, "hopf": {"radius": 0.5, "m": 0.1}},
    "wulff": {"radius": 1.0, "samples": 512, "side": "H_dual"},
}


def _reject_unknown(section, allowed, where):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object, got {section!r}")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {', '.join(repr(k) for k in unknown)} "
                          f"in {where}; allowed: {', '.join(sorted(allowed))}")


def _number(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _integer(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return value


def _numbers(value, where):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list of numbers, got {value!r}")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


def _matrix(value, where):
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list of rows, got {value!r}")
    return np.array([_numbers(row, f"{where}[{i}]") for i, row in enumerate(value)])


_HOPF_KEYS = ("radius", "m")


def _hopf(value, where):
    """A Hopf check's (radius, m), or None for no check."""
    if value is None:
        return None
    return tuple(_number(value.get(key), f"{where}.{key}") for key in _HOPF_KEYS)


# Each source kind: the parameters it reads, with their defaults, and f(s).
_SOURCES = {
    "zero": ({}, np.zeros_like),
    "constant": ({"value": 1.0}, lambda s, value: np.full_like(s, value)),
    "power": ({"exponent": 1.0, "scale": 1.0}, lambda s, exponent, scale: scale * s ** exponent),
    "linear": ({"scale": 1.0, "offset": 0.0}, lambda s, scale, offset: scale * s + offset),
}
_SOURCE_KINDS = tuple(_SOURCES)  # a tuple: a config's kind may be unhashable

# Every section's allowed keys, each with the reader that types its value.
# None leaves the value to the library, which judges it (kinds, modes,
# sides), or to build_source, which reads a source spec by its kind.  The
# norm's keys are read by its kind too, in build_norm.
_KEYS = {
    "domain": {"kind": None, "a": _number, "b": _number, "radius": _number, "center": _numbers},
    "material": {"p": _number, "k": _number, "kind": None},
    "norm": {"kind": None, "a": _matrix, "q": _number},
    "source": {"f": None, "g": None},
    "radial": {"mode": None, "radius": _number, "m": _number, "n": _integer, "target": _number},
    "verify": {"beta": _number, "t": _number, "q_grid": _numbers, "levels": _integer,
               "hopf": _hopf},
    "wulff": {"radius": _number, "samples": _integer, "side": None},
}


def _read(cfg, name):
    """Section ``name`` of a validated config, each value typed by its reader."""
    table = _KEYS[name]
    return {key: table[key](value, f"{name}.{key}") if table[key] else value
            for key, value in cfg[name].items()}


@contextlib.contextmanager
def _section(where):
    """Report a library ValueError as a ConfigError naming the config section."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _merge(base, override, path=()):
    """base updated by override, recursively where both hold an object; a
    value of another type replaces the base's, and _validate judges it.  A
    source spec or norm whose kind differs from the base's replaces the
    base's whole, so it keeps no parameter of the kind it replaces."""
    merged = dict(base)
    for key, value in override.items():
        old = merged.get(key)
        if isinstance(value, dict) and isinstance(old, dict):
            spec = path == ("source",) or path + (key,) == ("norm",)
            new_kind = spec and value.get("kind", old.get("kind")) != old.get("kind")
            merged[key] = value if new_kind else _merge(old, value, path + (key,))
        else:
            merged[key] = value
    return merged


def _reject_constant(token):
    """json.loads hook for NaN, Infinity and -Infinity, which strict JSON
    does not have."""
    raise ConfigError(f"{token} is not a JSON number")


def _strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def parse_overrides(pairs):
    """Turn repeatable ``--set a.b=value`` flags into a nested dict.

    Values parse as strict JSON when possible (numbers, lists, booleans)
    and fall back to plain strings (so ``norm.kind=lp`` needs no quoting);
    NaN, Infinity and -Infinity are rejected.
    """
    tree = {}
    for pair in pairs or ():
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        try:
            value = _strict_json(raw)
        except json.JSONDecodeError:
            value = raw
        except ConfigError as exc:
            raise ConfigError(f"override {pair!r}: {exc}") from None
        node = tree
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {pair!r} descends into a non-object")
        node[parts[-1]] = value
    return tree


def load_config(path, overrides=None, seed=None):
    """Read, override, validate, and default-fill a configuration file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        document = _strict_json(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} "
                          f"column {exc.colno}: {exc.msg}") from exc
    except (ConfigError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(document, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    _reject_unknown(document, DEFAULTS, "the top level")
    merged = _merge(DEFAULTS, document)
    if overrides:
        merged = _merge(merged, overrides)
    if seed is not None:
        merged["seed"] = seed
    _reject_unknown(merged, DEFAULTS, "the top level")
    _validate(merged)
    return merged


def _validate(cfg):
    for name, table in _KEYS.items():
        _reject_unknown(cfg[name], table, name)
    for name, spec in cfg["source"].items():
        if not isinstance(spec, dict):
            raise ConfigError(f"source.{name} must be an object, got {spec!r}")
        kind = spec.get("kind")
        if kind not in _SOURCE_KINDS:
            raise ConfigError(f"source.{name}.kind must be one of {', '.join(_SOURCE_KINDS)}; "
                              f"got {kind!r}")
        _reject_unknown(spec, ("kind", *_SOURCES[kind][0]), f"source.{name} of kind {kind}")
    if cfg["verify"]["hopf"] is not None:
        _reject_unknown(cfg["verify"]["hopf"], _HOPF_KEYS, "verify.hopf")
    for key in ("h", "tol_solve"):
        if _number(cfg[key], key) <= 0:
            raise ConfigError(f"{key} must be positive")
    if _integer(cfg["max_iter"], "max_iter") < 1:
        raise ConfigError("max_iter must be a positive integer")
    if _integer(cfg["seed"], "seed") < 0:
        raise ConfigError("seed must be a non-negative integer")


def _source_callable(spec, where):
    params, formula = _SOURCES[spec["kind"]]
    args = {key: _number(spec.get(key, default), f"{where}.{key}")
            for key, default in params.items()}
    return lambda s: formula(np.asarray(s, dtype=float), **args)


def build_norm(cfg):
    spec = cfg["norm"]
    kind = spec["kind"]
    if kind == "euclidean":
        _reject_unknown(spec, ("kind",), "norm of kind euclidean")
        return FinslerNorm.euclidean(2)
    if kind == "ellipsoidal":
        _reject_unknown(spec, ("kind", "a"), "norm of kind ellipsoidal")
        if "a" not in spec:
            raise ConfigError("norm.a (SPD matrix) is required for ellipsoidal norms")
        return FinslerNorm.ellipsoidal(_matrix(spec["a"], "norm.a"))
    if kind == "lp":
        _reject_unknown(spec, ("kind", "q"), "norm of kind lp")
        return FinslerNorm.lp(_number(spec.get("q", 4.0), "norm.q"), 2)
    raise ConfigError(f"norm.kind must be euclidean, ellipsoidal, or lp; got {kind!r}")


def build_material(cfg):
    return MaterialProfile(**_read(cfg, "material"))


def build_source(cfg):
    return SourceTerm(f=_source_callable(cfg["source"]["f"], "source.f"),
                      g=_source_callable(cfg["source"]["g"], "source.g"))


def build_domain_spec(cfg, norm):
    return DomainSpec(norm=norm, **_read(cfg, "domain"))


@dataclasses.dataclass(frozen=True)
class Run:
    """The objects a command uses, built and checked before any compute.

    Material, norm, source and solver options serve every command; the
    other fields are None unless the command reads their config section.
    """

    material: MaterialProfile
    norm: FinslerNorm
    source: SourceTerm
    options: SolveOptions
    domain: Optional[DomainSpec] = None     # solve, regularity
    h: Optional[float] = None               # solve, regularity
    radial: Optional[RadialProblem] = None  # barrier
    target: Optional[float] = None          # barrier: radial.m in barrier mode, else radial.target
    wulff: Optional[dict] = None            # wulff: keywords of wulff_boundary
    study: Optional[dict] = None            # regularity: keywords of refinement_study


def build_run(cfg, command):
    """Build what ``command`` uses from a validated config.

    Sections the command does not read are not checked, so one command's
    defaults never reject another (``verify.t`` must lie below p - 1, yet
    ``solve`` runs any p > 1).  Rejections raise ConfigError.
    """
    with _section("norm"):
        norm = build_norm(cfg)
    with _section("material"):
        material = build_material(cfg)
    source = build_source(cfg)
    used = {}
    if command in ("solve", "regularity"):
        with _section("domain"):
            used["domain"] = build_domain_spec(cfg, norm)
        used["h"] = float(cfg["h"])
    if command == "barrier":
        rad = _read(cfg, "radial")
        m, target = rad.pop("m"), rad.pop("target")
        with _section("radial"):
            radial = RadialProblem(material, source, **rad)
            target = m if radial.mode == "barrier" else target
            check_target(radial, target)
        used.update(radial=radial, target=target)
    if command == "wulff":
        wul = _read(cfg, "wulff")
        used["wulff"] = {"radius": wul["radius"], "n_samples": wul["samples"],
                         "norm_side": wul["side"]}
        with _section("wulff"):
            check_wulff_args(norm, **used["wulff"])
    if command == "regularity":
        used["study"] = _read(cfg, "verify")
        with _section("verify"):
            check_study(material, source, **used["study"])
    options = SolveOptions(tol_solve=float(cfg["tol_solve"]), max_iter=cfg["max_iter"])
    return Run(material=material, norm=norm, source=source, options=options, **used)

"""Configuration loading: one strict JSON schema shared by every command.

Unknown keys are rejected by name and values are type-checked; the
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

_TOP_KEYS = {"domain", "material", "norm", "source", "h", "tol_solve",
             "max_iter", "seed", "radial", "verify", "wulff"}

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


@contextlib.contextmanager
def _section(where):
    """Report a library ValueError as a ConfigError naming the config section."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _merge(base, override):
    """base updated by override, recursively where both hold an object; a
    value of another type replaces the base's, and _validate judges it."""
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge(merged[key], value)
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
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(document, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    _reject_unknown(document, _TOP_KEYS, "the top level")
    merged = _merge(DEFAULTS, document)
    if overrides:
        merged = _merge(merged, overrides)
    if seed is not None:
        merged["seed"] = seed
    _reject_unknown(merged, _TOP_KEYS, "the top level")
    _validate(merged)
    return merged


def _validate(cfg):
    dom = cfg["domain"]
    _reject_unknown(dom, {"kind", "a", "b", "radius", "center"}, "domain")
    mat = cfg["material"]
    _reject_unknown(mat, {"p", "k", "kind"}, "material")
    norm = cfg["norm"]
    _reject_unknown(norm, {"kind", "a", "q"}, "norm")
    src = cfg["source"]
    _reject_unknown(src, {"f", "g"}, "source")
    for name in ("f", "g"):
        spec = src.get(name, {"kind": "zero"})
        _reject_unknown(spec, {"kind", "value", "exponent", "scale", "offset"},
                        f"source.{name}")
        if spec.get("kind") not in ("zero", "constant", "power", "linear"):
            raise ConfigError(f"source.{name}.kind must be one of zero, constant, "
                              f"power, linear; got {spec.get('kind')!r}")
    rad = cfg["radial"]
    _reject_unknown(rad, {"mode", "radius", "m", "n", "target"}, "radial")
    ver = cfg["verify"]
    _reject_unknown(ver, {"beta", "t", "q_grid", "levels", "hopf"}, "verify")
    if ver.get("hopf") is not None:
        _reject_unknown(ver["hopf"], {"radius", "m"}, "verify.hopf")
    wul = cfg["wulff"]
    _reject_unknown(wul, {"radius", "samples", "side"}, "wulff")
    for key in ("h", "tol_solve"):
        if _number(cfg[key], key) <= 0:
            raise ConfigError(f"{key} must be positive")
    if _integer(cfg["max_iter"], "max_iter") < 1:
        raise ConfigError("max_iter must be a positive integer")
    if _integer(cfg["seed"], "seed") < 0:
        raise ConfigError("seed must be a non-negative integer")


def _source_callable(spec):
    kind = spec["kind"]
    if kind == "zero":
        return lambda s: np.zeros_like(np.asarray(s, dtype=float))
    if kind == "constant":
        value = _number(spec.get("value", 1.0), "source value")
        return lambda s: np.full_like(np.asarray(s, dtype=float), value)
    if kind == "power":
        exponent = _number(spec.get("exponent", 1.0), "source exponent")
        scale = _number(spec.get("scale", 1.0), "source scale")
        return lambda s: scale * np.asarray(s, dtype=float) ** exponent
    scale = _number(spec.get("scale", 1.0), "source scale")
    offset = _number(spec.get("offset", 0.0), "source offset")
    return lambda s: scale * np.asarray(s, dtype=float) + offset


def build_norm(cfg):
    spec = cfg["norm"]
    kind = spec["kind"]
    if kind == "euclidean":
        return FinslerNorm.euclidean(2)
    if kind == "ellipsoidal":
        if "a" not in spec:
            raise ConfigError("norm.a (SPD matrix) is required for ellipsoidal norms")
        rows = spec["a"]
        if not isinstance(rows, list):
            raise ConfigError(f"norm.a must be a list of rows, got {rows!r}")
        return FinslerNorm.ellipsoidal(
            np.array([_numbers(row, f"norm.a[{i}]") for i, row in enumerate(rows)]))
    if kind == "lp":
        return FinslerNorm.lp(_number(spec.get("q", 4.0), "norm.q"), 2)
    raise ConfigError(f"norm.kind must be euclidean, ellipsoidal, or lp; got {kind!r}")


def build_material(cfg):
    spec = cfg["material"]
    return MaterialProfile(p=_number(spec["p"], "material.p"),
                           k=_number(spec.get("k", 0.0), "material.k"),
                           kind=spec.get("kind", "power"))


def build_source(cfg):
    return SourceTerm(f=_source_callable(cfg["source"]["f"]),
                      g=_source_callable(cfg["source"]["g"]))


def build_domain_spec(cfg, norm):
    spec = cfg["domain"]
    return DomainSpec(kind=spec["kind"],
                      a=_number(spec.get("a", 1.0), "domain.a"),
                      b=_number(spec.get("b", 1.0), "domain.b"),
                      radius=_number(spec.get("radius", 1.0), "domain.radius"),
                      norm=norm,
                      center=_numbers(spec.get("center", (0.0, 0.0)), "domain.center"))


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
    wulff_radius: Optional[float] = None    # wulff
    wulff_samples: Optional[int] = None     # wulff
    wulff_side: Optional[str] = None        # wulff
    levels: Optional[int] = None            # regularity
    beta: Optional[float] = None            # regularity
    t: Optional[float] = None               # regularity
    q_grid: Optional[tuple] = None          # regularity
    hopf: Optional[tuple] = None            # regularity: (radius, m) or None for no Hopf check


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
        rad = cfg["radial"]
        with _section("radial"):
            radial = RadialProblem(material, source, radius=_number(rad["radius"], "radial.radius"),
                                   mode=rad["mode"], n=_integer(rad["n"], "radial.n"))
            m, target = _number(rad["m"], "radial.m"), _number(rad["target"], "radial.target")
            target = m if radial.mode == "barrier" else target
            check_target(radial, target)
        used.update(radial=radial, target=target)
    if command == "wulff":
        wul = cfg["wulff"]
        used.update(wulff_radius=_number(wul["radius"], "wulff.radius"),
                    wulff_samples=_integer(wul["samples"], "wulff.samples"),
                    wulff_side=wul["side"])
        with _section("wulff"):
            check_wulff_args(norm, used["wulff_radius"], used["wulff_samples"],
                             used["wulff_side"])
    if command == "regularity":
        ver = cfg["verify"]
        hopf = ver.get("hopf")
        if hopf is not None:
            hopf = (_number(hopf.get("radius"), "verify.hopf.radius"),
                    _number(hopf.get("m"), "verify.hopf.m"))
        used.update(levels=_integer(ver["levels"], "verify.levels"),
                    beta=_number(ver["beta"], "verify.beta"),
                    t=_number(ver["t"], "verify.t"),
                    q_grid=_numbers(ver["q_grid"], "verify.q_grid"), hopf=hopf)
        with _section("verify"):
            check_study(material, source, used["levels"], used["beta"], used["t"],
                        used["q_grid"], used["hopf"])
    options = SolveOptions(tol_solve=float(cfg["tol_solve"]), max_iter=cfg["max_iter"],
                           seed=cfg["seed"])
    return Run(material=material, norm=norm, source=source, options=options, **used)

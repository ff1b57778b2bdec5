"""Run configuration: a versioned JSON document validated before execution.

Cutoffs are non-negative integers or the string "inf".  Schema errors raise
ConfigError with a message naming the offending field; JSON syntax errors
keep the parser's line/column information.  Three tables hold the schema's
choices: ``FIELDS`` (which modes read and require each top-level field),
``FIGURE_OVERRIDES`` (the overrides each figure reads, with their defaults)
and ``FIDELITY_FIELDS`` (the parameters each fidelity kind reads).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from .cutoff import Cutoff

if TYPE_CHECKING:
    from .quantum import FidelityCurve

SCHEMA_VERSION = 1
# The largest time t, t_req, or figure t, t_max or t_req_max; it also caps
# how many times a {start, stop, step} range holds.  The closed forms hold
# O(t) lists at one time, so a larger bound lets a config end in
# MemoryError (README "Command line" has the measurements).
MAX_TIME = 10 ** 6
# The largest horizon: optimize's work and memory grow as T**2.
MAX_HORIZON = 10 ** 4
# The most trials: the simulator's trial indices 0..MAX_TRIALS-1 are one
# 32-bit word of its SeedSequence spawn key.
MAX_TRIALS = 1 << 32
# The largest dimension of a dense state or channel, and of the depolarizing
# curve's ``dim``: enough for 6 qubit-like subsystems.
MAX_DIM = 64

MODES = ("analytic", "simulate", "optimize", "sweep", "reproduce")
# each top-level field: (the modes that read it, the modes that require it);
# a mode rejects every field it does not read
FIELDS = {
    "schema_version": (MODES, MODES),
    "mode": (MODES, MODES),
    "link": (("analytic", "simulate", "optimize", "sweep"),
             ("analytic", "simulate", "optimize", "sweep")),
    "times": (("analytic", "sweep"), ("sweep",)),
    "t_req": (("analytic",), ()),
    "seed": (("simulate",), ("simulate",)),
    "trials": (("simulate",), ("simulate",)),
    "horizon": (("simulate", "optimize"), ("simulate", "optimize")),
    "sweep": (("sweep",), ("sweep",)),
    "figure": (("reproduce",), ("reproduce",)),
    "overrides": (("reproduce",), ()),
}
_TSTARS = tuple(map(Cutoff.parse, (0, 5, 10, 35, "inf")))
_FIG8_CUTOFFS = tuple(map(Cutoff, (5, 15, 10, 20)))
# the overrides each figure reads, with their defaults; any other is a typo
FIGURE_OVERRIDES = {
    "fig4-left": {"tstars": _TSTARS, "t": 10},
    "fig4-right": {"tstars": _TSTARS, "p": 0.3, "t_max": 60},
    "fig5": {"tstars": _TSTARS, "p": 0.3, "t_max": 100},
    "fig7": {"tstars": _TSTARS, "p": 0.3, "t_req_max": 100},
    "fig8": {"cutoffs": _FIG8_CUTOFFS, "t": 50},
    "fig9": {"cutoffs": _FIG8_CUTOFFS, "t": 50},
}
FIGURES = tuple(FIGURE_OVERRIDES)
# the parameters each fidelity kind reads; any other is rejected
FIDELITY_FIELDS = {
    "constant": ("f0",),
    "depolarizing": ("f0", "lam", "dim"),
    "dephasing_bell": ("lam",),
}


class ConfigError(ValueError):
    """A malformed or invalid run configuration."""


@dataclass(frozen=True)
class FidelitySpec:
    kind: str  # constant | depolarizing | dephasing_bell
    f0: float = 1.0
    lam: float = 1.0
    dim: int = 4

    def curve(self) -> FidelityCurve:
        from .quantum import FidelityCurve
        if self.kind == "constant":
            return FidelityCurve.constant(self.f0)
        if self.kind == "depolarizing":
            return FidelityCurve.depolarizing(self.f0, self.lam, self.dim)
        if self.kind == "dephasing_bell":
            return FidelityCurve.dephasing_bell(self.lam)
        raise ConfigError(f"link.fidelity.kind: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class LinkSpec:
    p: float
    tstar: Cutoff
    fidelity: Optional[FidelitySpec] = None


@dataclass(frozen=True)
class RunConfig:
    mode: str
    raw: dict
    link: Optional[LinkSpec] = None
    times: tuple[int, ...] = ()
    t_req: tuple[int, ...] = ()
    seed: Optional[int] = None
    trials: Optional[int] = None
    horizon: Optional[int] = None
    sweep_field: Optional[str] = None
    sweep_values: tuple = ()
    figure: Optional[str] = None
    # every override the figure reads, parsed, defaults filled in
    figure_overrides: dict = field(default_factory=dict)

    def hash_source(self) -> dict:
        return self.raw


def _require(doc: dict, key: str, kind: type = object, where: str = "") -> Any:
    if key not in doc:
        raise ConfigError(f"missing required field {where}{key}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ConfigError(f"field {where}{key} must be {kind.__name__}, "
                          f"got {type(value).__name__}")
    return value


def _check_fields(doc: dict, allowed, where: str = "", reader: str = "") -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown field {where}{key}{reader}")


def _parse_int(value: Any, where: str, low: int, high: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"field {where} must be an integer >= {low}")
    if high is not None and value > high:
        raise ConfigError(f"field {where} must be an integer in [{low}, {high}]")
    return value


def _parse_prob(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {where} must be a number in [0, 1]")
    if not 0.0 <= value <= 1.0:  # before float(), which overflows on huge ints
        raise ConfigError(f"field {where} must be in [0, 1], got {value}")
    return float(value)


def _parse_cutoff(value: Any, where: str) -> Cutoff:
    try:
        if isinstance(value, str):
            if value.lower() not in ("inf", "infinity"):
                raise ValueError(value)
            return Cutoff(math.inf)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(value)
        return Cutoff(value)
    except ValueError:
        # a list or an object is named by its type: its repr can run to
        # thousands of characters
        scalar = isinstance(value, (str, int, float)) or value is None
        shown = repr(value) if scalar else type(value).__name__
        raise ConfigError(
            f'field {where} must be a non-negative integer or "inf", got {shown}'
        ) from None


def _parse_list(value: Any, where: str, parse: Callable, *args) -> tuple:
    """A nonempty list, each entry parsed by ``parse(entry, where, *args)``."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"field {where} must be a nonempty list")
    return tuple(parse(entry, f"{where}[{i}]", *args) for i, entry in enumerate(value))


def _parse_times(value: Any, where: str) -> tuple[int, ...]:
    if not isinstance(value, dict):
        return _parse_list(value, where, _parse_int, 1, MAX_TIME)
    _check_fields(value, ("start", "stop", "step"), where + ".")
    start, stop = (_parse_int(_require(value, key, where=where + "."),
                              f"{where}.{key}", 1, MAX_TIME)
                   for key in ("start", "stop"))
    step = _parse_int(value.get("step", 1), where + ".step", 1)
    if stop < start:
        raise ConfigError(f"field {where}: invalid range {value}")
    return tuple(range(start, stop + 1, step))


def _parse_fidelity(doc: Any, where: str) -> FidelitySpec:
    if not isinstance(doc, dict):
        raise ConfigError(f"field {where} must be an object")
    kind = _require(doc, "kind", str, where + ".")
    if kind not in FIDELITY_FIELDS:
        raise ConfigError(f"field {where}.kind must be one of "
                          f"{tuple(FIDELITY_FIELDS)}, got {kind!r}")
    _check_fields(doc, ("kind", *FIDELITY_FIELDS[kind]), where + ".",
                  f" for kind {kind!r}")
    spec = FidelitySpec(
        kind=kind,
        f0=_parse_prob(doc.get("f0", 1.0), where + ".f0"),
        lam=_parse_prob(doc.get("lam", 1.0), where + ".lam"),
        dim=_parse_int(doc.get("dim", 4), where + ".dim", 1, MAX_DIM),
    )
    spec.curve()  # validates the parameters
    return spec


def _parse_link(doc: Any, where: str = "link") -> LinkSpec:
    if not isinstance(doc, dict):
        raise ConfigError(f"field {where} must be an object")
    _check_fields(doc, ("p", "tstar", "fidelity"), where + ".")
    p = _parse_prob(_require(doc, "p", where=where + "."), where + ".p")
    tstar = _parse_cutoff(_require(doc, "tstar", where=where + "."), where + ".tstar")
    fidelity = None
    if "fidelity" in doc:
        fidelity = _parse_fidelity(doc["fidelity"], where + ".fidelity")
    return LinkSpec(p=p, tstar=tstar, fidelity=fidelity)


def _parse_override(value: Any, where: str, key: str):
    if key in ("tstars", "cutoffs"):
        return _parse_list(value, where, _parse_cutoff)
    if key == "p":
        return _parse_prob(value, where)
    return _parse_int(value, where, 0 if key == "t_req_max" else 1, MAX_TIME)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    _check_fields(doc, FIELDS)
    version = _parse_int(_require(doc, "schema_version"), "schema_version", 0)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")
    mode = _require(doc, "mode", str)
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    # every field against FIELDS before any is parsed: a field the mode does
    # not read never reaches a parser or the config hash
    for key, (readers, required) in FIELDS.items():
        if key in doc and mode not in readers:
            raise ConfigError(f"field {key} is not read in mode {mode!r}")
        if key not in doc and mode in required:
            raise ConfigError(f"mode {mode!r} requires field {key}")
    if mode == "analytic" and ("times" in doc) == ("t_req" in doc):
        raise ConfigError("mode 'analytic' requires a times grid or a t_req list, "
                          "not both")

    link = _parse_link(doc["link"]) if "link" in doc else None
    if mode == "optimize" and link.fidelity is None:
        raise ConfigError("mode 'optimize' requires link.fidelity")
    times = _parse_times(doc["times"], "times") if "times" in doc else ()
    t_req = (_parse_list(doc["t_req"], "t_req", _parse_int, 0, MAX_TIME)
             if "t_req" in doc else ())
    seed, trials, horizon = (
        _parse_int(doc[key], key, low, high) if key in doc else None
        for key, low, high in (("seed", 0, None), ("trials", 1, MAX_TRIALS),
                               ("horizon", 1, MAX_HORIZON)))

    sweep_field: Optional[str] = None
    sweep_values: tuple = ()
    if mode == "sweep":
        sweep = _require(doc, "sweep", dict)
        _check_fields(sweep, ("field", "values"), "sweep.")
        sweep_field = _require(sweep, "field", str, "sweep.")
        if sweep_field not in ("p", "tstar"):
            raise ConfigError('field sweep.field must be "p" or "tstar"')
        parse = _parse_prob if sweep_field == "p" else _parse_cutoff
        sweep_values = _parse_list(_require(sweep, "values", where="sweep."),
                                   "sweep.values", parse)

    figure = None
    figure_overrides: dict = {}
    if mode == "reproduce":
        figure = _require(doc, "figure", str)
        if figure not in FIGURES:
            raise ConfigError(f"figure must be one of {FIGURES}, got {figure!r}")
        overrides = doc.get("overrides", {})
        if not isinstance(overrides, dict):
            raise ConfigError("field overrides must be an object")
        _check_fields(overrides, FIGURE_OVERRIDES[figure], "overrides.",
                      f" for figure {figure!r}")
        figure_overrides = dict(FIGURE_OVERRIDES[figure])
        for key, value in overrides.items():
            figure_overrides[key] = _parse_override(value, f"overrides.{key}", key)

    return RunConfig(mode=mode, raw=doc, link=link, times=times, t_req=t_req,
                     seed=seed, trials=trials, horizon=horizon,
                     sweep_field=sweep_field, sweep_values=sweep_values,
                     figure=figure, figure_overrides=figure_overrides)


def load_config(path: str) -> RunConfig:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None
    return parse_config(doc)

"""Run configuration: a versioned JSON document validated before execution.

Cutoffs are non-negative integers or the string "inf".  Schema errors raise
ConfigError with a message naming the offending field; JSON syntax errors
keep the parser's line/column information.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from .cutoff import Cutoff
from .quantum import MAX_DIM, FidelityCurve

SCHEMA_VERSION = 1

MODES = ("analytic", "simulate", "optimize", "sweep", "reproduce")
FIGURES = ("fig4-left", "fig4-right", "fig5", "fig7", "fig8", "fig9")
TOP_LEVEL_FIELDS = ("schema_version", "mode", "link", "times", "t_req", "seed",
                    "trials", "horizon", "sweep", "figure", "overrides")
# the modes that read each optional top-level field; any other mode rejects it
MODE_FIELDS = {
    "link": ("analytic", "simulate", "optimize", "sweep"),
    "times": ("analytic", "sweep"),
    "t_req": ("analytic",),
    "seed": ("simulate",),
    "trials": ("simulate",),
    "horizon": ("simulate", "optimize"),
    "sweep": ("sweep",),
    "figure": ("reproduce",),
    "overrides": ("reproduce",),
}
# the overrides each figure reads; any other override is a typo
FIGURE_OVERRIDES = {
    "fig4-left": ("tstars", "t"),
    "fig4-right": ("tstars", "p", "t_max"),
    "fig5": ("tstars", "p", "t_max"),
    "fig7": ("tstars", "p", "t_req_max"),
    "fig8": ("cutoffs", "t"),
    "fig9": ("cutoffs", "t"),
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
    figure_overrides: dict = field(default_factory=dict)

    def hash_source(self) -> dict:
        return self.raw


def _require(doc: dict, key: str, kind, where: str = "") -> Any:
    if key not in doc:
        raise ConfigError(f"missing required field {where}{key}")
    value = doc[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"field {where}{key} must be {kind}, got {type(value).__name__}")
    return value


def _check_fields(doc: dict, allowed, where: str = "") -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown field {where}{key}")


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
        raise ConfigError(
            f'field {where} must be a non-negative integer or "inf", got {value!r}'
        ) from None


def _parse_times(value: Any, where: str) -> tuple[int, ...]:
    if isinstance(value, dict):
        _check_fields(value, ("start", "stop", "step"), where + ".")
        start = _require(value, "start", int, where + ".")
        stop = _require(value, "stop", int, where + ".")
        step = _parse_int(value.get("step", 1), where + ".step", 1)
        if start < 1 or stop < start:
            raise ConfigError(f"field {where}: invalid range {value}")
        return tuple(range(start, stop + 1, step))
    if isinstance(value, list):
        times = []
        for entry in value:
            if isinstance(entry, bool) or not isinstance(entry, int) or entry < 1:
                raise ConfigError(f"field {where} entries must be integers >= 1")
            times.append(entry)
        if not times:
            raise ConfigError(f"field {where} must be a nonempty time grid")
        return tuple(times)
    raise ConfigError(f"field {where} must be a list or {{start, stop}} range")


def _parse_fidelity(doc: Any, where: str) -> FidelitySpec:
    if not isinstance(doc, dict):
        raise ConfigError(f"field {where} must be an object")
    _check_fields(doc, ("kind", "f0", "lam", "dim"), where + ".")
    kind = _require(doc, "kind", str, where + ".")
    spec = FidelitySpec(
        kind=kind,
        f0=_parse_prob(doc.get("f0", 1.0), where + ".f0"),
        lam=_parse_prob(doc.get("lam", 1.0), where + ".lam"),
        dim=_parse_int(doc.get("dim", 4), where + ".dim", 1, MAX_DIM),
    )
    spec.curve()  # validates kind/parameters
    return spec


def _parse_link(doc: Any, where: str = "link") -> LinkSpec:
    if not isinstance(doc, dict):
        raise ConfigError(f"field {where} must be an object")
    _check_fields(doc, ("p", "tstar", "fidelity"), where + ".")
    p = _parse_prob(_require(doc, "p", (int, float), where + "."), where + ".p")
    tstar = _parse_cutoff(_require(doc, "tstar", (int, float, str), where + "."),
                          where + ".tstar")
    fidelity = None
    if "fidelity" in doc:
        fidelity = _parse_fidelity(doc["fidelity"], where + ".fidelity")
    return LinkSpec(p=p, tstar=tstar, fidelity=fidelity)


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    _check_fields(doc, TOP_LEVEL_FIELDS)
    version = _require(doc, "schema_version", int)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")
    mode = _require(doc, "mode", str)
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    for key, readers in MODE_FIELDS.items():
        if key in doc and mode not in readers:
            raise ConfigError(f"field {key} is not read in mode {mode!r}")

    link = _parse_link(doc["link"]) if "link" in doc else None
    times = _parse_times(doc["times"], "times") if "times" in doc else ()
    t_req = ()
    if "t_req" in doc:
        entries = doc["t_req"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("field t_req must be a nonempty list")
        for entry in entries:
            if isinstance(entry, bool) or not isinstance(entry, int) or entry < 0:
                raise ConfigError("field t_req entries must be integers >= 0")
        t_req = tuple(entries)

    seed = doc.get("seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)
                             or seed < 0):
        raise ConfigError("field seed must be a non-negative integer")
    trials = doc.get("trials")
    if trials is not None and (isinstance(trials, bool)
                               or not isinstance(trials, int) or trials < 1):
        raise ConfigError("field trials must be an integer >= 1")
    horizon = doc.get("horizon")
    if horizon is not None and (isinstance(horizon, bool)
                                or not isinstance(horizon, int) or horizon < 1):
        raise ConfigError("field horizon must be an integer >= 1")

    sweep_field: Optional[str] = None
    sweep_values: tuple = ()
    if mode == "sweep":
        sweep = _require(doc, "sweep", dict)
        _check_fields(sweep, ("field", "values"), "sweep.")
        sweep_field = _require(sweep, "field", str, "sweep.")
        if sweep_field not in ("p", "tstar"):
            raise ConfigError('field sweep.field must be "p" or "tstar"')
        raw_values = _require(sweep, "values", list, "sweep.")
        if not raw_values:
            raise ConfigError("field sweep.values must be nonempty")
        if sweep_field == "p":
            sweep_values = tuple(_parse_prob(v, "sweep.values") for v in raw_values)
        else:
            sweep_values = tuple(_parse_cutoff(v, "sweep.values") for v in raw_values)

    figure = None
    figure_overrides: dict = {}
    if mode == "reproduce":
        figure = _require(doc, "figure", str)
        if figure not in FIGURES:
            raise ConfigError(f"figure must be one of {FIGURES}, got {figure!r}")
        overrides = doc.get("overrides", {})
        if not isinstance(overrides, dict):
            raise ConfigError("field overrides must be an object")
        _check_fields(overrides, FIGURE_OVERRIDES[figure], "overrides.")
        for key, value in overrides.items():
            where = f"overrides.{key}"
            if key in ("tstars", "cutoffs"):
                if not isinstance(value, list) or not value:
                    raise ConfigError(f"field {where} must be a nonempty list")
                for entry in value:
                    _parse_cutoff(entry, where)
            elif key == "p":
                _parse_prob(value, where)
            else:
                _parse_int(value, where, 0 if key == "t_req_max" else 1)
        figure_overrides = overrides

    # per-mode requirements
    if mode in ("analytic", "simulate", "optimize", "sweep") and link is None:
        raise ConfigError(f"mode {mode!r} requires a link section")
    if mode == "analytic" and bool(times) == bool(t_req):
        raise ConfigError("mode 'analytic' requires a times grid or a t_req list, "
                          "not both")
    if mode == "sweep" and not times:
        raise ConfigError("mode 'sweep' requires a times grid")
    if mode == "simulate":
        if seed is None:
            raise ConfigError("mode 'simulate' requires a seed")
        if trials is None:
            raise ConfigError("mode 'simulate' requires trials")
        if horizon is None:
            raise ConfigError("mode 'simulate' requires horizon")
    if mode == "optimize":
        if horizon is None:
            raise ConfigError("mode 'optimize' requires horizon")
        if link is not None and link.fidelity is None:
            raise ConfigError("mode 'optimize' requires link.fidelity")

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

"""Named example systems and the JSON system-configuration format.

Built-in scenarios cover the three oscillatory attractor examples (exact
rational coefficients) and one normal-form instance per two-fold flavour,
each instance chosen to satisfy the flavour's determinacy-breaking
condition (the scenario tests check it).  Each is stored as the config
document `scenario show` prints and built by `load_config`.
"""

from __future__ import annotations

import copy
import json
import sys
from collections import namedtuple

from .fields import (PiecewiseSmoothSystem, TwoFoldParams, is_number, normal_form_system,
                     parse_field)
from .expr import ExpressionError
from .integrate import SIGMOIDS
from .svg import artifacts

__all__ = ["Scenario", "ConfigError", "builtin", "builtin_config", "builtin_names",
           "load_config", "save_run"]


class Scenario(namedtuple("Scenario", "name system epsilon t_end x0 sigmoid")):
    """A named system (a `PiecewiseSmoothSystem`) with its run settings:
    epsilon, t_end, the start x0 and the sigmoid name."""

    __slots__ = ()

    @property
    def params(self) -> TwoFoldParams | None:
        return self.system.params


class ConfigError(ValueError):
    """Invalid configuration; `pointer` locates the offending field."""

    def __init__(self, message: str, pointer: str):
        super().__init__(f"{message} (at {pointer})")
        self.pointer = pointer


_BUILTINS = {
    # example-i's attractor does not capture orbits started near the origin
    # off the surface (they run away along the sliding x2-growth direction),
    # so its suggested start sits on the attracting sliding region
    "example-i": {
        "f_plus": ["-x2", "2/5*x1+1/10*x2-1", "3/10*x2-1/5*x2*x3-2/5"],
        "f_minus": ["x3", "1/5*x2*x3-3/5", "2/5*x3-1-x1"],
        "hidden": ["1/5", "0", "0"],
        "sim": {"epsilon": 1e-3, "t_end": 200.0, "x0": [0.0, 1.0, 1.0], "sigmoid": "tanh"},
        "note": "oscillatory attractor (i); suggested start lies on the "
                "attracting sliding region, inside the attractor's basin"},
    "example-ii": {
        "f_plus": ["-x2", "1+x1", "-7/5"],
        "f_minus": ["x3", "-9/10", "1-3/5*x1"],
        "hidden": ["1/5", "0", "0"],
        "sim": {"epsilon": 1e-3, "t_end": 200.0, "x0": [0.1, 0.5, 0.5], "sigmoid": "tanh"},
        "note": "oscillatory attractor (ii)"},
    "example-iii": {
        "f_plus": ["-x2+1/10*x1", "x1-6/5", "x1-2"],
        "f_minus": ["x3+1/10*x1", "x1+23/100", "1-x1"],
        "hidden": ["1/5", "0", "0"],
        "sim": {"epsilon": 1e-3, "t_end": 200.0, "x0": [0.1, 0.5, 0.5], "sigmoid": "tanh"},
        "note": "oscillatory attractor (iii)"},
    # normal-form instances, one per flavour; each satisfies its flavour's
    # determinacy-breaking condition (checked by the scenario tests).  The
    # mixed instance uses the drift clause b1+b2 < 0, b1-b2 < -2, the part of
    # the mixed determinacy-breaking set whose two folded singularities carry
    # determinants of opposite sign (one folded-saddle, one folded-node)
    "visible-nf": {
        "params": {"a1": -1, "a2": -1, "b1": -1.0, "b2": 0.5, "alpha": 0.2},
        "sim": {"epsilon": 1e-3, "t_end": 2.0, "x0": [0.0, 1.0, 1.0], "sigmoid": "tanh"},
        "note": "visible two-fold normal form with determinacy breaking"},
    "invisible-nf": {
        "params": {"a1": 1, "a2": 1, "b1": -2.0, "b2": -2.0, "alpha": 0.2},
        "sim": {"epsilon": 1e-3, "t_end": 2.0, "x0": [0.0, 1.0, 1.0], "sigmoid": "tanh"},
        "note": "invisible two-fold normal form with determinacy breaking"},
    "mixed-nf": {
        "params": {"a1": -1, "a2": 1, "b1": -4.0, "b2": -1.0, "alpha": 0.2},
        "sim": {"epsilon": 1e-3, "t_end": 2.0, "x0": [0.0, 1.0, 1.0], "sigmoid": "tanh"},
        "note": "mixed two-fold normal form with determinacy breaking and a "
                "folded saddle/node pair"},
}


def builtin_names() -> list[str]:
    return list(_BUILTINS)


def builtin_config(name: str) -> dict:
    """A copy of the config document of a named scenario, the caller's to
    change; ValueError for unknown names."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown scenario {name!r}; choose from {builtin_names()}")
    return {"name": name, **copy.deepcopy(_BUILTINS[name])}


def builtin(name: str) -> Scenario:
    """Named scenario from its config document; ValueError for unknown names."""
    return load_config(builtin_config(name))


# ---------------------------------------------------------------- config i/o

_SIM_DEFAULTS = {"epsilon": 1e-3, "t_end": 10.0, "x0": (0.1, 0.5, 0.5),
                 "sigmoid": "tanh"}
_MEMBERS = ("name", "note", "f_plus", "f_minus", "hidden", "params", "sim")
_PARAMS = ("a1", "a2", "b1", "b2", "alpha")


def _expr_triple(doc, key):
    val = doc[key]
    if not (isinstance(val, list) and len(val) == 3
            and all(isinstance(s, str) for s in val)):
        raise ConfigError(f"{key} must be a list of three expression strings", f"/{key}")
    try:
        return parse_field(*val)
    except ExpressionError as exc:
        raise ConfigError(f"bad expression in {key}: {exc}", f"/{key}") from exc


def _known(doc, keys, pointer, what):
    """ConfigError at the first member of `doc` outside `keys`."""
    for key in doc:
        if key not in keys:
            raise ConfigError(f"unknown {what} {key!r}", f"{pointer}/{key}")


def _require_number(doc, key, pointer):
    v = doc[key]
    if not is_number(v):
        raise ConfigError(f"{key} must be a number", pointer)
    if not abs(v) <= sys.float_info.max:   # json reads NaN, Infinity and huge ints
        raise ConfigError(f"{key} must be finite", pointer)
    return v


def load_config(source) -> Scenario:
    """Build a Scenario from a JSON document (a path or a dict).

    The document gives either explicit field expressions (f_plus, f_minus,
    optional hidden) or normal-form params, and no member it does not read
    (a misspelled hidden term would drop out unnoticed); every failure
    carries a JSON pointer to the offending member.
    """
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("top-level document must be an object", "/")
    _known(doc, _MEMBERS, "", "member")

    name = doc.get("name", "config")
    if not isinstance(name, str):
        raise ConfigError("name must be a string", "/name")
    if not isinstance(doc.get("note", ""), str):
        raise ConfigError("note must be a string", "/note")

    has_params = "params" in doc
    has_fields = "f_plus" in doc or "f_minus" in doc or "hidden" in doc
    if has_params and has_fields:
        raise ConfigError("give either explicit fields or params, not both", "/params")
    if has_params:
        pd = doc["params"]
        if not isinstance(pd, dict):
            raise ConfigError("params must be an object", "/params")
        _known(pd, _PARAMS, "/params", "params member")
        for key in _PARAMS:
            if key not in pd:
                raise ConfigError(f"params is missing {key}", f"/params/{key}")
            _require_number(pd, key, f"/params/{key}")
        if pd["a1"] not in (-1, 1) or pd["a2"] not in (-1, 1):
            raise ConfigError("a1 and a2 must be +-1", "/params/a1")
        system = normal_form_system(TwoFoldParams(int(pd["a1"]), int(pd["a2"]),
                                                  float(pd["b1"]), float(pd["b2"]),
                                                  float(pd["alpha"])))
    else:
        for key in ("f_plus", "f_minus"):
            if key not in doc:
                raise ConfigError(f"missing {key} (and no params given)", f"/{key}")
        f_plus = _expr_triple(doc, "f_plus")
        f_minus = _expr_triple(doc, "f_minus")
        hidden = _expr_triple(doc, "hidden") if "hidden" in doc else None
        system = PiecewiseSmoothSystem(f_plus, f_minus, hidden)

    sim = dict(_SIM_DEFAULTS)
    if "sim" in doc:
        sd = doc["sim"]
        if not isinstance(sd, dict):
            raise ConfigError("sim must be an object", "/sim")
        _known(sd, _SIM_DEFAULTS, "/sim", "sim option")
        for key in ("epsilon", "t_end"):
            if key in sd:
                v = _require_number(sd, key, f"/sim/{key}")
                if v <= 0:
                    raise ConfigError(f"{key} must be positive", f"/sim/{key}")
                sim[key] = float(v)
        if "x0" in sd:
            v = sd["x0"]
            if not (isinstance(v, list) and len(v) == 3
                    and all(is_number(q) and abs(q) <= sys.float_info.max for q in v)):
                raise ConfigError("x0 must be a list of three finite numbers", "/sim/x0")
            sim["x0"] = tuple(float(q) for q in v)
        if "sigmoid" in sd:
            if sd["sigmoid"] not in SIGMOIDS:
                raise ConfigError(f"sigmoid must be {' or '.join(map(repr, SIGMOIDS))}",
                                  "/sim/sigmoid")
            sim["sigmoid"] = sd["sigmoid"]

    return Scenario(name, system, sim["epsilon"], sim["t_end"],
                    tuple(sim["x0"]), sim["sigmoid"])


def save_run(trajectory, path) -> None:
    """Persist a run as CSV next to its event log (<stem>.events.csv); a
    log that cannot be written removes the CSV again."""
    p = str(path)
    stem = p[:-4] if p.endswith(".csv") else p
    with artifacts() as written:
        trajectory.to_csv(path)
        written.append(path)
        trajectory.events_to_csv(stem + ".events.csv")

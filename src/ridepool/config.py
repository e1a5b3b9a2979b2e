"""Run configuration: dataclass, flat key=value file format, validation.

The file format is one `key = value` per line, `#` comments allowed. Flags
given on the command line override file entries. Unknown keys are rejected
so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SimConfig:
    epoch_interval: float = 60.0
    horizon: float = 3600.0
    visibility_w: float = 0.0
    max_wait: float = 300.0
    max_detour: float = 600.0
    capacity: int = 4
    algo: str = "la"
    ctsp_mode: str = "oof"
    enumerate_limit: int = 12
    lrp_eta: int = 8
    penalty_m: float = 1e7
    node_limit: int | None = None
    tolerance: float = 1e-6
    rtv_timeout_s: float | None = None
    rtv_reassign: bool = True
    cg_time_limit_s: float | None = None
    cg_subset_cap: int = 1000
    carryover_kappa: float = 2.0
    ce_u: float | None = None        # defaults to penalty_m
    ce_labels_per_node: int = 1
    rebalance_enabled: bool = True
    seed: int = 0

    @property
    def ce_u_value(self) -> float:
        return self.penalty_m if self.ce_u is None else self.ce_u


ALGORITHMS = ("la", "la-mr", "la-mr-ns", "la-mr-ps", "la-mr-ce", "rtv", "fast-rtv", "cg")
CTSP_MODES = ("exact", "insertion", "oof", "lrp")


def _opt_float(s):
    return None if s.lower() in ("none", "") else float(s)


def _opt_int(s):
    return None if s.lower() in ("none", "") else int(s)


def _bool(s):
    if s.lower() in ("true", "1", "yes", "on"):
        return True
    if s.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


# key -> (attribute, parser, help)
CONFIG_KEYS: dict[str, tuple[str, callable, str]] = {
    "epoch.interval": ("epoch_interval", float, "request batching interval in seconds (default 60)"),
    "epoch.horizon": ("horizon", float, "simulated horizon in seconds"),
    "epoch.visibility_w": ("visibility_w", float, "future request visibility window W in seconds (default 0)"),
    "qos.max_wait": ("max_wait", float, "default maximum waiting time in seconds (default 300)"),
    "qos.max_detour": ("max_detour", float, "default maximum detour time in seconds (default 600)"),
    "fleet.capacity": ("capacity", int, "default vehicle capacity (default 4)"),
    "algo": ("algo", str, "assignment algorithm: " + "|".join(ALGORITHMS)),
    "ctsp.mode": ("ctsp_mode", str, "routing heuristic above the stop limit: " + "|".join(CTSP_MODES)),
    "ctsp.enumerate_limit": ("enumerate_limit", int, "max stops for the exact stop-ordering search (default 12)"),
    "ctsp.lrp_eta": ("lrp_eta", int, "node budget of the limit-and-recall-prefix heuristic (default 8)"),
    "solver.penalty_M": ("penalty_m", float, "penalty per unserved request in the assignment objectives (default 1e7)"),
    "solver.node_limit": ("node_limit", _opt_int, "branch-and-bound node limit (default none)"),
    "solver.tolerance": ("tolerance", float, "solver numeric tolerance (default 1e-6)"),
    "rtv.timeout_s": ("rtv_timeout_s", _opt_float, "trip enumeration budget; none = full RTV, 10 = fast RTV"),
    "rtv.reassign": ("rtv_reassign", _bool, "re-expose committed unpicked requests each epoch (default true)"),
    "cg.time_limit_s": ("cg_time_limit_s", _opt_float, "column generation time budget (default none)"),
    "cg.subset_cap": ("cg_subset_cap", int, "pricing candidate-subset cap per vehicle per call (default 1000)"),
    "la.carryover_kappa": ("carryover_kappa", float, "carried-over request priority multiplier (default 2)"),
    "ce.U": ("ce_u", _opt_float, "cyclic-exchange served-request value; default = solver.penalty_M"),
    "ce.labels_per_node": ("ce_labels_per_node", int, "paths kept per node in the cycle search (default 1)"),
    "rebalance.enabled": ("rebalance_enabled", _bool, "relocate idle vehicles after each assignment (default true)"),
    "seed": ("seed", int, "random seed for synthetic demand"),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _, _) in CONFIG_KEYS.items()}


def _validate(cfg: SimConfig) -> SimConfig:
    if not 0 < cfg.epoch_interval <= cfg.horizon:
        raise ConfigError("epoch.interval must satisfy 0 < interval <= horizon")
    for key in ("visibility_w", "max_wait", "max_detour", "penalty_m"):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"{_ATTR_TO_KEY[key]} must be nonnegative")
    if cfg.max_wait <= 0:
        raise ConfigError("qos.max_wait must be positive")
    if cfg.capacity < 1:
        raise ConfigError("fleet.capacity must be >= 1")
    if cfg.algo not in ALGORITHMS:
        raise ConfigError(f"algo must be one of {ALGORITHMS}, got {cfg.algo!r}")
    if cfg.ctsp_mode not in CTSP_MODES:
        raise ConfigError(f"ctsp.mode must be one of {CTSP_MODES}")
    if cfg.enumerate_limit < 2:
        raise ConfigError("ctsp.enumerate_limit must be >= 2")
    if cfg.lrp_eta < 2:
        raise ConfigError("ctsp.lrp_eta must be >= 2")
    if cfg.carryover_kappa < 1.0:
        raise ConfigError("la.carryover_kappa must be >= 1")
    if cfg.ce_labels_per_node < 1:
        raise ConfigError("ce.labels_per_node must be >= 1")
    return cfg


def parse_config(path: str | None = None, overrides: dict[str, str] | None = None) -> SimConfig:
    """Resolve a config from an optional file plus flag overrides."""
    values: dict[str, str] = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path} line {lineno}: expected 'key = value'")
                key, val = (s.strip() for s in line.split("=", 1))
                if key not in CONFIG_KEYS:
                    raise ConfigError(f"{path} line {lineno}: unknown key {key!r}")
                values[key] = val
    for key, val in (overrides or {}).items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        values[key] = str(val)
    kwargs = {}
    for key, val in values.items():
        attr, parser, _ = CONFIG_KEYS[key]
        try:
            kwargs[attr] = parser(val)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad value for {key}: {val!r} ({e})") from None
    return _validate(SimConfig(**kwargs))


def resolved_dict(cfg: SimConfig) -> dict[str, object]:
    """Every config key with its materialized value, for run manifests."""
    out = {}
    for key, (attr, _, _) in sorted(CONFIG_KEYS.items()):
        out[key] = getattr(cfg, attr)
    return out


def config_help() -> str:
    lines = ["configuration keys (file 'key = value' lines or --set key=value):"]
    for key, (_, _, help_text) in sorted(CONFIG_KEYS.items()):
        lines.append(f"  {key:24s} {help_text}")
    return "\n".join(lines)

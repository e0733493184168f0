"""Run configuration: flat INI-style key-value sections.

Unknown sections or keys are rejected with a location diagnostic; the golden
mean frequency is entered symbolically ("golden") and expanded to full double
precision internally so the frequency is never truncated in decimal.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .diophantine import GOLDEN_MEAN, GoodSetParams
from .errors import ConfigError
from .jets import MAX_ORDER_DOUBLE
from .maps import DissipativeStandardMap

_SILVER_MEAN = np.sqrt(2.0) - 1.0


def _complex(text: str) -> complex:
    """One real number, or the real and imaginary parts."""
    toks = text.split()
    if len(toks) not in (1, 2):
        raise ValueError(f"expected 1 or 2 numbers, got {len(toks)}")
    return complex(*(float(t) for t in toks))


def _int_in(lo: int, hi: int | None = None):
    def parse(text: str) -> int:
        val = int(text)
        if val < lo or (hi is not None and val > hi):
            raise ValueError(f"expected an integer >= {lo}" if hi is None
                             else f"expected an integer from {lo} to {hi}")
        return val
    return parse


def _nonzero_complex(text: str) -> complex:
    val = _complex(text)
    if val == 0:
        raise ValueError("expected a nonzero number")
    return val


def _numbers(cast, count: int):
    def parse(text: str) -> tuple:
        vals = tuple(cast(t) for t in text.split())
        if len(vals) != count:
            raise ValueError(f"expected {count} numbers, got {len(vals)}")
        return vals
    return parse


def _choice(*names):
    def parse(text: str) -> str:
        if text not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return text
    return parse


# command sections: key -> (parser, value when the key is absent or empty);
# each parser checks the value's type and range
_JET_ORDER = _int_in(0, MAX_ORDER_DOUBLE)
_COMMAND_KEYS = {
    "solve": {"eps": (_complex, None)},
    "lindstedt": {"order": (_JET_ORDER, 4), "eps0": (_complex, 0j)},
    "double": {"order": (_JET_ORDER, 1), "rounds": (_int_in(0), 2)},
    "atlas": {"plane": (_choice("lambda", "epsilon"), "lambda"),
              "bounds": (_numbers(float, 4), (0.7, 1.3, -0.3, 0.3)),
              "resolution": (_numbers(int, 2), (200, 200)),
              "ball_kmax": (int, 512), "rho_band": (float, 0.05),
              "radius_scale": (float, 1.0)},
    "sweep": {"start": (_complex, complex(0.01)), "end": (_complex, complex(0.1)),
              "steps": (_int_in(1), 10), "direction": (_nonzero_complex, None)},
}

_SCHEMA = {
    "family": {"name", "kappa", "alpha", "a"},
    "frequency": {"omega", "tau"},
    "solver": {"tol", "max_iter", "rho", "delta0", "kmax", "divisor_floor"},
    "goodset": {"A", "N", "r0", "kscan"},
    **{sec: set(keys) for sec, keys in _COMMAND_KEYS.items()},
}


@dataclass
class RunConfig:
    family: DissipativeStandardMap
    omega: np.ndarray
    tau: float
    tol: float = 1e-12
    max_iter: int = 20
    rho: float = 0.1
    delta0: float | None = None
    kmax: int = 64
    divisor_floor: float = 1e-12
    good_set: GoodSetParams | None = None
    k_scan: int = 4096
    sections: dict = field(default_factory=dict)   # typed command values

    def section(self, name: str) -> dict:
        return self.sections[name]


def _parse_omega(text: str, where: str) -> np.ndarray:
    parts = text.split()
    out = []
    for p in parts:
        low = p.lower()
        if low in ("golden", "golden-mean"):
            out.append(GOLDEN_MEAN)
        elif low in ("silver", "silver-mean"):
            out.append(_SILVER_MEAN)
        else:
            try:
                if "/" in p:
                    num, den = p.split("/")
                    out.append(float(int(num)) / float(int(den)))
                else:
                    out.append(float(p))
            except ValueError:
                raise ConfigError(f"cannot parse frequency component {p!r}", where)
    if not out:
        raise ConfigError("frequency omega is empty", where)
    return np.array(out)


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fp:
            parser.read_file(fp)
    except OSError as err:
        raise ConfigError(str(err))
    except configparser.Error as err:
        raise ConfigError(str(err), str(path))

    for sec in parser.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}]", str(path))
        for key in parser[sec]:
            if key not in {k.lower() for k in _SCHEMA[sec]}:
                raise ConfigError(f"unknown key {key!r}", f"{path}[{sec}]")

    def get(sec, key, cast, default=None, required=False):
        where = f"{path}[{sec}].{key}"
        if not parser.has_option(sec, key):
            if required:
                raise ConfigError(f"missing required key {key!r}", where)
            return default
        raw = parser.get(sec, key).strip()
        if raw == "":
            return default
        try:
            return cast(raw)
        except (ValueError, TypeError) as err:
            raise ConfigError(f"invalid value {raw!r} ({err})", where)

    if not parser.has_section("family"):
        raise ConfigError("missing section [family]", str(path))
    name = get("family", "name", str, default="dissipative_standard")
    if name != "dissipative_standard":
        raise ConfigError(f"unknown family {name!r}", f"{path}[family].name")
    fam = DissipativeStandardMap(
        kappa=get("family", "kappa", float, default=0.5),
        alpha=complex(get("family", "alpha", float, default=1.0)),
        a=get("family", "a", int, default=1),
    )

    if not parser.has_section("frequency") or not parser.has_option("frequency", "omega"):
        raise ConfigError("missing [frequency].omega", str(path))
    omega = _parse_omega(parser.get("frequency", "omega"), f"{path}[frequency].omega")
    tau = get("frequency", "tau", float, default=1.0)

    cfg = RunConfig(family=fam, omega=omega, tau=tau)
    if parser.has_section("solver"):
        cfg.tol = get("solver", "tol", float, default=cfg.tol)
        cfg.max_iter = get("solver", "max_iter", int, default=cfg.max_iter)
        cfg.rho = get("solver", "rho", float, default=cfg.rho)
        cfg.delta0 = get("solver", "delta0", float, default=None)
        cfg.kmax = get("solver", "kmax", int, default=cfg.kmax)
        cfg.divisor_floor = get("solver", "divisor_floor", float,
                                default=cfg.divisor_floor)
    if parser.has_section("goodset"):
        cfg.good_set = GoodSetParams(
            A=get("goodset", "A", float, required=True),
            N=get("goodset", "N", int, required=True),
            tau=tau,
            r0=get("goodset", "r0", float, required=True),
        )
        cfg.k_scan = get("goodset", "kscan", int, default=cfg.k_scan)

    for sec, keys in _COMMAND_KEYS.items():
        cfg.sections[sec] = {key: get(sec, key, cast, default)
                             for key, (cast, default) in keys.items()}
    # each doubling takes a jet of order N to order 2N + 1
    order, rounds = cfg.sections["double"]["order"], cfg.sections["double"]["rounds"]
    final = order
    for done in range(1, rounds + 1):
        final = 2 * final + 1
        if final > MAX_ORDER_DOUBLE:
            raise ConfigError(
                f"doubling {done} of {rounds} from order {order} reaches order "
                f"{final}, beyond the cap {MAX_ORDER_DOUBLE}", f"{path}[double].rounds")
    return cfg

"""Run configuration: flat INI-style key-value sections.

Every value is parsed and range-checked once, from the key table `_KEYS`;
an unknown section or key, a missing required key (*) or a bad value is a
ConfigError naming `<file>[<section>].<key>`.  Every number must be finite:

    [family]     name dissipative_standard; kappa; alpha != 0; a integer
                 >= 1; so lam(eps) = 1 + alpha eps^a
    [frequency]  omega* the family's d components (golden, silver, p/q or
                 a number); tau > 0
    [solver]     tol, divisor_floor > 0; max_iter integer >= 0; kmax
                 integer >= 1
    [goodset]    A*, r0* > 0; N* integer >= 0; kscan integer >= 1
    [solve]      eps complex (one number, or real and imaginary parts),
                 with a finite lam(eps)
    [lindstedt]  order 0..32; eps0 complex, with a finite lam(eps0)
    [double]     order 0..32; rounds >= 0, within the order cap
    [sweep]      start, end complex; steps >= 1; every point of the path
                 (`sweep_path`) and its lam finite
    [atlas]      plane lambda | epsilon; bounds re0 < re1, im0 < im1 (4 numbers)
                 with a finite image height 640 (im1 - im0) / (re1 - re0);
                 resolution 2 integers >= 1; ball_kmax >= 1; rho_band, radius_scale > 0,
                 with a finite largest ball radius radius_scale rho_band^(N+1) / A

[family] must be present; an absent [goodset] means no good set (its keys
are required only when it is present); any other absent section takes its
defaults.  Named means are expanded to full double precision.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .diophantine import GOLDEN_MEAN, GoodSetParams
from .errors import ConfigError
from .jets import MAX_ORDER_DOUBLE
from .maps import DissipativeStandardMap

_NAMED_FREQUENCIES = {"golden": GOLDEN_MEAN, "golden-mean": GOLDEN_MEAN,
                      "silver": np.sqrt(2.0) - 1.0, "silver-mean": np.sqrt(2.0) - 1.0}


def _finite(text: str) -> float:
    val = float(text)
    if not np.isfinite(val):
        raise ValueError("expected a finite number")
    return val


def _complex(text: str) -> complex:
    """One real number, or the real and imaginary parts."""
    toks = text.split()
    if len(toks) not in (1, 2):
        raise ValueError(f"expected 1 or 2 numbers, got {len(toks)}")
    return complex(*(_finite(t) for t in toks))


def _int_in(lo: int, hi: int | None = None):
    def parse(text: str) -> int:
        val = int(text)
        if val < lo or (hi is not None and val > hi):
            raise ValueError(f"expected an integer >= {lo}" if hi is None
                             else f"expected an integer from {lo} to {hi}")
        return val
    return parse


def _positive(text: str) -> float:
    val = float(text)
    if not 0 < val < np.inf:
        raise ValueError("expected a finite number > 0")
    return val


def _nonzero(cast):
    def parse(text: str):
        val = cast(text)
        if val == 0:
            raise ValueError("expected a nonzero number")
        return val
    return parse


def _frequency(text: str) -> float:
    """One frequency component: a named mean, a ratio p/q or a number."""
    if text.lower() in _NAMED_FREQUENCIES:
        return _NAMED_FREQUENCIES[text.lower()]
    if "/" not in text:
        return _finite(text)
    num, den = text.split("/")
    if int(den) == 0:
        raise ValueError("zero denominator")
    return float(int(num)) / float(int(den))


def _numbers(cast, count: int):
    def parse(text: str) -> tuple:
        vals = tuple(cast(t) for t in text.split())
        if len(vals) != count:
            raise ValueError(f"expected {count} entries, got {len(vals)}")
        return vals
    return parse


def _box(text: str) -> tuple:
    """re0 re1 im0 im1 with re0 < re1 and im0 < im1, finite widths and a
    finite height 640 (im1 - im0) / (re1 - re0) of the 640-pixel-wide
    `atlas.render_svg` image."""
    re0, re1, im0, im1 = box = _numbers(_finite, 4)(text)
    # a finite height needs a finite width im1 - im0
    if re0 < re1 and im0 < im1 and np.isfinite(re1 - re0) \
            and np.isfinite(640 * (im1 - im0) / (re1 - re0)):
        return box
    raise ValueError("expected re0 < re1 and im0 < im1, with finite widths and image height")


def _choice(*names):
    def parse(text: str) -> str:
        if text not in names:
            raise ValueError(f"expected one of {', '.join(names)}")
        return text
    return parse


_REQUIRED = object()   # default of a key that must be given

# section -> key -> (parser, value when the key is absent or empty); each
# parser checks the value's type and range and raises ValueError
_JET_ORDER = _int_in(0, MAX_ORDER_DOUBLE)
_KEYS = {
    "family": {"name": (_choice("dissipative_standard"), "dissipative_standard"),
               "kappa": (_finite, 0.5), "alpha": (_nonzero(_finite), 1.0),
               "a": (_int_in(1), 1)},
    "frequency": {"omega": (_numbers(_frequency, DissipativeStandardMap.dim), _REQUIRED),
                  "tau": (_positive, 1.0)},
    # the keys of [solver] but kmax are run_newton keywords
    "solver": {"tol": (_positive, 1e-12), "max_iter": (_int_in(0), 20),
               "kmax": (_int_in(1), 64), "divisor_floor": (_positive, 1e-12)},
    "goodset": {"A": (_positive, _REQUIRED), "N": (_int_in(0), _REQUIRED),
                "r0": (_positive, _REQUIRED), "kscan": (_int_in(1), 4096)},
    "solve": {"eps": (_complex, None)},
    "lindstedt": {"order": (_JET_ORDER, 4), "eps0": (_complex, 0j)},
    "double": {"order": (_JET_ORDER, 1), "rounds": (_int_in(0), 2)},
    "atlas": {"plane": (_choice("lambda", "epsilon"), "lambda"),
              "bounds": (_box, (0.7, 1.3, -0.3, 0.3)),
              "resolution": (_numbers(_int_in(1), 2), (200, 200)),
              "ball_kmax": (_int_in(1), 512), "rho_band": (_positive, 0.05),
              "radius_scale": (_positive, 1.0)},
    "sweep": {"start": (_complex, complex(0.01)), "end": (_complex, complex(0.1)),
              "steps": (_int_in(1), 10)},
}


@dataclass
class RunConfig:
    """A checked configuration; `newton` holds the `run_newton` keywords of
    every solve: [solver] but kmax, the good set (or None) and its kscan."""

    family: DissipativeStandardMap
    omega: np.ndarray
    tau: float
    kmax: int
    good_set: GoodSetParams | None
    k_scan: int | None           # [goodset].kscan; None without a good set
    newton: dict                 # run_newton keywords from [solver] and [goodset]
    sections: dict               # section -> key -> typed value


def sweep_path(sweep: dict) -> np.ndarray:
    """The `steps` equally spaced points from `start` to `end` of a [sweep]
    section."""
    start, end = sweep["start"], sweep["end"]
    return start + (end - start) * np.linspace(0.0, 1.0, sweep["steps"])


def load_config(path) -> RunConfig:
    """Parse and check the file at `path`; ConfigError as the module states."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fp:
            parser.read_file(fp)
    except OSError as err:
        raise ConfigError(str(err))
    except configparser.Error as err:
        raise ConfigError(str(err), str(path))

    for sec in parser.sections():
        if sec not in _KEYS:
            raise ConfigError(f"unknown section [{sec}]", str(path))
        for key in parser[sec]:
            if key not in {k.lower() for k in _KEYS[sec]}:
                raise ConfigError(f"unknown key {key!r}", f"{path}[{sec}]")
    if not parser.has_section("family"):
        raise ConfigError("missing section [family]", str(path))

    def get(sec, key, cast, default):
        where = f"{path}[{sec}].{key}"
        raw = parser.get(sec, key, fallback="").strip()
        if raw == "":
            if default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}", where)
            return default
        try:
            return cast(raw)
        except (ValueError, TypeError, OverflowError) as err:
            raise ConfigError(f"invalid value {raw!r} ({err})", where)

    values = {sec: {key: get(sec, key, *spec) for key, spec in keys.items()}
              for sec, keys in _KEYS.items()
              if sec != "goodset" or parser.has_section(sec)}
    # each doubling takes a jet of order N to order 2N + 1
    order, rounds = values["double"]["order"], values["double"]["rounds"]
    final = order
    for done in range(1, rounds + 1):
        final = 2 * final + 1
        if final > MAX_ORDER_DOUBLE:
            raise ConfigError(
                f"doubling {done} of {rounds} from order {order} reaches order "
                f"{final}, beyond the cap {MAX_ORDER_DOUBLE}", f"{path}[double].rounds")

    fam, freq = values["family"], values["frequency"]
    good, atlas = values.get("goodset"), values["atlas"]
    good_set = None if good is None else GoodSetParams(
        A=good["A"], N=good["N"], tau=freq["tau"], r0=good["r0"])
    family = DissipativeStandardMap(kappa=fam["kappa"], alpha=complex(fam["alpha"]),
                                    a=fam["a"])
    sweep, eps = values["sweep"], values["solve"]["eps"]
    lam_eps = "lam(eps) = 1 + alpha eps^a"
    with np.errstate(over="ignore", invalid="ignore"):
        path_eps = sweep_path(sweep)
        derived = [   # (section, key, what, value), checked in this order
            # the largest radius of an atlas ball, at |k| = 1
            ("atlas", "rho_band", "the largest ball radius radius_scale * rho_band^(N+1) / A",
             0.0 if good_set is None else good_set.floor(
                 atlas["radius_scale"] * good_set.factor(atlas["rho_band"]), 1.0)),
            ("sweep", "end", "the sweep path", path_eps),
            *([] if eps is None else [("solve", "eps", lam_eps, family.lambda_eps(eps))]),
            ("lindstedt", "eps0", lam_eps, family.lambda_eps(values["lindstedt"]["eps0"])),
            ("sweep", "start", lam_eps, family.lambda_eps(sweep["start"])),
            ("sweep", "end", lam_eps, family.lambda_eps(path_eps))]
    for sec, key, what, value in derived:
        if not np.isfinite(value).all():
            raise ConfigError(f"{what} is not finite", f"{path}[{sec}].{key}")
    k_scan = None if good is None else good["kscan"]
    newton = dict(values["solver"])
    return RunConfig(
        family=family,
        omega=np.array(freq["omega"]), tau=freq["tau"], kmax=newton.pop("kmax"),
        good_set=good_set, k_scan=k_scan,
        newton=dict(newton, good_set=good_set, good_set_scan=k_scan), sections=values)

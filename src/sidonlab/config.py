"""Config ingestion and CSV emission for the command-line harnesses.

Configs are JSON; schemas are closed (unknown keys rejected).  Every CSV
report starts with provenance comment lines carrying the config hash and
tool version, so identical config+seed reruns are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction
from pathlib import Path

from . import __version__
from .construction import ConstructionSpec, LevelSet, SpecValidationError, Tower
from .poisson import CountEvent
from .sidon import PsiSpec, build_from_psi


class ConfigError(ValueError):
    def __init__(self, message: str, field: str = ""):
        super().__init__(message)
        self.field = field


def _require_keys(d: dict, required: set[str], optional: set[str], where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object", where)
    missing = required - d.keys()
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}", where)
    unknown = d.keys() - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}", where)


def load_config(path: str) -> tuple[dict, str]:
    """Parse a JSON config; returns (config, sha256 of the raw bytes)."""
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON at line {e.lineno} col {e.colno}: {e.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be an object")
    return cfg, digest


def parse_psi(d: dict) -> PsiSpec:
    _require_keys(d, {"kind"}, {"alpha", "table"}, "psi")
    return PsiSpec.from_dict(d)


def parse_construction(d: dict):
    """Explicit stages or a generator reference.  Returns
    (ConstructionSpec, generator ledger rows or None, PsiSpec or None)."""
    if "generator" in d:
        _require_keys(d, {"generator"}, {"h1"}, "construction")
        g = d["generator"]
        _require_keys(g, {"type", "psi", "numStages"}, {"sets"}, "construction.generator")
        if g["type"] != "optimal-sidon":
            raise ConfigError(
                f"unknown generator type {g['type']!r}", "construction.generator.type"
            )
        psi = parse_psi(g["psi"])
        num = g["numStages"]
        if not isinstance(num, int) or num < 2:
            raise ConfigError("numStages must be an integer >= 2",
                              "construction.generator.numStages")
        sets = g.get("sets", "singer")
        if sets not in ("singer", "greedy"):
            raise ConfigError(f"unknown set generator {sets!r}",
                              "construction.generator.sets")
        h1 = d.get("h1", 1)
        spec, ledger = build_from_psi(psi, h1, num, sets)
        return spec, ledger, psi
    _require_keys(d, {"h1", "stages"}, set(), "construction")
    try:
        spec = ConstructionSpec.from_dict(d)
    except (SpecValidationError, TypeError, KeyError) as e:
        raise ConfigError(f"invalid construction: {e}", "construction") from e
    return spec, None, None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def parse_int(x, where: str, minimum: int | None = None) -> int:
    """A config integer (not a bool), at least `minimum` if given."""
    if not _is_int(x) or (minimum is not None and x < minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{where} must be an integer{at_least}, got {x!r}", where)
    return x


def parse_int_grid(xs, where: str, width: int = 1) -> list:
    """A list of integers, or for width > 1 of `width`-long integer lists."""
    if not isinstance(xs, list):
        raise ConfigError(f"{where} must be a list, got {xs!r}", where)
    for i, x in enumerate(xs):
        row = x if width > 1 else [x]
        if not (isinstance(row, list) and len(row) == width):
            raise ConfigError(f"{where}[{i}] must be a list of {width} integers", where)
        for v in row:
            parse_int(v, f"{where}[{i}]")
    return xs


def parse_level_set(d: dict, where: str, tower: Tower) -> LevelSet:
    """A level set {"stage": j, "ranges": [[a, b], ...]} of the tower, with
    1 <= j <= depth and integer endpoints 0 <= a < b <= h_j."""
    _require_keys(d, {"stage", "ranges"}, set(), where)
    stage, ranges = d["stage"], d["ranges"]
    if not (_is_int(stage) and 1 <= stage <= tower.depth):
        raise ConfigError(
            f"{where}: stage must be an integer in 1..{tower.depth}, got {stage!r}", where
        )
    h = tower.stage(stage).h
    if not isinstance(ranges, list):
        raise ConfigError(f"{where}: ranges must be a list of [a, b] pairs", where)
    for r in ranges:
        if not (isinstance(r, list) and len(r) == 2 and all(map(_is_int, r))
                and 0 <= r[0] < r[1]):
            raise ConfigError(
                f"{where}: range {r!r} is not [a, b] with integers 0 <= a < b", where
            )
        if r[1] > h:
            raise ConfigError(
                f"{where}: range {r!r} exceeds the stage-{stage} height {h}", where
            )
    return LevelSet.from_ranges(stage, [tuple(r) for r in ranges])


def parse_event(d: dict, where: str, tower: Tower) -> CountEvent:
    _require_keys(d, {"set", "count"}, {"shift"}, where)
    return CountEvent(
        parse_level_set(d["set"], where + ".set", tower),
        parse_int(d["count"], where + ".count", 0),
        parse_int(d.get("shift", 0), where + ".shift"),
    )


def parse_epsilon(cfg: dict, args=None) -> Fraction | None:
    den = getattr(args, "epsilon_den", None)
    if den is not None and den < 1:
        raise ConfigError(f"--epsilon-den must be >= 1, got {den}", "epsilon")
    if getattr(args, "epsilon_num", None) is not None:
        return Fraction(args.epsilon_num, den or 1)
    if "epsilon" in cfg:
        e = cfg["epsilon"]
        _require_keys(e, {"num", "den"}, set(), "epsilon")
        if not (_is_int(e["num"]) and _is_int(e["den"]) and e["den"] >= 1):
            raise ConfigError("epsilon: num and den must be integers, den >= 1", "epsilon")
        return Fraction(e["num"], e["den"])
    return None


# ---------------------------------------------------------------------------
# CSV output


def frac_cols(name: str) -> list[str]:
    return [f"{name}_num", f"{name}_den", name]


def frac_vals(x) -> list:
    f = Fraction(x)
    return [f.numerator, f.denominator, float(f)]


def write_csv(path, header: list[str], rows: list[list], digest: str):
    """RFC-4180 body preceded by provenance comments; written atomically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_sha256={digest}\n")
        fh.write(f"# tool_version={__version__}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow(row)
    tmp.replace(path)

"""Config ingestion and CSV emission for the command-line harnesses.

Configs are JSON; schemas are closed (unknown keys rejected).  Every CSV
report starts with provenance comment lines carrying the config hash and
tool version, so identical config+seed reruns are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
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


def check_keys(cfg: dict, keys: set[str], args):
    """Closed top-level schema: besides "construction", cfg may hold only
    the keys a subcommand (in its mode) reads, and the --epsilon-* flags
    are taken only where "epsilon" is one of them."""
    _require_keys(cfg, set(), {"construction", *keys}, "config")
    given = [f"--{f.replace('_', '-')}" for f in ("epsilon_num", "epsilon_den")
             if getattr(args, f, None) is not None]
    if given and "epsilon" not in keys:
        raise ConfigError(f"{' and '.join(given)}: this run reads no epsilon", "epsilon")


def load_config(path: str) -> tuple[dict, str]:
    """Parse a JSON config; returns (config, sha256 of the raw bytes)."""
    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON at line {e.lineno} col {e.colno}: {e.msg}")
    except ValueError as e:  # not UTF-8, or an integer past int's digit limit
        raise ConfigError(f"malformed JSON: {e}")
    except RecursionError:
        raise ConfigError("malformed JSON: nested too deeply to parse")
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be an object")
    return cfg, digest


def parse_psi(d: dict) -> PsiSpec:
    _require_keys(d, {"kind"}, {"alpha", "table"}, "psi")
    try:
        return PsiSpec.from_dict(d)
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as e:
        raise ConfigError(f"invalid psi: {e!r}", "psi") from e


def parse_construction(d: dict):
    """Explicit stages or a generator reference.  Returns
    (ConstructionSpec, generator ledger rows or None, PsiSpec or None)."""
    if isinstance(d, dict) and "generator" in d:
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
        h1 = parse_int(d.get("h1", 1), "construction.h1", 1)
        spec, ledger = build_from_psi(psi, h1, num, sets)
        return spec, ledger, psi
    _require_keys(d, {"h1", "stages"}, set(), "construction")
    parse_int(d["h1"], "construction.h1", 1)
    if not isinstance(d["stages"], list):
        raise ConfigError("construction.stages must be a list", "construction.stages")
    for i, st in enumerate(d["stages"]):
        where = f"construction.stages[{i}]"
        _require_keys(st, {"r", "s"}, set(), where)
        r = parse_int(st["r"], where + ".r", 2)
        if len(parse_int_grid(st["s"], where + ".s", minimum=0)) != r:
            raise ConfigError(f"{where}.s must hold r={r} spacer counts", where + ".s")
    try:
        spec = ConstructionSpec.from_dict(d)
    except SpecValidationError as e:  # an empty stage list
        raise ConfigError(f"invalid construction: {e}", "construction") from e
    return spec, None, None


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _int_at_least(x, minimum: int | None) -> bool:
    return _is_int(x) and (minimum is None or x >= minimum)


def parse_int(x, where: str, minimum: int | None = None) -> int:
    """A config integer (not a bool), at least `minimum` if given."""
    if not _int_at_least(x, minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{where} must be an integer{at_least}, got {x!r}", where)
    return x


def parse_real(x, where: str):
    """A config number that is a finite float: an int (not a bool) inside
    the float range, or a finite float."""
    if not (_is_int(x) and abs(x) <= sys.float_info.max
            or isinstance(x, float) and math.isfinite(x)):
        raise ConfigError(f"{where} must be a finite number, got {x!r}", where)
    return x


def parse_int_grid(xs, where: str, width: int = 1, minimum: int | None = None) -> list:
    """A list of integers, or for width > 1 of `width`-long integer lists;
    each integer at least `minimum` if given."""
    if not isinstance(xs, list):
        raise ConfigError(f"{where} must be a list, got {xs!r}", where)
    for i, x in enumerate(xs):
        row = x if width > 1 else [x]
        if not (isinstance(row, list) and len(row) == width):
            raise ConfigError(f"{where}[{i}] must be a list of {width} integers", where)
        for v in row:
            if not _int_at_least(v, minimum):  # the location is built only to report it
                parse_int(v, f"{where}[{i}]", minimum)
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
    num, den = getattr(args, "epsilon_num", None), getattr(args, "epsilon_den", None)
    if den is not None and den < 1:
        raise ConfigError(f"--epsilon-den must be >= 1, got {den}", "epsilon")
    if den is not None and num is None:
        raise ConfigError("--epsilon-den needs --epsilon-num", "epsilon")
    if num is not None and num < 0:
        raise ConfigError(f"--epsilon-num must be >= 0, got {num}", "epsilon")
    if num is not None:
        return Fraction(num, den or 1)
    if "epsilon" in cfg:
        e = cfg["epsilon"]
        _require_keys(e, {"num", "den"}, set(), "epsilon")
        if not (_is_int(e["num"]) and _is_int(e["den"]) and e["num"] >= 0 and e["den"] >= 1):
            raise ConfigError("epsilon: num and den must be integers, num >= 0, den >= 1",
                              "epsilon")
        return Fraction(e["num"], e["den"])
    return None


# ---------------------------------------------------------------------------
# CSV output


def write_csv(path, columns: list[str], rows, digest: str):
    """RFC-4180 body preceded by provenance comments, written at path; a
    write that raises removes the file.  write_reports writes each report
    of a run through it, atomically.  Each row is a dict holding every
    column; a fraction column "x/" reads row["x"] and is written as the
    three columns x_num, x_den, x.  Rows may be any iterable: they are
    streamed to csv.writer, and each distinct fraction-column object is
    formatted once per call."""
    cols = [(c.removesuffix("/"), c.endswith("/")) for c in columns]
    header = []
    for k, frac in cols:
        header += [f"{k}_num", f"{k}_den", k] if frac else [k]
    texts: dict[int, tuple] = {}  # id(x) -> x's three cells
    alive = []  # each x formatted, so that its id is not reused within the call

    def cells(row):
        out = []
        for k, frac in cols:
            x = row[k]
            if not frac:
                out.append(x)
                continue
            try:
                out += texts[id(x)]
            except KeyError:
                f = x if isinstance(x, Fraction) else Fraction(x)
                num, den = f.numerator, f.denominator
                # num / den is float(f): int true division, OverflowError and all
                texts[id(x)] = text = (str(num), str(den), repr(num / den))
                alive.append(x)
                out += text
        return out

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# config_sha256={digest}\n")
            fh.write(f"# tool_version={__version__}\n")
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(map(cells, rows))
    except BaseException:
        path.unlink(missing_ok=True)  # a failed write leaves no file
        raise


def write_reports(digest: str, *reports):
    """Writes the reports (path, columns, rows) of one run with write_csv,
    each to <path>.tmp, and renames them into place only once all are
    written: a run that fails leaves none of them.  On failure every .tmp
    is removed, and so is every report this call has already renamed (a
    rename fails on a directory in a report's place)."""
    paths = [Path(path) for path, _, _ in reports]
    tmps = [path.with_suffix(path.suffix + ".tmp") for path in paths]
    done = 0
    try:
        for tmp, (_, columns, rows) in zip(tmps, reports):
            write_csv(tmp, columns, rows, digest)
        for tmp, path in zip(tmps, paths):
            tmp.replace(path)
            done += 1
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        for path in paths[:done]:
            path.unlink()
        raise

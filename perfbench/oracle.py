"""Correctness oracle for the CSV reports of one benchmark pass.

Each report column is one of four kinds:

- an enclosure pair (lo, hi), exact rationals or floats: the new pair must
  satisfy lo <= hi, contain the reference value wherever the reference is
  exact, and overlap the reference interval otherwise (both contain the
  true value);
- a Monte Carlo pair (estimate, stderr): the estimate must lie within
  4 stderr of the reference estimate;
- derived from an enclosure (floats, slack, verdicts on it): not compared,
  since the enclosure check covers it;
- everything else is exact and must match the reference string for string.

Provenance comment lines are skipped: they carry the tool version.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

# file -> (enclosure (lo, hi, "frac" | "float") or None,
#          Monte Carlo (estimate, stderr) or None,
#          derived columns)
SCHEMA = {
    "corr.csv": (("lo", "hi", "frac"), ("mc_estimate", "mc_stderr"),
                 {"lo", "hi", "slack_num", "slack_den", "slack"}),
    "decay.csv": (("lo", "hi", "frac"), None,
                  {"lo", "hi", "slack_num", "slack_den", "slack", "c_of_m"}),
    "poisson.csv": (("joint_lo", "joint_hi", "float"), ("mc", "mc_stderr"),
                    {"dev_lo", "dev_hi", "exact_zero_dev"}),
    "flow.csv": (None, ("estimate", "stderr"), set()),
    "check_sidon.csv": (None, None, set()),
    "stages.csv": (None, None, set()),
    "generator_ledger.csv": (None, None, set()),
    "decay_ledger.csv": (None, None, set()),
}
# homoclinic.csv has one layout per mode; only the sweep has an enclosure.
SWEEP = (("defect_lo", "defect_hi", "frac"), None,
         {"defect_lo", "defect_hi", "slack_num", "slack_den", "slack"})
FLOAT_TOL = 1e-12


def parse(text: str) -> tuple[list[str], list[dict]]:
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    header = rows[0] if rows else []
    return header, [dict(zip(header, r)) for r in rows[1:]]


def schema_for(name: str, header: list[str]):
    if name == "homoclinic.csv":
        return SWEEP if "defect_lo_num" in header else (None, None, set())
    return SCHEMA[name]


def _bounds(row: dict, enc) -> tuple:
    lo, hi, kind = enc
    if kind == "frac":
        return (Fraction(int(row[f"{lo}_num"]), int(row[f"{lo}_den"])),
                Fraction(int(row[f"{hi}_num"]), int(row[f"{hi}_den"])))
    return float(row[lo]), float(row[hi])


def enclosure_rows(name: str, text: str) -> tuple[int, int]:
    """(exact rows, enclosure rows) of one report."""
    header, rows = parse(text)
    enc = schema_for(name, header)[0]
    if enc is None:
        return 0, 0
    exact = 0
    for row in rows:
        lo, hi = _bounds(row, enc)
        exact += lo == hi
    return exact, len(rows)


def data_rows(text: str) -> int:
    return len(parse(text)[1])


def compare(name: str, new_text: str, ref_text: str) -> list[str]:
    """Mismatches of one report against its reference; empty when it passes."""
    header, rows = parse(new_text)
    ref_header, ref_rows = parse(ref_text)
    if header != ref_header:
        return [f"{name}: header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    enc, mc, derived = schema_for(name, header)
    skip = set(derived)
    if enc is not None:
        skip |= {f"{enc[0]}_num", f"{enc[0]}_den", f"{enc[1]}_num",
                 f"{enc[1]}_den", enc[0], enc[1]}
    if mc is not None:
        skip |= set(mc)
    exact_cols = [c for c in header if c not in skip]
    tol = FLOAT_TOL if enc is not None and enc[2] == "float" else 0
    errors = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        where = f"{name} row {i + 1}"
        bad = [c for c in exact_cols if row[c] != ref[c]]
        if bad:
            errors.append(f"{where}: exact columns differ: {bad}")
        if enc is not None:
            lo, hi = _bounds(row, enc)
            rlo, rhi = _bounds(ref, enc)
            if lo > hi:
                errors.append(f"{where}: lo {lo} > hi {hi}")
            elif rlo == rhi and not lo - tol <= rlo <= hi + tol:
                errors.append(f"{where}: [{lo}, {hi}] misses exact {rlo}")
            elif lo > rhi + tol or rlo > hi + tol:
                errors.append(f"{where}: [{lo}, {hi}] disjoint from [{rlo}, {rhi}]")
        if mc is not None and mc[0] in row:
            est, se = float(row[mc[0]]), float(row[mc[1]])
            rest, rse = float(ref[mc[0]]), float(ref[mc[1]])
            if abs(est - rest) > 4 * max(se, rse) + FLOAT_TOL:
                errors.append(f"{where}: MC {est} +- {se} vs reference {rest} +- {rse}")
    return errors

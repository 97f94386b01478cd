"""config.write_csv against the per-cell writer it replaced, byte for byte,
and config.write_reports against write_csv."""

import csv
import gc
import math
from fractions import Fraction
from pathlib import Path

import pytest

from sidonlab import __version__
from sidonlab.config import write_csv, write_reports

DIGEST = "0" * 64


def reference_write_csv(path, columns, rows, digest):
    """The per-cell writer: every fraction cell converted and formatted
    again on every row."""
    keys = [c.removesuffix("/") for c in columns]
    fracs = [k != c for k, c in zip(keys, columns)]
    header = []
    for k, frac in zip(keys, fracs):
        header += [f"{k}_num", f"{k}_den", k] if frac else [k]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_sha256={digest}\n")
        fh.write(f"# tool_version={__version__}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            cells = []
            for k, frac in zip(keys, fracs):
                x = row[k]
                if frac:
                    f = x if isinstance(x, Fraction) else Fraction(x)
                    cells += (f.numerator, f.denominator, float(f))
                else:
                    cells.append(x)
            w.writerow(cells)
    tmp.replace(path)


def both(tmp_path, columns, make_rows):
    """The bytes each writer leaves, given fresh rows from make_rows()."""
    out = []
    for name, writer in (("new", write_csv), ("ref", reference_write_csv)):
        path = tmp_path / name / "r.csv"
        writer(path, columns, make_rows(), DIGEST)
        assert not path.with_suffix(".csv.tmp").exists()
        out.append(path.read_bytes())
    return out


BIG = 2**64 + 1
PLAIN = ["a,b", 'say "x"', "two\nlines", "cr\rhere", "", True, False, None, BIG, -BIG,
         1e-05, 1e16, -0.0, math.nan, math.inf, -math.inf, 0, 7]
LARGE = [Fraction(2**60 + 1, 2**55 + 3), Fraction(-(3**40), 2**57 - 1),
         Fraction(2**200 + 7, 3**100), Fraction(1, 2**1000)]


class TestWriteCsv:
    def test_plain_cells(self, tmp_path):
        new, ref = both(tmp_path, ["v", "w"],
                        lambda: [{"v": x, "w": y} for x in PLAIN for y in PLAIN[::5]])
        assert new == ref
        assert b'"two\nlines"' in new and b'"say ""x"""' in new

    def test_one_empty_cell(self, tmp_path):
        new, ref = both(tmp_path, ["v"], lambda: [{"v": ""}, {"v": None}])
        assert new == ref

    def test_large_fractions(self, tmp_path):
        new, ref = both(tmp_path, ["i", "f/", "g/"],
                        lambda: [{"i": i, "f": f, "g": g}
                                 for i, f in enumerate(LARGE) for g in LARGE])
        assert new == ref

    def test_equal_values_in_distinct_objects(self, tmp_path):
        # each row holds fresh objects of a few values; and one object in
        # several rows and columns
        shared = Fraction(5, 7)
        new, ref = both(tmp_path, ["lo/", "m", "hi/", "slack/"],
                        lambda: [{"lo": Fraction(i % 3, 9), "m": i, "hi": shared,
                                  "slack": shared if i % 2 else Fraction(5, 7)}
                                 for i in range(40)])
        assert new == ref

    def test_ints_and_floats_in_a_fraction_column(self, tmp_path):
        xs = [0, 1, -3, BIG, True, False, 0.5, -0.0, 1e-05, 1e16, 2.0**-1074, 1.7e308]
        new, ref = both(tmp_path, ["f/", "g/"],
                        lambda: [{"f": x, "g": Fraction(x)} for x in xs])
        assert new == ref

    def test_rows_freed_as_they_stream(self, tmp_path):
        # every row's values die once it is written, so later rows' new
        # objects may reuse their addresses; each must still print its own value
        def rows():
            for i in range(300):
                yield {"i": i, "f": Fraction(i, 7) + 1, "g": Fraction(2 * i + 1, 3**i)}
                gc.collect(0)

        new, ref = both(tmp_path, ["i", "f/", "g/"], rows)
        assert new == ref
        assert new.count(b"\n") == 2 + 1 + 300

    def test_each_object_formatted_once(self, tmp_path):
        class Counted(Fraction):
            reads = 0

            @property
            def numerator(self):
                Counted.reads += 1
                return self._numerator

        a, b = Counted(1, 3), Counted(2, 3)
        rows = [{"x": a if i % 2 else b, "y": b, "z": a} for i in range(50)]
        write_csv(tmp_path / "r.csv", ["x/", "y/", "z/"], rows, DIGEST)
        assert Counted.reads == 2

    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "r.csv"
        with pytest.raises(OverflowError):
            write_csv(path, ["f/"], [{"f": Fraction(1, 2)}, {"f": Fraction(10**400)}], DIGEST)
        assert list(tmp_path.iterdir()) == []  # neither r.csv nor r.csv.tmp

    @pytest.mark.parametrize("x", [Fraction(10**400, 3), Fraction(-(10**400), 7), 10**400,
                                   math.inf, math.nan])
    def test_unwritable_fraction_raises_as_before(self, tmp_path, x):
        errors = []
        for name, writer in (("new", write_csv), ("ref", reference_write_csv)):
            path = tmp_path / name / "r.csv"
            with pytest.raises((OverflowError, ValueError)) as e:
                writer(path, ["m", "f/"], [{"m": 1, "f": Fraction(1, 2)}, {"m": 2, "f": x}],
                       DIGEST)
            assert not path.exists()
            errors.append((e.type, str(e.value)))
        assert errors[0] == errors[1]


class TestWriteReports:
    """write_reports writes each report's bytes as write_csv does, but every
    one to its .tmp file before any is renamed: a failing run leaves none."""

    REPORTS = [("a.csv", ["i", "f/"], [{"i": 1, "f": Fraction(1, 3)}, {"i": 2, "f": 0.5}]),
               ("b.csv", ["x"], [{"x": "y,z"}])]

    def test_same_bytes_as_write_csv(self, tmp_path):
        write_reports(DIGEST, *((tmp_path / "new" / n, c, r) for n, c, r in self.REPORTS))
        for name, columns, rows in self.REPORTS:
            write_csv(tmp_path / "ref" / name, columns, rows, DIGEST)
        assert sorted(p.name for p in (tmp_path / "new").iterdir()) == ["a.csv", "b.csv"]
        for name, _, _ in self.REPORTS:
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_failed_second_write_keeps_the_old_reports(self, tmp_path):
        (tmp_path / "a.csv").write_text("old")
        with pytest.raises(OverflowError):
            write_reports(DIGEST, (tmp_path / "a.csv", ["f/"], [{"f": Fraction(1, 2)}]),
                          (tmp_path / "b.csv", ["f/"], [{"f": Fraction(10**400)}]))
        assert [p.name for p in tmp_path.iterdir()] == ["a.csv"]  # no b.csv, no .tmp
        assert (tmp_path / "a.csv").read_text() == "old"

    # a directory in a report's place fails its rename: when it is the
    # second's, the first report, already renamed, is removed again
    @pytest.mark.parametrize("blocked", ["a.csv", "b.csv"])
    def test_failed_rename_leaves_no_report(self, tmp_path, blocked):
        (tmp_path / blocked).mkdir()
        with pytest.raises(OSError):
            write_reports(DIGEST, *((tmp_path / n, c, r) for n, c, r in self.REPORTS))
        assert [p.name for p in tmp_path.iterdir()] == [blocked]
        assert (tmp_path / blocked).is_dir()

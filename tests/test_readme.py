"""The README's Public API section lists exactly the names of
sidonlab.__all__, each once."""

import re
from pathlib import Path

import sidonlab

README = Path(__file__).resolve().parent.parent / "README.md"


def public_api_names():
    """The backquoted names that open the bullets of the Public API section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `([^`]+)`", section, flags=re.M)


def test_public_api_section_matches_all():
    names = public_api_names()
    assert sorted(names) == sorted(set(names)), "a name is listed twice"
    assert set(names) == set(sidonlab.__all__)

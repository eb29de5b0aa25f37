"""README's API table names exactly what the package exports."""

import re
from pathlib import Path

import cubify

README = Path(__file__).resolve().parent.parent / "README.md"


def api_table_names():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| call | what it does |") + 2
    names = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        names += re.findall(r"`([^`]+)`", line.split("|")[1])
    return names


def test_api_table_names_only_exports():
    names = api_table_names()
    assert names
    for name in names:
        assert name in cubify.__all__ and hasattr(cubify, name), name


def test_every_export_is_in_the_api_table():
    assert set(cubify.__all__) <= set(api_table_names())

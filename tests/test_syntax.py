"""Every Python file parses as Python 3.10, the oldest version
``requires-python`` admits: the package, tests, demos, benchmark and the
CI workflow's scripts (``.github/scripts``, which the ``min-deps`` job
runs on Python 3.10)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for top in ("src", "tests", "demos", "perfbench", ".github/scripts")
    for p in (ROOT / top).rglob("*.py")
)


def test_files_found():
    assert len(FILES) > 20


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))

"""The package parses under the oldest Python that pyproject.toml declares.

Tier-1 runs on one newer interpreter, so syntax that only it accepts (say
``except*``, new in 3.11) would pass there and break installs on the floor.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE).groups()
    return int(major), int(minor)


def test_declared_floor_rejects_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=declared_floor())


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "symtraj").glob("*.py")), ids=lambda path: path.name
)
def test_source_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=declared_floor())

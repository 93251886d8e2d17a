import re
from pathlib import Path

import covdesign


def test_package_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'(?m)^version = "([^"]+)"$', text) == [covdesign.__version__]

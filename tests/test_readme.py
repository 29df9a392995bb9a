"""README's "Python API" list and ``singquandles.__all__`` name the same
things in the same order, so neither gains a name the other lacks."""

import re
from pathlib import Path

import singquandles

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_api_lists_all_exports():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^- `(\w+)`:", section, flags=re.M) == singquandles.__all__

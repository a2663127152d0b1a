import re
from pathlib import Path

import spherepack

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_entry_points() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"from spherepack import \((.*?)\)", section, re.S).group(1)
    return [name.strip() for name in block.replace("\n", ",").split(",") if name.strip()]


def test_readme_entry_points_are_exported():
    names = readme_entry_points()
    assert "tilde_esp" in names
    assert [n for n in names if n not in spherepack.__all__] == []


def test_all_names_resolve():
    assert len(set(spherepack.__all__)) == len(spherepack.__all__)
    assert [n for n in spherepack.__all__ if not hasattr(spherepack, n)] == []

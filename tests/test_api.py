import os
import re
import subprocess
import sys
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


def test_import_loads_no_scipy_optimize():
    # importing the library stays cheap: its root finder, tilt kernel and
    # matrix-game solver are numpy only
    src = str(Path(spherepack.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, spherepack; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"

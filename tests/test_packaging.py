"""The shipped generator tables are package data: a build installs them."""

import shutil
import subprocess
import sys
from pathlib import Path

from eccs import curve as curve_mod

ROOT = Path(__file__).resolve().parent.parent


def test_a_build_puts_the_generator_tables_beside_curve_py(tmp_path):
    # build from a copy, so that no egg-info or build directory lands in the checkout
    copy = tmp_path / "checkout"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "pyproject.toml", copy)
    result = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()", "build", "--build-base", "out"],
        cwd=copy,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    package = copy / "out" / "lib" / "eccs"
    assert (package / "curve.py").is_file()
    for curve_id in curve_mod._REGISTRY_SPECS:
        name = f"gtables-{curve_id:02x}.bin"
        assert (package / name).read_bytes() == (ROOT / "src" / "eccs" / name).read_bytes()

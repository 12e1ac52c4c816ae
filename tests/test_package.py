from pathlib import Path

from setuptools import find_packages

SRC = Path(__file__).resolve().parent.parent / "src"


def test_corules_is_a_regular_package():
    assert "corules" in find_packages(str(SRC))

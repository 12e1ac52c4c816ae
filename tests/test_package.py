import re
import tomllib
from importlib import metadata
from pathlib import Path

import pytest
from packaging.requirements import Requirement
from packaging.version import Version
from setuptools import find_packages

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_corules_is_a_regular_package():
    assert "corules" in find_packages(str(SRC))


def _floor(spec: str) -> tuple[int, ...]:
    """The version a ``>=X.Y`` Requires-Python specifier starts at."""
    match = re.fullmatch(r"\s*>=\s*(\d+(?:\.\d+)*)\s*", spec)
    assert match, f"expected a plain '>=X.Y' specifier, got {spec!r}"
    return tuple(int(part) for part in match.group(1).split("."))


@pytest.mark.parametrize("dependency", ["numpy", "scipy"])
def test_python_floor_admits_no_version_the_dependencies_refuse(dependency):
    # a floor below a dependency's leaves pip nothing to resolve there
    with (ROOT / "pyproject.toml").open("rb") as fh:
        ours = _floor(tomllib.load(fh)["project"]["requires-python"])
    theirs = _floor(metadata.metadata(dependency)["Requires-Python"])
    assert ours >= theirs, (dependency, ours, theirs)


def _numpy_floor(requirements) -> Version:
    """The lowest numpy an unconditional requirement list admits."""
    reqs = [Requirement(text) for text in requirements]
    return max(
        Version(spec.version)
        for req in reqs if req.name == "numpy" and req.marker is None
        for spec in req.specifier if spec.operator == ">="
    )


def test_numpy_floor_admits_no_version_scipy_refuses():
    # scipy's own numpy floor is the real one; ours must not promise less
    with (ROOT / "pyproject.toml").open("rb") as fh:
        ours = _numpy_floor(tomllib.load(fh)["project"]["dependencies"])
    theirs = _numpy_floor(metadata.requires("scipy"))
    assert ours >= theirs, (ours, theirs)

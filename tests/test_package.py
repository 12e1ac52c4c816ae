import os
import re
import subprocess
import sys
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


def _script(name: str, spec: str) -> metadata.EntryPoint:
    return metadata.EntryPoint(name=name, value=spec, group="console_scripts")


def test_every_declared_script_resolves_to_a_callable():
    # an entry point naming a missing module installs a command that fails
    with (ROOT / "pyproject.toml").open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, spec in scripts.items():
        assert callable(_script(name, spec).load()), (name, spec)


def test_script_check_catches_a_missing_module():
    with pytest.raises(ModuleNotFoundError):
        _script("corules", "corules.no_such_module:main").load()


IMPORT_ALL = """
import pkgutil
import sys

import corules

names = [m.name for m in pkgutil.walk_packages(corules.__path__, "corules.")]
for name in names:
    __import__(name)
assert len(names) >= 5, names
heavy = [m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules]
assert not heavy, heavy
print("ok")
"""


# scoring a rule set needs neither the LP backend nor numpy.ma; training
# and rule-set similarity load scipy's modules when they first need them
SCORE_THEN_TRAIN = """
import pkgutil
import sys

import numpy as np

import corules

for name in [m.name for m in pkgutil.walk_packages(corules.__path__, "corules.")]:
    __import__(name)
from corules import colgen, dataset, metrics, ruledsl

RULES = "(cell_r0_c0 == x AND cell_r0_c1 == x AND cell_r0_c2 == x) OR (cell_r1_c1 == x)"

raw = dataset.generate_tictactoe()
full = dataset.binarize(raw)
rules = ruledsl.parse_rules(RULES)
scored = dataset.apply_columns(raw.subset(range(0, raw.n_rows, 3)), full.columns)
bound, scored = ruledsl.bind(rules, scored)
predicted = bound.predict(scored.matrix)
assert 0.5 < metrics.accuracy(bound, scored) < 1.0
assert metrics.hamming_loss(bound, scored) > 0
assert np.mean(predicted == scored.labels) == metrics.accuracy(bound, scored)
loaded = [m for m in ("scipy", "numpy.ma") if m in sys.modules]
assert not loaded, loaded

rows = np.sort(np.random.default_rng(1).choice(full.n, 50, replace=False))
learned, report = colgen.train(full.subset(rows), None, colgen.Params())
assert report.mip_status == "optimal", report.mip_status
assert "scipy" in sys.modules
assert metrics.ruleset_similarity(rules, rules) == 1.0
assert 0.0 <= metrics.ruleset_similarity(learned, rules) < 1.0
print("ok")
"""


def _fresh_interpreter(script: str):
    # a fresh interpreter: pytest's own may already hold scipy.optimize
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_importing_corules_leaves_scipy_optimize_out():
    _fresh_interpreter(IMPORT_ALL)


def test_scoring_loads_no_backend():
    _fresh_interpreter(SCORE_THEN_TRAIN)

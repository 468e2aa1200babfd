"""Declared dependencies match what ``repro`` imports.

``pyproject.toml`` declares the runtime dependencies a plain ``pip install``
brings in.  These tests block every other third-party package installed
next to them, import ``repro`` and run a small study, so an undeclared
import anywhere on the simulator's path fails here instead of on a user's
machine.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.benchmarks.graphs import is_regular
from repro.exceptions import MissingDependencyError, ReproError

ROOT = Path(__file__).resolve().parents[1]

_BLOCKED_RUN = r"""
import json, pkgutil, site, sys, sysconfig

# Site hooks (``.pth`` files) may import packages at interpreter start;
# only what importing and running repro loads counts.
preloaded = set(sys.modules)

declared = set(json.loads(sys.argv[1]))
site_dirs = {sysconfig.get_paths()[key] for key in ("purelib", "platlib")}
site_dirs.update(site.getsitepackages())
if site.ENABLE_USER_SITE:
    site_dirs.add(site.getusersitepackages())
installed = {module.name for module in pkgutil.iter_modules(sorted(site_dirs))}
blocked = sorted(name for name in installed
                 if name not in declared and name != "repro"
                 and not name.startswith("__editable__"))
for name in blocked:
    sys.modules[name] = None

import repro
from repro.partitioning.interaction_graph import InteractionGraph
from repro.study import Study

results = Study(benchmarks=["QAOA-r4-16", "TLIM-16"],
                designs=["original", "adapt_buf", "ideal"], num_runs=2).run()
try:
    InteractionGraph(3).to_networkx()
    error = None
except Exception as exc:
    error = [type(exc).__name__, isinstance(exc, ImportError), str(exc)]

def third_party(module):
    path = getattr(module, "__file__", None) or ""
    return any(path.startswith(directory) for directory in site_dirs)

loaded = sorted({name.split(".")[0] for name, module in sys.modules.items()
                 if name not in preloaded and module is not None
                 and third_party(module)})
print(json.dumps({"blocked": blocked, "records": len(results),
                  "loaded": loaded, "to_networkx": error}))
"""


def declared_dependencies():
    """Import names of the runtime dependencies in ``pyproject.toml``."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S)
    names = re.findall(r'"([A-Za-z0-9_.\-]+)', block.group(1))
    return sorted(name.replace("-", "_").lower() for name in names)


def test_repro_runs_with_every_undeclared_package_blocked():
    declared = declared_dependencies()
    assert declared == ["numpy"]
    completed = subprocess.run(
        [sys.executable, "-c", _BLOCKED_RUN, json.dumps(declared)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    # The test extra installs networkx, so the block list is not empty.
    assert "networkx" in report["blocked"]
    assert report["records"] == 12
    assert set(report["loaded"]) <= set(declared)
    name, is_import_error, message = report["to_networkx"]
    assert name == "MissingDependencyError" and is_import_error
    assert "networkx" in message and "[graph]" in message


def test_missing_dependency_error_is_typed():
    assert issubclass(MissingDependencyError, ReproError)
    assert issubclass(MissingDependencyError, ImportError)


def test_graph_extra_declares_networkx():
    text = (ROOT / "pyproject.toml").read_text()
    extras = dict(re.findall(r'^(\w+) = \[(.*?)\]', text, re.M))
    assert '"networkx"' in extras["graph"]
    assert '"networkx"' in extras["test"]


@pytest.mark.parametrize("edges, expected", [
    ([(0, 1), (1, 2), (2, 0)], True),
    ([(0, 1), (1, 2), (2, 0), (1, 0)], False),   # an edge listed twice
    ([(0, 0), (1, 2), (2, 1)], False),           # a self-loop
    ([(0, 1), (1, 2)], False),                   # vertex 0 has degree 1
])
def test_is_regular_is_a_simple_graph_degree_check(edges, expected):
    assert is_regular(edges, 3, 2) is expected

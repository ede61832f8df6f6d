"""What ``import repro.cli`` loads: the planning path and nothing else.

A cold ``repro plan`` pays for every module the CLI imports, so the
subpackages a plan never uses load lazily (``repro.__getattr__``).  The
benchmark's tracing wrappers (``perfbench/tracing.py``) patch only
modules that ``import repro.cli`` already loaded, so every module they
target must stay on that path.  Each check runs in a fresh interpreter:
the test process itself has long since imported everything.

A default plan never needs numpy (the exponential fit is stdlib-only;
numpy serves noisy profiles and DAGs of at least ``NUMPY_MIN_EDGES``
edges), and importing it is a large fixed cost of a cold plan.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

#: Off the planning path: must not load with ``import repro.cli``.
LAZY = ("repro.baselines", "repro.emulation", "repro.experiments",
        "repro.fleet", "repro.stragglers", "repro.viz")

PROBE = r"""
import json, sys

import repro.cli

loaded = sorted(sys.modules)

import repro

namespace = {}
exec("from repro import *", namespace)
try:
    repro.no_such_attribute
    unknown = None
except AttributeError as exc:
    unknown = str(exc)

sys.path.insert(0, sys.argv[1])
import tracing

print(json.dumps({
    "loaded": loaded,
    "targets": sorted({target[0] for target in tracing.TARGETS}),
    "unbound": [name for name in repro.__all__ if name not in namespace],
    "lazy_bound": {name: namespace[name.split(".")[1]]
                   is sys.modules.get(name) for name in %r},
    "partitioning_is_partition": repro.partitioning is repro.partition,
    "unknown": unknown,
}))
""" % (LAZY,)


PLAN_PROBE = r"""
import contextlib, io, json, sys

import repro.cli

after_import = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = repro.cli.main(["plan", "gpt3-xl", "--stages", "4",
                           "--microbatches", "8"])
print(json.dumps({"code": code, "after_import": after_import,
                  "after_plan": "numpy" in sys.modules}))
"""


@pytest.fixture(scope="module")
def probe():
    done = subprocess.run(
        [sys.executable, "-c", PROBE, os.path.join(ROOT, "perfbench")],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def test_off_path_subpackages_do_not_load(probe):
    loaded = set(probe["loaded"])
    assert not [name for name in LAZY if name in loaded]
    assert "concurrent.futures.process" not in loaded


def test_every_traced_module_loads(probe):
    assert probe["targets"], "perfbench/tracing.py names no targets"
    missing = [name for name in probe["targets"]
               if name not in probe["loaded"]]
    assert not missing


def test_partitioning_alias(probe):
    assert probe["partitioning_is_partition"]


def test_star_import_binds_all(probe):
    assert probe["unbound"] == []
    assert all(probe["lazy_bound"].values()), probe["lazy_bound"]


def test_unknown_attribute_raises(probe):
    assert probe["unknown"] == \
        "module 'repro' has no attribute 'no_such_attribute'"


def test_default_plan_never_loads_numpy():
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    done = subprocess.run([sys.executable, "-c", PLAN_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"code": 0, "after_import": False, "after_plan": False}

"""The runtime needs nothing beyond the standard library.

Every ``repro`` module is imported in a fresh interpreter; any top-level
module those imports load that is not part of the standard library (and
was not already loaded at start-up, e.g. by a ``.pth`` hook) fails the
test.  ``repro.__main__`` is skipped: importing it runs the CLI.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SCRIPT = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import repro
names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
         if m.name != "repro.__main__"]
for name in names:
    importlib.import_module(name)
# Dunder entries (e.g. multiprocessing's __mp_main__) are aliases.
loaded = {m.partition(".")[0] for m in set(sys.modules) - before
          if not m.startswith("__")}
print(json.dumps({"modules": len(names), "third_party": sorted(
    loaded - set(sys.stdlib_module_names) - {"repro"})}))
"""


@pytest.mark.skipif(sys.version_info < (3, 10), reason="needs sys.stdlib_module_names")
def test_every_module_imports_only_the_standard_library():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    got = json.loads(out.stdout)
    assert got["modules"] > 50
    assert got["third_party"] == []

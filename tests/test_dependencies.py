"""oampc's one dependency is numpy (pyproject.toml): importing every oampc
module loads no other module from outside the standard library. A scipy
import once put the benchmark's setup_s and peak_rss_mb out of bounds."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Imports every oampc module and prints the top-level names of the modules
# that this loaded and the standard library does not hold.
SCRIPT = """
import importlib, pkgutil, sys
before = set(sys.modules)
import oampc
for info in pkgutil.iter_modules(oampc.__path__, "oampc."):
    importlib.import_module(info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(len(list(pkgutil.iter_modules(oampc.__path__))), *sorted(loaded - set(sys.stdlib_module_names)))
"""


def test_only_numpy_outside_the_standard_library():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    modules, *outside = done.stdout.split()
    assert int(modules) == len(list((ROOT / "src" / "oampc").glob("[!_]*.py")))
    assert outside == ["numpy", "oampc"]

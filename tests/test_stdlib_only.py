"""The package imports nothing outside the standard library."""

import os
import subprocess
import sys

import surfcolor

# imports every module of the package in a fresh interpreter and prints
# the top-level names of the modules that this loaded
PROBE = """
import importlib, pkgutil, sys
before = set(sys.modules)
import surfcolor
for info in pkgutil.iter_modules(surfcolor.__path__):
    importlib.import_module("surfcolor." + info.name)
print(" ".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_every_module_imports_only_the_standard_library():
    src = os.path.dirname(os.path.dirname(os.path.abspath(surfcolor.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    loaded = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    # multiprocessing (hollow2d's process pool) registers the probe script,
    # __main__, again as __mp_main__
    foreign = [name for name in loaded if name not in sys.stdlib_module_names and name != "__mp_main__"]
    assert foreign == ["surfcolor"], foreign

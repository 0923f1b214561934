"""Loads every module of ``orbitpick`` and of the benchmark harness
(``bench/orbitbench``) before collection.

Hypothesis draws literal constants from the local modules loaded when
an example is generated, so a derandomized property test draws the
same examples whichever test files are selected only if the same
modules are loaded: this makes them all loaded, as in the full run.
"""

import importlib
import os
import pkgutil
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench"))

import orbitbench  # noqa: E402
import orbitpick  # noqa: E402

for package in (orbitpick, orbitbench):
    for info in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
        importlib.import_module(info.name)

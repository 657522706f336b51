"""numpy, loaded on first use: the exact spectra never touch it.

Every module binds numpy as `from ._numpy import np`, never `import numpy`:
on Python 3.11 an import statement reads the lazy module's __spec__, which
loads it.  An entry already in sys.modules is used as it is, a loaded numpy
or a None that blocks it.
"""

import importlib.util
import sys

if "numpy" in sys.modules:
    np = sys.modules["numpy"]
else:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)

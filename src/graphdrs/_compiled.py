"""The three compiled scipy routines graphdrs calls, loaded without their packages.

graphdrs calls one compiled routine from each of three scipy packages: the
CSR product ``csr_matvecs`` (``scipy.sparse._sparsetools``), LAPACK's
``dpotrf``/``dpotrs`` (``scipy.linalg._flapack``) and the DCT of
``scipy.fft._pocketfft.pypocketfft``.  Importing a package runs its
``__init__``, which loads hundreds of Python modules: each of the three adds
20-27 MB to a process, while the extension module alone adds 0.1-2.7 MB
(numpy 2.4, scipy 1.17).  The simulated protocols run one agent per process,
so that fixed memory counts once per agent.

:func:`load` finds an extension module's file in scipy's tree and loads it
under its canonical name, without importing scipy or the package above it.
It registers the module in ``sys.modules``, so a later import of the package
reuses that module object and never loads the shared library twice; a module
already there, loaded by an earlier import of its package, is returned as is.
"""

import importlib.machinery
import importlib.util
import sys
from pathlib import Path


def load(name):
    """The extension module ``name``, a dotted name under scipy such as
    ``"scipy.linalg._flapack"``, loaded alone from its file in scipy's tree."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    top, *parts = name.split(".")
    scipy_spec = importlib.util.find_spec(top)  # finds the package, runs nothing
    if scipy_spec is None:
        raise ImportError(f"cannot load {name}: package {top!r} not found", name=name)
    folder = Path(scipy_spec.submodule_search_locations[0], *parts[:-1])
    finder = importlib.machinery.FileFinder(
        str(folder),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"cannot load {name}: no extension module file in {folder}",
                          name=name, path=str(folder))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module

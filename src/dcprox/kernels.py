"""The dense BLAS and LAPACK routines dcprox runs, from scipy's compiled modules.

The package needs five kernels: ``ddot``, ``dsymv`` and ``dsyrk`` from BLAS,
and the Cholesky inverse ``dpotrf``/``dpocon``/``dpotri`` with the norm
``dlange`` from LAPACK. They are the f2py wrappers that ``scipy.linalg.blas``
and ``scipy.linalg.lapack`` export, taken from the extension modules
``scipy.linalg._fblas`` and ``scipy.linalg._flapack`` themselves. Importing
the ``scipy.linalg`` package to reach them would load about 85 further
modules (23 MB of peak resident memory and 0.2 s per process), so each
extension module is loaded from its file in scipy's directory, which
``importlib.util.find_spec("scipy")`` locates without importing scipy. It
is registered in ``sys.modules`` under its own name, so a later ``import
scipy.linalg`` binds the same module object, and one already loaded is
reused. (That later package then lacks the private attribute
``scipy.linalg._fblas``; ``scipy.linalg.blas`` and ``import
scipy.linalg._fblas`` reach the module.) Only when the file is not found is the module imported through the
package: the same routines, at the package's footprint.

This is the one module of the package that names scipy.
"""

import importlib
import importlib.machinery
import importlib.util
import os
import sys


def _extension(name):
    """The module ``scipy.linalg.<name>``, loaded without scipy.linalg's
    ``__init__`` unless it is already loaded or its file is not found."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None:
        directory = os.path.join(scipy.submodule_search_locations[0], "linalg")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, name + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(full, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_file_location(full, path, loader=loader))
                sys.modules[full] = module
                loader.exec_module(module)
                return module
    return importlib.import_module(full)


_fblas = _extension("_fblas")
_flapack = _extension("_flapack")

ddot, dsymv, dsyrk = _fblas.ddot, _fblas.dsymv, _fblas.dsyrk
dlange, dpocon, dpotrf, dpotri = _flapack.dlange, _flapack.dpocon, _flapack.dpotrf, _flapack.dpotri

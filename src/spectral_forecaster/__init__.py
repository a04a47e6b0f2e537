"""Long time-series forecasting with learnable frequency filters on a transformer backbone."""

import os as _os
import sys as _sys


def _openblas(kind: str):
    """``openblas_{kind}_num_threads`` of the OpenBLAS bundled with the loaded numpy, or None.

    numpy's wheels bundle it under ``numpy.libs`` (Linux) or ``numpy/.dylibs``
    (macOS); opening that file again returns the library already loaded.
    """
    import ctypes
    import glob

    here = _os.path.dirname(_sys.modules["numpy"].__file__)
    for lib in sorted(glob.glob(_os.path.join(here, _os.pardir, "numpy.libs", "*openblas*"))
                      + glob.glob(_os.path.join(here, ".dylibs", "*openblas*"))):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        # numpy 2 wheels bundle scipy-openblas, earlier ones OpenBLAS, both 64-bit-int builds
        for name in (f"scipy_openblas_{kind}_num_threads64_", f"openblas_{kind}_num_threads64_"):
            fn = getattr(dll, name, None)
            if fn is not None:
                return fn
    return None


# SPECTRAL_FORECASTER_THREADS caps the BLAS worker pools: through the
# variables the backend reads when numpy loads it, and through OpenBLAS's own
# setter when numpy was loaded first. An explicit OPENBLAS_NUM_THREADS set by
# the user always wins.
_threads = _os.environ.get("SPECTRAL_FORECASTER_THREADS")
if _threads:
    _user_set = "OPENBLAS_NUM_THREADS" in _os.environ
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
    if "numpy" in _sys.modules and not _user_set and _threads.isdigit() and int(_threads) > 0:
        _set = _openblas("set")
        if _set is not None:
            _set(int(_threads))

__version__ = "0.1.0"

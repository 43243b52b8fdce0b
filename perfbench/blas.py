"""BLAS library facts of the running interpreter: OpenBLAS version string
and its thread count, read through the library's C API.

Run as a script it imports numpy and the package, and prints these facts
and the import time as JSON.  That is how the benchmark measures the
import cost of a fresh interpreter and asks what a subprocess started
with the benchmark's environment gets.
"""

import ctypes
import json
import time


def _openblas():
    """The loaded OpenBLAS shared object, found in this process's maps."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle
                     if "openblas" in line.split()[-1].lower()
                     and ".so" in line.split()[-1]}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _symbol(lib, names):
    for name in names:
        func = getattr(lib, name, None)
        if func is not None:
            return func
    return None


def blas_info():
    """``{"openblas": version or None, "blas_threads": count or None}``."""
    import numpy  # noqa: F401  (loads the BLAS library into the process)

    lib = _openblas()
    info = {"openblas": None, "blas_threads": None}
    if lib is None:
        return info
    config = _symbol(lib, ("scipy_openblas_get_config64_", "openblas_get_config64_",
                           "openblas_get_config"))
    if config is not None:
        config.restype = ctypes.c_char_p
        config.argtypes = []
        info["openblas"] = config().decode(errors="replace")
    threads = _symbol(lib, ("scipy_openblas_get_num_threads64_",
                            "openblas_get_num_threads64_",
                            "openblas_get_num_threads"))
    if threads is not None:
        threads.restype = ctypes.c_int
        threads.argtypes = []
        info["blas_threads"] = int(threads())
    return info


if __name__ == "__main__":
    start = time.perf_counter()
    import numpy  # noqa: F401
    import bssnmr  # noqa: F401
    import_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, **blas_info()}))

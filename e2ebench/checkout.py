"""Import ``repro`` from the checkout the benchmark was started in.

The benchmark runs from the root of a checkout and measures that
checkout's ``src/``, never an installed copy.  Without ``src/repro`` it
exits non-zero before printing any result.
"""

from __future__ import annotations

import os
import sys
import time


def import_repro(root: str) -> float:
    """Put ``<root>/src`` first on ``sys.path`` and import ``repro``.

    Returns the import time of ``repro`` in seconds, numpy excluded (it
    is imported first, so every process measures the same thing).
    """
    src = os.path.abspath(os.path.join(root, "src"))
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(
            f"e2ebench: no repro package under {src}; run from the root of a checkout\n"
        )
        raise SystemExit(2)
    sys.path.insert(0, src)
    import numpy  # noqa: F401

    started = time.perf_counter()
    import repro

    elapsed = time.perf_counter() - started
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.stderr.write(f"e2ebench: repro imported from {repro.__file__}, not {src}\n")
        raise SystemExit(2)
    return elapsed

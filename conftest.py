"""Repository-level pytest configuration.

Ensures the ``repro`` package under ``src/`` is importable even when the
package has not been installed with ``pip install .`` (see ``setup.py``):
an installed copy is used as is, otherwise ``src/`` goes on ``sys.path``.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    try:
        import repro  # noqa: F401  (already installed: nothing to do)
    except ModuleNotFoundError:
        sys.path.insert(0, str(_SRC))

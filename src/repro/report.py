"""Reporting utilities: export experiment results.

The experiment drivers return plain dicts/lists; :func:`to_json` writes
one as a JSON file for downstream plotting (``mirage --export DIR``).
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path


def to_json(result: Mapping, path: str | Path) -> Path:
    """Write an experiment result dict as pretty JSON."""
    path = Path(path)
    path.write_text(json.dumps(result, indent=2, default=_coerce))
    return path


def _coerce(value):
    if hasattr(value, "__dict__"):
        return vars(value)
    return str(value)

"""The catalog manifest, read from ``catalog.json`` without loading the engine.

Each entry carries a structure file (the same grammar the CLI reads), the
expected results as data, and a source locator.  Where exact computation
disagrees with a printed value, the entry stores the verified value and
preserves the printed claim under ``source_states`` — the reports show both.
``catalog.run_entry`` checks an entry against the engine.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

__all__ = ["CatalogEntry", "catalog_manifest", "get_entry"]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    source: str
    description: str
    payload: str
    expected: dict
    source_states: dict = field(default_factory=dict)


_CATALOG: list[CatalogEntry] | None = None


def catalog_manifest() -> list[CatalogEntry]:
    """The entries of ``catalog.json`` in file order (sorted by name), read once."""
    global _CATALOG
    if _CATALOG is None:
        path = os.path.join(os.path.dirname(__file__), "catalog.json")
        with open(path, encoding="utf-8") as fh:
            _CATALOG = [CatalogEntry(**entry) for entry in json.load(fh)]
    return _CATALOG


def get_entry(name: str) -> CatalogEntry:
    for entry in catalog_manifest():
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog entry named {name!r}")

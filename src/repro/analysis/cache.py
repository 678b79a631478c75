"""Incremental on-disk analysis cache: per-file sha256 -> parsed facts.

``make lint`` re-analyses only files whose content hash changed.  Each
entry stores the per-file findings (post-suppression) and the
serialised :class:`~repro.analysis.project.ModuleFacts`, keyed by
display path and guarded by

* the file's content sha256 (edit -> miss; rename -> new key; delete ->
  entry dropped at save time because only files seen this run persist);
* a **salt** over the cache schema version, the active rule ids, the
  project's export surface — R005's per-file verdicts depend on every
  ``__all__`` in the tree, so any export change invalidates everything —
  and the analyzer's own source, so a rule that changes behaviour under
  an unchanged id never reads findings its old version cached.

Consumer reference sets (tests/examples/benchmarks/scripts token scans
for R014) are cached the same way under a separate namespace.  Writes go
through :func:`repro.data.io.atomic_write_json` with sorted keys so the
cache file itself is byte-stable.  A corrupt or version-skewed cache is
treated as cold, never as an error — the cold path is the fallback.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Mapping, Sequence

from repro.data.io import atomic_write_json

CACHE_VERSION = 1


def file_sha256(path: Path) -> str:
    """Content hash used as the per-file cache key."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def analyzer_fingerprint() -> str:
    """sha256 over the ``repro.analysis`` package's ``.py`` files, in path order."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).resolve().parent.rglob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cache_salt(rule_ids: Sequence[str], exported_names: Sequence[str]) -> str:
    """Salt binding entries to the rule set, export surface and analyzer code."""
    blob = json.dumps(
        {
            "version": CACHE_VERSION,
            "rules": sorted(rule_ids),
            "exports": sorted(exported_names),
            "analyzer": analyzer_fingerprint(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class AnalysisCache:
    """Load-once / save-once cache with hit bookkeeping.

    ``get``/``put`` address per-file analysis payloads; ``get_refs``/
    ``put_refs`` address consumer token sets.  ``save`` persists only
    the entries touched this run, which is how deleted and renamed
    files age out.
    """

    def __init__(self, path: Path | str | None, salt: str) -> None:
        self.path = Path(path) if path is not None else None
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self._entries: dict[str, dict] = {}
        self._refs: dict[str, dict] = {}
        self._touched: dict[str, dict] = {}
        self._touched_refs: dict[str, dict] = {}
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError, ValueError):
            return  # corrupt cache == cold cache
        if not isinstance(payload, dict) or payload.get("salt") != self.salt:
            return
        files = payload.get("files")
        refs = payload.get("consumers")
        if isinstance(files, dict):
            self._entries = files
        if isinstance(refs, dict):
            self._refs = refs

    def get(self, display_path: str, sha: str) -> dict | None:
        """The cached payload for ``display_path`` at content ``sha``."""
        entry = self._entries.get(display_path)
        if entry is not None and entry.get("sha256") == sha:
            self.hits += 1
            self._touched[display_path] = entry
            return entry
        self.misses += 1
        return None

    def put(self, display_path: str, sha: str, payload: Mapping) -> None:
        """Record a freshly analysed file."""
        entry = dict(payload)
        entry["sha256"] = sha
        self._entries[display_path] = entry
        self._touched[display_path] = entry

    def get_refs(self, display_path: str, sha: str) -> list[str] | None:
        """Cached consumer token set for one tests/examples/... file."""
        entry = self._refs.get(display_path)
        if entry is not None and entry.get("sha256") == sha:
            self._touched_refs[display_path] = entry
            return list(entry.get("tokens", ()))
        return None

    def put_refs(self, display_path: str, sha: str, tokens: Sequence[str]) -> None:
        """Record a freshly scanned consumer file."""
        entry = {"sha256": sha, "tokens": sorted(tokens)}
        self._refs[display_path] = entry
        self._touched_refs[display_path] = entry

    def save(self) -> None:
        """Persist the entries seen this run (no-op without a path)."""
        if self.path is None:
            return
        atomic_write_json(
            self.path,
            {
                "version": CACHE_VERSION,
                "salt": self.salt,
                "files": dict(sorted(self._touched.items())),
                "consumers": dict(sorted(self._touched_refs.items())),
            },
        )

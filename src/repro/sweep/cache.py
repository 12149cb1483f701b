"""On-disk result cache keyed by spec digest + code version tag.

Layout::

    .repro-cache/
        v1.2.0-<fingerprint>/       # version tag: release + source hash
            <spec sha256>.json      # {"spec": ..., "result": ...}

A spec digest covers the spec, not the code that runs it, so the version
tag carries a fingerprint of the package source: any edit under
``src/repro`` opens a fresh namespace, and ``repro cache prune`` drops
the old one as stale.

Entries are written atomically (tmp file + rename) so a crashed run never
leaves a truncated document behind; unreadable entries are treated as
misses and discarded.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.metrics.collector import SimulationResult
from repro.metrics.serialize import result_from_dict, result_to_dict
from repro.sweep.spec import RunSpec

#: Environment variable overriding the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"


@lru_cache(maxsize=None)
def code_fingerprint(root: Optional[Path] = None) -> str:
    """sha256 over the sorted relative paths and bytes of the ``*.py``
    files under ``root`` (default: the ``repro`` package), once per
    process."""
    import repro

    root = root or Path(repro.__file__).parent
    digest = hashlib.sha256()
    for relative, path in sorted(
        (path.relative_to(root).as_posix(), path) for path in root.rglob("*.py")
    ):
        data = path.read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def default_version_tag() -> str:
    """Cache namespace for the current code:
    ``v<repro.__version__>-<first 16 hex digits of the code fingerprint>``."""
    import repro

    return f"v{repro.__version__}-{code_fingerprint()[:16]}"


class ResultCache:
    """Digest-addressed store of serialized simulation results."""

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        version_tag: Optional[str] = None,
    ) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.version_tag = version_tag or default_version_tag()
        self.hits = 0
        self.misses = 0

    @property
    def directory(self) -> Path:
        return self.root / self.version_tag

    def path_for(self, spec: RunSpec) -> Path:
        return self.directory / f"{spec.digest()}.json"

    def get(self, spec: RunSpec) -> Optional[SimulationResult]:
        """Return the cached result for ``spec``, or None on a miss.

        Corrupt or stale-schema entries are removed and count as misses.
        """
        path = self.path_for(spec)
        try:
            with path.open("r", encoding="utf-8") as fh:
                document = json.load(fh)
            result = result_from_dict(document["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError):
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, spec: RunSpec, result: SimulationResult) -> Path:
        """Atomically persist ``result`` under ``spec``'s digest."""
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "digest": spec.digest(),
            "spec": spec.to_dict(),
            "result": result_to_dict(result),
        }
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(document, fh)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def entry_count(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    def size_bytes(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.directory.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry in this version's namespace; return count."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    # -- maintenance -----------------------------------------------------------

    def stats(self) -> List[Dict[str, object]]:
        """Digest-count / bytes summary, one row per version namespace.

        Rows are sorted by version tag; ``current`` marks the namespace
        this cache handle reads and writes.
        """
        rows: List[Dict[str, object]] = []
        if not self.root.is_dir():
            return rows
        for directory in sorted(p for p in self.root.iterdir() if p.is_dir()):
            entries = 0
            total_bytes = 0
            for path in directory.glob("*.json"):
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue
                entries += 1
            rows.append(
                {
                    "version_tag": directory.name,
                    "entries": entries,
                    "bytes": total_bytes,
                    "current": directory.name == self.version_tag,
                }
            )
        return rows

    def prune(
        self,
        older_than_days: Optional[float] = None,
        now: Optional[float] = None,
    ) -> Tuple[int, int]:
        """Remove stale entries; return ``(files_removed, bytes_freed)``.

        Entries in namespaces other than the current version tag are
        always stale (nothing reads them anymore). With
        ``older_than_days``, entries older than the cutoff are removed
        from the current namespace too. Emptied namespace directories
        are deleted.
        """
        if older_than_days is not None and older_than_days < 0:
            raise ValueError("older_than_days must be >= 0")
        if not self.root.is_dir():
            return (0, 0)
        cutoff: Optional[float] = None
        if older_than_days is not None:
            cutoff = (now if now is not None else time.time()) - (
                older_than_days * 86400.0
            )
        removed = 0
        freed = 0
        for directory in sorted(p for p in self.root.iterdir() if p.is_dir()):
            stale_namespace = directory.name != self.version_tag
            for path in directory.glob("*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                if not stale_namespace and (
                    cutoff is None or stat.st_mtime >= cutoff
                ):
                    continue
                try:
                    path.unlink()
                except OSError:
                    continue
                removed += 1
                freed += stat.st_size
            try:
                next(directory.iterdir())
            except StopIteration:
                try:
                    directory.rmdir()
                except OSError:
                    pass
            except OSError:
                pass
        return (removed, freed)

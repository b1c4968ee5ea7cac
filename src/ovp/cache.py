"""Content-addressed cache for coefficient tables.

Resolution order for the cache directory: explicit argument, then the
OVP_CACHE_DIR environment variable, then ~/.cache/ovp.  A table is keyed
by (name, method, ring, length) and the package version; the payload is
the binary series format for residue rings (one narrowest unsigned word
per residue; a file of int64 words fails its length check) and JSON for
exact tables, with a sidecar metadata file recording the payload digest.
Loads verify the digest and treat any mismatch or unreadable payload as a
miss; a residue table loads as a read-only view of the payload's words.
Stores create a temp file of mode 0o666 less the umask in the target
directory and rename it into place.  An unwritable directory degrades to
compute-only with a warning.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import warnings
from pathlib import Path

from . import __version__
from .overpartition import CoeffTable
from .qseries import CoefficientRing, Series, decode_residues

ENV_VAR = "OVP_CACHE_DIR"


def resolve_cache_dir(explicit: str | Path | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ovp"


def _ring_tag(ring: CoefficientRing) -> str:
    return "exact" if ring.is_exact else f"mod{ring.modulus}"


def table_key(name: str, method: str, ring: CoefficientRing, length: int) -> str:
    text = f"{name}|{method}|{_ring_tag(ring)}|{length}|v{__version__}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _paths(
    cache_dir: Path, name: str, method: str, ring: CoefficientRing, length: int
) -> tuple[Path, Path]:
    key = table_key(name, method, ring, length)
    ext = "json" if ring.is_exact else "qs"
    base = f"{name}-{method}-{_ring_tag(ring)}-{length}-{key}"
    return cache_dir / f"{base}.{ext}", cache_dir / f"{base}.meta.json"


def _atomic_write(target: Path, data: bytes) -> None:
    # Like mkstemp (exclusive create under a random name), but with mode
    # 0o666 so that the kernel applies the umask, as open() would.
    tmp = target.with_name(f".tmp-{secrets.token_hex(8)}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def store_table(table: CoeffTable, cache_dir: str | Path | None = None) -> Path | None:
    """Persist a table; returns the payload path, or None if unwritable."""
    directory = resolve_cache_dir(cache_dir)
    payload_path, meta_path = _paths(
        directory, table.name, table.method, table.ring, table.length
    )
    payload = table.payload_bytes()
    meta = {
        "name": table.name,
        "method": table.method,
        "ring": _ring_tag(table.ring),
        "length": table.length,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "version": __version__,
    }
    try:
        directory.mkdir(parents=True, exist_ok=True)
        _atomic_write(payload_path, payload)
        _atomic_write(meta_path, json.dumps(meta, indent=2).encode())
    except OSError as exc:
        warnings.warn(f"cache directory {directory} not writable ({exc}); "
                      "computing without caching")
        return None
    return payload_path


def load_table(
    name: str,
    method: str,
    ring: CoefficientRing,
    length: int,
    cache_dir: str | Path | None = None,
) -> CoeffTable | None:
    """Load a table if present and digest-verified; None on any miss."""
    directory = resolve_cache_dir(cache_dir)
    payload_path, meta_path = _paths(directory, name, method, ring, length)
    if not payload_path.exists() or not meta_path.exists():
        return None
    try:
        meta = json.loads(meta_path.read_text())
        payload = payload_path.read_bytes()
        if hashlib.sha256(payload).hexdigest() != meta.get("sha256"):
            return None
        if ring.is_exact:
            series = Series.from_json(payload.decode())
            got, values = series.ring, series.coeffs
        else:
            got, values = decode_residues(payload)
        if got != ring or len(values) != length:
            return None
    except (OSError, ValueError, KeyError, json.JSONDecodeError):
        return None
    return CoeffTable(
        name=name,
        method=method,
        ring=ring,
        values=values,
        meta={"cache_path": str(payload_path)},
    )

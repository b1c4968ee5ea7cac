"""Content-addressed cache for coefficient tables.

Resolution order for the cache directory: explicit argument, then the
OVP_CACHE_DIR environment variable, then ~/.cache/ovp.  A table is keyed
by (name, method, ring, length) and the package version and stored as one
file: the payload's SHA-256 (32 bytes), then the payload, which is the
binary series format for residue rings (one narrowest unsigned word per
residue; int64 words fail its length check) and JSON for exact tables.
Loads treat a digest mismatch or an unreadable file as a miss; a residue
table loads as a read-only view of the payload's words.  An entry of the
sidecar layout (bare payload plus ``.meta.json``) fails the digest check,
so it is recomputed once and replaced; sidecars are never read.  Stores
write a temp file of mode 0o666 less the umask and rename it into place.
An unwritable directory degrades to compute-only with a warning.
``hashlib`` (and with it OpenSSL, about 3 MB of resident pages) is
imported at the first key or digest, not with the module, so a process
that never touches the cache never loads it.
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path

from . import __version__
from .overpartition import CoeffTable
from .qseries import CoefficientRing, Series

ENV_VAR = "OVP_CACHE_DIR"
_DIGEST_SIZE = 32


def resolve_cache_dir(explicit: str | Path | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ovp"


def _ring_tag(ring: CoefficientRing) -> str:
    return "exact" if ring.is_exact else f"mod{ring.modulus}"


def _sha256(data: bytes | memoryview):
    import hashlib

    return hashlib.sha256(data)


def table_key(name: str, method: str, ring: CoefficientRing, length: int) -> str:
    text = f"{name}|{method}|{_ring_tag(ring)}|{length}|v{__version__}"
    return _sha256(text.encode()).hexdigest()[:16]


def _path(
    cache_dir: Path, name: str, method: str, ring: CoefficientRing, length: int
) -> Path:
    key = table_key(name, method, ring, length)
    return cache_dir / f"{name}-{method}-{_ring_tag(ring)}-{length}-{key}.qs"


def _atomic_write(target: Path, *chunks: bytes) -> None:
    # Like mkstemp (exclusive create under a random name), but with mode
    # 0o666 so that the kernel applies the umask, as open() would.  The
    # name is what secrets.token_hex(8) gives, without importing hmac.
    tmp = target.with_name(f".tmp-{os.urandom(8).hex()}")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def store_table(table: CoeffTable, cache_dir: str | Path | None = None) -> Path | None:
    """Persist a table; returns its path, or None if unwritable."""
    directory = resolve_cache_dir(cache_dir)
    path = _path(directory, table.name, table.method, table.ring, table.length)
    payload = table.payload_bytes()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        _atomic_write(path, _sha256(payload).digest(), payload)
    except OSError as exc:
        warnings.warn(f"cache directory {directory} not writable ({exc}); "
                      "computing without caching")
        return None
    return path


def load_table(
    name: str,
    method: str,
    ring: CoefficientRing,
    length: int,
    cache_dir: str | Path | None = None,
) -> CoeffTable | None:
    """Load a table if present and digest-verified; None on any miss."""
    path = _path(resolve_cache_dir(cache_dir), name, method, ring, length)
    try:
        # slices of a memoryview share the bytes read: nothing is copied
        blob = memoryview(path.read_bytes())
        payload = blob[_DIGEST_SIZE:]
        if _sha256(payload).digest() != blob[:_DIGEST_SIZE]:
            return None
        if ring.is_exact:
            series = Series.from_json(str(payload, "utf-8"))
        else:
            series = Series.from_bytes(payload)
        if series.ring != ring or series.order != length:
            return None
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    return CoeffTable(
        name=name,
        method=method,
        ring=ring,
        values=series.coeffs,
        meta={"cache_path": str(path)},
    )

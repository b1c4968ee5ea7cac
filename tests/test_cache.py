"""Table cache: content addressing, digest verification, failure fallbacks."""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ovp
from ovp import ZZ, Method, mod_ring, overpartition_table
from ovp.cache import (
    ENV_VAR,
    _path,
    load_table,
    resolve_cache_dir,
    store_table,
    table_key,
)


def test_resolve_cache_dir_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert resolve_cache_dir(tmp_path) == tmp_path
    assert resolve_cache_dir().name == "ovp"
    monkeypatch.setenv(ENV_VAR, str(tmp_path / "env"))
    assert resolve_cache_dir() == tmp_path / "env"
    assert resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"


def test_table_key_varies_with_every_field():
    base = table_key("pbar", "theta-inversion", mod_ring(8), 100)
    assert len(base) == 16
    assert base == table_key("pbar", "theta-inversion", mod_ring(8), 100)
    assert base != table_key("ck", "theta-inversion", mod_ring(8), 100)
    assert base != table_key("pbar", "euler-product", mod_ring(8), 100)
    assert base != table_key("pbar", "theta-inversion", mod_ring(40), 100)
    assert base != table_key("pbar", "theta-inversion", ZZ, 100)
    assert base != table_key("pbar", "theta-inversion", mod_ring(8), 101)


def test_round_trip_residue_table(tmp_path):
    table = overpartition_table(mod_ring(40), 200)
    path = store_table(table, tmp_path)
    assert path is not None and path.exists() and path.suffix == ".qs"
    blob = path.read_bytes()
    assert blob[32:] == table.payload_bytes()
    assert blob[:32] == hashlib.sha256(blob[32:]).digest()
    hit = load_table("pbar", table.method, mod_ring(40), 200, tmp_path)
    assert hit is not None
    assert list(hit.values) == list(table.values)
    assert hit.meta["cache_path"] == str(path)


def test_round_trip_exact_table(tmp_path):
    table = overpartition_table(ZZ, 150, Method.EULER_PRODUCT)
    path = store_table(table, tmp_path)
    # one suffix for every ring: the digest, then the JSON payload
    assert path is not None and path.suffix == ".qs"
    assert json.loads(path.read_bytes()[32:])["ring"] == "exact"
    hit = load_table("pbar", Method.EULER_PRODUCT, ZZ, 150, tmp_path)
    assert hit is not None and tuple(hit.values) == tuple(table.values)


def test_load_misses(tmp_path):
    table = overpartition_table(mod_ring(8), 100)
    assert load_table("pbar", table.method, mod_ring(8), 100, tmp_path) is None
    store_table(table, tmp_path)
    # different length, ring, or method are different keys
    assert load_table("pbar", table.method, mod_ring(8), 101, tmp_path) is None
    assert load_table("pbar", table.method, mod_ring(40), 100, tmp_path) is None
    assert load_table("pbar", Method.EULER_PRODUCT, mod_ring(8), 100, tmp_path) is None


def test_corrupted_payload_is_a_miss(tmp_path):
    table = overpartition_table(mod_ring(8), 100)
    path = store_table(table, tmp_path)
    blob = bytearray(path.read_bytes())
    blob[32 + 30] ^= 0xFF
    path.write_bytes(bytes(blob))
    assert load_table("pbar", table.method, mod_ring(8), 100, tmp_path) is None


def test_flipped_digest_byte_is_a_miss(tmp_path):
    table = overpartition_table(mod_ring(8), 100)
    path = store_table(table, tmp_path)
    blob = bytearray(path.read_bytes())
    blob[5] ^= 0x01
    path.write_bytes(bytes(blob))
    assert load_table("pbar", table.method, mod_ring(8), 100, tmp_path) is None


@pytest.mark.parametrize("size", [0, 1, 31])
def test_empty_and_short_files_are_misses(tmp_path, size):
    path = _path(tmp_path, "pbar", Method.THETA_INVERSION, mod_ring(8), 100)
    path.write_bytes(bytes(range(size)))
    assert load_table("pbar", Method.THETA_INVERSION, mod_ring(8), 100, tmp_path) is None


def test_corrupted_exact_entry_is_a_miss(tmp_path):
    table = overpartition_table(ZZ, 60)
    path = store_table(table, tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-4] ^= 0x01  # a digit of the last coefficient: still valid JSON
    path.write_bytes(bytes(blob))
    assert load_table("pbar", table.method, ZZ, 60, tmp_path) is None
    # so is a digest-valid payload that is not a JSON series
    for junk in (
        b"\xff\xfe",
        b"{not json",
        b"[1]",
        b'{"ring": "exact", "order": 1, "coeffs": [[1]]}',
    ):
        path.write_bytes(hashlib.sha256(junk).digest() + junk)
        assert load_table("pbar", table.method, ZZ, 60, tmp_path) is None


def test_sidecar_entry_is_a_miss_and_the_next_store_replaces_it(tmp_path):
    # the earlier layout: the bare payload, its digest in a JSON sidecar
    table = overpartition_table(mod_ring(120), 300)
    payload = table.payload_bytes()
    path = _path(tmp_path, "pbar", table.method, table.ring, 300)
    path.write_bytes(payload)
    sidecar = path.with_name(path.name[: -len(".qs")] + ".meta.json")
    sidecar.write_text(json.dumps({"sha256": hashlib.sha256(payload).hexdigest()}))
    assert load_table("pbar", table.method, mod_ring(120), 300, tmp_path) is None
    assert store_table(table, tmp_path) == path
    assert path.read_bytes() == hashlib.sha256(payload).digest() + payload
    hit = load_table("pbar", table.method, mod_ring(120), 300, tmp_path)
    assert hit is not None and np.array_equal(hit.values, table.values)


def test_unwritable_directory_degrades_with_warning(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where a directory is needed")
    table = overpartition_table(mod_ring(8), 50)
    with pytest.warns(UserWarning, match="computing without caching"):
        assert store_table(table, blocker / "sub") is None


def test_no_temp_files_left_behind(tmp_path):
    store_table(overpartition_table(mod_ring(8), 100), tmp_path)
    store_table(overpartition_table(ZZ, 60), tmp_path)
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
    assert leftovers == []
    assert len(list(tmp_path.iterdir())) == 2  # one file per table


def test_failed_rename_warns_and_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.warns(UserWarning, match="rename refused"):
        assert store_table(overpartition_table(mod_ring(8), 100), tmp_path) is None
    assert list(tmp_path.iterdir()) == []


def _python(code: str, *args: str) -> str:
    src = str(Path(ovp.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    return done.stdout


def test_openssl_loads_at_the_first_cache_access_only(tmp_path):
    # hashlib loads OpenSSL (_hashlib), about 3 MB of resident pages; a
    # process that computes without the cache should not pay for it
    if _python("import sys; print('_hashlib' in sys.modules)") == "True\n":
        pytest.skip("this interpreter loads _hashlib at start-up")
    out = _python(
        """
        import sys
        import ovp, ovp.cli
        from ovp import ThetaKind, cache, mod_ring, overpartition_table, theta_series
        def loaded():
            return [m for m in ("_hashlib", "hmac") if m in sys.modules]
        theta_series(ThetaKind.PHI_PLUS, mod_ring(2**31 - 1), 2001) ** 5
        table = overpartition_table(mod_ring(8), 2001)
        assert ovp.cli.main(["compute", "theta", "-T", "50", "--no-cache"]) == 0
        print(loaded())
        cache.store_table(table, sys.argv[1])
        hit = cache.load_table("pbar", table.method, table.ring, 2001, sys.argv[1])
        print(loaded(), hit is not None)
        """,
        str(tmp_path),
    )
    assert out.splitlines()[-2:] == ["[]", "['_hashlib'] True"]


def test_residue_payload_is_one_byte_per_word_mod120(tmp_path):
    table = overpartition_table(mod_ring(120), 1000)
    path = store_table(table, tmp_path)
    assert path.stat().st_size == 32 + 21 + 1000
    hit = load_table("pbar", table.method, mod_ring(120), 1000, tmp_path)
    assert np.array_equal(hit.values, table.values)


def test_int64_word_payload_with_valid_digest_is_a_miss(tmp_path):
    # the layout before residues took the narrowest word: 8 bytes each
    table = overpartition_table(mod_ring(120), 300)
    payload = b"QS01" + struct.pack("<BQQ", 1, 120, 300)
    payload += np.asarray(table.values, dtype="<i8").tobytes()
    path = _path(tmp_path, "pbar", table.method, table.ring, 300)
    path.write_bytes(hashlib.sha256(payload).digest() + payload)
    assert load_table("pbar", table.method, mod_ring(120), 300, tmp_path) is None


def test_digest_valid_payload_of_another_ring_or_order_is_a_miss(tmp_path):
    # the payload's own header must match the key it is stored under
    for ring, length, stored in (
        (mod_ring(120), 300, overpartition_table(mod_ring(40), 300)),
        (mod_ring(120), 300, overpartition_table(mod_ring(120), 299)),
        (ZZ, 60, overpartition_table(ZZ, 59)),
    ):
        method = stored.method
        path = _path(tmp_path, "pbar", method, ring, length)
        payload = stored.payload_bytes()
        path.write_bytes(hashlib.sha256(payload).digest() + payload)
        assert load_table("pbar", method, ring, length, tmp_path) is None
        payload = overpartition_table(ring, length).payload_bytes()
        path.write_bytes(hashlib.sha256(payload).digest() + payload)
        assert load_table("pbar", method, ring, length, tmp_path) is not None


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_cache_files_follow_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        path = store_table(overpartition_table(mod_ring(8), 100), tmp_path)
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == mode


def _write_entry(cache_dir, modulus, words):
    """A digest-valid QS01 entry for pbar mod ``modulus``, written by hand."""
    length = len(words)
    payload = b"QS01" + struct.pack("<BQQ", 1, modulus, length) + words.tobytes()
    path = _path(cache_dir, "pbar", Method.THETA_INVERSION, mod_ring(modulus), length)
    cache_dir.mkdir(exist_ok=True)
    path.write_bytes(hashlib.sha256(payload).digest() + payload)
    return payload


def test_cache_hit_is_one_narrow_read_only_vector(tmp_path):
    table = overpartition_table(mod_ring(120), 1000)
    store_table(table, tmp_path)
    hit = load_table("pbar", table.method, mod_ring(120), 1000, tmp_path)
    assert hit.values.dtype == np.uint8 and not hit.values.flags.writeable
    assert np.array_equal(hit.values, table.values)


# Digests of the payloads of pbar mod m at length 1000 in the QS01 layout
# (header, then one narrowest little-endian word per residue); a change to
# the bytes the cache writes fails here, and would turn old entries into misses.
@pytest.mark.parametrize(
    "modulus, dtype, digest",
    [
        (120, "<u1", "f3511afe171e7249bbdf1d708fc42adb89edb041c78a0f59f49e08327d536493"),
        (1920, "<u2", "7632a336dfe969ef8295c33c3e72acb3d6a6d2cc46d10e714c66d8909f84029c"),
        (2**31 - 1, "<u4", "ec7b53b8ee5e5fd2de4d58ccf5c8d810047ba2b55121a8663d0f6958bcf4c149"),
    ],
)
def test_payload_bytes_are_pinned_and_hand_written_entries_hit(
    tmp_path, modulus, dtype, digest
):
    table = overpartition_table(mod_ring(modulus), 1000)
    payload = _write_entry(tmp_path / "hand", modulus, np.asarray(table.values, dtype))
    assert hashlib.sha256(payload).hexdigest() == digest
    hit = load_table("pbar", table.method, mod_ring(modulus), 1000, tmp_path / "hand")
    assert hit is not None and np.array_equal(hit.values, table.values)

    path = store_table(table, tmp_path / "stored")
    assert path.read_bytes() == bytes.fromhex(digest) + payload
    assert payload == table.payload_bytes()


def test_digest_valid_words_past_the_modulus_load_as_canonical_residues(tmp_path):
    words = np.array([1, 2, 119, 120, 200, 255], dtype="<u1")
    _write_entry(tmp_path, 120, words)
    hit = load_table("pbar", Method.THETA_INVERSION, mod_ring(120), 6, tmp_path)
    assert hit.values.tolist() == [1, 2, 119, 0, 80, 15]
    assert hit.values.dtype == np.uint8 and not hit.values.flags.writeable


def test_loading_a_residue_table_makes_no_wide_copy(tmp_path):
    T = 10**6
    words = np.random.default_rng(5).integers(0, 120, T, dtype=np.uint8)
    _write_entry(tmp_path, 120, words)
    tracemalloc.start()
    try:
        hit = load_table("pbar", Method.THETA_INVERSION, mod_ring(120), T, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hit is not None and np.array_equal(hit.values, words)
    # the payload is 1 MB: any copy of it, or widening to int64, fails here
    assert peak < 1.5 * 10**6, peak

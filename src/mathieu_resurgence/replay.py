"""Replay of a repeated command, and the key of the code behind every
cache entry.

``python -m mathieu_resurgence`` and the ``mathieu-resurgence`` script
(``__main__.main``) look up their argv here before the CLI is imported.
A successful run of the CLI records the exact text it printed on stdout;
the same argv, run again by the same interpreter on the same package
source, prints that text again without parsing an option or reading a
payload.  Replay is on exactly when ``MATHIEU_RESURGENCE_CACHE`` names a
directory (a non-empty value), and its entries sit there beside the
payload entries of ``cli._cached``.

An entry is one header line, the key and a CRC-32 of the body, then the
body: the stdout text in UTF-8.  The key is ``[sys.hexversion, package
CRC, argv]`` written by ``ascii``, so it is one line whatever the argv
holds, and the file is named after the key's CRC alone.  An entry is
served only when its header equals the one computed from the key and the
body read, so a truncated entry, an entry of another key and a foreign
file are misses.
"""
import functools
import os
import sys
import zlib


@functools.lru_cache(maxsize=None)
def _package_crc() -> int:
    """One CRC-32 chained over the name, modification time and bytes of
    every ``*.py`` file in the package, in sorted order, computed once per
    process.  Python runs a cached ``.pyc`` while the source's size and
    whole-second mtime match it, so an edit that keeps both is computed by
    the old code until the file is touched; the touch makes a new key."""
    pkg = os.path.dirname(__file__)
    crc = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            path = os.path.join(pkg, name)
            stamp = f"{name}:{os.stat(path).st_mtime_ns}"
            with open(path, "rb") as fh:
                crc = zlib.crc32(fh.read(), zlib.crc32(stamp.encode(), crc))
    return crc


def code_key() -> list:
    """The interpreter and the package source that compute a result: the
    interpreter's ``sys.hexversion`` and the package CRC."""
    return [sys.hexversion, _package_crc()]


def store(path: str, data: bytes) -> None:
    """Write one cache entry through a temporary file renamed into place,
    so a reader never sees a partial entry.  Makes the directory; raises
    ``OSError`` when the entry cannot be written, and leaves no temporary
    file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def cache_dir() -> str:
    """The cache directory of payload and replay entries; empty when the
    cache is off."""
    return os.environ.get("MATHIEU_RESURGENCE_CACHE", "")


def _entry(argv: list[str]) -> tuple[str, str] | None:
    """The path and key text of the replay entry of ``argv``; None when
    the cache is off."""
    root = cache_dir()
    if not root:
        return None
    key = ascii(code_key() + [list(argv)])
    return os.path.join(root, f"replay-{zlib.crc32(key.encode()):08x}.txt"), key


def replay(argv: list[str]) -> str | None:
    """The stdout text recorded for ``argv``, or None on a miss."""
    entry = _entry(argv)
    if entry is None:
        return None
    path, key = entry
    try:
        with open(path, "rb") as fh:
            head, _, body = fh.read().partition(b"\n")
        if head != f"{key} {zlib.crc32(body):08x}".encode():
            return None
        return body.decode()
    except (OSError, ValueError):
        return None


def record(argv: list[str], text: str) -> None:
    """Record ``text``, the whole stdout of a successful run of ``argv``.
    Best effort: an entry that cannot be written only costs the next run
    its replay, and the payload cache has already reported a directory
    that cannot be written, so nothing is said."""
    entry = _entry(argv)
    if entry is None:
        return
    path, key = entry
    body = text.encode()
    try:
        store(path, f"{key} {zlib.crc32(body):08x}\n".encode() + body)
    except OSError:
        pass

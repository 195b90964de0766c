"""The cache: the recorded stdout of a command, and the key of the code
behind it.

``python -m mathieu_resurgence`` and the ``mathieu-resurgence`` script
(``__main__.main``) store the exact stdout of a successful run under its
argv and look the argv up before the CLI is imported, so the same argv,
run again by the same interpreter on the same package source, prints that
text again without parsing an option or computing anything.  The cache is
on exactly when ``MATHIEU_RESURGENCE_CACHE`` names a directory (a
non-empty value).

An entry is one header line, the full key and a CRC-32 of the body, then
the body in UTF-8.  The full key is ``code_key()`` followed by the argv,
written by ``ascii``, so it is one line whatever the argv holds; the file
is named ``replay-`` and the CRC-32 of the full key.  An entry is served
only when its header equals the one computed from the argv and the body
read, so a truncated or edited entry, an entry of another key and a
foreign file are misses.
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


def _entry(argv: list) -> tuple[str, str] | None:
    """The path and full key text of the entry of ``argv``; None when the
    cache is off."""
    root = os.environ.get("MATHIEU_RESURGENCE_CACHE", "")
    if not root:
        return None
    text = ascii(code_key() + [argv])
    return os.path.join(root, f"replay-{zlib.crc32(text.encode()):08x}.txt"), text


def lookup(argv: list) -> str | None:
    """The stdout recorded for ``argv``, or None on a miss."""
    entry = _entry(argv)
    if entry is None:
        return None
    path, text = entry
    try:
        with open(path, "rb") as fh:
            head, _, body = fh.read().partition(b"\n")
        if head != f"{text} {zlib.crc32(body):08x}".encode():
            return None
        return body.decode()
    except (OSError, ValueError):
        return None


def put(argv: list, text: str) -> None:
    """Record ``text`` as the stdout of ``argv``; nothing when the cache is
    off.  The entry is written to a temporary file and renamed into place,
    so a reader never sees a partial entry.  Makes the directory; raises
    ``OSError`` when the entry cannot be written, and leaves no temporary
    file behind."""
    entry = _entry(argv)
    if entry is None:
        return
    path, head = entry
    body = text.encode()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "wb") as fh:
            fh.write(f"{head} {zlib.crc32(body):08x}\n".encode() + body)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise

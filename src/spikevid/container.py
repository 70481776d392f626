"""The frame shared by checkpoints (SVCKPT01) and clip sets (CLIPSET1): an
8-byte magic, a body that starts with a ``<I`` format version, and the
body's CRC32 as ``<I``. A file that cannot be read raises the caller's error.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib


def write(path, magic, version, body):
    """Write beside ``path``, then rename over it: a failed write leaves the
    previous file whole and removes its own partial file."""
    body = struct.pack("<I", version) + bytes(body)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic)
            fh.write(body)
            fh.write(struct.pack("<I", zlib.crc32(body)))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


class Reader:
    """A cursor over a body; reading past its end raises the caller's error."""

    def __init__(self, body, error, kind):
        self.body, self.off, self.error, self.kind = body, 0, error, kind

    def take(self, n):
        if self.off + n > len(self.body):
            raise self.error(f"{self.kind} file truncated")
        self.off += n
        return self.body[self.off - n:self.off]

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def read(path, magic, version, error, parse):
    """Check the frame, then return ``parse(reader)`` over the body."""
    with open(path, "rb") as fh:
        blob = fh.read()
    kind = magic.decode()
    if len(blob) < len(magic) + 8 or blob[:len(magic)] != magic:
        raise error(f"not a {kind} file (bad magic)")
    body, (checksum,) = blob[len(magic):-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != checksum:
        raise error(f"{kind} file corrupt (checksum mismatch)")
    reader = Reader(body, error, kind)
    (got,) = reader.unpack("<I")
    if got != version:
        raise error(f"unsupported {kind} version {got}")
    try:
        return parse(reader)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise error(f"{kind} body malformed ({exc!r})") from None

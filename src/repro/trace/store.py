"""Persistent on-disk trace store: one binary container per fingerprint.

Captured traces are deterministic given their key, so a trace keyed by
:meth:`~repro.trace.capture.TraceKey.fingerprint` never goes stale —
sweeps and repeated figure regeneration skip every capture they have
already performed, across process invocations.  Layout::

    ~/.cache/repro/traces-v<TRACE_SCHEMA>/<fingerprint>.trace

The root follows the result store's conventions exactly
(``REPRO_CACHE_DIR`` override, XDG fallback), and so does the failure
discipline: writes are atomic (temp file + ``os.replace``), and a
container that fails to parse, fails its checksum, or carries the
wrong fingerprint is **quarantined** into ``corrupt/`` with a
``.reason`` sidecar — evidence for ``python -m repro doctor``, never a
silent recompute-over.

Container format (all integers little-endian)::

    magic      8 bytes   b"REPROTRC"
    headerlen  4 bytes   length of the JSON header
    header     JSON      schema, fingerprint, label, meta, fill
                         ranges, and the column manifests of exactly
                         two sections: ``warm``, then ``stream0``
    payload    raw bytes the column arrays, concatenated in
                         manifest order
    digest     32 bytes  SHA-256 over everything above

The header carries each column's byte length, so a reader can slice
the payload without trusting anything but the (checksummed) header.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import struct
import sys
import tempfile

from repro.faults.manifest import atomic_write_json
from repro.trace.capture import CapturedTrace
from repro.trace.codec import COLUMNS, TRACE_SCHEMA, EncodedStream

__all__ = ["TraceFormatError", "TraceStore", "serialize", "deserialize"]

_MAGIC = b"REPROTRC"
_HEADER_LEN = struct.Struct("<I")
_DIGEST_BYTES = 32
#: The section names of every container, in payload order.
_SECTIONS = ("warm", "stream0")


class TraceFormatError(ValueError):
    """A trace container that cannot be trusted (torn, renamed, alien)."""


def _stream_manifest(name: str, stream: EncodedStream) -> dict:
    return {
        "name": name,
        "uops": len(stream),
        "columns": [
            {"name": column_name,
             "nbytes": len(column) * column.itemsize}
            for (column_name, _), column in zip(COLUMNS, stream.columns())
        ],
    }


def serialize(captured: CapturedTrace) -> bytes:
    """The binary container for one captured trace."""
    sections = tuple(zip(_SECTIONS, (captured.warm, captured.stream)))
    header = {
        "schema": TRACE_SCHEMA,
        "fingerprint": captured.fingerprint,
        "label": captured.label,
        "byteorder": sys.byteorder,
        "meta": captured.meta,
        "fill_ranges": [[base, nbytes]
                        for base, nbytes in captured.fill_ranges],
        "sections": [_stream_manifest(name, stream)
                     for name, stream in sections],
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    parts = [_MAGIC, _HEADER_LEN.pack(len(header_bytes)), header_bytes]
    for _, stream in sections:
        parts.extend(column.tobytes() for column in stream.columns())
    body = b"".join(parts)
    return body + hashlib.sha256(body).digest()


def _decode_section(manifest: dict, payload: bytes, offset: int
                    ) -> tuple[EncodedStream, int]:
    columns: dict[str, bytes] = {}
    expected = [name for name, _ in COLUMNS]
    declared = [entry["name"] for entry in manifest["columns"]]
    if declared != expected:
        raise TraceFormatError(
            f"section {manifest.get('name')!r} declares columns "
            f"{declared}, expected {expected}")
    for entry in manifest["columns"]:
        nbytes = entry["nbytes"]
        chunk = payload[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise TraceFormatError(
                f"truncated payload in section {manifest.get('name')!r}")
        columns[entry["name"]] = chunk
        offset += nbytes
    try:
        stream = EncodedStream.from_columns(columns)
    except ValueError as exc:
        raise TraceFormatError(f"undecodable column bytes: {exc}") from exc
    if len(stream) != manifest["uops"]:
        raise TraceFormatError(
            f"section {manifest.get('name')!r} decodes to {len(stream)} "
            f"uops, header says {manifest['uops']}")
    return stream, offset


def deserialize(data: bytes) -> CapturedTrace:
    """Parse a container; raises :class:`TraceFormatError` on any defect."""
    if len(data) < len(_MAGIC) + _HEADER_LEN.size + _DIGEST_BYTES:
        raise TraceFormatError("container shorter than its fixed framing")
    if data[:len(_MAGIC)] != _MAGIC:
        raise TraceFormatError("bad magic (not a trace container)")
    body, digest = data[:-_DIGEST_BYTES], data[-_DIGEST_BYTES:]
    if hashlib.sha256(body).digest() != digest:
        raise TraceFormatError("checksum mismatch (torn or tampered write)")
    header_len, = _HEADER_LEN.unpack_from(body, len(_MAGIC))
    header_start = len(_MAGIC) + _HEADER_LEN.size
    header_bytes = body[header_start:header_start + header_len]
    if len(header_bytes) != header_len:
        raise TraceFormatError("truncated header")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"unparsable header: {exc}") from exc
    if header.get("schema") != TRACE_SCHEMA:
        raise TraceFormatError(
            f"schema {header.get('schema')!r} inside the "
            f"v{TRACE_SCHEMA} store")
    if header.get("byteorder") != sys.byteorder:
        raise TraceFormatError(
            f"container written on a {header.get('byteorder')!r}-endian "
            f"host, this host is {sys.byteorder!r}-endian")
    payload = body[header_start + header_len:]
    try:
        sections = header["sections"]
        names = tuple(manifest["name"] for manifest in sections)
        fill_ranges = tuple((int(base), int(nbytes))
                            for base, nbytes in header["fill_ranges"])
        fingerprint = header["fingerprint"]
        label = header["label"]
        meta = header.get("meta", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"malformed header fields: {exc}") from exc
    if names != _SECTIONS:
        raise TraceFormatError(
            f"sections {list(names)}, expected {list(_SECTIONS)}")
    offset = 0
    streams: list[EncodedStream] = []
    try:
        for manifest in sections:
            stream, offset = _decode_section(manifest, payload, offset)
            streams.append(stream)
    except (KeyError, TypeError) as exc:
        raise TraceFormatError(f"malformed section manifest: {exc}") from exc
    if offset != len(payload):
        raise TraceFormatError(
            f"{len(payload) - offset} trailing payload byte(s)")
    return CapturedTrace(
        fingerprint=fingerprint,
        label=label,
        fill_ranges=fill_ranges,
        warm=streams[0],
        stream=streams[1],
        meta=meta,
    )


def _atomic_write_bytes(path: pathlib.Path, data: bytes) -> None:
    """Temp file + ``os.replace``: a kill mid-write never tears."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent),
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class TraceStore:
    """A directory of fingerprint-keyed trace containers."""

    def __init__(self, root: str | pathlib.Path | None = None) -> None:
        if root is None:
            # Imported lazily: core.store imports the runner, which
            # imports the trace pipeline — a module-level import here
            # would close that cycle.
            from repro.core.store import default_cache_dir

            root = default_cache_dir()
        self.root = pathlib.Path(root)
        self.directory = self.root / f"traces-v{TRACE_SCHEMA}"
        self.corrupt_directory = self.root / "corrupt"

    def path_for(self, fingerprint: str) -> pathlib.Path:
        return self.directory / f"{fingerprint}.trace"

    def _decode(self, path: pathlib.Path, fingerprint: str
                ) -> tuple[CapturedTrace | None, str | None]:
        """``(trace, None)``, ``(None, reason)``, or ``(None, None)``."""
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None, None
        except OSError as exc:
            return None, f"unreadable: {exc}"
        try:
            captured = deserialize(data)
        except TraceFormatError as exc:
            return None, str(exc)
        if captured.fingerprint != fingerprint:
            return None, (f"fingerprint field {captured.fingerprint!r} "
                          "does not match the filename (renamed or copied "
                          "container)")
        return captured, None

    def get(self, fingerprint: str) -> CapturedTrace | None:
        """The stored trace, or None on a miss.

        A defective container is also a miss, but it is quarantined
        first so the evidence survives recomputation.
        """
        captured, defect = self._decode(self.path_for(fingerprint),
                                        fingerprint)
        if defect is not None:
            self.quarantine(fingerprint, defect)
            return None
        return captured

    def put(self, captured: CapturedTrace) -> None:
        """Persist a captured trace atomically under its fingerprint."""
        _atomic_write_bytes(self.path_for(captured.fingerprint),
                            serialize(captured))

    def quarantine(self, fingerprint: str, reason: str) -> pathlib.Path | None:
        """Move a defective container into ``corrupt/`` with a reason."""
        source = self.path_for(fingerprint)
        target = self.corrupt_directory / source.name
        self.corrupt_directory.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(source, target)
        except OSError:
            return None  # vanished (or unmovable) concurrently
        atomic_write_json(target.with_suffix(".reason"),
                          {"fingerprint": fingerprint, "reason": reason})
        return target

    def entries(self) -> list[dict]:
        """Header metadata for every stored trace, filename-sorted."""
        listing = []
        if not self.directory.is_dir():
            return listing
        for path in sorted(self.directory.glob("*.trace")):
            captured, defect = self._decode(path, path.stem)
            if captured is None:
                continue  # vanished or defective; doctor reports those
            listing.append({
                "fingerprint": captured.fingerprint,
                "label": captured.label,
                "uops": captured.total_uops(),
                "bytes": path.stat().st_size,
                "meta": captured.meta,
            })
        return listing

    def remove(self, prefix: str) -> int:
        """Unlink entries whose fingerprint starts with ``prefix``."""
        removed = 0
        if not self.directory.is_dir():
            return removed
        for path in sorted(self.directory.glob("*.trace")):
            if path.stem.startswith(prefix):
                try:
                    path.unlink()
                    removed += 1
                except FileNotFoundError:
                    pass
        return removed

    def clear(self) -> int:
        """Remove every current-version trace; returns how many."""
        return self.remove("")

    def doctor(self, repair: bool = True) -> dict:
        """Scan every container; quarantine (or just report) defects."""
        scanned = 0
        healthy = 0
        defects: list[tuple[str, str]] = []
        if self.directory.is_dir():
            for path in sorted(self.directory.glob("*.trace")):
                captured, defect = self._decode(path, path.stem)
                if captured is None and defect is None:
                    continue  # removed while we scanned
                scanned += 1
                if defect is None:
                    healthy += 1
                    continue
                defects.append((path.stem, defect))
                if repair:
                    self.quarantine(path.stem, defect)
        corrupt = len(list(self.corrupt_directory.glob("*.trace"))) \
            if self.corrupt_directory.is_dir() else 0
        return {
            "path": str(self.directory),
            "scanned": scanned,
            "healthy": healthy,
            "defects": defects,
            "repaired": repair,
            "corrupt_entries": corrupt,
            "stale_versions": self._stale_versions(),
        }

    def _stale_versions(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(
            p.name for p in self.root.glob("traces-v*")
            if p.is_dir() and p != self.directory
        )

    def stats(self) -> dict:
        """Entry count, total bytes, and stale-version leftovers."""
        entries = 0
        nbytes = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.trace"):
                try:
                    nbytes += path.stat().st_size
                except FileNotFoundError:
                    continue  # unlinked by a concurrent clear()
                entries += 1
        corrupt = len(list(self.corrupt_directory.glob("*.trace"))) \
            if self.corrupt_directory.is_dir() else 0
        return {
            "path": str(self.directory),
            "entries": entries,
            "bytes": nbytes,
            "corrupt_entries": corrupt,
            "stale_versions": self._stale_versions(),
        }

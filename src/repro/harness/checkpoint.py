"""Content-addressed on-disk store for replay checkpoints.

A checkpoint is one of the quiescent snapshots
:mod:`repro.harness.sharding` takes during a replay — the full
simulator + array state, the submitted-request count and the failures
so far, pickled without any per-request object — persisted so a later
replay of the same cell can resume from the longest matching trace
prefix instead of re-simulating from ``t=0``.  A **cut** stands at an
idle arrival; a **tail** stands at the horizon of a run that drained
there.  The run's final :class:`ShardReplayResult` is stored too: a
byte-identical re-run pays only the store lookup, a ``--duration``
extension resumes from the stored run's tail when it is valid (see
:meth:`CheckpointScope.lookup_cut`) and otherwise from the deepest cut
inside the new trace, and everything else falls back to a cold replay.

Keying follows the same fingerprint discipline as
:class:`repro.harness.runner.ResultCache`:

* the **scope** (one directory per keyed configuration) hashes the cell
  configuration — workload identity, policy, array geometry,
  reliability parameters — together with :func:`code_fingerprint` and a
  schema number, so any change to the simulator's code invalidates every
  checkpoint it wrote;
* each **cut entry** additionally records the number of trace records
  consumed and a digest of those records plus the next one (the cut
  stands at that record's arrival instant), so a checkpoint is only ever
  resumed into a trace whose prefix is bit-identical to the one that
  produced it (this is what makes ``--duration`` extension
  safe: the synthetic generators emit identical prefixes for longer
  durations, and the digest proves it);
* each **tail entry** records every record the stored run consumed and
  a digest of exactly those, plus the run's last-arrival clock and
  horizon as exact hex floats, which decide whether a longer trace's
  next arrival leaves the stored run's settle untouched;
* each **final entry** is additionally keyed on the full record count,
  the measurement-horizon inputs (duration, settle) and the finalize
  flag — everything that distinguishes one complete replay from another
  within a scope.

Entries are written atomically (tmp + rename) in a self-describing
container: a magic line, a JSON header, then the raw payload pickle.
The header names the repro version and the pinned pickle protocol
(:data:`repro.harness.sharding.PICKLE_PROTOCOL`); a mismatch on either
raises :class:`CheckpointVersionError` naming both sides, so a stale
store can never silently corrupt a resume.  A *corrupted* entry
(truncated payload, garbage header) is quietly deleted and treated as a
miss — the replay falls back to cold and rewrites it.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import typing

from repro import __version__ as _REPRO_VERSION
from repro.harness.runner import code_fingerprint

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.traces.records import TraceRecord

#: Bump when the entry container format changes incompatibly.
STORE_SCHEMA = 1

_MAGIC = b"afraid-checkpoint/1\n"


class CheckpointError(RuntimeError):
    """Base class for checkpoint-store failures."""


class CheckpointVersionError(CheckpointError):
    """A checkpoint was written by a different repro version or pickle
    protocol than this process uses; resuming from it is refused."""


def _pickle_protocol() -> int:
    from repro.harness.sharding import PICKLE_PROTOCOL

    return PICKLE_PROTOCOL


#: The exact doubles and integers of one trace record, as the digest packs them.
_RECORD = struct.Struct("<dqqBB")


class PrefixDigest:
    """Running order-sensitive fingerprint of a record sequence's prefixes.

    :meth:`at` extends one sha256 forward from the last position asked
    for, so a replay asking for ascending positions (cut lookups, cut
    stores, then the final entry) packs each record once.  Asking for an
    earlier position restarts from record 0.  Two prefixes digest equal
    iff the replay would see bit-identical arrivals.
    """

    __slots__ = ("records", "position", "packed", "_sha")

    def __init__(self, records: typing.Sequence["TraceRecord"]) -> None:
        self.records = records
        self.position = 0
        #: Records packed so far, restarts included.
        self.packed = 0
        self._sha = hashlib.sha256()

    def at(self, upto: int) -> str:
        """Hex digest of ``records[:upto]``."""
        if upto < self.position:
            self._sha = hashlib.sha256()
            self.position = 0
        update = self._sha.update
        pack = _RECORD.pack
        fresh = self.records[self.position:upto]
        for record in fresh:
            update(
                pack(
                    record.time_s,
                    record.offset_sectors,
                    record.nsectors,
                    1 if record.is_write else 0,
                    1 if record.sync else 0,
                )
            )
        self.packed += len(fresh)
        self.position = upto
        return self._sha.copy().hexdigest()


class CheckpointScope:
    """One keyed configuration's slice of the store (a subdirectory)."""

    def __init__(self, store: "CheckpointStore", key: str) -> None:
        self.store = store
        self.key = key
        self.path = os.path.join(store.root, key)
        self._digest: PrefixDigest | None = None

    def _prefix_sha(self, records: typing.Sequence["TraceRecord"], upto: int) -> str:
        """Digest of ``records[:upto]``, kept running across this scope's
        lookups and stores for as long as they name the same sequence."""
        digest = self._digest
        if digest is None or digest.records is not records:
            digest = self._digest = PrefixDigest(records)
        return digest.at(upto)

    # -- entry I/O ---------------------------------------------------------------

    def _write(self, filename: str, header: dict, payload: bytes) -> None:
        os.makedirs(self.path, exist_ok=True)
        header = dict(header)
        header["version"] = _REPRO_VERSION
        header["protocol"] = _pickle_protocol()
        path = os.path.join(self.path, filename)
        tmp = f"{path}.tmp.{os.getpid()}"
        blob = _MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + payload
        try:
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            # Best-effort store: a full disk must not fail the replay.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _read(self, filename: str) -> tuple[dict, bytes] | None:
        """Header + payload, or ``None`` for missing/corrupt entries.

        Corrupt entries are deleted on sight.  A version or protocol
        mismatch raises :class:`CheckpointVersionError` instead — the
        entry is intact, it just belongs to a different repro build, and
        silently resuming from it is exactly the failure mode the pinned
        header exists to prevent.
        """
        path = os.path.join(self.path, filename)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        try:
            if not blob.startswith(_MAGIC):
                raise ValueError("bad magic")
            rest = blob[len(_MAGIC):]
            header_line, _, payload = rest.partition(b"\n")
            header = json.loads(header_line)
            declared = header["payload_bytes"]
        except (ValueError, KeyError):
            self._discard(path)
            return None
        if header.get("version") != _REPRO_VERSION or header.get("protocol") != _pickle_protocol():
            raise CheckpointVersionError(
                f"checkpoint {path} was written by repro "
                f"{header.get('version')!r} (pickle protocol {header.get('protocol')!r}) "
                f"but this is repro {_REPRO_VERSION!r} (pickle protocol "
                f"{_pickle_protocol()!r}); delete the store or point "
                f"--checkpoint-dir at a fresh directory"
            )
        if len(payload) != declared:
            # Truncated write (crash mid-store): recover by discarding.
            self._discard(path)
            return None
        return header, payload

    def _discard(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- cuts and tails -----------------------------------------------------------

    def store_cut(
        self,
        records: typing.Sequence["TraceRecord"],
        consumed: int,
        payload: bytes,
        tail: tuple[float, float] | None = None,
    ) -> None:
        """Persist a snapshot taken after ``consumed`` records were submitted.

        A **cut** (``tail=None``) stands at record ``consumed``'s arrival
        and is keyed on ``records[:consumed + 1]``.  A **tail** stands at
        the horizon of a run that consumed every record
        (``consumed == len(records)``) and drained; ``tail`` is that run's
        ``(last-arrival clock, horizon)``, recorded as exact hex floats,
        and the entry is keyed on ``records[:consumed]``.
        """
        if tail is None:
            name = f"cut-{consumed:08d}.ckpt"
            header = {"kind": "cut", "prefix_sha": self._prefix_sha(records, consumed + 1)}
        else:
            clock, horizon = tail
            name = f"tail-{consumed:08d}.ckpt"
            header = {
                "kind": "tail",
                "prefix_sha": self._prefix_sha(records, consumed),
                "clock": clock.hex(),
                "horizon": horizon.hex(),
            }
        header["consumed"] = consumed
        header["payload_bytes"] = len(payload)
        self._write(name, header, payload)

    def lookup_cut(
        self, records: typing.Sequence["TraceRecord"], duration_s: float | None = None
    ) -> tuple[int, bytes, float | None] | None:
        """``(consumed, payload, clock)`` of the deepest valid cut or tail for
        a replay of ``records`` over ``duration_s``.

        A cut is valid when its record prefix matches (``clock`` is then
        ``None``).  A tail is valid when its prefix matches and nothing
        the new run adds can reach the stored run before its horizon: the
        next record's arrival — ``clock + (time_s - clock)``, the sum
        :class:`repro.harness.replay._Feeder` schedules it at — comes
        strictly after the stored horizon, or, when no record follows,
        ``duration_s`` does (the resumed run then measures to
        ``duration_s + extra_settle_s``, as the direct one does).  The
        caller rewinds the restored clock to the tail's ``clock`` before
        re-arming the feed.
        """
        try:
            names = os.listdir(self.path)
        except OSError:
            return None
        total = len(records)
        candidates: list[tuple[int, int, str]] = []
        for name in names:
            kind, _, rest = name.partition("-")
            if kind not in ("cut", "tail") or not rest.endswith(".ckpt"):
                continue
            try:
                consumed = int(rest[:-5])
            except ValueError:
                continue
            if kind == "cut" and 0 < consumed < total:
                # A cut stands at record ``consumed``'s arrival, so that
                # record must exist in this trace.
                candidates.append((consumed, consumed + 1, name))
            elif kind == "tail" and 0 < consumed <= total:
                candidates.append((consumed, consumed, name))
        if not candidates:
            return None
        candidates.sort()
        # Ascending, so the running digest extends forward through them.
        digests = {upto: self._prefix_sha(records, upto) for _, upto, _ in candidates}
        for consumed, upto, name in reversed(candidates):
            path = os.path.join(self.path, name)
            entry = self._read(name)
            if entry is None:
                continue
            header, payload = entry
            kind = name.partition("-")[0]
            clock = None
            try:
                if header["kind"] != kind or header["consumed"] != consumed:
                    raise ValueError("header does not match the entry name")
                if kind == "tail":
                    clock = float.fromhex(header["clock"])
                    horizon = float.fromhex(header["horizon"])
            except (KeyError, TypeError, ValueError):
                self._discard(path)
                continue
            if header.get("prefix_sha") != digests[upto]:
                continue  # same scope, different trace content — not ours
            if kind == "tail":
                if consumed < total:
                    arrival = clock + (records[consumed].time_s - clock)
                    if not arrival > horizon:
                        continue
                elif duration_s is None or not duration_s > horizon:
                    continue
            return consumed, payload, clock
        return None

    # -- final results -----------------------------------------------------------

    def _final_name(
        self, nrecords: int, duration_s: float, extra_settle_s: float, finalize: bool
    ) -> str:
        tag = hashlib.sha256(
            json.dumps(
                {
                    "nrecords": nrecords,
                    "duration_s": duration_s,
                    "extra_settle_s": extra_settle_s,
                    "finalize": finalize,
                },
                sort_keys=True,
            ).encode()
        ).hexdigest()[:16]
        return f"final-{tag}.ckpt"

    def store_final(
        self,
        records: typing.Sequence["TraceRecord"],
        duration_s: float,
        extra_settle_s: float,
        finalize: bool,
        result_payload: bytes,
    ) -> None:
        """Persist a complete replay's pickled ``ShardReplayResult``."""
        self._write(
            self._final_name(len(records), duration_s, extra_settle_s, finalize),
            {
                "kind": "final",
                "consumed": len(records),
                "prefix_sha": self._prefix_sha(records, len(records)),
                "payload_bytes": len(result_payload),
            },
            result_payload,
        )

    def lookup_final(
        self,
        records: typing.Sequence["TraceRecord"],
        duration_s: float,
        extra_settle_s: float,
        finalize: bool,
    ) -> bytes | None:
        """The pickled result of an identical complete replay, if stored."""
        entry = self._read(self._final_name(len(records), duration_s, extra_settle_s, finalize))
        if entry is None:
            return None
        header, payload = entry
        if header.get("kind") != "final" or header.get("consumed") != len(records):
            return None
        if header.get("prefix_sha") != self._prefix_sha(records, len(records)):
            return None
        return payload


class CheckpointStore:
    """Directory of replay checkpoints, one subdirectory per scope key."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    def scope(self, config: dict) -> CheckpointScope:
        """The scope for one keyed configuration.

        ``config`` must be a JSON-serialisable description of everything
        (other than the trace records themselves) that determines the
        replay's evolution — policy, array geometry, reliability
        parameters.  The code fingerprint and schema are mixed in here,
        exactly as :func:`repro.harness.runner.cache_key` does for cells.
        """
        key = hashlib.sha256(
            json.dumps(
                {
                    "schema": STORE_SCHEMA,
                    "code": code_fingerprint(),
                    "config": config,
                },
                sort_keys=True,
            ).encode()
        ).hexdigest()[:24]
        return CheckpointScope(self, key)

    # -- maintenance -------------------------------------------------------------

    def _entries(self) -> list[tuple[float, int, str]]:
        """(mtime, size, path) of every entry file, oldest first."""
        found: list[tuple[float, int, str]] = []
        try:
            scopes = os.listdir(self.root)
        except OSError:
            return found
        for scope in scopes:
            scope_dir = os.path.join(self.root, scope)
            try:
                names = os.listdir(scope_dir)
            except OSError:
                continue
            for name in names:
                if not name.endswith(".ckpt"):
                    continue
                path = os.path.join(scope_dir, name)
                try:
                    info = os.stat(path)
                except OSError:
                    continue
                found.append((info.st_mtime, info.st_size, path))
        found.sort()
        return found

    def size_bytes(self) -> int:
        """Total bytes currently stored."""
        return sum(size for _, size, _ in self._entries())

    def listing(self) -> list[dict]:
        """One row per entry (scope, name, bytes) — for store audits."""
        return [
            {
                "scope": os.path.basename(os.path.dirname(path)),
                "entry": os.path.basename(path),
                "bytes": size,
            }
            for _, size, path in self._entries()
        ]

    def prune(self, max_bytes: int) -> tuple[int, int]:
        """Delete oldest entries until the store fits ``max_bytes``.

        Returns ``(entries_removed, bytes_freed)`` — the same contract as
        ``ResultCache.prune``.
        """
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        removed = freed = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed += 1
            freed += size
        # Drop scope directories emptied by the sweep (best-effort).
        for scope in os.listdir(self.root):
            scope_dir = os.path.join(self.root, scope)
            try:
                if os.path.isdir(scope_dir) and not os.listdir(scope_dir):
                    os.rmdir(scope_dir)
            except OSError:
                continue
        return removed, freed

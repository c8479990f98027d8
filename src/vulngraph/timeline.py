"""Event-sourced lifecycle of a system under test.

A timeline is the initial manifest plus a strictly ordered event log; every
snapshot is reproducible by replaying the log against a catalog, and named
epoch marks ("V1", "V2", ...) designate the release snapshots that the
accumulated metrics sum over.  Replaying the same log always yields
byte-identical serialized snapshots.

A released epoch is history: no event can be appended at or before its mark.
Each embedded epoch snapshot is held as its canonical JSON text, with a
digest of what made it (the SUT, ``built_at``, the manifest, its mark and the
events up to the mark) and of that text.  :func:`save_timeline` writes each
snapshot on a line of its own inside the one JSON document.  When every line
of a file in that layout matches its digest, :func:`load_timeline` decodes
the rest of the file once; any other text is decoded whole, and each
snapshot encoded once to verify its canonical text.  Either way a snapshot
is decoded, and checked (its shape, its ``epoch`` its label, its root the
SUT), only when a command reads that epoch, so a bad one never stops a read
of another.  Every command keeps a verified epoch, one whose snapshot has a
digest and matches it (:func:`_verified`), as stored.  It rebuilds any other
from the last verified epoch before it, decoded, or from the build
(:func:`_replay_to`), except that a read takes a snapshot without a digest
unverified and, without a catalog, refuses one that does not match.  The
catalog is not part of a digest: a released epoch keeps what it was released
with, and a catalog serves only the events applied after it.

Timestamps are ISO 8601 UTC with seconds precision (``2021-01-01T00:00:00Z``);
ties are broken by the event sequence number.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from json.decoder import scanstring

from . import cpe, graph
from .catalog import (_CVE_RE, Catalog, _expect, canonical_text, load_json, open_replacing,
                      parse_json, read_text)
from .catalog import canonical_json  # noqa: F401  (the form save_timeline writes)
from .cpe import WellFormedName
from .errors import MalformedCpe, NonMonotonicTimestamp, SchemaError, VulnGraphError
from .graph import Edg, Manifest, ManifestEntry

_TS_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z")
_DIGEST_RE = re.compile(r"[0-9a-f]{64}")
_DIGEST_TAG = "vulngraph-snapshot-1"


def validate_timestamp(at: str, path: str = "") -> str:
    if not isinstance(at, str) or not _TS_RE.fullmatch(at):
        raise SchemaError(f"bad timestamp {at!r}, want YYYY-MM-DDTHH:MM:SSZ", path)
    return at


@dataclass(frozen=True)
class LifecycleEvent:
    at: str
    seq: int
    kind: str
    asset_id: str | None = None
    cve_id: str | None = None
    cpe_value: WellFormedName | None = None
    dependencies: tuple[tuple[str, str], ...] = ()
    top_level: bool = False
    fixes: tuple[str, ...] = ()


@dataclass(frozen=True)
class EpochMark:
    label: str | None  # None only for the unnamed state of snapshot_at
    at: str


@dataclass
class Timeline:
    """Initial manifest, event log and epoch marks for one system under test."""

    sut_cpe: WellFormedName
    manifest: Manifest
    built_at: str
    events: list[LifecycleEvent] = field(default_factory=list)
    epochs: list[EpochMark] = field(default_factory=list)
    # Optional embedded epoch snapshots (label -> the snapshot's canonical
    # JSON text), so that read-only commands do not need the catalog; their
    # digests (label -> sha256 hex, see _digester); and the labels of the
    # snapshots with a digest that loading could not verify: one that does
    # not match it, and one under a label that no epoch is marked with.
    snapshots: dict[str, str] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    stale: frozenset[str] = frozenset()
    # Caches that dataclasses.replace carries over: the CPE names parsed
    # while loading, shared by the snapshot decodes; and the names bound for
    # the digests and the writes, which start as the loaded names that were
    # read as their binding.
    _cpes: cpe.ParseTable = field(default_factory=cpe.ParseTable, compare=False, repr=False)
    _names: cpe.BindTable = field(default_factory=cpe.BindTable, compare=False, repr=False)

    def last_position(self) -> tuple[str, int]:
        if self.events:
            last = self.events[-1]
            return last.at, last.seq
        return self.built_at, -1

    def epoch_labels(self) -> list[str]:
        return [mark.label for mark in self.epochs]

    def find_epoch(self, label: str) -> EpochMark:
        for mark in self.epochs:
            if mark.label == label:
                return mark
        raise VulnGraphError(f"unknown epoch {label!r}; have {self.epoch_labels()}")


# Each event kind: the payload fields (document keys) it needs, the ones it
# may also take, and its edit, which changes the snapshot ``g`` it is given
# and returns it.  An edit looks its function up on the graph module when it
# runs, so a wrapper installed there later is the one called.
EVENT_KINDS = {
    "asset_added": (("asset_id", "cpe"), ("dependencies", "top_level"), lambda g, e, cat:
                    graph.add_asset(g, ManifestEntry(asset_id=e.asset_id, cpe=e.cpe_value),
                                    e.dependencies, cat, top_level=e.top_level, at=e.at)),
    "vuln_discovered": (("asset_id", "cve_id"), (), lambda g, e, cat:
                        graph.discover_vuln(g, e.asset_id, e.cve_id, cat)),
    "asset_updated": (("asset_id", "cpe"), ("fixes",), lambda g, e, cat:
                      graph.update_asset(g, e.asset_id, e.cpe_value, cat, fixes=e.fixes, at=e.at)),
    "vuln_patched": (("asset_id", "cve_id"), (), lambda g, e, cat:
                     graph.patch_vuln(g, e.asset_id, e.cve_id)),
    "asset_retired": (("asset_id",), (), lambda g, e, cat: graph.retire_asset(g, e.asset_id)),
    "noop": ((), (), lambda g, e, cat: g),
}


def validate_event(event: LifecycleEvent, last_at: str, path: str = "event") -> None:
    """Check one event against the log it follows, the same on append and on load.

    The timestamp must be well formed and not before ``last_at``, the kind
    known, the payload fields that the kind needs present, no other field
    set than those and the ones the kind may take, and every fix a CVE id.
    """
    validate_timestamp(event.at, f"{path}.at")
    if event.kind not in EVENT_KINDS:
        raise SchemaError(f"unknown event kind {event.kind!r}", f"{path}.kind")
    needed, optional, _ = EVENT_KINDS[event.kind]
    payload = {"asset_id": event.asset_id, "cve_id": event.cve_id, "cpe": event.cpe_value,
               "dependencies": event.dependencies, "top_level": event.top_level,
               "fixes": event.fixes}
    for key, value in payload.items():
        if key in needed and value is None:
            raise SchemaError(f"a {event.kind} event needs {key!r}", f"{path}.{key}")
        if key not in needed + optional and value not in (None, (), False):
            raise SchemaError(f"a {event.kind} event takes no {key!r}", f"{path}.{key}")
    for j, cve_id in enumerate(event.fixes):
        if not (isinstance(cve_id, str) and _CVE_RE.fullmatch(cve_id)):
            raise SchemaError(f"bad CVE id {cve_id!r}", f"{path}.fixes[{j}]")
    if event.at < last_at:
        raise NonMonotonicTimestamp(f"{path}.at: {event.at} is before {last_at}")


def append_event(tl: Timeline, event: LifecycleEvent) -> Timeline:
    """Append one event that passes :func:`validate_event` after the log.

    The event must also fall after the last epoch mark: a released epoch is
    history, and an event at or before its mark would change it.
    """
    last_at, last_seq = tl.last_position()
    validate_event(event, last_at)
    if tl.epochs and event.at <= tl.epochs[-1].at:
        mark = tl.epochs[-1]
        raise NonMonotonicTimestamp(
            f"{event.at} is not after epoch {mark.label} at {mark.at}", "event.at"
        )
    if event.seq <= last_seq:
        event = replace(event, seq=last_seq + 1)
    return replace(tl, events=tl.events + [event])


def validate_epoch(
    mark: EpochMark, earlier: list[EpochMark], built_at: str, path: str = ""
) -> None:
    """Check one epoch mark against the marks before it, the same on
    :func:`mark_epoch` and on load: a new, non-empty label, at or after the
    last mark (or ``built_at`` for the first one)."""
    validate_timestamp(mark.at, f"{path}.at" if path else "")
    if not mark.label:
        raise SchemaError("epoch label is empty", f"{path}.label" if path else "")
    if any(m.label == mark.label for m in earlier):
        raise SchemaError(f"epoch {mark.label!r} already marked", path)
    last_at = earlier[-1].at if earlier else built_at
    if mark.at < last_at:
        raise NonMonotonicTimestamp(f"epoch {mark.label} at {mark.at} is before {last_at}", path)


def mark_epoch(tl: Timeline, label: str, at: str) -> Timeline:
    """Designate the state at ``at`` as a named release snapshot."""
    validate_epoch(EpochMark(label=label, at=at), tl.epochs, tl.built_at)
    return replace(tl, epochs=tl.epochs + [EpochMark(label=label, at=at)])


def apply_event(g: Edg, event: LifecycleEvent, catalog: Catalog) -> Edg:
    """Apply one event to the snapshot ``g``, editing it into the successor
    snapshot, and return it.  An event that is refused raises and leaves
    ``g`` unchanged; clone ``g`` first to keep the state before the event."""
    if event.kind not in EVENT_KINDS:
        raise SchemaError(f"unknown event kind {event.kind!r}")
    g = EVENT_KINDS[event.kind][2](g, event, catalog)
    g.root = replace(g.root, checked_at=event.at)
    return g


def replay(tl: Timeline, catalog: Catalog):
    """Yield ``(index, snapshot)`` for the initial build (index -1) and after
    every event.  Deterministic: same log, same catalog, same snapshots.

    Every step yields the same working graph, which each event edits in
    place.  Its edges are indexed by node (:meth:`graph.Edg.build_index`), so
    an event finds the edges it touches without a pass over every edge; it
    finds an asset's version nodes by a pass over the asset nodes.  A yielded
    graph is live until the next step: clone it to keep that state.
    """
    g = graph.build_edg(tl.sut_cpe, tl.manifest, catalog, tl.built_at)
    yield from _replay_from(tl, catalog, -1, g)


def _replay_from(tl: Timeline, catalog: Catalog, position: int, g: Edg):
    """The steps of :func:`replay` from ``g``, the state after event
    ``position`` (-1 for the build): ``g``'s edges are indexed by node and
    ``g`` is yielded, then each later event edits it in place."""
    g.build_index()
    yield position, g
    for i in range(position + 1, len(tl.events)):
        g = apply_event(g, tl.events[i], catalog)
        yield i, g


def _step(tl: Timeline, at: str) -> int:
    """The log step a mark at ``at`` takes: the state after the last event at
    or before ``at``, as that event's index (-1 for the build)."""
    return sum(event.at <= at for event in tl.events) - 1


def _verified(tl: Timeline, mark: EpochMark) -> bool:
    """Whether the epoch's snapshot has a digest and matches it."""
    return mark.label in tl.snapshots and mark.label in tl.digests and mark.label not in tl.stale


def _start(tl: Timeline, mark: EpochMark | None) -> EpochMark | None:
    """The last verified epoch before ``mark`` in mark order, or None: an
    unnamed mark comes after every epoch at or before its time, and ``mark``
    None after every epoch."""
    before = tl.epochs[:tl.epochs.index(mark)] if mark in tl.epochs else tl.epochs
    return next((m for m in reversed(before)
                 if (mark is None or m.at <= mark.at) and _verified(tl, m)), None)


def _replay_to(tl: Timeline, catalog: Catalog, marks, whole_log: bool = False) -> list[Edg]:
    """Snapshots for epoch marks, each its own :class:`Edg` with its mark's
    label as epoch.  Marks with the same :func:`_start` share one pass from
    it, decoded, or from the build, which stops at their last :func:`_step`,
    so no pass carries a rebuilt state past a verified epoch; ``whole_log``
    runs the pass from the last verified epoch to the end of the log, which
    validates every later event."""
    for mark in marks:
        if mark.at < tl.built_at:
            raise VulnGraphError(f"timeline starts at {tl.built_at}, after {mark.at}")
    steps = [_step(tl, mark.at) for mark in marks]
    passes: dict[EpochMark | None, list[int]] = {}
    for n, mark in enumerate(marks):
        passes.setdefault(_start(tl, mark), []).append(n)
    ends = {start: max(steps[n] for n in taken) for start, taken in passes.items()}
    if whole_log:
        ends[_start(tl, None)] = len(tl.events) - 1
    picked: list[Edg | None] = [None] * len(marks)
    for start, end in ends.items():
        replayed = (_replay_from(tl, catalog, _step(tl, start.at),
                                 _decode_snapshot(tl, start.label))
                    if start else replay(tl, catalog))
        for i, g in replayed:
            for n in passes.get(start, ()):
                if steps[n] == i:
                    picked[n] = g.clone()
                    picked[n].epoch = marks[n].label
            if i >= end:
                break
    return picked


def snapshot_at(tl: Timeline, catalog: Catalog, at: str) -> Edg:
    """State after replaying all events with timestamp <= ``at``, from the
    last verified epoch at or before ``at`` (:func:`_start`)."""
    return _replay_to(tl, catalog, [EpochMark(label=None, at=at)])[0]


def epoch_snapshot(tl: Timeline, catalog: Catalog | None, label: str) -> Edg:
    """Snapshot for a named epoch: its embedded copy when it is verified or
    has no digest, else a replay from the last verified epoch before it."""
    return _epoch_snapshots(tl, catalog, [tl.find_epoch(label)])[0]


def epoch_snapshots(tl: Timeline, catalog: Catalog | None) -> list[Edg]:
    """Snapshots of every named epoch, in mark order."""
    return _epoch_snapshots(tl, catalog, tl.epochs)


def _epoch_snapshots(tl: Timeline, catalog: Catalog | None, marks) -> list[Edg]:
    # Embedded copies are decoded, which checks them; the others, and a stale
    # one when there is a catalog, come from one replay pass.  Only the
    # snapshots of ``marks`` are decoded, so a bad one elsewhere goes unseen.
    _check_labels(tl)
    for mark in marks:
        if mark.label in tl.stale and catalog is None:
            _decode_snapshot(tl, mark.label)  # a malformed snapshot is reported as that
            raise SchemaError(f"does not match its digest {tl.digests[mark.label]}, and there "
                              "is no catalog to rebuild it from the log",
                              f"snapshots.{mark.label}")
    embedded = [_verified(tl, m) or m.label in tl.snapshots and m.label not in tl.digests
                for m in marks]
    missing = [m for m, stored in zip(marks, embedded) if not stored]
    if missing and catalog is None:
        raise VulnGraphError(
            f"no embedded snapshot for {missing[0].label!r} and no catalog to replay"
        )
    replayed = iter(_replay_to(tl, catalog, missing) if missing else ())
    return [_decode_snapshot(tl, m.label) if stored else next(replayed)
            for m, stored in zip(marks, embedded)]


def _check_labels(tl: Timeline) -> None:
    """Each embedded snapshot must be of a marked epoch.  Every command that
    reads or rewrites the snapshots checks this, not the load itself, so that
    a timeline with no epoch marks is reported as that."""
    labels = set(tl.epoch_labels())
    for label in tl.snapshots:
        if label not in labels:
            raise SchemaError(f"no epoch {label!r} is marked", f"snapshots.{label}")


def _decode_snapshot(tl: Timeline, label: str) -> Edg:
    # Every decoded snapshot is checked here, whether or not it matched its
    # digest.  The decoder reports a wrongly typed field or container as
    # TypeError or ValueError and a missing key as KeyError; these, a bad CPE
    # name, an epoch other than the label and a root other than the SUT are
    # schema errors at the snapshot.
    path = f"snapshots.{label}"
    try:
        g = graph.edg_from_dict(tl.snapshots[label], tl._cpes)
    except (KeyError, TypeError, AttributeError, ValueError, MalformedCpe) as exc:
        raise SchemaError(f"malformed embedded snapshot: {type(exc).__name__}: {exc}",
                          path) from exc
    if g.epoch != label:
        raise SchemaError(f"malformed embedded snapshot: epoch {g.epoch!r} is not its label",
                          path)
    if g.root.sut_cpe != tl.sut_cpe:
        raise SchemaError(f"malformed embedded snapshot: root.cpe {tl._names[g.root.sut_cpe]!r} "
                          "is not the timeline's sut", path)
    return g


def embed_snapshots(tl: Timeline, catalog: Catalog) -> Timeline:
    """Compute and embed every epoch snapshot with its digest, so that reads
    need no catalog: :func:`update_snapshots` of ``tl`` with its snapshots
    cleared.

    Replays the whole log, so every event is validated against the catalog.
    """
    return update_snapshots(replace(tl, snapshots={}, digests={}, stale=frozenset()),
                            catalog)[0]


def update_snapshots(tl: Timeline, catalog: Catalog) -> tuple[Timeline, list[Edg]]:
    """Keep every verified epoch (:func:`_verified`) as the text it was
    verified as, whatever ``catalog`` holds, and embed every other one,
    replayed by :func:`_replay_to` with the whole log: only the verified
    epochs a pass starts at are decoded, none encoded, and every event after
    the last one's mark is validated against ``catalog``.  Returns the
    timeline, which keeps only the digests of snapshots, and the embedded
    snapshots, in mark order, so a caller need not decode them again.  On a
    timeline with no snapshots, such as a fresh build's, it embeds every
    epoch, as :func:`embed_snapshots` does."""
    _check_labels(tl)
    kept = [m.label for m in tl.epochs if _verified(tl, m)]
    marks = [m for m in tl.epochs if not _verified(tl, m)]
    snapshots = _replay_to(tl, catalog, marks, whole_log=True)
    updated = replace(tl, snapshots={label: tl.snapshots[label] for label in kept},
                      digests={label: tl.digests[label] for label in kept}, stale=frozenset())
    digest = _digester(tl)
    for mark, g in zip(marks, snapshots):
        text = canonical_text(graph.edg_to_dict(g, tl._names))
        updated.snapshots[mark.label] = text
        updated.digests[mark.label] = digest(mark, text)
    return updated, snapshots


def _digester(tl: Timeline):
    """A function from an epoch mark and its snapshot's canonical text to the
    snapshot's digest.

    The digest is the sha256 of one line each for a fixed tag, the SUT,
    ``built_at``, the manifest and each event at or before the mark, then a
    ``["mark", label, at]`` line and the text.  Every line is canonical JSON,
    an event an object and the mark an array, so no two inputs run together.
    The SUT, manifest and events are hashed as :func:`timeline_to_dict`
    writes them, their names bound in ``tl._names``, which the write of the
    timeline shares and which holds a loaded name already when the file held
    its binding (:meth:`cpe.ParseTable.bindings`).  Nothing is hashed until
    the first call.  Call it for marks in order: it hashes the events as the
    marks pass them.
    """
    names = tl._names
    head = None
    hashed = 0

    def digest(mark: EpochMark, text: str) -> str:
        nonlocal head, hashed
        if head is None:
            head = hashlib.sha256()
            for part in (_DIGEST_TAG, names[tl.sut_cpe], tl.built_at,
                         manifest_to_dict(tl.manifest, names)):
                head.update(_line(part))
        while hashed < len(tl.events) and tl.events[hashed].at <= mark.at:
            head.update(_line(_event_to_dict(tl.events[hashed], names)))
            hashed += 1
        h = head.copy()
        h.update(_line(["mark", mark.label, mark.at]))
        h.update(text.encode())
        return h.hexdigest()

    return digest


def _line(value) -> bytes:
    return (canonical_text(value) + "\n").encode()


def _unverified(tl: Timeline):
    """Yield the labels of the embedded snapshots of ``tl`` whose text does
    not match their digest: first those under a label that no epoch is
    marked with, which have no mark to be checked with, then those of marked
    epochs in mark order.  A snapshot is hashed only when the labels before
    it have been taken, so a caller that stops at the first one hashes no
    snapshot after it."""
    marked = set(tl.epoch_labels())
    yield from (label for label in tl.snapshots if label not in marked)
    digest = _digester(tl)
    for mark in tl.epochs:
        label = mark.label
        if label in tl.snapshots and (label not in tl.digests or
                                      digest(mark, tl.snapshots[label]) != tl.digests[label]):
            yield label


# ---------------------------------------------------------------------------
# persistence


def _parse_cpe(doc: dict, key: str, path: str, cpes: cpe.ParseTable) -> WellFormedName:
    try:
        return cpes[_expect(doc, key, str, path)]
    except MalformedCpe as exc:
        raise SchemaError(str(exc), f"{path}.{key}" if path else key) from exc


def _pairs(doc: dict, path: str) -> tuple[tuple[str, str], ...]:
    pairs = _expect(doc, "dependencies", list, path, [])
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, str) for x in pair)):
            raise SchemaError("expected a [dependant, dependency] pair of ids",
                              f"{path}.dependencies[{i}]")
    return tuple((pair[0], pair[1]) for pair in pairs)


def manifest_to_dict(manifest: Manifest, names: cpe.BindTable | None = None) -> dict:
    """Canonical form of a manifest; ``names`` shares bound CPE names with
    the rest of one write, as in :func:`graph.edg_to_dict`."""
    names = cpe.BindTable() if names is None else names
    return {
        "assets": [{"id": e.asset_id, "cpe": names[e.cpe]} for e in manifest.entries],
        "dependencies": [list(pair) for pair in manifest.dependencies],
    }


def manifest_from_dict(doc: dict, cpes: cpe.ParseTable | None = None) -> Manifest:
    if cpes is None:
        cpes = cpe.ParseTable()
    entries = []
    for i, raw in enumerate(_expect(doc, "assets", list, "manifest")):
        path = f"manifest.assets[{i}]"
        entries.append(ManifestEntry(asset_id=_expect(raw, "id", str, path),
                                     cpe=_parse_cpe(raw, "cpe", path, cpes)))
    return Manifest(entries=tuple(entries), dependencies=_pairs(doc, "manifest"))


def _event_to_dict(event: LifecycleEvent, names: cpe.BindTable) -> dict:
    out: dict = {"at": event.at, "seq": event.seq, "kind": event.kind}
    if event.asset_id is not None:
        out["asset_id"] = event.asset_id
    if event.cve_id is not None:
        out["cve_id"] = event.cve_id
    if event.cpe_value is not None:
        out["cpe"] = names[event.cpe_value]
    if event.dependencies:
        out["dependencies"] = [list(pair) for pair in event.dependencies]
    if event.top_level:
        out["top_level"] = True
    if event.fixes:
        out["fixes"] = list(event.fixes)
    return out


def _event_from_dict(doc: dict, path: str, cpes: cpe.ParseTable) -> LifecycleEvent:
    return LifecycleEvent(
        at=_expect(doc, "at", str, path),
        seq=_expect(doc, "seq", int, path),
        kind=_expect(doc, "kind", str, path),
        asset_id=_expect(doc, "asset_id", str, path, None),
        cve_id=_expect(doc, "cve_id", str, path, None),
        cpe_value=_parse_cpe(doc, "cpe", path, cpes) if "cpe" in doc else None,
        dependencies=_pairs(doc, path),
        top_level=_expect(doc, "top_level", bool, path, False),
        fixes=tuple(_expect(doc, "fixes", list, path, [])),
    )


def _head_dict(tl: Timeline) -> dict:
    """:func:`timeline_to_dict` without its snapshots."""
    names = tl._names
    return {
        "schema_version": 1,
        "sut": names[tl.sut_cpe],
        "built_at": tl.built_at,
        "manifest": manifest_to_dict(tl.manifest, names),
        "epochs": [{"label": m.label, "at": m.at} for m in tl.epochs],
        "events": [_event_to_dict(e, names) for e in tl.events],
        "digests": {label: digest for label, digest in sorted(tl.digests.items())},
    }


def timeline_to_dict(tl: Timeline) -> dict:
    """The timeline as a JSON document, each snapshot decoded from its text;
    :func:`save_timeline` writes this document."""
    doc = _head_dict(tl)
    doc["snapshots"] = {label: json.loads(text) for label, text in sorted(tl.snapshots.items())}
    return doc


def timeline_from_dict(doc: dict) -> Timeline:
    """Decode a timeline document, checking every event with
    :func:`validate_event` and that its ``seq`` is greater than the previous
    event's (as :func:`append_event` keeps it), every epoch mark with
    :func:`validate_epoch`, that each digest is a sha256 hex digest, and each
    embedded snapshot against its digest, by its canonical text.  One that
    does not match its digest is :attr:`Timeline.stale`.  No snapshot is
    decoded or checked here: each is held as its canonical text, encoded
    once, and :func:`_decode_snapshot` decodes and checks it when a command
    reads that epoch.  Each distinct CPE name is parsed once, and the
    snapshot decodes reuse those parses."""
    return _from_dict(doc)


def _from_dict(doc: dict, lines: dict[str, str] | None = None) -> Timeline | None:
    """:func:`timeline_from_dict`; given ``lines`` (label -> text, see
    :func:`_split_lines`) of a head document whose snapshots are those, the
    timeline when every line matches its digest, and None as soon as one
    does not, hashing no line after it.  Either way a snapshot is checked
    only when it is decoded."""
    if not isinstance(doc, dict):
        raise SchemaError("timeline document must be an object")
    if doc.get("schema_version", 1) != 1:
        raise SchemaError(f"unsupported schema_version {doc.get('schema_version')}")
    cpes = cpe.ParseTable()
    built_at = validate_timestamp(_expect(doc, "built_at", str, ""), "built_at")
    events = []
    for i, raw in enumerate(_expect(doc, "events", list, "", [])):
        event = _event_from_dict(raw, f"events[{i}]", cpes)
        validate_event(event, events[-1].at if events else built_at, f"events[{i}]")
        if events and event.seq <= events[-1].seq:
            raise SchemaError(f"seq {event.seq} is not greater than the previous event's "
                              f"{events[-1].seq}", f"events[{i}].seq")
        events.append(event)
    epochs = []
    for i, raw in enumerate(_expect(doc, "epochs", list, "", [])):
        path = f"epochs[{i}]"
        mark = EpochMark(label=_expect(raw, "label", str, path), at=_expect(raw, "at", str, path))
        validate_epoch(mark, epochs, built_at, path)
        epochs.append(mark)
    sut = _parse_cpe(doc, "sut", "", cpes)
    by_lines = lines is not None
    if not by_lines:
        lines = {label: canonical_text(snap)
                 for label, snap in _expect(doc, "snapshots", dict, "", {}).items()}
    digests = dict(_expect(doc, "digests", dict, "", {}))
    for label, digest in digests.items():
        if not (type(digest) is str and _DIGEST_RE.fullmatch(digest)):
            raise SchemaError(f"want 64 lowercase hex digits, got {digest!r}", f"digests.{label}")
    manifest = manifest_from_dict(_expect(doc, "manifest", dict, ""), cpes)
    tl = Timeline(
        sut_cpe=sut,
        manifest=manifest,
        built_at=built_at,
        events=events,
        epochs=epochs,
        snapshots=lines,
        digests=digests,
        _cpes=cpes,
        _names=cpes.bindings(),
    )
    unverified = _unverified(tl)
    if by_lines:
        return None if next(unverified, None) is not None else tl
    tl.stale = frozenset(label for label in unverified if label in digests)
    return tl


def save_timeline(tl: Timeline, path) -> None:
    """Write ``tl`` to ``path`` as one JSON document that decodes to
    ``timeline_to_dict(tl)``.  It is the canonical JSON of that document,
    except that each embedded snapshot stands on a line of its own as
    ``"<label>":<text>``, the text that ``tl`` holds and its digest covers,
    followed by a comma on every line but the last.  Canonical JSON never
    holds a raw newline, so :func:`load_timeline` can split the file into
    its snapshots without decoding them.

    The document is written with :func:`catalog.open_replacing`, so a write
    that fails or is interrupted leaves the target as it was and no file of
    its own behind."""
    head = _head_dict(tl)
    with open_replacing(path) as fh:
        fh.write("{")
        for n, key in enumerate(sorted([*head, "snapshots"])):
            fh.write(("," if n else "") + canonical_text(key) + ":")
            if key != "snapshots":
                fh.write(canonical_text(head[key]))
                continue
            fh.write("{")
            for m, (label, text) in enumerate(sorted(tl.snapshots.items())):
                fh.write((",\n" if m else "\n") + canonical_text(label) + ":")
                fh.write(text)
            fh.write("\n}" if tl.snapshots else "}")
        fh.write("}\n")


# The first line of the layout save_timeline writes ends by opening the
# snapshots; _split_lines decodes the head with this string in their place.
_OPEN = '"snapshots":{'
_PLACEHOLDER = "\x00snapshot lines"


def _split_lines(text: str) -> tuple[dict, dict[str, str]] | None:
    """The head document and the snapshot texts (label -> text) of ``text``
    in the layout :func:`save_timeline` writes, or None for any other text.

    The head is the first line, which opens the snapshots, and the last,
    which closes them, decoded with a placeholder string spliced in between.
    Finding that placeholder as the top-level ``snapshots`` shows that the
    lines between stand there, so ``json.loads`` of the whole text gives the
    head with those snapshots, provided each snapshot text is JSON.  A line
    that matches its digest is the canonical text this package wrote;
    :func:`load_timeline` decodes the file whole when any line does not.
    """
    if not text.endswith(_OPEN, 0, max(text.find("\n"), 0)):
        return None
    parts = text.split("\n")
    while len(parts) > 2 and not parts[-1].strip(" \t\r"):
        parts.pop()
    if len(parts) < 2 or not (parts[0].endswith(_OPEN) and parts[-1].startswith("}")):
        return None
    try:
        head = json.loads(parts[0][:-1] + json.dumps(_PLACEHOLDER) + parts[-1][1:])
    except (ValueError, RecursionError):
        return None
    if type(head) is not dict or head.get("snapshots") != _PLACEHOLDER:
        return None
    lines = parts[1:-1]
    texts = {}
    for n, line in enumerate(lines):
        if n < len(lines) - 1:
            if not line.endswith(","):
                return None
            line = line[:-1]
        if not line.startswith('"'):
            return None
        try:
            label, end = scanstring(line, 1)
        except ValueError:
            return None
        if line[end:end + 1] != ":":
            return None
        texts[label] = line[end + 1:]
    return head, texts


def load_timeline(path) -> Timeline:
    """The timeline in the file at ``path``, as :func:`timeline_from_dict`
    gives it for the decoded document.  A file in the layout
    :func:`save_timeline` writes whose every snapshot line is of a marked
    epoch and matches its digest is read by its lines (:func:`_split_lines`),
    none of them decoded; any other text is decoded whole, which encodes
    each of its snapshots once to verify it.  The line read stops hashing at
    the first line that does not match its digest."""
    text = read_text(path)
    parts = _split_lines(text)
    tl = None if parts is None else _from_dict(*parts)
    return timeline_from_dict(parse_json(text)) if tl is None else tl


def load_manifest(path) -> Manifest:
    return manifest_from_dict(load_json(path))

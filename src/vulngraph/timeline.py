"""Event-sourced lifecycle of a system under test.

A timeline is the initial manifest plus a strictly ordered event log; every
snapshot is reproducible by replaying the log against a catalog, and named
epoch marks ("V1", "V2", ...) designate the release snapshots that the
accumulated metrics sum over.  Replaying the same log always yields
byte-identical serialized snapshots.

Timestamps are ISO 8601 UTC with seconds precision (``2021-01-01T00:00:00Z``);
ties are broken by the event sequence number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from . import cpe, graph
from .catalog import _CVE_RE, Catalog, _expect, canonical_json, load_json
from .cpe import WellFormedName
from .errors import MalformedCpe, NonMonotonicTimestamp, SchemaError, VulnGraphError
from .graph import Edg, Manifest, ManifestEntry

_TS_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z")


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
    # Optional embedded epoch snapshots (label -> serialized graph); purely a
    # cache so that read-only commands do not need the catalog.
    snapshots: dict[str, dict] = field(default_factory=dict)
    # The CPE names parsed while loading, shared by the snapshot decodes.
    _cpes: cpe.ParseTable = field(
        default_factory=cpe.ParseTable, init=False, compare=False, repr=False
    )

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
# may also take, and its edit of a snapshot, which returns a new graph or,
# with ``in_place``, edits ``g``.  An edit looks its function up on the graph
# module when it runs, so a wrapper installed there later is the one called.
EVENT_KINDS = {
    "asset_added": (("asset_id", "cpe"), ("dependencies", "top_level"), lambda g, e, cat, in_place:
                    graph.add_asset(g, ManifestEntry(asset_id=e.asset_id, cpe=e.cpe_value),
                                    e.dependencies, cat, top_level=e.top_level, at=e.at,
                                    in_place=in_place)),
    "vuln_discovered": (("asset_id", "cve_id"), (), lambda g, e, cat, in_place:
                        graph.discover_vuln(g, e.asset_id, e.cve_id, cat, in_place=in_place)),
    "asset_updated": (("asset_id", "cpe"), ("fixes",), lambda g, e, cat, in_place:
                      graph.update_asset(g, e.asset_id, e.cpe_value, cat, fixes=e.fixes,
                                         at=e.at, in_place=in_place)),
    "vuln_patched": (("asset_id", "cve_id"), (), lambda g, e, cat, in_place:
                     graph.patch_vuln(g, e.asset_id, e.cve_id, in_place=in_place)),
    "asset_retired": (("asset_id",), (), lambda g, e, cat, in_place:
                      graph.retire_asset(g, e.asset_id, in_place=in_place)),
    "noop": ((), (), lambda g, e, cat, in_place: g if in_place else g.clone()),
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
    :func:`mark_epoch` and on load: a new label, at or after the last mark
    (or ``built_at`` for the first one)."""
    validate_timestamp(mark.at, f"{path}.at" if path else "")
    if any(m.label == mark.label for m in earlier):
        raise SchemaError(f"epoch {mark.label!r} already marked", path)
    last_at = earlier[-1].at if earlier else built_at
    if mark.at < last_at:
        raise NonMonotonicTimestamp(f"epoch {mark.label} at {mark.at} is before {last_at}", path)


def mark_epoch(tl: Timeline, label: str, at: str) -> Timeline:
    """Designate the state at ``at`` as a named release snapshot."""
    validate_epoch(EpochMark(label=label, at=at), tl.epochs, tl.built_at)
    return replace(tl, epochs=tl.epochs + [EpochMark(label=label, at=at)])


def apply_event(g: Edg, event: LifecycleEvent, catalog: Catalog, in_place: bool = False) -> Edg:
    """Apply one event to a snapshot, yielding the successor snapshot: a new
    graph, or ``g`` itself edited when ``in_place`` is true."""
    if event.kind not in EVENT_KINDS:
        raise SchemaError(f"unknown event kind {event.kind!r}")
    g = EVENT_KINDS[event.kind][2](g, event, catalog, in_place)
    g.root = replace(g.root, checked_at=event.at)
    return g


def replay(tl: Timeline, catalog: Catalog):
    """Yield ``(index, snapshot)`` for the initial build (index -1) and after
    every event.  Deterministic: same log, same catalog, same snapshots.

    Every step yields the same working graph, which each event edits in place
    over its index (:meth:`graph.Edg.build_index`), so one step costs what its
    event touches, not the size of the graph.  A yielded graph is live until
    the next step: clone it to keep that state.
    """
    g = graph.build_edg(tl.sut_cpe, tl.manifest, catalog, tl.built_at)
    g.build_index()
    yield -1, g
    for i, event in enumerate(tl.events):
        g = apply_event(g, event, catalog, in_place=True)
        yield i, g


def _replay_to(tl: Timeline, catalog: Catalog, marks, whole_log: bool = False) -> list[Edg]:
    """Snapshots for epoch marks from one replay pass.

    A mark takes the state just before the first event after its ``at``, so
    its copy is taken at the last step before that event is applied.  The
    pass stops once every mark has been taken, unless ``whole_log`` asks for
    the rest of the log too (which validates every event).  Each snapshot is
    its own :class:`Edg` with its mark's label as epoch, even when two marks
    fall on one log position.
    """
    picked: list[Edg | None] = [None] * len(marks)
    # A mark before the build can never be taken.
    open_marks = [m for m, mark in enumerate(marks) if tl.built_at <= mark.at]
    for i, g in replay(tl, catalog):
        following = tl.events[i + 1].at if i + 1 < len(tl.events) else None
        for m in open_marks:
            if following is None or following > marks[m].at:
                picked[m] = g.clone()
                picked[m].epoch = marks[m].label
        open_marks = [m for m in open_marks if picked[m] is None]
        if not open_marks and not whole_log:
            break
    for mark, g in zip(marks, picked):
        if g is None:
            raise VulnGraphError(f"timeline starts at {tl.built_at}, after {mark.at}")
    return picked


def snapshot_at(tl: Timeline, catalog: Catalog, at: str) -> Edg:
    """State after replaying all events with timestamp <= ``at``."""
    return _replay_to(tl, catalog, [EpochMark(label=None, at=at)])[0]


def epoch_snapshot(tl: Timeline, catalog: Catalog | None, label: str) -> Edg:
    """Snapshot for a named epoch (embedded copy when present, else replay)."""
    return _epoch_snapshots(tl, catalog, [tl.find_epoch(label)])[0]


def epoch_snapshots(tl: Timeline, catalog: Catalog | None) -> list[Edg]:
    """Snapshots of every named epoch, in mark order."""
    return _epoch_snapshots(tl, catalog, tl.epochs)


def _epoch_snapshots(tl: Timeline, catalog: Catalog | None, marks) -> list[Edg]:
    # Embedded copies are decoded; the others come from one replay pass.
    missing = [m for m in marks if m.label not in tl.snapshots]
    if missing and catalog is None:
        raise VulnGraphError(
            f"no embedded snapshot for {missing[0].label!r} and no catalog to replay"
        )
    replayed = iter(_replay_to(tl, catalog, missing) if missing else ())
    return [
        _decode_snapshot(tl, m.label) if m.label in tl.snapshots else next(replayed)
        for m in marks
    ]


def _decode_snapshot(tl: Timeline, label: str) -> Edg:
    # The decoder reports a wrongly typed field or container as TypeError or
    # ValueError, and a missing key surfaces as KeyError; these and a bad CPE
    # name are reported as a schema error at the snapshot.
    try:
        return graph.edg_from_dict(tl.snapshots[label], tl._cpes)
    except (KeyError, TypeError, AttributeError, ValueError, MalformedCpe) as exc:
        raise SchemaError(f"malformed embedded snapshot: {type(exc).__name__}: {exc}",
                          f"snapshots.{label}") from exc


def embed_snapshots(tl: Timeline, catalog: Catalog) -> Timeline:
    """Compute and embed every epoch snapshot (cache for catalog-less reads).

    Replays the whole log, so every event is validated against the catalog.
    """
    return replay_and_embed(tl, catalog)[0]


def replay_and_embed(tl: Timeline, catalog: Catalog) -> tuple[Timeline, list[Edg]]:
    """:func:`embed_snapshots`, also returning the epoch snapshots it embedded,
    in mark order, so a caller that reads them need not decode them again."""
    snapshots = _replay_to(tl, catalog, tl.epochs, whole_log=True)
    names = cpe.BindTable()
    return replace(tl, snapshots={m.label: graph.edg_to_dict(g, names)
                                  for m, g in zip(tl.epochs, snapshots)}), snapshots


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


def manifest_to_dict(manifest: Manifest) -> dict:
    return {
        "assets": [
            {"id": e.asset_id, "cpe": cpe.bind_formatted(e.cpe)} for e in manifest.entries
        ],
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


def _event_to_dict(event: LifecycleEvent) -> dict:
    out: dict = {"at": event.at, "seq": event.seq, "kind": event.kind}
    if event.asset_id is not None:
        out["asset_id"] = event.asset_id
    if event.cve_id is not None:
        out["cve_id"] = event.cve_id
    if event.cpe_value is not None:
        out["cpe"] = cpe.bind_formatted(event.cpe_value)
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


def timeline_to_dict(tl: Timeline) -> dict:
    return {
        "schema_version": 1,
        "sut": cpe.bind_formatted(tl.sut_cpe),
        "built_at": tl.built_at,
        "manifest": manifest_to_dict(tl.manifest),
        "epochs": [{"label": m.label, "at": m.at} for m in tl.epochs],
        "events": [_event_to_dict(e) for e in tl.events],
        "snapshots": {label: snap for label, snap in sorted(tl.snapshots.items())},
    }


def timeline_from_dict(doc: dict) -> Timeline:
    """Decode a timeline document, checking every event with
    :func:`validate_event` and every epoch mark with :func:`validate_epoch`.
    Each distinct CPE name is parsed once, and the embedded snapshots reuse
    those parses."""
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
        events.append(event)
    epochs = []
    for i, raw in enumerate(_expect(doc, "epochs", list, "", [])):
        path = f"epochs[{i}]"
        mark = EpochMark(label=_expect(raw, "label", str, path), at=_expect(raw, "at", str, path))
        validate_epoch(mark, epochs, built_at, path)
        epochs.append(mark)
    tl = Timeline(
        sut_cpe=_parse_cpe(doc, "sut", "", cpes),
        manifest=manifest_from_dict(_expect(doc, "manifest", dict, ""), cpes),
        built_at=built_at,
        events=events,
        epochs=epochs,
        snapshots=dict(_expect(doc, "snapshots", dict, "", {})),
    )
    tl._cpes = cpes
    return tl


def save_timeline(tl: Timeline, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(timeline_to_dict(tl)))


def load_timeline(path) -> Timeline:
    return timeline_from_dict(load_json(path))


def load_manifest(path) -> Manifest:
    return manifest_from_dict(load_json(path))

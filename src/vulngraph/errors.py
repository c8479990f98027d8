"""Exception types shared across the package."""


class VulnGraphError(Exception):
    """Base class for all errors raised by this package."""


class MalformedCpe(VulnGraphError):
    """A CPE 2.3 formatted string could not be parsed.

    ``offset`` counts characters, not bytes.  Inside an attribute it is the
    field's start plus the position in the lower-cased field, so a character
    before the error that lower-casing lengthens shifts it to the right.
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class SchemaError(VulnGraphError):
    """A catalog or timeline document violates the expected schema.

    ``path`` identifies the offending field, e.g. ``vulnerabilities[3].cvss``.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class DuplicateId(VulnGraphError):
    """Two records in one catalog share an identifier."""


class FeedParseError(VulnGraphError):
    """An external vulnerability feed file could not be parsed."""


class UnknownWeakness(VulnGraphError):
    """A CWE identifier is not present in the catalog."""


class UnknownDependencyTarget(VulnGraphError):
    """A manifest dependency pair references an id that is not in the manifest."""


class EmptyManifest(VulnGraphError):
    """A graph build was requested for a manifest with no assets."""


class UnknownAsset(VulnGraphError):
    """An operation referenced an asset id that is not in the graph."""


class UnknownCve(VulnGraphError):
    """An operation referenced a CVE that is not in the graph or catalog."""


class NonMonotonicTimestamp(SchemaError):
    """An event or epoch mark is timestamped before the one it follows."""


class SelfSucc(VulnGraphError):
    """An asset update supplied a new CPE identical to the current one."""


class BrokenChain(VulnGraphError):
    """A version chain has a dangling previous-CPE pointer (corrupt state)."""


class NoAssets(VulnGraphError):
    """A per-asset average was requested on a graph with no active assets."""


class NoVulnerabilities(VulnGraphError):
    """A relative frequency was requested but the graph has no vulnerabilities."""


class UnknownMetric(VulnGraphError):
    """An unrecognized metric id was supplied."""

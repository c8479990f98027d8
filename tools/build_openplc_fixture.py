#!/usr/bin/env python3
"""Build the bundled OpenPLC study fixtures.

Constructs the desk-scale catalog, manifest and timeline reproducing the
three-release OpenPLC assessment, and writes them into the package data
directory.  The per-asset, per-weakness counts are the published study
numbers; the construction is validated bottom-up before anything is written
(per-asset weakness sums must equal the asset counts, per-epoch asset sums
must equal the epoch totals) and the finished timeline is re-checked against
the expected metric values.

Catalog records are per-epoch: the same real-world CVE re-listed for a later
release (sometimes with a different printed score) would collide with the
one-record-per-id rule, so non-asserted duplicates use stand-in ids with the
year shifted +70 (first release) or +80 (second); unnamed records get
synthetic ids in a reserved CVE-YYYY-9NNNN block with scores below the 6.0
reporting window.

Run from the repository root:  python3 tools/build_openplc_fixture.py
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from vulngraph import catalog as cat_mod  # noqa: E402
from vulngraph import cpe, fixtures, graph, metrics, timeline as tl_mod  # noqa: E402
from vulngraph.graph import Manifest, ManifestEntry  # noqa: E402

DATA = SRC / "vulngraph" / "data"

BUILD_AT = "2021-01-01T00:00:00Z"
V2_BASE = "2021-01-02T00:{m:02d}:00Z"
V3_BASE = "2021-01-03T00:{m:02d}:00Z"
V2_MARK = "2021-01-02T01:00:00Z"
V3_MARK = "2021-01-03T01:00:00Z"

SUT = "cpe:2.3:a:openplc_project:openplc:1.0:*:*:*:*:*:*:*"


def wfn(vendor, product, version):
    return f"cpe:2.3:a:{vendor}:{product}:{version}:*:*:*:*:*:*:*"


# --- asset inventory --------------------------------------------------------
# (asset_id, vendor, product, per-epoch version; None = absent in that epoch)

ASSET_VERSIONS = {
    #               V1        V2        V3
    "libgcc_s": ("4.8.2", "5.4.0", "7.3.0"),
    "libc": ("2.19", "2.23", "2.27"),
    "libz": ("1.2.8", "1.2.11", "1.2.12"),
    "libcares": ("1.10.0", None, None),
    "nodejs": ("0.10.25", "4.2.6", None),
    "libssl": ("1.0.1f", "1.0.2g", None),
    "libicuuc": (None, "55.1", None),
}

VENDORS = {
    "libgcc_s": ("gnu", "libgcc_s"),
    "libc": ("gnu", "glibc"),
    "libz": ("zlib", "zlib"),
    "libcares": ("c-ares", "c-ares"),
    "nodejs": ("nodejs", "nodejs"),
    "libssl": ("openssl", "openssl"),
    "libicuuc": ("unicode", "icu"),
}

# V1 manifest: study-table assets first (their order fixes the report column
# and prioritization group order), then the vulnerability-free rest.
V1_ASSETS = [
    ("libgcc_s", wfn("gnu", "libgcc_s", "4.8.2")),
    ("libc", wfn("gnu", "glibc", "2.19")),
    ("libz", wfn("zlib", "zlib", "1.2.8")),
    ("libcares", wfn("c-ares", "c-ares", "1.10.0")),
    ("nodejs", wfn("nodejs", "nodejs", "0.10.25")),
    ("libssl", wfn("openssl", "openssl", "1.0.1f")),
    ("server_js", wfn("openplc_project", "server_js", "1.0")),
    ("oplc_starter", wfn("openplc_project", "oplc_starter", "1.0")),
    ("oplc_compiler", wfn("openplc_project", "oplc_compiler", "1.0")),
    ("openplc", wfn("openplc_project", "openplc_runtime", "1.0")),
    ("libstdcpp", wfn("gnu", "libstdcpp", "4.8.2")),
    ("libm", wfn("gnu", "libm", "2.19")),
    ("libpthread", wfn("gnu", "libpthread", "2.19")),
    ("libdl", wfn("gnu", "libdl", "2.19")),
    ("librt", wfn("gnu", "librt", "2.19")),
    ("libcrypt", wfn("gnu", "libcrypt", "2.19")),
    ("libresolv", wfn("gnu", "libresolv", "2.19")),
    ("ld_linux", wfn("gnu", "ld_linux", "2.19")),
    ("libmodbus", wfn("libmodbus", "libmodbus", "3.0.6")),
]

V1_DEPENDENCIES = [
    ("server_js", "nodejs"),
    ("server_js", "oplc_starter"),
    ("server_js", "libc"),
    ("oplc_starter", "openplc"),
    ("oplc_starter", "oplc_compiler"),
    ("oplc_starter", "libc"),
    ("oplc_compiler", "libstdcpp"),
    ("oplc_compiler", "libm"),
    ("oplc_compiler", "libc"),
    ("openplc", "libssl"),
    ("openplc", "libmodbus"),
    ("openplc", "libz"),
    ("openplc", "libpthread"),
    ("openplc", "librt"),
    ("openplc", "libdl"),
    ("openplc", "libstdcpp"),
    ("openplc", "libm"),
    ("openplc", "libcrypt"),
    ("openplc", "libresolv"),
    ("openplc", "libc"),
    ("nodejs", "libcares"),
    ("nodejs", "libz"),
    ("nodejs", "libssl"),
    ("nodejs", "libcrypt"),
    ("nodejs", "libresolv"),
    ("nodejs", "libpthread"),
    ("nodejs", "libdl"),
    ("nodejs", "ld_linux"),
    ("nodejs", "libc"),
    ("libssl", "libz"),
    ("libssl", "libcrypt"),
    ("libssl", "libdl"),
    ("libssl", "libc"),
    ("libz", "libc"),
    ("libcares", "libresolv"),
    ("libcares", "libc"),
    ("libgcc_s", "libc"),
    ("libstdcpp", "libm"),
    ("libstdcpp", "libgcc_s"),
    ("libstdcpp", "libc"),
    ("libm", "libc"),
    ("libpthread", "libc"),
    ("libdl", "libc"),
    ("librt", "libpthread"),
    ("librt", "libc"),
    ("libcrypt", "libc"),
    ("libresolv", "libc"),
    ("ld_linux", "libc"),
    ("libmodbus", "libc"),
    ("libc", "ld_linux"),  # deliberate cycle with the loader
]


# --- study tables -----------------------------------------------------------
# Weakness multiplicity per (epoch, asset): the M5 blocks.  Row sums must
# equal the per-asset counts (M3) and M3 sums the per-epoch totals (M1).

M5_TABLE = {
    "V1": {
        "libgcc_s": {"CWE-119": 1, "CWE-331": 1},
        "libc": {"CWE-17": 1, "CWE-22": 1, "CWE-94": 1, "CWE-119": 5, "CWE-426": 1},
        "libz": {"CWE-189": 4},
        "libcares": {"CWE-200": 1, "CWE-787": 1},
        "nodejs": {"CWE-19": 1, "CWE-20": 3, "CWE-113": 1, "CWE-200": 3, "CWE-787": 1},
        "libssl": {
            "CWE-17": 2, "CWE-20": 5, "CWE-119": 9, "CWE-125": 2, "CWE-189": 2,
            "CWE-190": 1, "CWE-200": 5, "CWE-310": 12, "CWE-362": 4, "CWE-399": 8,
            "CWE-400": 1, "CWE-787": 2, "CWE-NULL": 12,
        },
    },
    "V2": {
        "libgcc_s": {"CWE-119": 1, "CWE-200": 1, "CWE-331": 1},
        "libc": {"CWE-119": 3, "CWE-399": 1, "CWE-426": 1},
        "libz": {"CWE-189": 4},
        "libicuuc": {"CWE-119": 1, "CWE-190": 1},
        "libssl": {
            "CWE-17": 3, "CWE-20": 3, "CWE-119": 6, "CWE-125": 3, "CWE-189": 4,
            "CWE-190": 1, "CWE-200": 12, "CWE-295": 1, "CWE-310": 5, "CWE-311": 2,
            "CWE-320": 3, "CWE-362": 1, "CWE-399": 6, "CWE-400": 1, "CWE-787": 2,
            "CWE-NULL": 10,
        },
    },
    "V3": {
        "libgcc_s": {"CWE-119": 1, "CWE-331": 1},
        "libc": {"CWE-119": 3},
    },
}

M1_EXPECTED = {"V1": 91, "V2": 77, "V3": 5}
N_EXPECTED = {"V1": 19, "V2": 22, "V3": 19}

# Named rows: (cve_id, cvss, cwe, exploit_available).  Ids shifted +70/+80 in
# the year are per-epoch stand-ins for a CVE whose primary listing (the one
# asserted by tests) lives in another epoch.
NAMED = {
    ("V1", "libgcc_s"): [("CVE-2088-12886", 7.5, "CWE-119", False)],
    ("V1", "libc"): [
        ("CVE-2017-16997", 9.3, "CWE-426", False),
        ("CVE-2014-9984", 7.5, "CWE-119", False),
        ("CVE-2014-4043", 7.5, "CWE-119", False),
        ("CVE-2015-5277", 7.2, "CWE-119", False),
        ("CVE-2015-7547", 6.8, "CWE-119", False),
        ("CVE-2014-0475", 6.8, "CWE-119", False),
    ],
    ("V1", "libz"): [
        ("CVE-2016-9843", 7.5, "CWE-189", False),
        ("CVE-2016-9841", 7.5, "CWE-189", False),
        ("CVE-2016-9840", 6.8, "CWE-189", False),
        ("CVE-2016-9842", 6.8, "CWE-189", False),
    ],
    ("V1", "libcares"): [("CVE-2019-15847", 7.5, "CWE-787", False)],
    ("V1", "libssl"): [
        ("CVE-2016-2842", 10.0, "CWE-119", True),
        ("CVE-2016-0705", 10.0, "CWE-119", False),
        ("CVE-2016-0799", 10.0, "CWE-119", False),
        ("CVE-2016-6304", 7.8, "CWE-399", False),
        ("CVE-2016-0798", 7.8, "CWE-399", False),
        ("CVE-2014-8176", 7.5, "CWE-119", False),
        ("CVE-2016-2182", 7.5, "CWE-787", False),
        ("CVE-2014-3512", 7.5, "CWE-119", False),
        ("CVE-2016-6303", 7.5, "CWE-787", False),
        ("CVE-2015-0292", 7.5, "CWE-119", False),
        ("CVE-2016-2177", 7.5, "CWE-190", False),
        ("CVE-2014-3567", 7.1, "CWE-399", False),
        ("CVE-2014-3513", 7.1, "CWE-399", False),
        ("CVE-2015-1791", 6.8, "CWE-362", False),
        ("CVE-2012-2333", 6.8, "CWE-310", False),
        ("CVE-2015-0209", 6.8, "CWE-399", False),
        ("CVE-2014-3509", 6.8, "CWE-362", False),
        ("CVE-2014-0195", 6.8, "CWE-119", False),
        # Printed with the release's queue but scored below the 6.0 window.
        ("CVE-2014-3505", 5.0, "CWE-20", False),
    ],
    ("V2", "libgcc_s"): [("CVE-2098-12886", 6.8, "CWE-119", False)],
    ("V2", "libc"): [
        ("CVE-2097-16997", 9.3, "CWE-426", False),
        ("CVE-2097-18269", 7.5, "CWE-119", False),
    ],
    ("V2", "libz"): [
        ("CVE-2096-9843", 7.5, "CWE-189", False),
        ("CVE-2096-9841", 7.5, "CWE-189", False),
        ("CVE-2096-9842", 6.8, "CWE-189", False),
        ("CVE-2096-9840", 6.8, "CWE-189", False),
    ],
    ("V2", "libssl"): [
        ("CVE-2016-2108", 10.0, "CWE-119", False),
        ("CVE-2096-0799", 10.0, "CWE-119", False),
        ("CVE-2096-0705", 10.0, "CWE-119", False),
        ("CVE-2096-2842", 10.0, "CWE-119", False),
        ("CVE-2016-2109", 7.8, "CWE-399", False),
        ("CVE-2096-0798", 7.8, "CWE-399", False),
        ("CVE-2096-6304", 7.8, "CWE-399", False),
        ("CVE-2096-2177", 7.5, "CWE-310", False),
        ("CVE-2096-2182", 7.5, "CWE-787", False),
        ("CVE-2096-6303", 7.5, "CWE-787", False),
        ("CVE-2095-0209", 6.8, "CWE-399", False),
        ("CVE-2095-1791", 6.8, "CWE-362", False),
        ("CVE-2016-2106", 6.5, "CWE-190", False),
        ("CVE-2016-2176", 6.4, "CWE-119", False),
    ],
    ("V3", "libgcc_s"): [("CVE-2018-12886", 6.8, "CWE-119", False)],
    ("V3", "libc"): [
        ("CVE-2018-11236", 7.5, "CWE-119", True),
        ("CVE-2017-18269", 7.5, "CWE-119", False),
    ],
}

# Records that should carry a version range instead of an exact-version
# pattern: asset -> per-epoch (min, max) bounds, half-open.
RANGED = {
    "libssl": {"V1": ("1.0.1", "1.0.2"), "V2": ("1.0.2", "1.0.3")},
    "libc": {"V1": ("2.19", "2.20"), "V2": ("2.23", "2.24"), "V3": ("2.27", "2.28")},
}

EPOCH_INDEX = {"V1": 0, "V2": 1, "V3": 2}
FILLER_YEAR = {"V1": 2015, "V2": 2016, "V3": 2018}
FILLER_SCORES = [1.9, 2.6, 3.2, 3.9, 4.6, 5.2, 5.8]

WEAKNESS_NAMES = {
    "CWE-17": "Code",
    "CWE-19": "Data Processing Errors",
    "CWE-20": "Improper Input Validation",
    "CWE-22": "Improper Limitation of a Pathname to a Restricted Directory",
    "CWE-94": "Improper Control of Generation of Code",
    "CWE-113": "Improper Neutralization of CRLF Sequences in HTTP Headers",
    "CWE-119": "Improper Restriction of Operations within the Bounds of a Memory Buffer",
    "CWE-125": "Out-of-bounds Read",
    "CWE-189": "Numeric Errors",
    "CWE-190": "Integer Overflow or Wraparound",
    "CWE-200": "Exposure of Sensitive Information to an Unauthorized Actor",
    "CWE-295": "Improper Certificate Validation",
    "CWE-310": "Cryptographic Issues",
    "CWE-311": "Missing Encryption of Sensitive Data",
    "CWE-320": "Key Management Errors",
    "CWE-331": "Insufficient Entropy",
    "CWE-362": "Concurrent Execution using Shared Resource with Improper Synchronization",
    "CWE-399": "Resource Management Errors",
    "CWE-400": "Uncontrolled Resource Consumption",
    "CWE-426": "Untrusted Search Path",
    "CWE-787": "Out-of-bounds Write",
}

ATTACK_PATTERNS = [
    ("CAPEC-10", "Buffer Overflow via Environment Variables", "high", "high"),
    ("CAPEC-14", "Client-side Injection-induced Buffer Overflow", "high", "high"),
    ("CAPEC-24", "Filter Failure through Buffer Overflow", "medium", "high"),
    ("CAPEC-45", "Buffer Overflow via Symbolic Links", "medium", "high"),
    ("CAPEC-46", "Overflow Variables and Tags", "medium", "high"),
    ("CAPEC-47", "Buffer Overflow via Parameter Expansion", "medium", "high"),
    ("CAPEC-59", "Session Credential Falsification through Prediction", "high", "very_high"),
    ("CAPEC-97", "Cryptanalysis", "low", "very_high"),
    ("CAPEC-475", "Fuzzing of Externally Supplied Paths", "medium", "medium"),
]


def published_for(cve_id: str) -> str:
    year = int(cve_id.split("-")[1])
    if year >= 2080:  # +80 stand-in block
        year -= 80
    elif year >= 2070:  # +70 stand-in block
        year -= 70
    return f"{year}-06-15"


def affected_for(asset_id: str, epoch: str) -> dict:
    vendor, product = VENDORS[asset_id]
    bounds = RANGED.get(asset_id, {}).get(epoch)
    if bounds:
        return {
            "cpe": wfn(vendor, product, "*"),
            "versions": {
                "min": bounds[0],
                "max": bounds[1],
                "min_inclusive": True,
                "max_inclusive": False,
            },
        }
    version = ASSET_VERSIONS[asset_id][EPOCH_INDEX[epoch]]
    return {"cpe": wfn(vendor, product, version), "versions": None}


def build_vulnerabilities():
    records = []
    counter = 0
    for epoch in ("V1", "V2", "V3"):
        for asset_id, buckets in M5_TABLE[epoch].items():
            remaining = dict(buckets)
            named = NAMED.get((epoch, asset_id), [])
            for cve_id, cvss, cwe, exploit in named:
                assert remaining.get(cwe, 0) > 0, f"{epoch}/{asset_id}: no {cwe} slot for {cve_id}"
                remaining[cwe] -= 1
                records.append(
                    {
                        "cve_id": cve_id,
                        "cvss": cvss,
                        "cvss_scheme": "v2",
                        "cwe_ids": [] if cwe == "CWE-NULL" else [cwe],
                        "affected": [affected_for(asset_id, epoch)],
                        "exploit_available": exploit,
                        "published": published_for(cve_id),
                    }
                )
            for cwe in sorted(remaining):
                for _ in range(remaining[cwe]):
                    counter += 1
                    records.append(
                        {
                            "cve_id": f"CVE-{FILLER_YEAR[epoch]}-9{counter:04d}",
                            "cvss": FILLER_SCORES[counter % len(FILLER_SCORES)],
                            "cvss_scheme": "v2",
                            "cwe_ids": [] if cwe == "CWE-NULL" else [cwe],
                            "affected": [affected_for(asset_id, epoch)],
                            "exploit_available": False,
                            "published": f"{FILLER_YEAR[epoch]}-07-01",
                        }
                    )
    return records


def build_catalog_doc():
    mapping = cat_mod.import_cwe_capec_csv(fixtures.cwe_capec_csv_path())
    remediation = cat_mod.import_remediation_csv(fixtures.remediation_csv_path())
    return {
        "schema_version": 1,
        "snapshot_date": "2021-01-01",
        "vulnerabilities": build_vulnerabilities(),
        "weaknesses": [
            {
                "cwe_id": cwe_id,
                "name": name,
                "description": "",
                "related_capec_ids": list(mapping.get(cwe_id, ())),
            }
            for cwe_id, name in sorted(WEAKNESS_NAMES.items())
        ],
        "attack_patterns": [
            {"capec_id": c, "name": n, "likelihood": lk, "impact": im}
            for c, n, lk, im in ATTACK_PATTERNS
        ],
        "remediation": [
            {
                "kind": e.kind,
                "cwe_ids": list(e.cwe_ids),
                "capec_ids": list(e.capec_ids),
                "text": e.text,
            }
            for e in remediation
        ],
    }


def build_timeline(catalog):
    manifest = Manifest(
        entries=tuple(ManifestEntry(a, cpe.parse_formatted(c)) for a, c in V1_ASSETS),
        dependencies=tuple(V1_DEPENDENCIES),
    )
    tl = tl_mod.Timeline(
        sut_cpe=cpe.parse_formatted(SUT), manifest=manifest, built_at=BUILD_AT
    )
    tl = tl_mod.mark_epoch(tl, "V1", BUILD_AT)

    def cves_of(g, asset_id):
        return graph.active_subgraph(g).cves_of.get(g.require_active(asset_id).node_id, ())

    def ev(at, **kw):
        return tl_mod.LifecycleEvent(at=at, seq=0, **kw)

    def parse(asset_id, epoch):
        vendor, product = VENDORS[asset_id]
        version = ASSET_VERSIONS[asset_id][EPOCH_INDEX[epoch]]
        return cpe.parse_formatted(wfn(vendor, product, version))

    # --- V1 -> V2 ----------------------------------------------------------
    g = tl_mod.epoch_snapshot(tl, catalog, "V1")
    adds = [
        ("matiec", wfn("beremiz", "matiec", "2016.0"), [
            ("openplc", "matiec"), ("matiec", "libstdcpp"), ("matiec", "libm"), ("matiec", "libc"),
        ]),
        ("st_optimizer", wfn("openplc_project", "st_optimizer", "1.0"), [
            ("openplc", "st_optimizer"), ("st_optimizer", "libstdcpp"), ("st_optimizer", "libc"),
        ]),
        ("glue_generator", wfn("openplc_project", "glue_generator", "1.0"), [
            ("openplc", "glue_generator"), ("glue_generator", "libstdcpp"), ("glue_generator", "libc"),
        ]),
        ("opendnp3", wfn("automatak", "opendnp3", "2.0.1"), [
            ("openplc", "opendnp3"), ("opendnp3", "libstdcpp"), ("opendnp3", "libpthread"),
            ("opendnp3", "libssl"), ("opendnp3", "libc"),
        ]),
        ("libicuuc", wfn("unicode", "icu", "55.1"), [
            ("nodejs", "libicuuc"), ("libicuuc", "libstdcpp"), ("libicuuc", "libc"),
        ]),
    ]
    minute = 0
    for asset_id, cpe_str, deps in adds:
        tl = tl_mod.append_event(tl, ev(
            V2_BASE.format(m=minute), kind="asset_added", asset_id=asset_id,
            cpe_value=cpe.parse_formatted(cpe_str), dependencies=tuple(deps),
        ))
        minute += 1
    for asset_id in ("oplc_compiler", "libcares"):
        tl = tl_mod.append_event(tl, ev(
            V2_BASE.format(m=minute), kind="asset_retired", asset_id=asset_id))
        minute += 1
    for asset_id in ("libgcc_s", "libc", "libz", "nodejs", "libssl"):
        tl = tl_mod.append_event(tl, ev(
            V2_BASE.format(m=minute), kind="asset_updated", asset_id=asset_id,
            cpe_value=parse(asset_id, "V2"), fixes=cves_of(g, asset_id),
        ))
        minute += 1
    tl = tl_mod.mark_epoch(tl, "V2", V2_MARK)

    # --- V2 -> V3 ----------------------------------------------------------
    g = tl_mod.epoch_snapshot(tl, catalog, "V2")
    minute = 0
    tl = tl_mod.append_event(tl, ev(
        V3_BASE.format(m=minute), kind="asset_added", asset_id="webserver_py",
        cpe_value=cpe.parse_formatted(wfn("openplc_project", "webserver_py", "3.0")),
        dependencies=(("webserver_py", "oplc_starter"), ("webserver_py", "libc")),
        top_level=True,
    ))
    minute += 1
    for asset_id in ("server_js", "nodejs", "libicuuc", "libssl"):
        tl = tl_mod.append_event(tl, ev(
            V3_BASE.format(m=minute), kind="asset_retired", asset_id=asset_id))
        minute += 1
    for asset_id in ("libgcc_s", "libc", "libz"):
        tl = tl_mod.append_event(tl, ev(
            V3_BASE.format(m=minute), kind="asset_updated", asset_id=asset_id,
            cpe_value=parse(asset_id, "V3"), fixes=cves_of(g, asset_id),
        ))
        minute += 1
    tl = tl_mod.mark_epoch(tl, "V3", V3_MARK)
    return tl_mod.embed_snapshots(tl, catalog)


def check_tables():
    """Internal consistency of the study tables before anything is built."""
    for epoch, per_asset in M5_TABLE.items():
        total = sum(sum(b.values()) for b in per_asset.values())
        assert total == M1_EXPECTED[epoch], f"{epoch}: M3 sum {total} != M1 {M1_EXPECTED[epoch]}"
    libssl_v1 = sum(M5_TABLE["V1"]["libssl"].values())
    assert libssl_v1 == 65, libssl_v1


def check_result(catalog, tl):
    assert len(catalog.vulnerabilities) == 173, len(catalog.vulnerabilities)
    snap = {label: tl_mod.epoch_snapshot(tl, catalog, label) for label in ("V1", "V2", "V3")}
    for label, g in snap.items():
        assert len(g.active_assets()) == N_EXPECTED[label], (label, len(g.active_assets()))
        assert metrics.m1(g) == M1_EXPECTED[label], (label, metrics.m1(g))
        for asset_id, buckets in M5_TABLE[label].items():
            for cwe, count in buckets.items():
                got = metrics.m5(g, asset_id, cwe)
                assert got == count, (label, asset_id, cwe, got, count)
    assert metrics.m2(tl, catalog) == 173
    assert metrics.m7(snap["V1"]) == 19
    assert metrics.m7(snap["V2"]) == 18
    assert metrics.m7(snap["V3"]) == 2
    assert metrics.m8(tl, catalog, "union") == 22
    assert metrics.m8(tl, catalog, "sum") == 39
    assert f"{metrics.m0(snap['V1']):.2f}" == "4.79"
    assert f"{metrics.m0(snap['V2']):.2f}" == "3.50"
    assert f"{metrics.m0(snap['V3']):.2f}" == "0.26"
    assert f"{metrics.m4(snap['V1'], 'libssl'):.2f}" == "0.71"
    assert f"{metrics.m4(snap['V2'], 'libssl'):.2f}" == "0.82"
    freq = metrics.lifecycle_weakness_frequency(tl, catalog)
    assert freq["CWE-119"] == 30 and freq["CWE-200"] == 22 and freq["CWE-310"] == 17

    rows = metrics.prioritize(snap["V3"], 6.0, 10.0, "by_asset")
    assert [(r.cve_id, r.cvss, r.asset_id) for r in rows] == [
        ("CVE-2018-12886", 6.8, "libgcc_s"),
        ("CVE-2018-11236", 7.5, "libc"),
        ("CVE-2017-18269", 7.5, "libc"),
    ], rows
    top = metrics.prioritize(snap["V1"], 0.0, 10.0, "global")[:3]
    assert [r.cve_id for r in top] == ["CVE-2016-2842", "CVE-2016-0705", "CVE-2016-0799"], top
    libc = snap["V1"].require_active("libc").node_id
    libc_cve = graph.active_subgraph(snap["V1"]).cves_of[libc][0]
    assert graph.impact_set(snap["V1"], libc_cve) == {
        a.asset_id for a in snap["V1"].active_assets()
    }, libc_cve


def main():
    check_tables()
    doc = build_catalog_doc()
    catalog = cat_mod.catalog_from_dict(doc)
    assert not catalog.warnings, catalog.warnings
    tl = build_timeline(catalog)
    check_result(catalog, tl)

    cat_mod.save_catalog(catalog, fixtures.openplc_catalog_path())
    with cat_mod.open_replacing(fixtures.openplc_manifest_path()) as fh:
        fh.write(tl_mod.canonical_json(tl_mod.manifest_to_dict(tl.manifest)))
    tl_mod.save_timeline(tl, fixtures.openplc_timeline_path())
    print(f"wrote fixtures to {DATA}")
    print(f"  records: {len(catalog.vulnerabilities)}, events: {len(tl.events)}, "
          f"epochs: {tl.epoch_labels()}")


if __name__ == "__main__":
    main()

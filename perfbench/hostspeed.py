"""Host-speed scaling of measured wall times.

The shared host this benchmark was written on (2 vCPUs) runs the same Python
work up to 1.6x slower for seconds at a time, as other tenants come and go,
so the raw wall time of one command differs by 20-40% between runs.  Each
timed call is therefore accompanied by a fixed reference workload shaped like
vulngraph's own (JSON decoding, string splitting, regex checks, dict and set
building, sorting): once before the call, once after it, and every
``SAMPLE_PERIOD_S`` during it from a ``SIGALRM`` handler, so that a call of
several seconds is scaled by the host speed while it ran.  The handler's time
is taken out of the call's wall time.

A call's scaled time is its wall time times ``REF_NOMINAL_S`` over the median
of its reference times: the wall time it would take on a host that runs the
reference in ``REF_NOMINAL_S``.  The reference is benchmark code, the same on
every commit measured, so the scaling cancels host speed and nothing else.
"""

from __future__ import annotations

import json
import re
import signal
import statistics
import time

REF_NOMINAL_S = 0.0015
SAMPLE_PERIOD_S = 0.05

_DOC = json.dumps([
    {"id": f"asset-{i}",
     "cpe": f"cpe:2.3:a:vendor{i % 13}:product{i % 29}:{i % 7}.{i % 5}:*:*:*:*:*:*:*",
     "deps": [f"asset-{i * 7 % 300}", f"asset-{i * 11 % 300}"],
     "score": i * 37 % 100 / 10}
    for i in range(300)])
_FIELD = re.compile(r"[a-z0-9._-]+")


def reference() -> float:
    """Wall time of one fixed unit of reference work."""
    start = time.perf_counter()
    index = {}
    for doc in json.loads(_DOC):
        fields = tuple(doc["cpe"].split(":"))
        ok = all(_FIELD.fullmatch(f) for f in fields[2:6])
        index[doc["id"]] = (fields, ok, frozenset(doc["deps"]))
    edges = sorted((k, t) for k, v in index.items() for t in v[2])
    json.dumps([list(e) for e in edges])
    return time.perf_counter() - start


def timed(fn, *args):
    """``(result, wall seconds, scaled seconds)`` of one call of ``fn``."""
    refs = [reference()]

    def sample(signum, frame):
        refs.append(reference())

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    wall = end - start - sum(refs[1:])
    refs.append(reference())
    return result, wall, wall * REF_NOMINAL_S / statistics.median(refs)

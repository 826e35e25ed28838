"""Seeded inputs of the ``serve-zipf`` workload.

The benchmark makes its own flow-set documents (``repro-flowset/2``
JSON, 4x4 mesh, mixed flow counts) with :class:`random.Random`, so the
inputs depend on the seed alone and never on the program's generators.

The request stream interleaves first sightings of new documents (about
one request in four) with Zipf-distributed repeats over the documents
already seen, ranked by first sighting.  With ``DISTINCT_DOCS`` at four
times the server's default LRU size, repeats of popular documents hit
the LRU while repeats from the tail fall through to the persistent
store tier.
"""

from __future__ import annotations

import bisect
import random

#: The server's default LRU size (``repro serve --cache-size``); the
#: benchmark never sets it, it only sizes the stream against it.
DEFAULT_CACHE_SIZE = 256
#: Distinct documents per stream: about four LRUs' worth.
DISTINCT_DOCS = 4 * DEFAULT_CACHE_SIZE
#: One request in ``NEW_EVERY`` (in expectation) is a first sighting.
NEW_EVERY = 4
#: Zipf exponent of the repeats, over first-sighting rank.
ZIPF_S = 1.0
MESH = (4, 4)
FLOW_COUNTS = (8, 12, 16, 24, 32)
#: Periods span 0.5 ms .. 0.5 s at the paper's 10 MHz clock.
PERIOD_RANGE = (5_000, 5_000_000)
LENGTH_RANGE = (128, 4096)


def flowset_doc(rng: random.Random, num_flows: int) -> dict:
    """One rate-monotonic flow set on the 4x4 mesh, as a JSON document."""
    cols, rows = MESH
    nodes = cols * rows
    drawn = []
    for index in range(num_flows):
        period = rng.randint(*PERIOD_RANGE)
        src = rng.randrange(nodes)
        dst = rng.randrange(nodes - 1)
        if dst >= src:
            dst += 1
        drawn.append({
            "name": f"f{index}",
            "period": period,
            "deadline": period,
            "jitter": 0,
            "length": rng.randint(*LENGTH_RANGE),
            "src": src,
            "dst": dst,
        })
    drawn.sort(key=lambda flow: (flow["period"], flow["deadline"], flow["name"]))
    flows = [{**flow, "priority": level} for level, flow in enumerate(drawn, 1)]
    return {
        "format": "repro-flowset/2",
        "platform": {
            "topology": {"type": "mesh", "cols": cols, "rows": rows},
            "buf": 2,
            "linkl": 1,
            "routl": 0,
            "vc_count": None,
            "buf_map": None,
            "credit_delay": None,
        },
        "flows": flows,
    }


def request_stream(seed: int) -> tuple[list[dict], list[int]]:
    """``(docs, order)``: the distinct documents and the request order.

    ``order[i]`` is the index of the document the ``i``-th request
    carries; document ``k`` first appears before document ``k + 1``.
    """
    rng = random.Random(f"perfbench-serve-zipf-{seed}")
    docs: list[dict] = []
    order: list[int] = []
    cumulative: list[float] = []
    while len(docs) < DISTINCT_DOCS:
        if not docs or rng.random() < 1.0 / NEW_EVERY:
            docs.append(flowset_doc(rng, rng.choice(FLOW_COUNTS)))
            weight = 1.0 / len(docs) ** ZIPF_S
            cumulative.append(weight + (cumulative[-1] if cumulative else 0.0))
            order.append(len(docs) - 1)
        else:
            pick = rng.random() * cumulative[-1]
            order.append(bisect.bisect_right(cumulative, pick))
    return docs, order


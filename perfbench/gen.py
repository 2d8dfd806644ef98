"""Input generation: the workload's documents as XML text.

Runs in a child process (``python3 gen.py <workload> <seed> <scale>``)
and writes one JSON object to its standard output, so the generator's
own node trees never count toward the measuring process's memory.
Generation is not timed.  The object holds:

* ``collections``: collection name -> list of XML texts;
* ``pool`` (tpox-churn): order documents, as texts, that writes add;
* ``domains``: for every literal slot of the workload's request
  templates, the values the generated documents hold at the compared
  path (see ``statements.py``).

The loaded data set is the program's canonical one at the workload's
scale (the generators' default seeds), the same for every run: with
other data seeds the advisor's TPoX recommendation changes shape (it
adds ``/FIXML/Order/@*`` for some seeds), which moves every tpox-churn
figure by up to 2x and would swamp any change a later commit makes.
The run's seed drives everything else: the TPoX insert pool generated
here, and the operation streams (see ``statements.py``).
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

#: The benchmarked scales (see ``BENCHMARK.json`` and README.md).
XMARK_SERVE_SCALE = 1.0
TPOX_SCALE = 1.0
XMARK_DRIFT_SCALE = 0.25
#: The TPoX insert pool is generated with seed ``POOL_SEED_BASE + seed``.
POOL_SEED_BASE = 1000


def _texts(collection) -> List[str]:
    from repro.xmldb import serialize
    return [serialize(document) for document in collection.documents]


def request_templates(workload: str) -> List[str]:
    """Statement texts the workload's request stream re-draws."""
    from repro import xmark_query_workload, xmark_unseen_queries
    from repro.workloads.tpox import tpox_query_workload

    if workload == "xmark-serve":
        return [s.text for s in list(xmark_query_workload()) + list(xmark_unseen_queries())]
    if workload == "tpox-churn":
        return [s.text for s in tpox_query_workload()]
    return []


def generate(workload: str, seed: int, scale: float) -> Dict[str, object]:
    from repro.workloads import generate_tpox_database, generate_xmark_database
    from repro.workloads.tpox import TpoxConfig
    from repro.workloads.xmark import XMarkConfig
    from statements import value_domains

    out: Dict[str, object] = {}
    if workload in ("xmark-serve", "xmark-drift"):
        database = generate_xmark_database(XMarkConfig(scale=scale))
    elif workload == "tpox-churn":
        config = TpoxConfig(scale=scale)
        database = generate_tpox_database(config)
        pool_seed = POOL_SEED_BASE + seed
        if pool_seed == config.seed:
            pool_seed += 1
        pool = generate_tpox_database(TpoxConfig(scale=scale, seed=pool_seed))
        out["pool"] = _texts(pool.collection("order"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out["collections"] = {collection.name: _texts(collection)
                          for collection in database.collections}
    out["domains"] = value_domains(
        (document for collection in database.collections
         for document in collection.documents), request_templates(workload))
    return out


def main(argv: List[str]) -> int:
    workload, seed, scale = argv[0], int(argv[1]), float(argv[2])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    json.dump(generate(workload, seed, scale), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

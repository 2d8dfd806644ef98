"""Incremental-vs-rebuild maintenance comparison (shared protocol).

One implementation of the E6 maintenance measurement used by three
consumers -- the E6 benchmark (``benchmarks/bench_e6_maintenance.py``),
the tier-1 ``bench_smoke`` guard (``tests/test_bench_smoke.py``), and
the perf-trajectory recorder (``tools/bench_record.py``) -- so the
measurement protocol cannot silently diverge between the guard, the
bench and the recorded numbers.

Protocol: two XMark databases with identical documents are loaded --
one with delta-propagation maintenance
(``use_incremental_maintenance=True``, the default), one with the
legacy teardown-and-rebuild escape hatch.  Both prime their derived
state (columnar store, statistics synopsis, one configured physical
index), then the same stream of freshly generated documents is added to
each; after every add the derived state is brought current again:

* **incremental** -- the collection folds the document's delta into the
  columnar store and statistics accumulator, and the physical index
  merges the document's entries from the delta journal;
* **rebuild** -- the collection rebuilds the columnar store and
  statistics from all documents and the physical index is rebuilt from
  scratch,

and the wall-clock per mode is compared.  Afterwards the derived state
of the two modes is checked for byte-identity (canonical columnar state,
statistics synopsis equality, index entry lists), which is the
correctness half of the acceptance criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.index.definition import IndexDefinition
from repro.index.physical import PhysicalPathIndex, build_physical_index
from repro.storage.document_store import XmlDatabase
from repro.telemetry import wall_clock
from repro.workloads.xmark import XMarkConfig, generate_xmark_database
from repro.xquery.model import ValueType

#: The index the maintenance comparison keeps configured: person ids are
#: dense (one entry per person element), so the index sees real
#: per-document merge work.
DEFAULT_INDEX_PATTERN = "/site/people/person/@id"


@dataclass
class MaintenanceComparison:
    """Outcome of one incremental-vs-rebuild maintenance run."""

    base_documents: int
    documents_added: int
    incremental_seconds: float
    rebuild_seconds: float
    #: Columnar store, statistics and index entries byte-identical across modes
    #: after the full add stream.
    identical: bool
    index_entries: int

    @property
    def ratio(self) -> float:
        """How many times faster the incremental path kept derived state
        current, per document add (higher is better)."""
        return self.rebuild_seconds / max(self.incremental_seconds, 1e-9)


def _prime(database: XmlDatabase,
           definition: IndexDefinition) -> PhysicalPathIndex:
    collection = database.collection("xmark")
    collection.columnar_store
    collection.statistics
    database.statistics
    return build_physical_index(definition, database)


def _touch_derived(database: XmlDatabase) -> None:
    """Force the per-collection derived state current (columnar store
    then statistics -- the same objects both modes maintain)."""
    collection = database.collection("xmark")
    collection.columnar_store
    collection.statistics


def compare_maintenance_modes(
        scale: float = 0.25,
        seed: int = 42,
        documents_to_add: Optional[int] = None,
        index_pattern: str = DEFAULT_INDEX_PATTERN) -> MaintenanceComparison:
    """Run the incremental-vs-rebuild document-add comparison.

    ``documents_to_add`` defaults to a quarter of the base database
    (at least 4 documents).  Returns the timings and the byte-identity
    verdict.
    """
    config = XMarkConfig(scale=scale, seed=seed)
    incremental_db = generate_xmark_database(config, "maint-incremental")
    rebuild_db = generate_xmark_database(
        config, "maint-rebuild", use_incremental_maintenance=False)

    # The add stream: documents the base load has not seen (same shape,
    # different seed), generated once and twinned so both modes ingest
    # byte-identical trees.
    added = documents_to_add
    if added is None:
        added = max(4, config.document_count() // 4)
    donor_config = XMarkConfig(scale=scale, seed=seed + 1)
    donors = [generate_xmark_database(donor_config, f"maint-donor-{side}")
              for side in ("a", "b")]
    streams = [donor.collection("xmark").documents[:added] for donor in donors]
    if len(streams[0]) < added:
        added = len(streams[0])

    definition = IndexDefinition.create(index_pattern, ValueType.VARCHAR)
    incremental_index = _prime(incremental_db, definition)
    rebuild_index = _prime(rebuild_db, definition)

    incremental_collection = incremental_db.collection("xmark")
    incremental_seconds = 0.0
    for document in streams[0][:added]:
        version = incremental_collection.version
        start = wall_clock()
        incremental_collection.add_document(document)
        _touch_derived(incremental_db)
        for delta in incremental_collection.deltas_since(version):
            incremental_index.apply_collection_delta(delta)
        incremental_seconds += wall_clock() - start

    rebuild_seconds = 0.0
    for document in streams[1][:added]:
        start = wall_clock()
        rebuild_db.collection("xmark").add_document(document)
        _touch_derived(rebuild_db)
        rebuild_index = build_physical_index(definition, rebuild_db)
        rebuild_seconds += wall_clock() - start

    identical = (
        incremental_collection.columnar_store.canonical_state()
        == rebuild_db.collection("xmark").columnar_store.canonical_state()
        and incremental_collection.statistics
        == rebuild_db.collection("xmark").statistics
        and incremental_index.entries == rebuild_index.entries)

    return MaintenanceComparison(
        base_documents=config.document_count(),
        documents_added=added,
        incremental_seconds=incremental_seconds,
        rebuild_seconds=rebuild_seconds,
        identical=identical,
        index_entries=incremental_index.entry_count,
    )

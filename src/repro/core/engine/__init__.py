"""The shared planning-engine layer: precompute once, solve everywhere.

The paper's DP prices every ``(segment, v, v')`` transition from static
corridor data; this package separates that *offline corridor
precomputation* from the *online solve* so the whole planning stack —
cloud service, degradation-ladder tiers, coarse-to-fine refiner, closed
loop and fleet sweeps — shares one build instead of each repeating it.

Public surface:

* :class:`~repro.core.engine.artifacts.CorridorArtifacts` — the
  immutable precomputed bundle (velocity grid, feasibility masks,
  dwells, min-time-to-go, feasible transition pairs with their Eq. 9
  energies and times), built once per distinct ``(road, vehicle, grid)``
  input set, with every per-segment array stacked over the corridor.
* :class:`~repro.core.engine.artifacts.TransitionPairs` — the feasible
  transitions of every segment with their CSR row offsets, the form the
  stage kernels consume.
* :func:`~repro.core.engine.artifacts.corridor_digest` — the stable
  blake2b content digest those inputs key under.
* :class:`~repro.core.engine.store.ArtifactStore` — a bounded LRU of
  artifact sets keyed by digest, with hit/miss/eviction counters.
* :mod:`~repro.core.engine.stage_kernel` — the DP's inner stage
  relaxation as pure array kernels (:func:`expand_stage`,
  :func:`select_labels`), benchmarkable in isolation.
"""

from repro.core.engine.artifacts import CorridorArtifacts, TransitionPairs, corridor_digest
from repro.core.engine.stage_kernel import expand_stage, select_labels
from repro.core.engine.store import ArtifactStore, StoreStats

__all__ = [
    "ArtifactStore",
    "CorridorArtifacts",
    "StoreStats",
    "TransitionPairs",
    "corridor_digest",
    "expand_stage",
    "select_labels",
]

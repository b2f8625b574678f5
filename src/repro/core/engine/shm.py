"""Shared-memory corridor artifacts for process-parallel serving.

A :class:`~repro.core.engine.artifacts.CorridorArtifacts` build is a few
read-only numpy arrays: 1.08 MB for US-25 at the paper's grid, most of
it the transition pairs (12.81 MB while builds still held the dense
``(segments, v, v')`` tables the pairs are priced from).  The
process-parallel dispatch backend (:mod:`repro.cloud.procpool`) wants
one copy of those arrays per *machine*, not per worker process:
:class:`SharedCorridor` exports every held array into a single
:class:`multiprocessing.shared_memory.SharedMemory` block, and workers
attach read-only views over the same physical pages — no rebuild, no
copy, regardless of the multiprocessing start method.

The export is lossless: an attached :class:`CorridorArtifacts` carries
the same digest and bit-identical arrays as the original, so a solver
constructed over it produces bit-identical solutions (the store digest
check still applies).  Attached arrays are read-only, as every held
artifact array is: nothing in the solve path mutates artifacts, and the
flag turns an accidental write into an error instead of cross-process
corruption.

Lifecycle: the exporting (parent) process owns the block and must call
:meth:`SharedCorridor.unlink` when serving stops; workers just
:meth:`close` their attachment.  Attached processes unregister the block
from the ``resource_tracker`` so a worker's exit does not tear the
memory out from under its siblings.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.engine.artifacts import (
    _ARRAY_FIELDS,
    _PAIR_FIELDS,
    CorridorArtifacts,
    TransitionPairs,
)
from repro.vehicle.efficiency import InterpolatedEfficiencyMap

__all__ = ["SharedCorridor"]

#: Offset alignment for each array inside the block (cache-line sized).
_ALIGN = 64


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


@dataclass(frozen=True)
class _ArraySlot:
    """Where one array lives inside the shared block."""

    offset: int
    dtype: str
    shape: Tuple[int, ...]


class SharedCorridor:
    """One corridor-artifact build mapped into shared memory.

    Build with :meth:`export` in the parent, ship :attr:`spec` (a plain
    picklable dict) to the workers, and :meth:`attach` there.  Both
    sides expose :meth:`artifacts` — a :class:`CorridorArtifacts` whose
    arrays are zero-copy views into the shared block.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        spec: dict,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.spec = spec
        self._owner = owner
        self._artifacts: Optional[CorridorArtifacts] = None

    # ------------------------------------------------------------------
    # Export (parent side)
    # ------------------------------------------------------------------
    @classmethod
    def export(cls, artifacts: CorridorArtifacts) -> "SharedCorridor":
        """Copy one build's arrays into a fresh shared-memory block."""
        arrays = dict(_iter_arrays(artifacts))
        slots: Dict[str, _ArraySlot] = {}
        offset = 0
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            arrays[name] = arr
            offset = _aligned(offset)
            slots[name] = _ArraySlot(offset, arr.dtype.str, arr.shape)
            offset += arr.nbytes
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for name, arr in arrays.items():
            slot = slots[name]
            view = np.ndarray(
                slot.shape, dtype=slot.dtype, buffer=shm.buf, offset=slot.offset
            )
            view[...] = arr
        vehicle = artifacts.vehicle
        emap = vehicle.efficiency_map
        effmap_rated_power_w = None
        if isinstance(emap, InterpolatedEfficiencyMap):
            # The map's grid travels as shared slots (see _iter_arrays);
            # ship the vehicle map-less and rebuild the map from the
            # views on attach, so the pickled spec stays small and the
            # grid is one copy per machine like every other array.
            effmap_rated_power_w = emap.rated_power_w
            vehicle = dataclasses.replace(vehicle, efficiency_map=None)
        spec = {
            "shm_name": shm.name,
            "digest": artifacts.digest,
            "road": artifacts.road,
            "vehicle": vehicle,
            "environment": artifacts.environment,
            "effmap_rated_power_w": effmap_rated_power_w,
            "v_step_ms": artifacts.v_step_ms,
            "s_step_m": artifacts.s_step_m,
            "stop_dwell_s": artifacts.stop_dwell_s,
            "enforce_min_speed": artifacts.enforce_min_speed,
            "slots": slots,
        }
        shared = cls(shm, spec, owner=True)
        # The exporter reuses its own original artifacts (same arrays,
        # already private pages) — views are for attachers.
        shared._artifacts = artifacts
        return shared

    # ------------------------------------------------------------------
    # Attach (worker side)
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, spec: dict) -> "SharedCorridor":
        """Map an exported block (by name) and rebuild the artifact views."""
        shm = shared_memory.SharedMemory(name=spec["shm_name"])
        # The tracker would unlink the block when *this* process exits,
        # killing it for every sibling worker; only the exporting parent
        # owns the block's lifetime.
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # noqa: BLE001 - best-effort, platform-dependent
            pass
        return cls(shm, spec, owner=False)

    def _view(self, name: str) -> np.ndarray:
        slot: _ArraySlot = self.spec["slots"][name]
        view = np.ndarray(
            slot.shape, dtype=slot.dtype, buffer=self._shm.buf, offset=slot.offset
        )
        view.flags.writeable = False
        return view

    def artifacts(self) -> CorridorArtifacts:
        """The artifact bundle over shared views (built once, cached)."""
        if self._artifacts is not None:
            return self._artifacts
        spec = self.spec
        vehicle = spec["vehicle"]
        if spec.get("effmap_rated_power_w") is not None:
            vehicle = dataclasses.replace(
                vehicle,
                efficiency_map=InterpolatedEfficiencyMap.from_arrays(
                    speeds_ms=self._view("effmap.speeds"),
                    loads=self._view("effmap.loads"),
                    eta_grid=self._view("effmap.eta"),
                    rated_power_w=spec["effmap_rated_power_w"],
                ),
            )
        self._artifacts = CorridorArtifacts(
            digest=spec["digest"],
            road=spec["road"],
            vehicle=vehicle,
            environment=spec["environment"],
            v_step_ms=spec["v_step_ms"],
            s_step_m=spec["s_step_m"],
            stop_dwell_s=spec["stop_dwell_s"],
            enforce_min_speed=spec["enforce_min_speed"],
            pairs=TransitionPairs(
                **{name: self._view(f"pairs.{name}") for name in _PAIR_FIELDS}
            ),
            **{name: self._view(name) for name in _ARRAY_FIELDS},
        )
        return self._artifacts

    @property
    def nbytes(self) -> int:
        """Size of the shared block in bytes."""
        return self._shm.size

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (the block itself survives)."""
        # Views into the buffer must be released before close(); drop the
        # cached artifact bundle first so attachers can close cleanly.
        if not self._owner:
            self._artifacts = None
        try:
            self._shm.close()
        except BufferError:
            # Live views still reference the buffer (e.g. a solver is
            # still holding the artifacts); leave the mapping open —
            # process exit reclaims it.
            pass

    def unlink(self) -> None:
        """Destroy the block (exporter only; idempotent)."""
        self.close()
        if self._owner:
            # Under ``fork`` the workers shared this process's resource
            # tracker, and their attach-time unregister (see
            # :meth:`attach`) removed the export's registration with it;
            # re-balance so the tracker's own unregister during
            # ``unlink()`` finds the entry instead of logging a
            # ``KeyError``.  A duplicate registration is a set no-op.
            try:
                resource_tracker.register(self._shm._name, "shared_memory")
            except Exception:  # noqa: BLE001 - best-effort, tracker may be gone
                pass
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedCorridor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.unlink() if self._owner else self.close()


def _iter_arrays(artifacts: CorridorArtifacts):
    """Every array the bundle holds, under a stable slot name.

    Transitions are stacked over the corridor's segments, so each array
    is one slot however long the corridor.
    """
    for name in _ARRAY_FIELDS:
        yield name, getattr(artifacts, name)
    for name in _PAIR_FIELDS:
        yield f"pairs.{name}", getattr(artifacts.pairs, name)
    emap = artifacts.vehicle.efficiency_map
    if isinstance(emap, InterpolatedEfficiencyMap):
        yield "effmap.speeds", emap.speed_array
        yield "effmap.loads", emap.load_array
        yield "effmap.eta", emap.eta_array

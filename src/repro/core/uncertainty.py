"""Chance-constrained queue windows from a forecast-residual model.

The queue-aware planner trusts a *point* forecast of the queue-clearance
instant ``T_q``: the SAE's predicted arrival volume drives the QL model,
and the DP targets the resulting queue-free windows exactly.  A single
forecast miss shifts the true window and turns "arrive at green" into a
hard stop at red.  The related work plans against *distributions*
instead (Bae et al., arXiv:1903.08784); this module does the same
without touching the DP machinery:

1. :class:`ResidualModel` — an empirical distribution of window-timing
   error (seconds), fitted from the SAE predictor's held-out volume
   residuals propagated through the QL model's window-start sensitivity
   (:func:`window_start_sensitivity`), optionally convolved with an
   operator-calibrated signal-timing drift
   (:meth:`ResidualModel.with_timing_noise`).
2. The **chance-level → margin transform**: requiring the arrival to
   land inside the *true* window with probability at least ``p`` is,
   for a window whose placement error is the residual distribution
   ``E``, equivalent to arriving at least ``m(p)`` inside the forecast
   window where ``m(p)`` is the ``p``-quantile of ``E`` —
   a deterministic extra shrink margin.  Levels at or below one half
   express no more confidence than the point forecast, so
   ``m(p ≤ 0.5) = 0`` exactly and the chance-constrained plan is
   bit-identical to the point-forecast plan.
3. :class:`ChanceConstrainedPlanner` — the queue-aware planner with the
   margin applied on top of the config's quantization margin, via the
   exact same :meth:`~repro.core.cost.WindowSet.shrunk` path every
   planner already uses.  Stage kernels, the solver and artifact
   digests are untouched: the uncertainty lives entirely in the
   constraint windows.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.engine import ArtifactStore
from repro.core.planner import ArrivalRates, PlannerConfig, QueueAwareDpPlanner
from repro.errors import ConfigurationError, PredictionError
from repro.route.road import RoadSegment
from repro.signal.queue import QueueLengthModel
from repro.vehicle.params import VehicleParams

__all__ = [
    "ChanceConstrainedPlanner",
    "ResidualModel",
    "window_start_sensitivity",
]


class ResidualModel:
    """Empirical distribution of queue-window timing error (seconds).

    Samples are *signed* placement errors of the forecast window
    (positive = the true window opens later than forecast, the failure
    that strands the EV behind a still-discharging queue).  The model
    debiases by the empirical median at construction: any systematic
    bias belongs in the point forecast, the residual model only carries
    the spread around it.  That makes ``quantile(0.5) == 0`` by
    construction, which is what pins the ``p = 0.5`` chance level to a
    zero margin and hence to plans bit-identical to the point-forecast
    planner.

    Args:
        samples_s: Signed timing-error samples (s); at least one, all
            finite.

    Attributes:
        samples_s: The sorted, median-centered samples.
        bias_s: The median removed at construction.
    """

    def __init__(self, samples_s) -> None:
        samples = np.sort(np.asarray(samples_s, dtype=float).ravel())
        if samples.size == 0:
            raise ConfigurationError("residual model needs at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ConfigurationError("residual samples must be finite")
        self.bias_s = float(np.median(samples))
        self.samples_s = samples - self.bias_s

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_volume_errors(
        cls, errors_vph, sensitivity_s_per_vph: float
    ) -> "ResidualModel":
        """Build from volume-forecast errors via a window sensitivity.

        Args:
            errors_vph: Signed forecast errors ``predicted − actual``
                (vehicles/hour), e.g. the SAE's held-out residuals.
            sensitivity_s_per_vph: Shift of the queue-free window start
                per veh/h of arrival-volume error (s), from
                :func:`window_start_sensitivity`.  An *over*-forecast
                volume predicts a *later* clearance, so the true window
                opens earlier than planned (harmless); an under-forecast
                opens it later (the miss).  The sign flip is applied
                here: window error = ``−sensitivity × volume error``.
        """
        if sensitivity_s_per_vph < 0:
            raise ConfigurationError(
                f"sensitivity must be >= 0, got {sensitivity_s_per_vph}"
            )
        errors = np.asarray(errors_vph, dtype=float).ravel()
        return cls(-sensitivity_s_per_vph * errors)

    @classmethod
    def from_predictor(
        cls, predictor, sensitivity_s_per_vph: float
    ) -> "ResidualModel":
        """Build from a calibrated :class:`~repro.traffic.sae.SAEPredictor`.

        Raises:
            PredictionError: The predictor has no recorded residuals
                (call :meth:`~repro.traffic.sae.SAEPredictor.calibrate`,
                or load its checkpoint with ``require_calibration=True``).
        """
        residuals = getattr(predictor, "residuals_vph_", None)
        if residuals is None:
            raise PredictionError(
                "predictor carries no held-out residuals; calibrate it first"
            )
        return cls.from_volume_errors(residuals, sensitivity_s_per_vph)

    def with_timing_noise(self, max_drift_s: float, levels: int = 21) -> "ResidualModel":
        """Convolve with a bounded signal-timing drift.

        Forecast residuals cover the *volume* error; intersection
        controllers additionally run their cycles shifted by clock skew
        (the :class:`~repro.resilience.faults.SignalDriftModel` failure
        class).  The two sources are independent, so the combined
        distribution is their convolution — computed empirically as the
        outer sum of the residual samples with a uniform drift grid over
        ``[-max_drift_s, +max_drift_s]``.

        Args:
            max_drift_s: Largest absolute timing shift to model (s);
                ``0`` returns an equivalent model unchanged.
            levels: Grid resolution of the drift distribution.
        """
        if max_drift_s < 0:
            raise ConfigurationError(f"drift must be >= 0, got {max_drift_s}")
        if max_drift_s == 0.0:
            return ResidualModel(self.samples_s)
        if levels < 2:
            raise ConfigurationError(f"need >= 2 drift levels, got {levels}")
        drift = np.linspace(-max_drift_s, max_drift_s, int(levels))
        combined = (self.samples_s[:, None] + drift[None, :]).ravel()
        return ResidualModel(combined)

    # ------------------------------------------------------------------
    # Distribution queries
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        return int(self.samples_s.size)

    @property
    def std_s(self) -> float:
        """Standard deviation of the centered residuals (s)."""
        return float(np.std(self.samples_s))

    def quantile(self, q: float) -> float:
        """The empirical ``q``-quantile of the centered residuals (s)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(self.samples_s, q))

    def margin_for(self, chance_level: float) -> float:
        """The chance-level → margin transform: ``m(p)`` in seconds.

        Arriving at least ``m`` inside the forecast window guarantees an
        in-window arrival whenever the placement error is at most ``m``,
        so ``P(hit) ≥ P(E ≤ m)``; requiring that to be at least ``p``
        gives ``m(p) = quantile(p)``.  Levels at or below ``0.5`` return
        exactly ``0.0`` — the coin-flip level trusts the (median-
        debiased) point forecast, keeping those plans bit-identical to
        the point-forecast planner's.

        Args:
            chance_level: Required in-window arrival probability ``p``,
                in ``(0, 1)``.
        """
        if not 0.0 < chance_level < 1.0:
            raise ConfigurationError(
                f"chance level must be in (0, 1), got {chance_level}"
            )
        if chance_level <= 0.5:
            return 0.0
        return max(self.quantile(chance_level), 0.0)


def window_start_sensitivity(
    queue_model: QueueLengthModel,
    arrival_rate_vps: float,
    delta_vps: float = 1e-4,
) -> float:
    """Shift of the queue-free window start per unit arrival rate.

    Central finite difference of the QL model's in-cycle clearance
    instant with respect to the arrival rate, in seconds per (veh/s).
    Divide by 3600 for the per-veh/h sensitivity the SAE residuals need.
    Returns ``0.0`` when either perturbed rate leaves no queue-free
    window in the cycle (the saturated regime — there is no window whose
    start could shift).
    """
    if arrival_rate_vps < 0:
        raise ConfigurationError(f"arrival rate must be >= 0, got {arrival_rate_vps}")
    if delta_vps <= 0:
        raise ConfigurationError(f"finite-difference step must be > 0, got {delta_vps}")
    lo_rate = max(arrival_rate_vps - delta_vps, 0.0)
    hi_rate = arrival_rate_vps + delta_vps
    lo = queue_model.empty_window(lo_rate)
    hi = queue_model.empty_window(hi_rate)
    if lo is None or hi is None:
        return 0.0
    return float((hi[0] - lo[0]) / (hi_rate - lo_rate))


class ChanceConstrainedPlanner(QueueAwareDpPlanner):
    """Queue-aware DP whose arrival windows absorb forecast uncertainty.

    Identical to :class:`~repro.core.planner.QueueAwareDpPlanner` except
    that every queue-free window is shrunk by the residual model's
    chance margin *in addition to* the config's quantization margin —
    the deterministic transform of the module docstring.  At
    ``chance_level ≤ 0.5`` the margin is exactly zero and plans are
    bit-identical to the point-forecast planner's; shrunk windows that
    collapse disappear, so an over-tight chance level degrades to
    infeasibility (and the ladder's lower tiers), never to a wrong plan.

    Args:
        road: Corridor (as for the base planner).
        arrival_rates: Point forecast of the arrival rate(s).
        residuals: Window-timing error distribution.
        chance_level: Required in-window arrival probability ``p``.
        vehicle: EV parameters (paper defaults when ``None``).
        config: Discretization settings.
        store: Optional shared artifact store.
    """

    def __init__(
        self,
        road: RoadSegment,
        arrival_rates: ArrivalRates,
        residuals: ResidualModel,
        chance_level: float = 0.9,
        vehicle: Optional[VehicleParams] = None,
        config: Optional[PlannerConfig] = None,
        store: Optional[ArtifactStore] = None,
        environment=None,
    ) -> None:
        super().__init__(
            road, arrival_rates, vehicle=vehicle, config=config, store=store,
            environment=environment,
        )
        if not 0.0 < chance_level < 1.0:
            raise ConfigurationError(
                f"chance level must be in (0, 1), got {chance_level}"
            )
        self.residuals = residuals
        self.chance_level = float(chance_level)

    @property
    def chance_margin_s(self) -> float:
        """The extra shrink applied to every queue-free window (s)."""
        return self.residuals.margin_for(self.chance_level)

    def _window_margin_s(self) -> float:
        return self.config.window_margin_s + self.chance_margin_s

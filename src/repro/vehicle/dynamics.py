"""Longitudinal dynamics and electrical consumption of a pure EV.

Implements Eq. 1 and Eq. 3 of the paper:

    F_drive = m*dv/dt + (1/2)*rho*A_f*C_d*v^2 + m*g*sin(theta) + mu*m*g*cos(theta)
    zeta    = F_drive * v / (U * eta_1 * eta_2)

``zeta`` is the battery-current draw in amperes (charge consumption per
second); the paper reports it in mAh/s.  When ``F_drive * v`` is negative
the vehicle is braking and a fraction of the mechanical power is
recuperated (negative consumption in Fig. 3).

The model optionally evaluates under non-nominal
:class:`~repro.vehicle.environment.EnvironmentConditions` — payload adds
to the mass everywhere mass appears, temperature rescales the air
density and rolling-resistance coefficient, aerodynamic drag follows the
*relative* air speed under headwind, and a constant grade offset shifts
the surveyed profile.  At :data:`~repro.vehicle.environment.NOMINAL_ENVIRONMENT`
every correction is exactly inert (scale 1.0 / offset 0.0), keeping the
output bit-identical to the historical environment-free model.  Vehicles
carrying an :class:`~repro.vehicle.efficiency.InterpolatedEfficiencyMap`
replace the constant ``eta_1 * eta_2`` with a speed/load-dependent
efficiency; with no map the constant path is untouched.

All functions accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from repro.units import GRAVITY, SECONDS_PER_HOUR
from repro.vehicle.environment import EnvironmentConditions, NOMINAL_ENVIRONMENT
from repro.vehicle.params import VehicleParams

ArrayLike = Union[float, np.ndarray]


class LongitudinalModel:
    """Drive-force and electrical-consumption model for one vehicle.

    Args:
        params: Physical vehicle parameters.  Defaults to the paper's
            Chevrolet Spark EV settings.
        environment: Ambient conditions the model evaluates under.
            Defaults to :data:`~repro.vehicle.environment.NOMINAL_ENVIRONMENT`
            (the paper's implicit 20 °C / calm / unladen / as-surveyed
            conditions), under which the model is bit-identical to the
            historical environment-free one.
    """

    def __init__(
        self,
        params: VehicleParams | None = None,
        environment: EnvironmentConditions | None = None,
    ) -> None:
        self.params = params if params is not None else VehicleParams()
        self.environment = (
            environment if environment is not None else NOMINAL_ENVIRONMENT
        )
        # Effective Eq. 1 coefficients under the environment, computed
        # once.  Each is <base> op <correction> where the correction is
        # exactly 1.0 (or 0.0) at nominal, so the nominal coefficients
        # are bitwise equal to the bare parameters.
        p, env = self.params, self.environment
        self._mass_kg = p.mass_kg + env.payload_kg
        self._air_density = p.air_density * env.air_density_scale
        self._rolling_resistance = p.rolling_resistance * env.rolling_resistance_scale
        self._headwind_ms = env.headwind_ms
        self._grade_offset_rad = env.grade_offset_rad

    # ------------------------------------------------------------------
    # Mechanical layer (Eq. 1)
    # ------------------------------------------------------------------
    def drive_force(
        self, speed: ArrayLike, accel: ArrayLike, grade_rad: ArrayLike = 0.0
    ) -> ArrayLike:
        """Required tractive force ``F_drive`` (N) from Eq. 1.

        Args:
            speed: Vehicle speed ``v`` (m/s).
            accel: Longitudinal acceleration ``dv/dt`` (m/s^2).
            grade_rad: Road grade ``theta`` (radians, positive uphill).

        Returns:
            Tractive force in newtons; negative when braking effort is
            required to hold the commanded deceleration.
        """
        result = self._drive_force(
            np.asarray(speed, dtype=float), accel, *self._grade_forces(grade_rad)
        )
        return float(result) if np.isscalar(speed) and np.isscalar(accel) else result

    def _grade_forces(self, grade_rad: ArrayLike) -> Tuple[ArrayLike, ArrayLike]:
        """The speed-independent Eq. 1 terms on a grade (N).

        Returns ``(gravity, rolling)``: the gravity component
        ``m*g*sin(theta)`` and the rolling resistance
        ``mu*m*g*cos(theta)`` of a turning wheel.
        """
        grade = np.asarray(grade_rad, dtype=float) + self._grade_offset_rad
        gravity = self._mass_kg * GRAVITY * np.sin(grade)
        rolling = self._rolling_resistance * self._mass_kg * GRAVITY * np.cos(grade)
        return gravity, rolling

    def _drive_force(
        self,
        ground_speed: np.ndarray,
        accel: ArrayLike,
        gravity: ArrayLike,
        rolling: ArrayLike,
    ) -> np.ndarray:
        """Eq. 1 from the speed and the :meth:`_grade_forces` terms."""
        p = self.params
        inertial = self._mass_kg * np.asarray(accel, dtype=float)
        # Drag follows the speed relative to the air; the signed form
        # (v+w)|v+w| keeps a strong tailwind from producing phantom
        # thrust quadratic in speed.
        rel_air = ground_speed + self._headwind_ms
        aero = (
            0.5
            * self._air_density
            * p.frontal_area_m2
            * p.drag_coefficient
            * (rel_air * np.abs(rel_air))
        )
        # Rolling resistance vanishes when the wheels are not turning.
        rolling = np.where(ground_speed > 0.0, rolling, 0.0)
        return inertial + aero + gravity + rolling

    def mechanical_power(
        self, speed: ArrayLike, accel: ArrayLike, grade_rad: ArrayLike = 0.0
    ) -> ArrayLike:
        """Mechanical power ``F_drive * v`` at the wheels (W)."""
        return self.drive_force(speed, accel, grade_rad) * np.asarray(speed, dtype=float)

    # ------------------------------------------------------------------
    # Electrical layer (Eq. 3)
    # ------------------------------------------------------------------
    def electrical_power(
        self, speed: ArrayLike, accel: ArrayLike, grade_rad: ArrayLike = 0.0
    ) -> ArrayLike:
        """Electrical power drawn from the pack (W).

        Positive power divides by the drivetrain efficiency (losses on the
        way out of the pack); negative power multiplies by the regeneration
        efficiency (losses on the way back in), matching the asymmetric
        behaviour of a real recuperating drivetrain.  The constant
        auxiliary load (``aux_power_w``) adds on top in either regime.

        Vehicles with an ``efficiency_map`` evaluate the drivetrain
        efficiency at each (speed, mechanical power) operating point;
        without one the constant ``eta_1 * eta_2`` applies, keeping the
        arithmetic bit-identical to the historical expressions.
        """
        mech = np.asarray(self.mechanical_power(speed, accel, grade_rad), dtype=float)
        elec = self._electrical_power(speed, mech)
        if np.ndim(elec) == 0:
            return float(elec)
        return elec

    def _electrical_power(self, speed: ArrayLike, mech: np.ndarray) -> np.ndarray:
        """Pack power (W) for a mechanical power at the wheels."""
        p = self.params
        eta = self._eta(speed, mech)
        drawing = mech / eta
        regenerating = mech * p.regen_efficiency * eta
        return np.where(mech >= 0.0, drawing, regenerating) + p.aux_power_w

    def _eta(self, speed: ArrayLike, mech_power: ArrayLike) -> ArrayLike:
        """Drivetrain efficiency at an operating point.

        Returns the *bare float* ``drivetrain_efficiency`` when the
        vehicle carries no map — same operand, same ops as the historical
        constant-efficiency expressions.
        """
        emap = self.params.efficiency_map
        if emap is None:
            return self.params.drivetrain_efficiency
        return emap.eta(speed, mech_power)

    def consumption_rate_a(
        self, speed: ArrayLike, accel: ArrayLike, grade_rad: ArrayLike = 0.0
    ) -> ArrayLike:
        """Charge consumption rate ``zeta`` (A) from Eq. 3.

        Negative values indicate recuperation into the pack.
        """
        elec = np.asarray(self.electrical_power(speed, accel, grade_rad), dtype=float)
        rate = elec / self.params.battery.voltage_v
        if np.ndim(rate) == 0:
            return float(rate)
        return rate

    def consumption_rate_mah_per_s(
        self, speed: ArrayLike, accel: ArrayLike, grade_rad: ArrayLike = 0.0
    ) -> ArrayLike:
        """Charge consumption rate in mAh/s — the unit plotted in Fig. 3."""
        rate_a = np.asarray(self.consumption_rate_a(speed, accel, grade_rad), dtype=float)
        rate = rate_a * 1000.0 / SECONDS_PER_HOUR
        if np.ndim(rate) == 0:
            return float(rate)
        return rate

    # ------------------------------------------------------------------
    # Segment-level helpers used by the DP cost function
    # ------------------------------------------------------------------
    def segment_energy_j(
        self,
        speed_start: ArrayLike,
        speed_end: ArrayLike,
        distance_m: ArrayLike,
        grade_rad: ArrayLike = 0.0,
    ) -> ArrayLike:
        """Electrical energy (J) to traverse a segment at constant acceleration.

        The DP discretizes the route into equal-distance segments; between
        grid points the acceleration is constant, so
        ``a = (v_end^2 - v_start^2) / (2 * ds)`` and the traversal time is
        ``dt = ds / v_avg``.  The consumption is evaluated at the mean
        speed, which is second-order accurate for short segments.

        ``distance_m`` and ``grade_rad`` may be arrays that broadcast
        against the speeds, one value per segment, to price a block of
        segments in one call.  The grade terms are evaluated once per
        distinct grade, each as a 0-d value, so every entry of a block
        is bit-identical to pricing its segment alone.

        Returns ``+inf`` where both endpoint speeds are zero (the segment
        can never be traversed).

        Raises:
            ValueError: Some distance is not positive.
        """
        ds = np.asarray(distance_m, dtype=float)
        if np.any(ds <= 0):
            raise ValueError(f"distance must be positive, got {distance_m}")
        v0 = np.asarray(speed_start, dtype=float)
        v1 = np.asarray(speed_end, dtype=float)
        v_avg = 0.5 * (v0 + v1)
        movable = v_avg > 0.0
        safe_avg = np.where(movable, v_avg, 1.0)
        accel = (np.square(v1) - np.square(v0)) / (2.0 * ds)
        dt = ds / safe_avg
        mech = self._drive_force(safe_avg, accel, *self._grade_forces_each(grade_rad))
        mech *= safe_avg
        power = self._electrical_power(safe_avg, mech)
        energy = np.where(movable, power * dt, np.inf)
        if np.ndim(energy) == 0:
            return float(energy)
        return energy

    def _grade_forces_each(self, grade_rad: ArrayLike) -> Tuple[ArrayLike, ArrayLike]:
        """:meth:`_grade_forces` of every grade value, each evaluated 0-d."""
        grade = np.asarray(grade_rad, dtype=float)
        if grade.ndim == 0:
            return self._grade_forces(grade)
        values, inverse = np.unique(grade, return_inverse=True)
        terms = np.asarray([self._grade_forces(value) for value in values])
        return (
            terms[inverse, 0].reshape(grade.shape),
            terms[inverse, 1].reshape(grade.shape),
        )

    def segment_charge_mah(
        self,
        speed_start: ArrayLike,
        speed_end: ArrayLike,
        distance_m: float,
        grade_rad: ArrayLike = 0.0,
    ) -> ArrayLike:
        """Charge (mAh) to traverse a constant-acceleration segment."""
        energy = np.asarray(
            self.segment_energy_j(speed_start, speed_end, distance_m, grade_rad), dtype=float
        )
        charge = energy / self.params.battery.voltage_v * 1000.0 / SECONDS_PER_HOUR
        if np.ndim(charge) == 0:
            return float(charge)
        return charge

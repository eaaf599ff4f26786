//! Longitudinal vehicle dynamics and the driver take-over model.

use serde::{Deserialize, Serialize};

use saseval_types::{Ftti, SimTime};

/// Who controls the vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlMode {
    /// The automation drives.
    Automated,
    /// A take-over was requested; the driver is reacting.
    TakeOverRequested {
        /// When the driver will have control.
        complete_at: SimTime,
    },
    /// The driver drives.
    Manual,
}

/// A point-mass longitudinal vehicle on a straight road.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vehicle {
    position_m: f64,
    speed_mps: f64,
    accel_mps2: f64,
}

impl Vehicle {
    /// Creates a vehicle at position 0 with the given speed.
    pub fn new(speed_mps: f64) -> Self {
        Vehicle { position_m: 0.0, speed_mps: speed_mps.max(0.0), accel_mps2: 0.0 }
    }

    /// Current position along the road in metres.
    pub fn position_m(&self) -> f64 {
        self.position_m
    }

    /// Current speed in m/s.
    pub fn speed_mps(&self) -> f64 {
        self.speed_mps
    }

    /// Current commanded acceleration in m/s².
    pub fn accel_mps2(&self) -> f64 {
        self.accel_mps2
    }

    /// Commands a constant acceleration (negative = braking).
    pub fn set_accel(&mut self, accel_mps2: f64) {
        self.accel_mps2 = accel_mps2;
    }

    /// Advances the kinematics by `dt`. Speed never goes negative.
    pub fn step(&mut self, dt: Ftti) {
        let dt_secs = dt.as_secs_f64();
        let new_speed = (self.speed_mps + self.accel_mps2 * dt_secs).max(0.0);
        // Trapezoidal position update, clamped at the standstill point.
        let avg = (self.speed_mps + new_speed) / 2.0;
        self.position_m += avg * dt_secs;
        if new_speed == 0.0 && self.accel_mps2 < 0.0 {
            self.accel_mps2 = 0.0;
        }
        self.speed_mps = new_speed;
    }

    /// Braking distance from the current speed at constant deceleration
    /// `decel_mps2 > 0`.
    pub fn braking_distance_m(&self, decel_mps2: f64) -> f64 {
        if decel_mps2 <= 0.0 {
            return f64::INFINITY;
        }
        self.speed_mps * self.speed_mps / (2.0 * decel_mps2)
    }
}

/// The driver model: reacts to a take-over request after a fixed reaction
/// time, then brakes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Driver {
    /// Time from request to hands-on control.
    pub reaction: Ftti,
    /// Deceleration applied once in control (m/s², positive).
    pub braking_mps2: f64,
}

impl Driver {
    /// Creates a driver with the given reaction time and braking strength.
    pub fn new(reaction: Ftti, braking_mps2: f64) -> Self {
        Driver { reaction, braking_mps2: braking_mps2.max(0.1) }
    }
}

impl Default for Driver {
    fn default() -> Self {
        // 1.5 s reaction, 3 m/s² comfortable braking.
        Driver::new(Ftti::from_millis(1_500), 3.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_speed_motion() {
        let mut v = Vehicle::new(20.0);
        for _ in 0..100 {
            v.step(Ftti::from_millis(10));
        }
        assert!((v.position_m() - 20.0).abs() < 1e-9);
        assert_eq!(v.speed_mps(), 20.0);
    }

    #[test]
    fn braking_stops_at_zero() {
        let mut v = Vehicle::new(10.0);
        v.set_accel(-5.0);
        for _ in 0..1_000 {
            v.step(Ftti::from_millis(10));
        }
        assert_eq!(v.speed_mps(), 0.0);
        // v²/2a = 100/10 = 10 m stopping distance.
        assert!((v.position_m() - 10.0).abs() < 0.1, "pos {}", v.position_m());
    }

    #[test]
    fn speed_never_negative() {
        let mut v = Vehicle::new(1.0);
        v.set_accel(-100.0);
        v.step(Ftti::from_millis(100));
        assert_eq!(v.speed_mps(), 0.0);
        let p = v.position_m();
        v.step(Ftti::from_millis(100));
        assert_eq!(v.position_m(), p, "no motion after standstill");
    }

    #[test]
    fn braking_distance_formula() {
        let v = Vehicle::new(20.0);
        assert!((v.braking_distance_m(4.0) - 50.0).abs() < 1e-9);
        assert_eq!(v.braking_distance_m(0.0), f64::INFINITY);
    }

    #[test]
    fn negative_initial_speed_clamped() {
        let v = Vehicle::new(-5.0);
        assert_eq!(v.speed_mps(), 0.0);
    }

    #[test]
    fn driver_defaults() {
        let d = Driver::default();
        assert_eq!(d.reaction, Ftti::from_millis(1_500));
        assert!(d.braking_mps2 > 0.0);
        let weak = Driver::new(Ftti::ZERO, -1.0);
        assert!(weak.braking_mps2 > 0.0, "braking floor enforced");
    }
}

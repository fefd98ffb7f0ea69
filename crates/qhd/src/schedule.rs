//! Time-dependent damping schedules `e^{φ_t}` and `e^{χ_t}`.
//!
//! In QHD the relative strength of the kinetic term `−½Δ` and the potential
//! term `f(x)` changes over time: early on the kinetic term dominates (the
//! state spreads over the search space), in the middle both compete (global
//! search with tunnelling), and towards the end the potential dominates so the
//! state descends into a low-energy basin. The QHD paper realises this with
//! `e^{φ_t} ∝ 1/t³` and `e^{χ_t} ∝ t³`-style damping; this module provides a
//! configurable power-law family with those defaults.

use qhdcd_qubo::QuboError;

/// Which of the three QHD phases the evolution is in at a given time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Kinetic-dominated expansion over the search space.
    Kinetic,
    /// The kinetic and potential energies are comparable; tunnelling-assisted
    /// global search.
    GlobalSearch,
    /// Potential-dominated descent into a basin.
    Descent,
}

/// A power-law QHD damping schedule on the time interval `[0, total_time]`.
///
/// The coefficients are
///
/// ```text
/// e^{φ_t} = ((t0 + T) / (t0 + t))^kinetic_power
/// e^{χ_t} = ((t0 + t) / (t0 + T))^potential_power · potential_scale
/// ```
///
/// so the kinetic coefficient decays from a large value to 1 while the
/// potential coefficient grows from nearly 0 to `potential_scale`.
///
/// # Example
///
/// ```
/// use qhdcd_qhd::Schedule;
///
/// let s = Schedule::default_qhd(10.0);
/// assert!(s.kinetic(0.0) > s.kinetic(10.0));
/// assert!(s.potential(0.0) < s.potential(10.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    total_time: f64,
    t0: f64,
    kinetic_power: f64,
    potential_power: f64,
    potential_scale: f64,
}

impl Schedule {
    /// The default QHD schedule used by the solver: quadratic damping of the
    /// kinetic term towards 1 and quadratic growth of the potential term up to
    /// a scale of 30, with a small regulariser `t0 = T/20` to avoid the
    /// singularity at 0. The final-time imbalance (potential ≫ kinetic) is what
    /// drives the descent phase: the instantaneous ground state concentrates on
    /// low-energy assignments, so an adiabatic-ish evolution ends there.
    ///
    /// `total_time` is not checked here; the evolution backends reject a
    /// schedule whose total time is not finite and positive with
    /// [`QuboError::InvalidConfig`].
    pub fn default_qhd(total_time: f64) -> Self {
        Schedule {
            total_time,
            t0: total_time / 20.0,
            kinetic_power: 2.0,
            potential_power: 2.0,
            potential_scale: 30.0,
        }
    }

    /// Creates a fully custom schedule.
    ///
    /// # Errors
    ///
    /// Returns [`QuboError::InvalidConfig`] if `total_time` or `t0` are not
    /// positive, or any power/scale is not finite and non-negative.
    pub fn new(
        total_time: f64,
        t0: f64,
        kinetic_power: f64,
        potential_power: f64,
        potential_scale: f64,
    ) -> Result<Self, QuboError> {
        check_total_time(total_time)?;
        if !t0.is_finite() || t0 <= 0.0 {
            return Err(QuboError::InvalidConfig { reason: "t0 must be positive".into() });
        }
        for (name, v) in [
            ("kinetic_power", kinetic_power),
            ("potential_power", potential_power),
            ("potential_scale", potential_scale),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(QuboError::InvalidConfig {
                    reason: format!("{name} must be finite and non-negative, got {v}"),
                });
            }
        }
        Ok(Schedule { total_time, t0, kinetic_power, potential_power, potential_scale })
    }

    /// Total evolution time `T`.
    pub fn total_time(&self) -> f64 {
        self.total_time
    }

    /// The kinetic coefficient `e^{φ_t}` at time `t` (clamped to `[0, T]`).
    pub fn kinetic(&self, t: f64) -> f64 {
        let t = t.clamp(0.0, self.total_time);
        ((self.t0 + self.total_time) / (self.t0 + t)).powf(self.kinetic_power)
    }

    /// The potential coefficient `e^{χ_t}` at time `t` (clamped to `[0, T]`).
    pub fn potential(&self, t: f64) -> f64 {
        let t = t.clamp(0.0, self.total_time);
        ((self.t0 + t) / (self.t0 + self.total_time)).powf(self.potential_power)
            * self.potential_scale
    }

    /// Classifies the time `t` into one of the three QHD phases based on the
    /// ratio of the kinetic and potential coefficients.
    pub fn phase(&self, t: f64) -> Phase {
        let k = self.kinetic(t);
        let p = self.potential(t).max(f64::MIN_POSITIVE);
        let ratio = k / p;
        if ratio > 100.0 {
            Phase::Kinetic
        } else if ratio > 1.0 {
            Phase::GlobalSearch
        } else {
            Phase::Descent
        }
    }

    /// Evenly spaced time points `t_0 = 0, …, t_{steps} = T` for `steps` steps,
    /// i.e. `steps + 1` points.
    pub fn time_points(&self, steps: usize) -> Vec<f64> {
        let dt = self.total_time / steps.max(1) as f64;
        (0..=steps.max(1)).map(|k| k as f64 * dt).collect()
    }
}

/// Rejects an evolution time that is not finite and positive: at `T = 0` the
/// schedule's coefficients are NaN, and a negative or NaN `T` breaks the
/// clamp to `[0, T]`.
pub(crate) fn check_total_time(total_time: f64) -> Result<(), QuboError> {
    if total_time.is_finite() && total_time > 0.0 {
        Ok(())
    } else {
        Err(QuboError::InvalidConfig {
            reason: format!("total_time must be finite and positive, got {total_time}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_is_monotone() {
        let s = Schedule::default_qhd(10.0);
        let ts = s.time_points(50);
        for w in ts.windows(2) {
            assert!(s.kinetic(w[0]) >= s.kinetic(w[1]));
            assert!(s.potential(w[0]) <= s.potential(w[1]));
        }
        assert!((s.kinetic(10.0) - 1.0).abs() < 1e-12);
        assert!((s.potential(10.0) - 30.0).abs() < 1e-12);
        // The descent phase ends potential-dominated.
        assert!(s.potential(10.0) > s.kinetic(10.0));
    }

    #[test]
    fn phases_progress_in_order() {
        let s = Schedule::default_qhd(10.0);
        assert_eq!(s.phase(0.0), Phase::Kinetic);
        assert_eq!(s.phase(10.0), Phase::Descent);
        // Somewhere in the middle the global-search phase appears.
        let mid_phases: Vec<Phase> = (0..100).map(|k| s.phase(k as f64 * 0.1)).collect();
        assert!(mid_phases.contains(&Phase::GlobalSearch));
        // Phases never go backwards.
        let order = |p: Phase| match p {
            Phase::Kinetic => 0,
            Phase::GlobalSearch => 1,
            Phase::Descent => 2,
        };
        for w in mid_phases.windows(2) {
            assert!(order(w[0]) <= order(w[1]));
        }
    }

    #[test]
    fn clamping_outside_the_interval() {
        let s = Schedule::default_qhd(5.0);
        assert_eq!(s.kinetic(-1.0), s.kinetic(0.0));
        assert_eq!(s.potential(100.0), s.potential(5.0));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(Schedule::new(0.0, 0.1, 2.0, 2.0, 1.0).is_err());
        assert!(Schedule::new(1.0, 0.0, 2.0, 2.0, 1.0).is_err());
        assert!(Schedule::new(1.0, 0.1, -1.0, 2.0, 1.0).is_err());
        assert!(Schedule::new(1.0, 0.1, 2.0, f64::NAN, 1.0).is_err());
        assert!(Schedule::new(1.0, 0.1, 2.0, 2.0, -3.0).is_err());
        assert!(Schedule::new(1.0, 0.1, 2.0, 2.0, 1.0).is_ok());
    }

    #[test]
    fn time_points_cover_the_interval() {
        let s = Schedule::default_qhd(2.0);
        let ts = s.time_points(4);
        assert_eq!(ts.len(), 5);
        assert_eq!(ts[0], 0.0);
        assert!((ts[4] - 2.0).abs() < 1e-12);
        // Degenerate request still produces a valid two-point grid.
        assert_eq!(s.time_points(0).len(), 2);
    }

    #[test]
    fn custom_potential_scale_is_applied() {
        let s = Schedule::new(10.0, 0.5, 2.0, 2.0, 4.0).unwrap();
        assert!((s.potential(10.0) - 4.0).abs() < 1e-12);
        assert_eq!(s.total_time(), 10.0);
    }
}

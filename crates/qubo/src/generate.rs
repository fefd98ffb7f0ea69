//! Seeded random QUBO instances with uniform couplings, the inputs of the
//! solver tests and throughput benches.
//!
//! The paper's Figs 3/4 corpus is not rebuilt here: those experiments solve
//! community-detection QUBOs of planted graphs (`qhdcd_bench::corpus`, see
//! README.md, "Substitutions").

use crate::{QuboBuilder, QuboError, QuboModel};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Configuration for [`random_qubo`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomQuboConfig {
    /// Number of binary variables.
    pub num_variables: usize,
    /// Fraction of the `n(n−1)/2` variable pairs that receive a non-zero coupling.
    pub density: f64,
    /// Couplings and linear terms are drawn uniformly from `[−range, range]`.
    pub coefficient_range: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RandomQuboConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`QuboError::InvalidConfig`] if a field is out of range.
    pub fn validate(&self) -> Result<(), QuboError> {
        if self.num_variables == 0 {
            return Err(QuboError::InvalidConfig { reason: "num_variables must be > 0".into() });
        }
        if !(0.0..=1.0).contains(&self.density) || self.density.is_nan() {
            return Err(QuboError::InvalidConfig {
                reason: format!("density must be in [0, 1], got {}", self.density),
            });
        }
        if !self.coefficient_range.is_finite() || self.coefficient_range <= 0.0 {
            return Err(QuboError::InvalidConfig {
                reason: "coefficient_range must be positive and finite".into(),
            });
        }
        Ok(())
    }
}

/// Generates a random QUBO with uniformly distributed couplings.
///
/// # Errors
///
/// Returns [`QuboError::InvalidConfig`] for invalid configurations.
///
/// # Example
///
/// ```
/// use qhdcd_qubo::generate::{random_qubo, RandomQuboConfig};
///
/// # fn main() -> Result<(), qhdcd_qubo::QuboError> {
/// let m = random_qubo(&RandomQuboConfig {
///     num_variables: 20,
///     density: 0.2,
///     coefficient_range: 1.0,
///     seed: 1,
/// })?;
/// assert_eq!(m.num_variables(), 20);
/// # Ok(())
/// # }
/// ```
pub fn random_qubo(config: &RandomQuboConfig) -> Result<QuboModel, QuboError> {
    config.validate()?;
    let n = config.num_variables;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut b = QuboBuilder::new(n);
    let r = config.coefficient_range;
    for i in 0..n {
        b.add_linear(i, rng.gen_range(-r..=r))?;
        for j in (i + 1)..n {
            if rng.gen::<f64>() < config.density {
                b.add_quadratic(i, j, rng.gen_range(-r..=r))?;
            }
        }
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_qubo_is_deterministic() {
        let cfg =
            RandomQuboConfig { num_variables: 30, density: 0.3, coefficient_range: 2.0, seed: 5 };
        assert_eq!(random_qubo(&cfg).unwrap(), random_qubo(&cfg).unwrap());
    }

    #[test]
    fn random_qubo_density_is_close_to_requested() {
        let cfg =
            RandomQuboConfig { num_variables: 100, density: 0.2, coefficient_range: 1.0, seed: 9 };
        let m = random_qubo(&cfg).unwrap();
        assert!((m.density() - 0.2).abs() < 0.05, "density={}", m.density());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let base =
            RandomQuboConfig { num_variables: 10, density: 0.5, coefficient_range: 1.0, seed: 0 };
        assert!(random_qubo(&RandomQuboConfig { num_variables: 0, ..base.clone() }).is_err());
        assert!(random_qubo(&RandomQuboConfig { density: 1.5, ..base.clone() }).is_err());
        assert!(random_qubo(&RandomQuboConfig { coefficient_range: 0.0, ..base.clone() }).is_err());
        assert!(random_qubo(&RandomQuboConfig { coefficient_range: f64::NAN, ..base }).is_err());
    }
}

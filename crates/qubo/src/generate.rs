//! Seeded random QUBO instance generators.
//!
//! The paper's solver comparison (Figures 3 and 4) is run on a corpus of 938
//! QUBO instances with sizes from a few dozen to well over a thousand variables
//! and densities between roughly 0.03 and 0.16. These generators rebuild that
//! corpus synthetically (see README.md, "Substitutions").

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

/// A QUBO instance with known provenance inside a generated corpus.
#[derive(Debug, Clone)]
pub struct CorpusInstance {
    /// Index of the instance within the corpus.
    pub id: usize,
    /// The generated model.
    pub model: QuboModel,
}

/// Configuration for [`instance_corpus`], describing a size-stratified corpus
/// like the paper's 938-instance benchmark: a "small" stratum (mean ≈ 54
/// variables, higher density) and a "large" stratum (mean ≈ 614 variables,
/// lower density).
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusConfig {
    /// Number of instances in the small stratum.
    pub num_small: usize,
    /// Variable-count range of the small stratum (inclusive).
    pub small_size_range: (usize, usize),
    /// Density of the small stratum.
    pub small_density: f64,
    /// Number of instances in the large stratum.
    pub num_large: usize,
    /// Variable-count range of the large stratum (inclusive).
    pub large_size_range: (usize, usize),
    /// Density of the large stratum.
    pub large_density: f64,
    /// Coefficient range for all instances.
    pub coefficient_range: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    /// A miniature (fast) version of the paper's corpus: same strata shape,
    /// fewer instances. The benchmark harness scales the counts up.
    fn default() -> Self {
        CorpusConfig {
            num_small: 20,
            small_size_range: (20, 90),
            small_density: 0.157,
            num_large: 20,
            large_size_range: (200, 1_100),
            large_density: 0.028,
            coefficient_range: 1.0,
            seed: 2024,
        }
    }
}

/// Generates a size-stratified corpus of random QUBO instances.
///
/// # Errors
///
/// Returns [`QuboError::InvalidConfig`] if any stratum is misconfigured.
pub fn instance_corpus(config: &CorpusConfig) -> Result<Vec<CorpusInstance>, QuboError> {
    for (lo, hi) in [config.small_size_range, config.large_size_range] {
        if lo == 0 || lo > hi {
            return Err(QuboError::InvalidConfig {
                reason: format!("size range ({lo}, {hi}) must satisfy 0 < lo <= hi"),
            });
        }
    }
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut out = Vec::with_capacity(config.num_small + config.num_large);
    let mut id = 0usize;
    let stratum = |rng: &mut ChaCha8Rng,
                   count: usize,
                   range: (usize, usize),
                   density: f64,
                   out: &mut Vec<CorpusInstance>,
                   id: &mut usize|
     -> Result<(), QuboError> {
        for _ in 0..count {
            let n = rng.gen_range(range.0..=range.1);
            let model = random_qubo(&RandomQuboConfig {
                num_variables: n,
                density,
                coefficient_range: config.coefficient_range,
                seed: rng.gen(),
            })?;
            out.push(CorpusInstance { id: *id, model });
            *id += 1;
        }
        Ok(())
    };
    stratum(
        &mut rng,
        config.num_small,
        config.small_size_range,
        config.small_density,
        &mut out,
        &mut id,
    )?;
    stratum(
        &mut rng,
        config.num_large,
        config.large_size_range,
        config.large_density,
        &mut out,
        &mut id,
    )?;
    Ok(out)
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

    #[test]
    fn corpus_has_two_strata_with_expected_sizes() {
        let corpus = instance_corpus(&CorpusConfig {
            num_small: 5,
            num_large: 4,
            small_size_range: (20, 40),
            large_size_range: (100, 200),
            ..CorpusConfig::default()
        })
        .unwrap();
        assert_eq!(corpus.len(), 9);
        for inst in &corpus[..5] {
            assert!((20..=40).contains(&inst.model.num_variables()));
        }
        for inst in &corpus[5..] {
            assert!((100..=200).contains(&inst.model.num_variables()));
        }
        // Ids are sequential.
        for (k, inst) in corpus.iter().enumerate() {
            assert_eq!(inst.id, k);
        }
    }

    #[test]
    fn corpus_rejects_bad_ranges() {
        let bad = CorpusConfig { small_size_range: (10, 5), ..CorpusConfig::default() };
        assert!(instance_corpus(&bad).is_err());
        let bad = CorpusConfig { large_size_range: (0, 5), ..CorpusConfig::default() };
        assert!(instance_corpus(&bad).is_err());
    }

    #[test]
    fn corpus_is_deterministic() {
        let cfg = CorpusConfig { num_small: 3, num_large: 2, ..CorpusConfig::default() };
        let a = instance_corpus(&cfg).unwrap();
        let b = instance_corpus(&cfg).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.model, y.model);
        }
    }
}

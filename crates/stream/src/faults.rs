//! Deterministic fault-injection plans for resilience testing.
//!
//! Only compiled under the `fault-injection` cargo feature; every hook in the
//! service is `#[cfg]`-gated on the same feature, so default builds carry
//! **zero** fault-injection code (no branches, no fields, no strings).
//!
//! A [`FaultPlan`] is a pure value: which batch index panics the writer,
//! which batch fails its check, how many bytes of the next checkpoint
//! survive a torn write, and how large the harness-driven queue-full storms
//! are. Plans are either built literally or derived from a seed with
//! [`FaultPlan::from_seed`], so a failing randomized sweep reproduces from
//! its seed alone.
//!
//! ```no_run
//! use qhdcd_stream::faults::FaultPlan;
//! use qhdcd_stream::{ServiceConfig, StreamingService};
//! use qhdcd_graph::{generators, DynamicGraph};
//!
//! let graph = DynamicGraph::from_graph(&generators::karate_club());
//! let mut service = StreamingService::new(graph, ServiceConfig::default()).unwrap();
//! service.inject_faults(FaultPlan::default().with_panic_at_batch(3));
//! ```

use std::sync::atomic::{AtomicBool, Ordering};

/// A deterministic schedule of faults to inject into a
/// [`StreamingService`](crate::StreamingService).
///
/// Batch indices are 1-based and refer to the epoch the batch *would*
/// publish: the first applied batch is batch 1. `None` disables that fault
/// class. Install with
/// [`StreamingService::inject_faults`](crate::StreamingService::inject_faults).
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Panic inside the writer while applying this batch (after the detector
    /// applied it, before it is journaled or its epoch publishes) — simulates
    /// a writer crash mid-apply.
    pub panic_at_batch: Option<u64>,
    /// Fail the check of this batch with a poisoned (NaN-weight) event. The
    /// fault is consumed once the service's quarantine dead-letters the
    /// batch; in fail-fast mode it stays armed, and every batch at this
    /// epoch fails.
    pub fail_validation_at: Option<u64>,
    /// Truncate the next checkpoint text to this many bytes — simulates a
    /// torn checkpoint write. Fires once, then later checkpoints are intact.
    pub truncate_checkpoint_to: Option<usize>,
    /// Sizes of harness-driven submission bursts (events per burst) used by
    /// fault-injection tests to provoke queue-full storms. The service itself
    /// never reads this field; it rides on the plan so a single seed
    /// describes the whole scenario.
    pub storm_bursts: Vec<usize>,
    validation_consumed: AtomicBool,
    truncation_consumed: AtomicBool,
}

impl FaultPlan {
    /// Derives a plan from `seed` with a SplitMix64 stream: the same seed
    /// always yields the same plan, and every fault class is exercised with
    /// probability one half.
    pub fn from_seed(seed: u64) -> Self {
        let mut state = seed;
        let mut next = move || split_mix(&mut state);
        let panic_at_batch = (next() & 1 == 0).then(|| 1 + next() % 6);
        let fail_validation_at = (next() & 1 == 0).then(|| 1 + next() % 6);
        let truncate_checkpoint_to = (next() & 1 == 0).then(|| (next() % 200) as usize);
        let bursts = (next() % 3) as usize;
        let storm_bursts = (0..bursts).map(|_| 1 + (next() % 64) as usize).collect();
        FaultPlan {
            panic_at_batch,
            fail_validation_at,
            truncate_checkpoint_to,
            storm_bursts,
            ..FaultPlan::default()
        }
    }

    /// Arms the writer-panic fault for batch `batch` (builder style).
    pub fn with_panic_at_batch(mut self, batch: u64) -> Self {
        self.panic_at_batch = Some(batch);
        self
    }

    /// Arms the validation-failure fault for batch `batch` (builder style).
    pub fn with_validation_failure_at(mut self, batch: u64) -> Self {
        self.fail_validation_at = Some(batch);
        self
    }

    /// Arms the torn-checkpoint fault, keeping `keep` bytes (builder style).
    pub fn with_truncated_checkpoint(mut self, keep: usize) -> Self {
        self.truncate_checkpoint_to = Some(keep);
        self
    }

    /// Whether the writer should panic while applying batch `batch`.
    pub fn panics_at_batch(&self, batch: u64) -> bool {
        self.panic_at_batch == Some(batch)
    }

    /// Whether the check of batch `batch` should fail (until the fault is
    /// consumed by [`FaultPlan::consume_validation_fault`]).
    pub fn fails_validation_at(&self, batch: u64) -> bool {
        self.fail_validation_at == Some(batch) && !self.validation_consumed.load(Ordering::Relaxed)
    }

    /// Marks the validation fault as spent. The service's quarantine calls
    /// this once, when it dead-letters the poisoned batch, so the *next*
    /// batch at the same epoch is clean (the epoch does not advance on
    /// dead-letter).
    pub fn consume_validation_fault(&self) {
        self.validation_consumed.store(true, Ordering::Relaxed);
    }

    /// Byte length the next checkpoint should be torn to, if the truncation
    /// fault is armed. Consumes the fault: exactly one checkpoint is torn.
    pub fn truncates_checkpoint(&self) -> Option<usize> {
        if self.truncate_checkpoint_to.is_some()
            && !self.truncation_consumed.swap(true, Ordering::Relaxed)
        {
            self.truncate_checkpoint_to
        } else {
            None
        }
    }
}

/// One step of the SplitMix64 generator (public-domain constants from
/// Steele, Lea & Flood, "Fast splittable pseudorandom number generators").
fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        for seed in 0..64 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a.panic_at_batch, b.panic_at_batch);
            assert_eq!(a.fail_validation_at, b.fail_validation_at);
            assert_eq!(a.truncate_checkpoint_to, b.truncate_checkpoint_to);
            assert_eq!(a.storm_bursts, b.storm_bursts);
        }
    }

    /// Pins every plan the nightly sweep (seeds 0..48) and the queue-storm
    /// test (seed 0xD1CE) derive, as one FNV-1a hash over their fields.
    #[test]
    fn seed_derived_plans_are_pinned() {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for seed in (0..48).chain([0xD1CE]) {
            let plan = FaultPlan::from_seed(seed);
            let fields = format!(
                "{:?}",
                (
                    plan.panic_at_batch,
                    plan.fail_validation_at,
                    plan.truncate_checkpoint_to,
                    &plan.storm_bursts
                )
            );
            for byte in fields.bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(hash, 0x6096_4cd9_e5cd_2c0d);
    }

    #[test]
    fn every_fault_class_appears_across_seeds() {
        let plans: Vec<_> = (0..64).map(FaultPlan::from_seed).collect();
        assert!(plans.iter().any(|p| p.panic_at_batch.is_some()));
        assert!(plans.iter().any(|p| p.fail_validation_at.is_some()));
        assert!(plans.iter().any(|p| p.truncate_checkpoint_to.is_some()));
        assert!(plans.iter().any(|p| !p.storm_bursts.is_empty()));
        assert!(plans.iter().any(|p| p.panic_at_batch.is_none()));
    }

    #[test]
    fn validation_fault_is_consumable() {
        let plan = FaultPlan { fail_validation_at: Some(2), ..FaultPlan::default() };
        assert!(!plan.fails_validation_at(1));
        assert!(plan.fails_validation_at(2));
        plan.consume_validation_fault();
        assert!(!plan.fails_validation_at(2));
    }

    #[test]
    fn checkpoint_truncation_fires_once() {
        let plan = FaultPlan { truncate_checkpoint_to: Some(10), ..FaultPlan::default() };
        assert_eq!(plan.truncates_checkpoint(), Some(10));
        assert_eq!(plan.truncates_checkpoint(), None);
        let unarmed = FaultPlan::default();
        assert_eq!(unarmed.truncates_checkpoint(), None);
    }
}

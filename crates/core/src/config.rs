//! Configuration knobs shared by the labeling constructors.

use serde::{Deserialize, Serialize};

/// Tunable parameters of the shared-memory constructors. Field names follow
/// the paper's notation where one exists.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LabelingConfig {
    /// Number of worker threads (`p` in the paper). `0` means "use all
    /// available parallelism".
    pub num_threads: usize,
    /// GLL synchronization threshold `α`: a superstep's label construction
    /// phase ends once the local table holds more than `α · n` labels. The
    /// paper settles on `α = 4` (Figure 5).
    pub alpha: f64,
    /// Hybrid switching factor, relative to the labeling built so far: once
    /// the windowed ratio Ψ of vertices explored per label generated exceeds
    /// `psi_threshold × L̄` (`L̄` = labels PLaNTed so far / `n`), the Hybrid
    /// constructor stops PLaNTing trees and switches to pruned construction.
    /// Dimensionless, default 0.03: a pruned tree's label probe costs about
    /// `L̄`, and GLL's clean reads only each superstep's own hubs, so pruned
    /// construction beats PLaNT early on road grids too. At 0.03 every
    /// graph of `chl-bench`'s `hybrid_switch_sweep` example switches as
    /// soon as the window is full. The paper's absolute `Ψ_th` (Figure 6)
    /// lives on in `DistributedConfig`, where PLaNT saves communication
    /// instead.
    pub psi_threshold: f64,
    /// Number of SPTs over which Ψ is averaged before the Hybrid switch
    /// decision is made.
    pub psi_window: usize,
    /// Enable PLaNT's early-termination optimization (§5.2).
    pub early_termination: bool,
}

impl Default for LabelingConfig {
    fn default() -> Self {
        LabelingConfig {
            num_threads: 0,
            alpha: 4.0,
            psi_threshold: 0.03,
            psi_window: 64,
            early_termination: true,
        }
    }
}

impl LabelingConfig {
    /// Resolves `num_threads == 0` to the machine's available parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        }
    }

    /// Builder-style helper: sets the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.num_threads = threads;
        self
    }

    /// Builder-style helper: sets the GLL synchronization threshold `α`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Builder-style helper: sets the Hybrid switching factor (see
    /// [`LabelingConfig::psi_threshold`]).
    pub fn with_psi_threshold(mut self, psi: f64) -> Self {
        self.psi_threshold = psi;
        self
    }

    /// Validates the configuration, returning a human-readable complaint for
    /// out-of-range values.
    pub fn validate(&self) -> Result<(), crate::error::LabelingError> {
        if self.alpha < 1.0 {
            return Err(crate::error::LabelingError::InvalidConfig(format!(
                "alpha must be >= 1.0, got {}",
                self.alpha
            )));
        }
        if self.psi_threshold <= 0.0 {
            return Err(crate::error::LabelingError::InvalidConfig(format!(
                "psi_threshold must be positive, got {}",
                self.psi_threshold
            )));
        }
        if self.psi_window == 0 {
            return Err(crate::error::LabelingError::InvalidConfig(
                "psi_window must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = LabelingConfig::default();
        assert_eq!(c.alpha, 4.0);
        assert!(c.early_termination);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn effective_threads_resolves_zero() {
        let c = LabelingConfig::default();
        assert!(c.effective_threads() >= 1);
        assert_eq!(c.with_threads(3).effective_threads(), 3);
    }

    #[test]
    fn builders_set_fields() {
        let c = LabelingConfig::default()
            .with_alpha(8.0)
            .with_psi_threshold(0.5)
            .with_threads(2);
        assert_eq!(c.alpha, 8.0);
        assert_eq!(c.psi_threshold, 0.5);
        assert_eq!(c.num_threads, 2);
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(LabelingConfig::default()
            .with_alpha(0.5)
            .validate()
            .is_err());
        assert!(LabelingConfig::default()
            .with_psi_threshold(0.0)
            .validate()
            .is_err());
        let c = LabelingConfig {
            psi_window: 0,
            ..LabelingConfig::default()
        };
        assert!(c.validate().is_err());
    }
}

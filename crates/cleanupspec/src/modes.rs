//! Security modes: named configurations bundling a speculation scheme with
//! the memory-hierarchy settings it requires.
//!
//! CleanupSpec is not just the undo engine — it also requires random L1
//! replacement, CEASER-randomized L2 indexing (with its 2-cycle latency
//! charge), and speculation-window protection (Sections 3.1–3.2). A
//! [`SecurityMode`] applies all of that consistently.

use crate::schemes::{
    CleanupSpec, CleanupTiming, DelayOnMiss, DelaySpeculativeLoads, InvisiSpec, InvisiSpecVariant,
    NaiveInvalidate, NonSecure,
};
use cleanupspec_core::scheme::SpeculationScheme;
use cleanupspec_mem::hierarchy::MemConfig;
use cleanupspec_mem::replacement::ReplacementKind;

/// The evaluated system configurations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SecurityMode {
    /// Insecure baseline (Table 4 as-is, LRU everywhere).
    NonSecure,
    /// The paper's scheme: undo + L1 random replacement + randomized L2 +
    /// window protection + GetS-Safe.
    CleanupSpec,
    /// Section 2.4.1 strawman: invalidate installs, never restore.
    NaiveInvalidate,
    /// InvisiSpec, initial-estimate implementation (~67.5% slowdown).
    InvisiSpecInitial,
    /// InvisiSpec, revised implementation (~15% slowdown).
    InvisiSpecRevised,
    /// Delay-based baseline: loads wait until unsquashable.
    DelaySpeculativeLoads,
    /// Delay-on-miss baseline: only speculative L1 misses wait
    /// (Conditional-Speculation family, Section 7.3.2).
    DelayOnMiss,
    /// CleanupSpec with a constant-time cleanup stall (the paper's stated
    /// future work in Section 4b).
    CleanupSpecConstantTime,
    /// CleanupSpec with a 2-way skewed randomized L2 (Skewed-CEASER /
    /// CEASER-S, the robust randomization variant the paper cites).
    CleanupSpecSkewed,
    /// Ablation for Table 1: non-secure scheme but with L1 random
    /// replacement only.
    L1RandomOnly,
    /// Ablation for Table 1: non-secure scheme but with randomized L2 only.
    L2RandomOnly,
    /// Ablation for Table 1: both randomizations, still no undo machinery.
    BothRandomOnly,
}

impl SecurityMode {
    /// The modes compared in Table 6 and Figure 12.
    pub const MAIN: [SecurityMode; 4] = [
        SecurityMode::NonSecure,
        SecurityMode::CleanupSpec,
        SecurityMode::InvisiSpecInitial,
        SecurityMode::InvisiSpecRevised,
    ];

    /// Every mode.
    pub const ALL: [SecurityMode; 12] = [
        SecurityMode::NonSecure,
        SecurityMode::CleanupSpec,
        SecurityMode::NaiveInvalidate,
        SecurityMode::InvisiSpecInitial,
        SecurityMode::InvisiSpecRevised,
        SecurityMode::DelaySpeculativeLoads,
        SecurityMode::DelayOnMiss,
        SecurityMode::CleanupSpecConstantTime,
        SecurityMode::CleanupSpecSkewed,
        SecurityMode::L1RandomOnly,
        SecurityMode::L2RandomOnly,
        SecurityMode::BothRandomOnly,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            SecurityMode::NonSecure => "non-secure",
            SecurityMode::CleanupSpec => "cleanupspec",
            SecurityMode::NaiveInvalidate => "naive-invalidate",
            SecurityMode::InvisiSpecInitial => "invisispec-initial",
            SecurityMode::InvisiSpecRevised => "invisispec-revised",
            SecurityMode::DelaySpeculativeLoads => "delay-spec-loads",
            SecurityMode::DelayOnMiss => "delay-on-miss",
            SecurityMode::CleanupSpecConstantTime => "cleanupspec-ct",
            SecurityMode::CleanupSpecSkewed => "cleanupspec-skewed",
            SecurityMode::L1RandomOnly => "l1-random-repl",
            SecurityMode::L2RandomOnly => "l2-randomized",
            SecurityMode::BothRandomOnly => "l1+l2-randomized",
        }
    }

    /// Parses a mode back from its [`Self::name`] label (checkpoint files,
    /// CLI mode filters).
    pub fn from_name(s: &str) -> Option<SecurityMode> {
        SecurityMode::ALL.into_iter().find(|m| m.name() == s)
    }

    /// Applies this mode's cache-hierarchy requirements to a base
    /// configuration (Section 3.2 and Table 1).
    pub fn apply_mem_config(self, mut cfg: MemConfig) -> MemConfig {
        match self {
            SecurityMode::NonSecure
            | SecurityMode::InvisiSpecInitial
            | SecurityMode::InvisiSpecRevised
            | SecurityMode::DelayOnMiss
            | SecurityMode::DelaySpeculativeLoads => cfg,
            SecurityMode::CleanupSpec
            | SecurityMode::CleanupSpecConstantTime
            | SecurityMode::NaiveInvalidate => {
                cfg.l1_replacement = ReplacementKind::Random;
                cfg.l2_randomized = true;
                cfg.window_protection = true;
                cfg
            }
            SecurityMode::CleanupSpecSkewed => {
                cfg.l1_replacement = ReplacementKind::Random;
                cfg.l2_randomized = true;
                cfg.l2_skews = 2;
                cfg.l2_replacement = ReplacementKind::Random;
                cfg.window_protection = true;
                cfg
            }
            SecurityMode::L1RandomOnly => {
                cfg.l1_replacement = ReplacementKind::Random;
                cfg
            }
            SecurityMode::L2RandomOnly => {
                cfg.l2_randomized = true;
                cfg
            }
            SecurityMode::BothRandomOnly => {
                cfg.l1_replacement = ReplacementKind::Random;
                cfg.l2_randomized = true;
                cfg
            }
        }
    }

    /// Builds the speculation scheme for one core.
    pub fn build_scheme(self) -> Box<dyn SpeculationScheme> {
        match self {
            SecurityMode::NonSecure
            | SecurityMode::L1RandomOnly
            | SecurityMode::L2RandomOnly
            | SecurityMode::BothRandomOnly => Box::new(NonSecure::new()),
            SecurityMode::CleanupSpec | SecurityMode::CleanupSpecSkewed => {
                Box::new(CleanupSpec::new())
            }
            SecurityMode::CleanupSpecConstantTime => {
                Box::new(CleanupSpec::with_timing(CleanupTiming {
                    constant_time: Some(40),
                    ..CleanupTiming::default()
                }))
            }
            SecurityMode::DelayOnMiss => Box::new(DelayOnMiss::new()),
            SecurityMode::NaiveInvalidate => Box::new(NaiveInvalidate::new()),
            SecurityMode::InvisiSpecInitial => {
                Box::new(InvisiSpec::new(InvisiSpecVariant::Initial))
            }
            SecurityMode::InvisiSpecRevised => {
                Box::new(InvisiSpec::new(InvisiSpecVariant::Revised))
            }
            SecurityMode::DelaySpeculativeLoads => Box::new(DelaySpeculativeLoads::new()),
        }
    }

    /// Whether this mode prevents squashed loads from leaking through the
    /// install channel (Flush+Reload).
    pub fn defends_install_channel(self) -> bool {
        matches!(
            self,
            SecurityMode::CleanupSpec
                | SecurityMode::CleanupSpecConstantTime
                | SecurityMode::CleanupSpecSkewed
                | SecurityMode::NaiveInvalidate
                | SecurityMode::InvisiSpecInitial
                | SecurityMode::InvisiSpecRevised
                | SecurityMode::DelayOnMiss
                | SecurityMode::DelaySpeculativeLoads
        )
    }

    /// Whether this mode also closes the L1 eviction channel
    /// (Prime+Probe): requires restoration or invisibility, not just
    /// invalidation.
    pub fn defends_eviction_channel(self) -> bool {
        matches!(
            self,
            SecurityMode::CleanupSpec
                | SecurityMode::CleanupSpecConstantTime
                | SecurityMode::CleanupSpecSkewed
                | SecurityMode::InvisiSpecInitial
                | SecurityMode::InvisiSpecRevised
                | SecurityMode::DelayOnMiss
                | SecurityMode::DelaySpeculativeLoads
        )
    }
}

impl std::fmt::Display for SecurityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleanupspec_mode_requires_randomization() {
        let cfg = SecurityMode::CleanupSpec.apply_mem_config(MemConfig::default());
        assert_eq!(cfg.l1_replacement, ReplacementKind::Random);
        assert!(cfg.l2_randomized);
        assert!(cfg.window_protection);
        // The CEASER latency charge applies.
        assert_eq!(cfg.l2_effective_rt(), cfg.l2_rt + cfg.l2_crypto_penalty);
    }

    #[test]
    fn nonsecure_mode_is_table4_baseline() {
        let cfg = SecurityMode::NonSecure.apply_mem_config(MemConfig::default());
        assert_eq!(cfg.l1_replacement, ReplacementKind::Lru);
        assert!(!cfg.l2_randomized);
        assert!(!cfg.window_protection);
    }

    #[test]
    fn table1_ablations_select_single_knobs() {
        let l1 = SecurityMode::L1RandomOnly.apply_mem_config(MemConfig::default());
        assert_eq!(l1.l1_replacement, ReplacementKind::Random);
        assert!(!l1.l2_randomized);
        let l2 = SecurityMode::L2RandomOnly.apply_mem_config(MemConfig::default());
        assert_eq!(l2.l1_replacement, ReplacementKind::Lru);
        assert!(l2.l2_randomized);
    }

    #[test]
    fn scheme_names_match_modes() {
        for m in SecurityMode::ALL {
            let s = m.build_scheme();
            assert!(!s.name().is_empty());
        }
        assert_eq!(
            SecurityMode::CleanupSpec.build_scheme().name(),
            "cleanupspec"
        );
    }

    #[test]
    fn skewed_mode_configures_ceaser_s() {
        let cfg = SecurityMode::CleanupSpecSkewed.apply_mem_config(MemConfig::default());
        assert!(cfg.l2_randomized);
        assert_eq!(cfg.l2_skews, 2);
        assert_eq!(cfg.l1_replacement, ReplacementKind::Random);
    }

    #[test]
    fn defense_matrix() {
        assert!(!SecurityMode::NonSecure.defends_install_channel());
        assert!(SecurityMode::NaiveInvalidate.defends_install_channel());
        assert!(
            !SecurityMode::NaiveInvalidate.defends_eviction_channel(),
            "the strawman leaves Prime+Probe open (Section 2.4.1)"
        );
        assert!(SecurityMode::CleanupSpec.defends_eviction_channel());
    }
}

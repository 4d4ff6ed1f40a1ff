//! The method-agnostic outcome type shared by every analysis engine.
//!
//! The detector's phase-3 decision point — "is this feature's distribution
//! input-dependent?" — is answered by selectable engines (two-sample KS,
//! fixed-vs-random TVLA, mutual-information quantification). Each engine
//! reduces its method-specific result ([`KsOutcome`](crate::KsOutcome),
//! [`WelchOutcome`](crate::WelchOutcome), estimated bits) to one
//! [`EngineOutcome`]: a binary verdict plus comparable ranking values, so
//! the analysis walk and the leak reports stay engine-agnostic.

use serde::{Deserialize, Serialize};

/// The engine-agnostic outcome of one fixed-vs-random feature comparison.
///
/// Invariants every engine maintains:
///
/// * `p_value` ranks evidence strength monotonically — stronger evidence of
///   input dependence means a *smaller* value. Engines without an exact
///   p-value (the MI engine) supply a comparable surrogate.
/// * Structural differences (a feature present under only one input class)
///   come back as `statistic = 1.0` (or `∞` for the t-test), `p_value =
///   0.0`, `rejected = true`.
/// * `bits`, when present, is the engine's own estimate of the leakage in
///   bits per observation; engines that only decide (KS, TVLA) leave it
///   `None` and let the caller attach an independent severity estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineOutcome {
    /// Whether the feature was judged input-dependent.
    pub rejected: bool,
    /// The engine's raw statistic: the KS `D`, the absolute Welch `t`, or
    /// the estimated mutual information in bits.
    pub statistic: f64,
    /// Evidence-strength ranking value in `[0, 1]`; smaller = stronger.
    pub p_value: f64,
    /// The engine's own leakage estimate in bits per observation, when the
    /// engine quantifies (`None` for purely binary engines).
    pub bits: Option<f64>,
}

impl EngineOutcome {
    /// The strongest possible non-rejection: no evidence of a difference.
    pub fn accept() -> Self {
        EngineOutcome {
            rejected: false,
            statistic: 0.0,
            p_value: 1.0,
            bits: None,
        }
    }

    /// A maximal structural rejection (feature present under exactly one
    /// input class): one observation pins the class.
    pub fn structural(statistic: f64) -> Self {
        EngineOutcome {
            rejected: true,
            statistic,
            p_value: 0.0,
            bits: Some(1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_is_weakest_evidence() {
        let a = EngineOutcome::accept();
        assert!(!a.rejected);
        assert_eq!(a.p_value, 1.0);
        assert_eq!(a.bits, None);
    }

    #[test]
    fn structural_is_strongest_evidence() {
        let s = EngineOutcome::structural(1.0);
        assert!(s.rejected);
        assert_eq!(s.p_value, 0.0);
        assert_eq!(s.bits, Some(1.0));
    }

    #[test]
    fn outcome_serde_round_trips() {
        let out = EngineOutcome {
            rejected: true,
            statistic: 0.5,
            p_value: 0.01,
            bits: Some(0.25),
        };
        let json = serde_json::to_string(&out).expect("serialize");
        let back: EngineOutcome = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(out, back);
    }
}

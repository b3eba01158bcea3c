//! Protocol variants evaluated in the paper (Sec. 5) plus the two basic
//! DFT-MSN baselines from the companion work \[5\].
//!
//! | Variant | What it is |
//! |---|---|
//! | [`Opt`](ProtocolKind::Opt) | the full protocol with every Sec. 4 optimization (adaptive τ_max, adaptive W, Eq. 6 sleeping) |
//! | [`NoOpt`](ProtocolKind::NoOpt) | the Sec. 3 protocol with fixed τ_max, fixed W and a fixed sleeping period |
//! | [`NoSleep`](ProtocolKind::NoSleep) | OPT without periodic sleeping (always-on radio) |
//! | [`Zbr`](ProtocolKind::Zbr) | OPT's MAC with ZebraNet's history-based single-copy forwarding |
//! | [`Direct`](ProtocolKind::Direct) | direct transmission: sensors hand data to sinks only |
//! | [`Epidemic`](ProtocolKind::Epidemic) | flooding: copy to every encountered node with buffer space |

use serde::{Deserialize, Serialize};

/// How a node updates its routing metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Eq. 1 delivery probability: every transmission pulls ξ toward the
    /// receiver's ξ.
    DeliveryProb,
    /// ZebraNet history: only *direct* contacts with a sink raise the
    /// metric; it decays on the Δ-timeout like ξ.
    SinkHistory,
}

/// How a sender picks receivers from the CTS repliers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SelectionKind {
    /// Sec. 3.2.2: greedy multicast subset until combined delivery
    /// probability exceeds R; copy FTDs per Eq. 2.
    FtdThreshold,
    /// Single best replier (highest metric) and the copy is *moved*, not
    /// replicated (ZebraNet).
    SingleBest,
    /// Every replier gets a copy (epidemic flooding).
    AllResponders,
    /// Only sinks may reply/qualify (direct transmission).
    SinkOnly,
}

/// The four implementations compared in Fig. 2 plus two extra baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Full protocol with all Sec. 4 optimizations.
    Opt,
    /// Basic Sec. 3 protocol with fixed parameters.
    NoOpt,
    /// OPT without periodic sleeping.
    NoSleep,
    /// ZebraNet-style history-based forwarding on the same MAC.
    Zbr,
    /// Direct transmission to sinks only.
    Direct,
    /// Epidemic flooding.
    Epidemic,
}

impl ProtocolKind {
    /// The four variants of the paper's Fig. 2.
    pub const FIG2: [ProtocolKind; 4] = [
        ProtocolKind::Opt,
        ProtocolKind::NoSleep,
        ProtocolKind::NoOpt,
        ProtocolKind::Zbr,
    ];

    /// Every implemented variant.
    pub const ALL: [ProtocolKind; 6] = [
        ProtocolKind::Opt,
        ProtocolKind::NoOpt,
        ProtocolKind::NoSleep,
        ProtocolKind::Zbr,
        ProtocolKind::Direct,
        ProtocolKind::Epidemic,
    ];

    /// The paper's label for the variant.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Opt => "OPT",
            ProtocolKind::NoOpt => "NOOPT",
            ProtocolKind::NoSleep => "NOSLEEP",
            ProtocolKind::Zbr => "ZBR",
            ProtocolKind::Direct => "DIRECT",
            ProtocolKind::Epidemic => "EPIDEMIC",
        }
    }

    /// The variant's behavioural configuration.
    #[must_use]
    pub fn config(self) -> VariantConfig {
        match self {
            ProtocolKind::Opt => VariantConfig {
                kind: self,
                sleeps: true,
                adaptive_sleep: true,
                adaptive_tau: true,
                adaptive_window: true,
                metric: MetricKind::DeliveryProb,
                selection: SelectionKind::FtdThreshold,
            },
            ProtocolKind::NoOpt => VariantConfig {
                kind: self,
                sleeps: true,
                adaptive_sleep: false,
                adaptive_tau: false,
                adaptive_window: false,
                metric: MetricKind::DeliveryProb,
                selection: SelectionKind::FtdThreshold,
            },
            ProtocolKind::NoSleep => VariantConfig {
                kind: self,
                sleeps: false,
                adaptive_sleep: false,
                adaptive_tau: true,
                adaptive_window: true,
                metric: MetricKind::DeliveryProb,
                selection: SelectionKind::FtdThreshold,
            },
            ProtocolKind::Zbr => VariantConfig {
                kind: self,
                sleeps: true,
                adaptive_sleep: true,
                adaptive_tau: true,
                adaptive_window: true,
                metric: MetricKind::SinkHistory,
                selection: SelectionKind::SingleBest,
            },
            ProtocolKind::Direct => VariantConfig {
                kind: self,
                sleeps: true,
                adaptive_sleep: true,
                adaptive_tau: true,
                adaptive_window: true,
                metric: MetricKind::DeliveryProb,
                selection: SelectionKind::SinkOnly,
            },
            ProtocolKind::Epidemic => VariantConfig {
                kind: self,
                sleeps: true,
                adaptive_sleep: true,
                adaptive_tau: true,
                adaptive_window: true,
                metric: MetricKind::DeliveryProb,
                selection: SelectionKind::AllResponders,
            },
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl From<ProtocolKind> for VariantConfig {
    fn from(kind: ProtocolKind) -> VariantConfig {
        kind.config()
    }
}

/// The knobs distinguishing the variants; produced by
/// [`ProtocolKind::config`] and consumed by the simulation engine. Custom
/// combinations (for ablations) can be built by mutating a base config or
/// chaining the `with_*` builders.
///
/// Marked `#[non_exhaustive]`: always start from [`ProtocolKind::config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct VariantConfig {
    /// Which named variant this derives from.
    pub kind: ProtocolKind,
    /// Whether the node ever turns its radio off.
    pub sleeps: bool,
    /// Eq. 6 adaptive sleeping vs. a fixed period.
    pub adaptive_sleep: bool,
    /// Eq. 13 adaptive τ_max vs. a fixed value.
    pub adaptive_tau: bool,
    /// Eq. 14 adaptive contention window vs. a fixed value.
    pub adaptive_window: bool,
    /// Routing-metric update rule.
    pub metric: MetricKind,
    /// Receiver-selection rule.
    pub selection: SelectionKind,
}

impl VariantConfig {
    /// Toggles Eq. 13 adaptive τ_max (builder style, for ablations).
    #[must_use]
    pub fn with_adaptive_tau(mut self, on: bool) -> Self {
        self.adaptive_tau = on;
        self
    }

    /// Toggles Eq. 14 adaptive contention window (builder style).
    #[must_use]
    pub fn with_adaptive_window(mut self, on: bool) -> Self {
        self.adaptive_window = on;
        self
    }

    /// Toggles Eq. 6 adaptive sleeping (builder style).
    #[must_use]
    pub fn with_adaptive_sleep(mut self, on: bool) -> Self {
        self.adaptive_sleep = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(ProtocolKind::Opt.label(), "OPT");
        assert_eq!(ProtocolKind::NoOpt.label(), "NOOPT");
        assert_eq!(ProtocolKind::NoSleep.label(), "NOSLEEP");
        assert_eq!(ProtocolKind::Zbr.label(), "ZBR");
        assert_eq!(ProtocolKind::Opt.to_string(), "OPT");
    }

    #[test]
    fn fig2_lists_the_paper_variants() {
        assert_eq!(ProtocolKind::FIG2.len(), 4);
        assert!(ProtocolKind::FIG2.contains(&ProtocolKind::Zbr));
    }

    #[test]
    fn opt_enables_everything() {
        let c = ProtocolKind::Opt.config();
        assert!(c.sleeps && c.adaptive_sleep && c.adaptive_tau && c.adaptive_window);
        assert_eq!(c.selection, SelectionKind::FtdThreshold);
    }

    #[test]
    fn noopt_fixes_all_parameters_but_still_sleeps() {
        let c = ProtocolKind::NoOpt.config();
        assert!(c.sleeps);
        assert!(!c.adaptive_sleep && !c.adaptive_tau && !c.adaptive_window);
    }

    #[test]
    fn nosleep_only_differs_from_opt_in_sleeping() {
        let opt = ProtocolKind::Opt.config();
        let ns = ProtocolKind::NoSleep.config();
        assert!(!ns.sleeps);
        assert_eq!(ns.metric, opt.metric);
        assert_eq!(ns.selection, opt.selection);
        assert_eq!(ns.adaptive_tau, opt.adaptive_tau);
    }

    #[test]
    fn zbr_uses_history_metric_and_single_copy() {
        let c = ProtocolKind::Zbr.config();
        assert_eq!(c.metric, MetricKind::SinkHistory);
        assert_eq!(c.selection, SelectionKind::SingleBest);
    }

    #[test]
    fn all_variants_have_distinct_configs() {
        for a in ProtocolKind::ALL {
            for b in ProtocolKind::ALL {
                if a != b {
                    assert_ne!(a.config(), b.config(), "{a} vs {b}");
                }
            }
        }
    }
}

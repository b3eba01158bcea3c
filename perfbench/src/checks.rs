//! Output checks: every simulation run the benchmark makes is counted as
//! attempted, and as failed when it panicked, broke a report invariant, or
//! rendered a report whose digest differs from the first run of the same
//! input in this invocation. Digests are never pinned across invocations,
//! so a deliberate re-baseline of the simulator's results does not break
//! the benchmark.

use crate::adapter::Facts;
use std::collections::HashMap;

/// FNV-1a 64-bit digest of a rendered report.
#[must_use]
pub fn digest(rendered: &str) -> u64 {
    rendered.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The invariants every report must satisfy; the first one broken.
#[must_use]
pub fn violation(f: &Facts) -> Option<String> {
    if f.delivered > f.generated {
        return Some(format!(
            "delivered {} > generated {}",
            f.delivered, f.generated
        ));
    }
    if f.events == 0 {
        return Some("no events processed".to_owned());
    }
    if !f.mean_delay_secs.is_finite() || !f.p95_delay_secs.is_finite() {
        return Some(format!(
            "non-finite delay (mean {}, p95 {})",
            f.mean_delay_secs, f.p95_delay_secs
        ));
    }
    if !(f.energy_j.is_finite() && f.energy_j > 0.0) {
        return Some(format!("non-positive energy {} J", f.energy_j));
    }
    None
}

/// What one run produced, as far as the checks are concerned.
#[derive(Debug, Clone, Copy)]
pub struct Checked {
    /// Report fields.
    pub facts: Facts,
    /// Digest of the rendered report.
    pub digest: u64,
}

/// Attempt and failure counts with the reference digest of each input.
#[derive(Debug, Default)]
pub struct Checker {
    reference: HashMap<usize, u64>,
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed a check.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub problems: Vec<String>,
}

impl Checker {
    /// Records a run of input `key`: `Err` carries a panic message.
    /// Returns whether the run passed.
    pub fn record(&mut self, key: usize, what: &str, outcome: Result<Checked, String>) -> bool {
        self.attempted += 1;
        let problem = match outcome {
            Err(panic) => Some(format!("panicked: {panic}")),
            Ok(c) => violation(&c.facts).or_else(|| {
                let first = *self.reference.entry(key).or_insert(c.digest);
                (first != c.digest).then(|| {
                    format!(
                        "digest {:016x} differs from the first run's {first:016x}",
                        c.digest
                    )
                })
            }),
        };
        match problem {
            None => true,
            Some(p) => {
                self.failed += 1;
                self.problems.push(format!("{what}: {p}"));
                false
            }
        }
    }

    /// Failed runs over attempted runs.
    #[must_use]
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed as f64 / self.attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{self, SimInput};

    fn small_report() -> adapter::Report {
        let input = SimInput::plain(
            adapter::paper_scenario(300).with_sensors(20),
            adapter::Protocol::Opt,
            3,
        );
        adapter::run_plain(adapter::build(&input)).0
    }

    fn checked(r: &adapter::Report) -> Result<Checked, String> {
        Ok(Checked {
            facts: adapter::facts(r),
            digest: digest(&adapter::render(r)),
        })
    }

    #[test]
    fn identical_reruns_pass() {
        let r = small_report();
        let mut c = Checker::default();
        assert!(c.record(0, "first", checked(&r)));
        assert!(c.record(0, "again", checked(&small_report())));
        assert_eq!((c.attempted, c.failed), (2, 0));
    }

    #[test]
    fn tampered_counter_is_counted_as_failed() {
        let r = small_report();
        let mut c = Checker::default();
        assert!(c.record(0, "reference", checked(&r)));
        let mut bad = r.clone();
        adapter::tamper_counter(&mut bad);
        assert!(violation(&adapter::facts(&bad)).is_none());
        assert!(!c.record(0, "tampered", checked(&bad)));
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert!(c.problems[0].contains("digest"));
        assert!((c.fail_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tampered_invariant_is_counted_as_failed() {
        let mut bad = small_report();
        adapter::tamper_invariant(&mut bad);
        let mut c = Checker::default();
        assert!(!c.record(0, "tampered", checked(&bad)));
        assert!(c.problems[0].contains("delivered"));
    }

    #[test]
    fn panics_and_distinct_inputs_are_kept_apart() {
        let mut c = Checker::default();
        assert!(!c.record(0, "boom", Err("oops".to_owned())));
        let r = small_report();
        assert!(c.record(1, "other input", checked(&r)));
        assert_eq!((c.attempted, c.failed), (2, 1));
    }

    #[test]
    fn invariants_catch_non_finite_and_empty_runs() {
        let ok = adapter::facts(&small_report());
        assert_eq!(violation(&ok), None);
        assert!(violation(&Facts { events: 0, ..ok }).is_some());
        assert!(violation(&Facts {
            p95_delay_secs: f64::NAN,
            ..ok
        })
        .is_some());
        assert!(violation(&Facts {
            energy_j: 0.0,
            ..ok
        })
        .is_some());
    }
}

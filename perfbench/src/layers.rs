//! Per-layer metrics of a traced run, and the exercise/bypass check that
//! keeps each workload measuring the layers it was chosen for.

use crate::adapter::{kind, KindTable};
use crate::stats::median;
use crate::workloads::Workload;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What the traced passes of a run accumulate.
#[derive(Debug, Default)]
pub struct Layers {
    /// Per-kind counts and handler time of the profiled passes.
    pub kinds: KindTable,
    /// Wall time of the profiled engine spans.
    pub profiled_engine_ns: u128,
    /// Wall time of the unprofiled engine spans over the same stretch of
    /// simulated time.
    pub plain_engine_ns: u128,
    /// Events processed inside the unprofiled engine spans.
    pub plain_engine_events: u64,
    /// Events of one whole batch.
    pub batch_events: u64,
    /// Contact-cache hits and misses of the unprofiled passes.
    pub cache: (u64, u64),
    /// Frames sent in one batch (this and the next three counters come
    /// from the warm-up batch; the simulator is deterministic).
    pub frames: u64,
    /// (frame, receiver) collision losses.
    pub collisions: u64,
    /// Listening-phase entries.
    pub attempts: u64,
    /// Attempts with no acknowledged receiver.
    pub failed_attempts: u64,
    /// Per-checkpoint save times (ms).
    pub ckpt_save_ms: Vec<f64>,
    /// Per-checkpoint restore times (ms).
    pub ckpt_restore_ms: Vec<f64>,
    /// Size of the last checkpoint (bytes).
    pub ckpt_bytes: u64,
    /// Per-simulation `build()` times (ms).
    pub build_ms: Vec<f64>,
    /// Sweep: sum of standalone run times per pass (s).
    pub sweep_busy_s: Vec<f64>,
    /// Sweep: one-worker makespans (s).
    pub sweep_makespan_1: Vec<f64>,
    /// Sweep: `nproc`-worker makespans (s).
    pub sweep_makespan_n: Vec<f64>,
    /// Sweep worker count.
    pub workers: usize,
    /// Traced batches the profile covers.
    pub batches: u64,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

impl Layers {
    fn share(&self, labels: &[&str]) -> f64 {
        let ns: u128 = labels.iter().map(|l| self.kinds.get(l).1).sum();
        ratio(ns as f64, self.kinds.handler_ns() as f64)
    }

    /// Events of kind `label` per traced batch.
    fn per_batch(&self, label: &str) -> f64 {
        ratio(self.kinds.get(label).0 as f64, self.batches as f64)
    }

    fn mean_ns(&self, label: &str) -> f64 {
        let (count, ns) = self.kinds.get(label);
        ratio(ns as f64, count as f64)
    }

    /// Every per-layer metric, in `BENCHMARK.json` order.
    #[must_use]
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
        let profiled_events = self.kinds.events() as f64;
        let handler_ns = self.kinds.handler_ns() as f64;
        let plain_ns_per_event =
            ratio(self.plain_engine_ns as f64, self.plain_engine_events as f64);
        let profiled_ns_per_event = ratio(self.profiled_engine_ns as f64, profiled_events);
        let (hits, misses) = self.cache;
        let makespan_n = med(&self.sweep_makespan_n);
        vec![
            m("sim.events", self.batch_events as f64, "count"),
            m("sim.ns_per_event", plain_ns_per_event, "ns"),
            m(
                "sim.queue_ns_per_event",
                ratio(self.profiled_engine_ns as f64 - handler_ns, profiled_events).max(0.0),
                "ns",
            ),
            m(
                "sim.stale_timer_ratio",
                ratio(self.kinds.get(kind::STALE).0 as f64, profiled_events),
                "ratio",
            ),
            m(
                "mobility.tick_share",
                self.share(&[kind::MOBILITY_TICK]),
                "ratio",
            ),
            m(
                "mobility.tick_us",
                self.mean_ns(kind::MOBILITY_TICK) / 1e3,
                "us",
            ),
            m(
                "mobility.contact_cache_hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
                "ratio",
            ),
            m("radio.txend_ns", self.mean_ns(kind::TX_END), "ns"),
            m("radio.frames_sent", self.frames as f64, "count"),
            m(
                "radio.collision_ratio",
                ratio(self.collisions as f64, self.frames as f64),
                "ratio",
            ),
            m("core.mac.listen_ns", self.mean_ns(kind::LISTEN_DONE), "ns"),
            m(
                "core.mac.handshake_share",
                self.share(&kind::HANDSHAKE),
                "ratio",
            ),
            m(
                "core.mac.attempt_success_ratio",
                ratio(
                    self.attempts.saturating_sub(self.failed_attempts) as f64,
                    self.attempts as f64,
                ),
                "ratio",
            ),
            m("core.mac.wakeup_ns", self.mean_ns(kind::WAKE_UP), "ns"),
            m("core.mac.guard_ns", self.mean_ns(kind::GUARD), "ns"),
            m("core.queue.datagen_ns", self.mean_ns(kind::DATA_GEN), "ns"),
            m(
                "core.observe.share",
                self.share(&[kind::OBSERVE_TICK]),
                "ratio",
            ),
            m(
                "core.observe.events",
                self.per_batch(kind::OBSERVE_TICK),
                "count",
            ),
            m("core.faults.share", self.share(&[kind::FAULT]), "ratio"),
            m("core.faults.events", self.per_batch(kind::FAULT), "count"),
            m("core.ckpt.save_ms", med(&self.ckpt_save_ms), "ms"),
            m("core.ckpt.restore_ms", med(&self.ckpt_restore_ms), "ms"),
            m("core.ckpt.bytes", self.ckpt_bytes as f64, "bytes"),
            m("core.build_ms", med(&self.build_ms), "ms"),
            m("bench.sweep.busy_s", med(&self.sweep_busy_s), "s"),
            m(
                "bench.sweep.efficiency",
                ratio(med(&self.sweep_busy_s), self.workers as f64 * makespan_n),
                "ratio",
            ),
            m(
                "bench.sweep.speedup",
                ratio(med(&self.sweep_makespan_1), makespan_n),
                "ratio",
            ),
            m(
                "trace.overhead_ratio",
                ratio(profiled_ns_per_event, plain_ns_per_event),
                "ratio",
            ),
        ]
    }
}

/// Looks a metric up by name.
#[must_use]
pub fn value(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

/// One exercise/bypass rule and whether it held.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// What the rule demands.
    pub text: String,
    /// Whether it held.
    pub ok: bool,
}

/// The exercise/bypass rules over a traced run of `own` and, where
/// available, traced runs of the other workloads on the same host.
/// Rules whose other side is missing are left out.
#[must_use]
pub fn exercise(own: Workload, mine: &[Metric], others: &[(Workload, Vec<Metric>)]) -> Vec<Rule> {
    let get = |w: Workload, name: &str| {
        if w == own {
            value(mine, name)
        } else {
            others
                .iter()
                .find(|(o, _)| *o == w)
                .and_then(|(_, ms)| value(ms, name))
        }
    };
    let mut rules = Vec::new();
    let mut at_least = |name: &str, hi: Workload, factor: f64, lo: Workload| {
        if own != hi && own != lo {
            return;
        }
        if let (Some(h), Some(l)) = (get(hi, name), get(lo, name)) {
            rules.push(Rule {
                text: format!(
                    "{name}: {} {h:.4} >= {factor} x {} {l:.4}",
                    hi.name(),
                    lo.name()
                ),
                ok: h >= factor * l,
            });
        }
    };
    at_least("mobility.tick_share", Workload::Scale, 3.0, Workload::Paper);
    at_least(
        "core.mac.handshake_share",
        Workload::Paper,
        10.0,
        Workload::Scale,
    );
    let only = |name: &str, on: Workload| {
        let v = value(mine, name).unwrap_or(0.0);
        let want = own == on;
        Rule {
            text: format!(
                "{name} {} on {} ({v})",
                if want { "non-zero" } else { "zero" },
                own.name()
            ),
            ok: (v > 0.0) == want,
        }
    };
    rules.push(only("core.observe.events", Workload::Sweep));
    rules.push(only("core.faults.events", Workload::Sweep));
    rules.push(only("core.ckpt.bytes", Workload::Scale));
    rules
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_with(pairs: &[(&'static str, f64)]) -> Vec<Metric> {
        let mut ms = Layers::default().metrics();
        for &(name, v) in pairs {
            ms.iter_mut().find(|m| m.name == name).unwrap().value = v;
        }
        ms
    }

    #[test]
    fn empty_layers_report_zeros_not_nans() {
        for m in Layers::default().metrics() {
            assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
        }
    }

    /// Names listed under `section` in `BENCHMARK.json`, sorted.
    fn listed(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let leaves = crate::adapter::parse_json_leaves(&text).unwrap();
        let mut names: Vec<String> = leaves
            .into_iter()
            .filter(|(k, _)| k.starts_with(&format!("{section}.")) && k.ends_with(".name"))
            .map(|(_, v)| v)
            .collect();
        names.sort();
        names
    }

    #[test]
    fn metric_names_match_benchmark_json() {
        let mut emitted: Vec<String> = Layers::default()
            .metrics()
            .iter()
            .map(|m| m.name.to_owned())
            .collect();
        emitted.sort();
        assert_eq!(emitted, listed("per_layer"));
        let mut e2e: Vec<String> = crate::workloads::END_TO_END
            .iter()
            .map(|(n, _)| (*n).to_owned())
            .collect();
        e2e.sort();
        assert_eq!(e2e, listed("end_to_end"));
        let mut workloads: Vec<String> =
            Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        workloads.sort();
        assert_eq!(workloads, listed("workloads"));
    }

    #[test]
    fn exercise_rules_pass_on_the_expected_shape() {
        let paper = metrics_with(&[
            ("mobility.tick_share", 0.07),
            ("core.mac.handshake_share", 0.2),
        ]);
        let scale = metrics_with(&[
            ("mobility.tick_share", 0.38),
            ("core.mac.handshake_share", 0.005),
            ("core.ckpt.bytes", 6.3e6),
        ]);
        let rules = exercise(Workload::Scale, &scale, &[(Workload::Paper, paper.clone())]);
        assert_eq!(rules.len(), 5);
        assert!(rules.iter().all(|r| r.ok), "{rules:?}");
        // Without the other workload only the local rules apply.
        assert_eq!(exercise(Workload::Paper, &paper, &[]).len(), 3);
    }

    #[test]
    fn exercise_rules_catch_a_workload_measuring_the_wrong_thing() {
        let paper = metrics_with(&[("mobility.tick_share", 0.2), ("core.observe.events", 4.0)]);
        let scale = metrics_with(&[("mobility.tick_share", 0.3)]);
        let rules = exercise(Workload::Paper, &paper, &[(Workload::Scale, scale)]);
        let failed: Vec<_> = rules
            .iter()
            .filter(|r| !r.ok)
            .map(|r| r.text.as_str())
            .collect();
        assert_eq!(failed.len(), 2, "{failed:?}");
    }
}

//! Every call the benchmark makes into the simulator.
//!
//! The rest of the benchmark sees only the types and functions below, so
//! an upstream rename touches this file alone. The benchmark never calls
//! the within-run parallel execution knobs (`threads`, `set_threads`,
//! `shards`, `set_shards`) or their telemetry (`exec_stats`,
//! `shard_stats`): every simulation here runs on one thread, and run-level
//! parallelism comes from `run_all_with` alone.

use dftmsn_bench::sweep::run_all_with;
use dftmsn_core::behavior;
use dftmsn_core::faults::FaultPlan;
use dftmsn_core::observe::MetricsRecorder;
use dftmsn_core::params::{ProtocolParams, ScenarioParams};
use dftmsn_core::policy::PolicySpec;
use dftmsn_core::variants::ProtocolKind;
use dftmsn_core::world::Simulation;
use dftmsn_metrics::json::Json;
use std::collections::BTreeMap;

pub use dftmsn_bench::sweep::RunSpec as Spec;
pub use dftmsn_core::report::SimReport as Report;
pub use dftmsn_core::variants::ProtocolKind as Protocol;
pub use dftmsn_core::world::Simulation as Sim;

/// The variants of Fig. 2 plus the two reference baselines, as the `paper`
/// workload runs them (NOSLEEP is left to `sweep`).
pub const PAPER_PROTOCOLS: [Protocol; 5] = [
    ProtocolKind::Opt,
    ProtocolKind::NoOpt,
    ProtocolKind::Zbr,
    ProtocolKind::Direct,
    ProtocolKind::Epidemic,
];

/// Every builtin variant, in the simulator's canonical order.
pub const ALL_PROTOCOLS: [Protocol; 6] = ProtocolKind::ALL;

/// Event-kind labels of the engine's per-kind profile.
pub mod kind {
    /// Mobility tick (positions, grid, contact cache).
    pub const MOBILITY_TICK: &str = "MobilityTick";
    /// Poisson message generation into the FTD queue.
    pub const DATA_GEN: &str = "DataGen";
    /// End of a frame on the medium.
    pub const TX_END: &str = "TxEnd";
    /// Wake-up from a sleep period.
    pub const WAKE_UP: &str = "Timer:WakeUp";
    /// End of the asynchronous listening phase.
    pub const LISTEN_DONE: &str = "Timer:ListenDone";
    /// Guard timer of the sleep path.
    pub const GUARD: &str = "Timer:Guard";
    /// A timer that fired after its owner moved on.
    pub const STALE: &str = "Timer:stale";
    /// Injected fault or behavior change.
    pub const FAULT: &str = "Fault";
    /// Observe-window boundary.
    pub const OBSERVE_TICK: &str = "ObserveTick";
    /// The CTS/ACK slots of the handshake: receiver selection, the policy
    /// seam and the Eq. 1/3 updates.
    pub const HANDSHAKE: [&str; 4] = [
        "Timer:CtsSlot",
        "Timer:CtsWindowEnd",
        "Timer:AckSlot",
        "Timer:AckWindowEnd",
    ];
}

/// One simulation to run: everything the builder is given.
#[derive(Debug, Clone)]
pub struct SimInput {
    /// Deployment and traffic.
    pub scenario: ScenarioParams,
    /// Variant.
    pub protocol: Protocol,
    /// Run seed.
    pub seed: u64,
    /// Injected faults and behaviors (`None` = fault-free).
    pub faults: Option<FaultPlan>,
    /// Observe window in seconds (`None` = no recorder).
    pub observe_window_secs: Option<f64>,
}

impl SimInput {
    /// A plain run: no faults, no observer.
    #[must_use]
    pub fn plain(scenario: ScenarioParams, protocol: Protocol, seed: u64) -> SimInput {
        SimInput {
            scenario,
            protocol,
            seed,
            faults: None,
            observe_window_secs: None,
        }
    }
}

/// Fig. 2's scenario (100 sensors, 3 sinks, 150 m field, 0.5 s tick).
#[must_use]
pub fn paper_scenario(duration_secs: u64) -> ScenarioParams {
    ScenarioParams::paper_default().with_duration_secs(duration_secs)
}

/// Fig. 2's scenario with `sinks` sinks.
#[must_use]
pub fn fig2_scenario(sinks: usize, duration_secs: u64) -> ScenarioParams {
    paper_scenario(duration_secs).with_sinks(sinks)
}

/// The scale tier's constant-density scenario.
#[must_use]
pub fn scale_scenario(sensors: usize, duration_secs: u64) -> ScenarioParams {
    dftmsn_bench::scale::scale_scenario(sensors, duration_secs)
}

/// A fault plan (`FaultPlan::parse` grammar) merged with a behavior plan
/// (`behavior::parse_spec` grammar), both seeded by `seed`.
///
/// # Errors
///
/// Returns the parser's message when either spec is invalid.
pub fn fault_plan(
    faults: &str,
    behaviors: &str,
    scenario: &ScenarioParams,
    seed: u64,
) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::parse(faults, scenario, seed).map_err(|e| e.0)?;
    plan.extend(behavior::parse_spec(behaviors, scenario, seed).map_err(|e| e.0)?);
    Ok(plan)
}

/// Builds the simulation `input` describes.
#[must_use]
pub fn build(input: &SimInput) -> Sim {
    let mut b = Simulation::builder(input.scenario.clone(), input.protocol).seed(input.seed);
    if let Some(plan) = &input.faults {
        b = b.faults(plan.clone());
    }
    if let Some(w) = input.observe_window_secs {
        b = b.observe(MetricsRecorder::new(w));
    }
    b.build()
}

/// Contact-cache `(hits, misses)`; zero when the engine keeps no cache.
#[must_use]
pub fn cache_stats(sim: &Sim) -> (u64, u64) {
    sim.contact_cache_stats().unwrap_or((0, 0))
}

/// Processes up to `n` events; returns how many were processed.
pub fn step_n(sim: &mut Sim, n: u64) -> u64 {
    let mut done = 0;
    while done < n && sim.step() {
        done += 1;
    }
    done
}

/// Runs to the end with no profiling; also returns the contact-cache
/// counters read at the end.
#[must_use]
pub fn run_plain(mut sim: Sim) -> (Report, (u64, u64)) {
    while sim.step() {}
    let cache = cache_stats(&sim);
    (sim.run(), cache)
}

/// Per-event-kind counts and handler nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct KindTable {
    rows: Vec<(&'static str, u64, u128)>,
}

impl KindTable {
    /// Adds `other`'s rows into this table.
    pub fn add(&mut self, other: &KindTable) {
        for &(label, count, ns) in &other.rows {
            match self.rows.iter_mut().find(|r| r.0 == label) {
                Some(r) => {
                    r.1 += count;
                    r.2 += ns;
                }
                None => self.rows.push((label, count, ns)),
            }
        }
    }

    /// `(count, handler ns)` of the kind `label`.
    #[must_use]
    pub fn get(&self, label: &str) -> (u64, u128) {
        self.rows
            .iter()
            .find(|r| r.0 == label)
            .map_or((0, 0), |r| (r.1, r.2))
    }

    /// Events across all kinds.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.rows.iter().map(|r| r.1).sum()
    }

    /// Handler nanoseconds across all kinds.
    #[must_use]
    pub fn handler_ns(&self) -> u128 {
        self.rows.iter().map(|r| r.2).sum()
    }
}

/// Runs to the end under the engine's per-event-kind profile.
#[must_use]
pub fn run_profiled(sim: Sim) -> (Report, KindTable) {
    let (report, profile) = sim.run_profiled();
    let rows = profile
        .kinds
        .iter()
        .map(|k| (k.label, k.count, k.total_ns))
        .collect();
    (report, KindTable { rows })
}

/// Serializes the live simulation to checkpoint bytes.
#[must_use]
pub fn checkpoint(sim: &mut Sim) -> Vec<u8> {
    sim.checkpoint_bytes()
}

/// Restores a simulation from checkpoint bytes.
///
/// # Errors
///
/// Returns the decoder's message when the bytes do not decode.
pub fn resume(bytes: &[u8]) -> Result<Sim, String> {
    Simulation::resume_from_bytes(bytes)
        .map(|(sim, _)| sim)
        .map_err(|e| e.to_string())
}

/// Renders the report as the JSON a user of the CLI would see.
#[must_use]
pub fn render(report: &Report) -> String {
    report.to_json().render()
}

/// The report fields the output checks and the per-layer counts read.
#[derive(Debug, Clone, Copy)]
pub struct Facts {
    /// Messages generated.
    pub generated: u64,
    /// Unique messages delivered.
    pub delivered: u64,
    /// Events processed.
    pub events: u64,
    /// Mean delivery delay (s).
    pub mean_delay_secs: f64,
    /// 95th-percentile delivery delay (s).
    pub p95_delay_secs: f64,
    /// Total sensor energy (J).
    pub energy_j: f64,
    /// Frames transmitted.
    pub frames_sent: u64,
    /// (frame, receiver) collision losses.
    pub collisions: u64,
    /// Listening-phase entries.
    pub attempts: u64,
    /// Attempts with no acknowledged receiver.
    pub failed_attempts: u64,
}

/// Reads the checked fields off a report.
#[must_use]
pub fn facts(r: &Report) -> Facts {
    Facts {
        generated: r.generated,
        delivered: r.delivered,
        events: r.events_processed,
        mean_delay_secs: r.mean_delay_secs,
        p95_delay_secs: r.p95_delay_secs,
        energy_j: r.total_sensor_energy_j,
        frames_sent: r.frames_sent,
        collisions: r.collisions,
        attempts: r.attempts,
        failed_attempts: r.failed_attempts,
    }
}

/// The sweep harness's description of `input`.
#[must_use]
pub fn run_spec(input: &SimInput) -> Spec {
    Spec {
        scenario: input.scenario.clone(),
        protocol: ProtocolParams::paper_default(),
        config: input.protocol.into(),
        seed: input.seed,
        faults: input.faults.clone().unwrap_or_default(),
        observe_window_secs: input.observe_window_secs,
        policy: PolicySpec::Builtin,
    }
}

/// Runs one spec standalone, as a one-worker sweep does.
#[must_use]
pub fn run_one_spec(spec: &Spec) -> Report {
    spec.run()
}

/// Runs every spec through the sweep harness on `workers` threads.
/// Reports come back in spec order.
#[must_use]
pub fn run_sweep(specs: &[Spec], workers: usize) -> Vec<Report> {
    run_all_with(specs, workers, |_, _| {})
}

/// Parses a JSON document into its scalar leaves, keyed by dotted path
/// (`metrics.wall_s.value`, `workloads.0.name`); strings come back
/// unquoted.
///
/// # Errors
///
/// Returns the parser's message on malformed input.
pub fn parse_json_leaves(text: &str) -> Result<BTreeMap<String, String>, String> {
    fn walk(prefix: &str, j: &Json, out: &mut BTreeMap<String, String>) {
        if let Some(fields) = j.as_object() {
            for (k, v) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                walk(&path, v, out);
            }
        } else if let Some(items) = j.as_array() {
            for (i, v) in items.iter().enumerate() {
                walk(&format!("{prefix}.{i}"), v, out);
            }
        } else if let Some(s) = j.as_str() {
            out.insert(prefix.to_owned(), s.to_owned());
        } else {
            out.insert(prefix.to_owned(), j.render());
        }
    }
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    walk("", &doc, &mut out);
    Ok(out)
}

/// Test-only: changes a counter the way a silent engine bug would, leaving
/// the report's invariants intact.
#[cfg(test)]
pub fn tamper_counter(report: &mut Report) {
    report.frames_sent += 1;
}

/// Test-only: breaks the delivered ≤ generated invariant.
#[cfg(test)]
pub fn tamper_invariant(report: &mut Report) {
    report.delivered = report.generated + 1;
}

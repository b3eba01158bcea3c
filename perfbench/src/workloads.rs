//! The benchmark's workloads and their timed and traced loops.
//!
//! Every workload is a closed loop over a fixed batch of simulations made
//! from the seed: the next batch starts when the previous one completes.
//! `paper` and `scale` run their batch on one thread; `sweep` hands it to
//! `run_all_with` on `nproc` workers. Each run first times `build()` over
//! several set-up rounds, then makes one untimed warm-up batch (the first
//! batch in a process is markedly slower, so timing is warm), which also
//! fixes the reference digest of every input.

use crate::adapter::{self, KindTable, SimInput};
use crate::checks::{digest, Checked, Checker};
use crate::layers::{Layers, Metric};
use crate::spans::{SpanId, Tracer};
use crate::stats::median;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 2's scenario under five protocols: the protocol-heavy regime.
    Paper,
    /// A 20 000-sensor scale cell with a checkpoint round trip: mobility,
    /// sleeping nodes, set-up and checkpoint size.
    Scale,
    /// A fig2-shaped grid through `run_all_with` with observers, faults and
    /// behaviors on `nproc` workers.
    Sweep,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Scale, Workload::Sweep];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Scale => "scale",
            Workload::Sweep => "sweep",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Simulated seconds per `paper` run.
const PAPER_HORIZON_SECS: u64 = 2_500;
/// Run seeds per protocol in a `paper` batch.
const PAPER_SEEDS: u64 = 2;
/// Sensors of the `scale` cell.
const SCALE_SENSORS: usize = 20_000;
/// Simulated seconds per `scale` run.
const SCALE_HORIZON_SECS: u64 = 120;
/// Simulated seconds per `sweep` run.
const SWEEP_HORIZON_SECS: u64 = 600;
/// Sink counts of the `sweep` grid.
const SWEEP_SINKS: [usize; 3] = [1, 3, 5];
/// Run seeds per `sweep` cell; the odd-numbered ones carry faults.
const SWEEP_SEEDS: u64 = 2;
/// Observe window of every `sweep` run (s).
const SWEEP_OBSERVE_WINDOW_SECS: f64 = 60.0;
/// Faults of the faulted half of the `sweep` grid.
const SWEEP_FAULTS: &str = "crash=0.1;linkdrop=0.05";
/// Behaviors merged into the same half.
const SWEEP_BEHAVIORS: &str = "selfish=0.1;blackhole=0.05";
/// `build()` rounds timed before the warm-up and before every timed
/// batch; their median is `setup_s`. Spreading them over the run lets the
/// median see the same host conditions as the batches.
const SETUP_ROUNDS: usize = 3;
/// Timed batches made even when `--seconds` has run out.
const MIN_BATCHES: usize = 3;

/// The end-to-end metrics with their units: the median batch wall time
/// without set-up, the median set-up round, the process's peak resident
/// memory, and the share of runs that passed every output check.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// The simulations of one batch, made from the seed alone.
#[derive(Debug, Clone)]
pub struct Batch {
    workload: Workload,
    inputs: Vec<SimInput>,
    /// Per input: events to process before the mid-run checkpoint.
    ckpt_after: Vec<Option<u64>>,
}

/// SplitMix64: spreads consecutive seeds over the whole `u64` range.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Batch {
    /// The batch of `workload` for `seed`.
    ///
    /// # Errors
    ///
    /// Fails when the sweep's fault or behavior spec does not parse.
    pub fn new(workload: Workload, seed: u64) -> Result<Batch, String> {
        let run_seed = |i: u64| mix(seed.wrapping_mul(0x1_0000).wrapping_add(i));
        let mut inputs = Vec::new();
        match workload {
            Workload::Paper => {
                for i in 0..PAPER_SEEDS {
                    for p in adapter::PAPER_PROTOCOLS {
                        inputs.push(SimInput::plain(
                            adapter::paper_scenario(PAPER_HORIZON_SECS),
                            p,
                            run_seed(i),
                        ));
                    }
                }
            }
            Workload::Scale => inputs.push(SimInput::plain(
                adapter::scale_scenario(SCALE_SENSORS, SCALE_HORIZON_SECS),
                adapter::Protocol::Opt,
                run_seed(0),
            )),
            Workload::Sweep => {
                for i in 0..SWEEP_SEEDS {
                    for sinks in SWEEP_SINKS {
                        let scenario = adapter::fig2_scenario(sinks, SWEEP_HORIZON_SECS);
                        let s = run_seed(i);
                        let faults = if i % 2 == 1 {
                            Some(adapter::fault_plan(
                                SWEEP_FAULTS,
                                SWEEP_BEHAVIORS,
                                &scenario,
                                s,
                            )?)
                        } else {
                            None
                        };
                        for p in adapter::ALL_PROTOCOLS {
                            inputs.push(SimInput {
                                scenario: scenario.clone(),
                                protocol: p,
                                seed: s,
                                faults: faults.clone(),
                                observe_window_secs: Some(SWEEP_OBSERVE_WINDOW_SECS),
                            });
                        }
                    }
                }
            }
        }
        let ckpt_after = vec![None; inputs.len()];
        Ok(Batch {
            workload,
            inputs,
            ckpt_after,
        })
    }

    /// Simulations per batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inputs.len()
    }
}

/// Everything one run of the benchmark measured.
#[derive(Debug)]
pub struct Outcome {
    /// `--trace 0`: the end-to-end metrics; `--trace 1`: the per-layer ones.
    pub metrics: Vec<Metric>,
    /// Attempted and failed simulation runs.
    pub checker: Checker,
    /// The recorded spans (empty unless traced).
    pub tracer: Tracer,
    /// Wall time of each timed batch (s).
    pub batch_walls: Vec<f64>,
    /// Wall time of each timed simulation run (s), for the latency line.
    pub run_latencies: Vec<f64>,
    /// Workers the batch ran on.
    pub workers: usize,
}

/// What one simulation run measured.
#[derive(Debug, Default)]
struct RunOut {
    build: Duration,
    total: Duration,
    /// Engine time after the checkpoint (or of the whole run) and the
    /// events it processed.
    tail_engine: Duration,
    tail_events: u64,
    ckpt: Option<(Duration, Duration, u64)>,
    kinds: Option<KindTable>,
    cache: (u64, u64),
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_owned())
}

/// Builds, runs (with the mid-run checkpoint round trip when
/// `ckpt_after` is set) and renders one simulation; `Err` carries a panic.
fn one_run(
    input: &SimInput,
    ckpt_after: Option<u64>,
    profiled: bool,
    t: &mut Tracer,
    parent: Option<SpanId>,
    run: u64,
) -> (RunOut, Result<Checked, String>) {
    let mut out = RunOut::default();
    let (result, total) = t.scope("run", parent, run, |t, me| {
        catch_unwind(AssertUnwindSafe(|| {
            let (mut sim, build) = t.scope("build", me, run, |_, _| adapter::build(input));
            out.build = build;
            let mut first_half = 0;
            if let Some(n) = ckpt_after {
                let ((), _) = t.scope("engine.first_half", me, run, |_, _| {
                    first_half = adapter::step_n(&mut sim, n);
                });
                let before = adapter::cache_stats(&sim);
                let (bytes, save) =
                    t.scope("ckpt.save", me, run, |_, _| adapter::checkpoint(&mut sim));
                drop(sim);
                let (restored, restore) =
                    t.scope("ckpt.restore", me, run, |_, _| adapter::resume(&bytes));
                sim = restored.unwrap_or_else(|e| panic!("resume failed: {e}"));
                out.ckpt = Some((save, restore, bytes.len() as u64));
                out.cache = before;
            }
            let (report, engine) = if profiled {
                t.scope("engine.profiled", me, run, |_, _| {
                    let (report, kinds) = adapter::run_profiled(sim);
                    out.kinds = Some(kinds);
                    report
                })
            } else {
                t.scope("engine.plain", me, run, |_, _| {
                    let (report, cache) = adapter::run_plain(sim);
                    out.cache.0 += cache.0;
                    out.cache.1 += cache.1;
                    report
                })
            };
            let facts = adapter::facts(&report);
            out.tail_engine = engine;
            out.tail_events = facts.events.saturating_sub(first_half);
            let (rendered, _) = t.scope("render", me, run, |_, _| adapter::render(&report));
            Checked {
                facts,
                digest: digest(&rendered),
            }
        }))
        .map_err(|p| panic_message(p.as_ref()))
    });
    out.total = total;
    (out, result)
}

/// Records one report of input `i` with the checker.
fn check_report(
    checker: &mut Checker,
    i: usize,
    what: &str,
    report: Result<&adapter::Report, &String>,
) -> bool {
    let checked = report.map_err(Clone::clone).map(|r| Checked {
        facts: adapter::facts(r),
        digest: digest(&adapter::render(r)),
    });
    checker.record(i, &format!("{what} of input {i}"), checked)
}

/// Runs the batch through `run_all_with` on `workers` threads, checking
/// (and so rendering) every report; returns the makespan of
/// `run_all_with` and the wall time including the checks.
fn sweep_pass(
    specs: &[adapter::Spec],
    workers: usize,
    t: &mut Tracer,
    parent: Option<SpanId>,
    checker: &mut Checker,
) -> (Duration, Duration) {
    let t0 = Instant::now();
    let (reports, makespan) = t.scope("run_all_with", parent, 0, |_, _| {
        catch_unwind(AssertUnwindSafe(|| adapter::run_sweep(specs, workers)))
            .map_err(|p| panic_message(p.as_ref()))
    });
    let what = if workers == 1 {
        "one-worker sweep"
    } else {
        "sweep"
    };
    for i in 0..specs.len() {
        check_report(checker, i, what, reports.as_ref().map(|rs| &rs[i]));
    }
    (makespan, t0.elapsed())
}

/// What the loops accumulate besides the tracer.
#[derive(Debug, Default)]
struct Acc {
    checker: Checker,
    layers: Layers,
    latencies: Vec<f64>,
    run_id: u64,
}

impl Acc {
    fn next_run(&mut self) -> u64 {
        self.run_id += 1;
        self.run_id
    }

    /// Checks a run of input `i` and folds its timings into the layers.
    fn absorb(&mut self, i: usize, what: &str, (out, checked): (RunOut, Result<Checked, String>)) {
        self.checker.record(i, what, checked);
        let l = &mut self.layers;
        l.build_ms.push(out.build.as_secs_f64() * 1e3);
        if let Some((save, restore, bytes)) = out.ckpt {
            l.ckpt_save_ms.push(save.as_secs_f64() * 1e3);
            l.ckpt_restore_ms.push(restore.as_secs_f64() * 1e3);
            l.ckpt_bytes = bytes;
        }
        match &out.kinds {
            Some(kinds) => {
                l.kinds.add(kinds);
                l.profiled_engine_ns += out.tail_engine.as_nanos();
            }
            None => {
                l.plain_engine_ns += out.tail_engine.as_nanos();
                l.plain_engine_events += out.tail_events;
                l.cache.0 += out.cache.0;
                l.cache.1 += out.cache.1;
            }
        }
    }
}

/// One timed `paper` or `scale` batch, run by run on this thread; traced,
/// each run is repeated under the engine's profile. Returns the batch's
/// wall time without `build()`.
fn serial_batch(
    batch: &Batch,
    traced: bool,
    t: &mut Tracer,
    parent: Option<SpanId>,
    acc: &mut Acc,
) -> f64 {
    let mut wall = 0.0;
    for (i, input) in batch.inputs.iter().enumerate() {
        let ckpt = batch.ckpt_after[i];
        let run = acc.next_run();
        let plain = one_run(input, ckpt, false, t, parent, run);
        let secs = plain.0.total.saturating_sub(plain.0.build).as_secs_f64();
        wall += secs;
        acc.latencies.push(secs);
        acc.absorb(i, "run", plain);
        if traced {
            let run = acc.next_run();
            let profiled = one_run(input, ckpt, true, t, parent, run);
            acc.absorb(i, "profiled run", profiled);
        }
    }
    wall
}

/// One timed `sweep` batch: `run_all_with` on every worker. Traced, the
/// batch is also run on one worker, then run by run unprofiled and
/// profiled. Returns the `nproc`-worker wall time, checks included.
fn sweep_batch(
    batch: &Batch,
    specs: &[adapter::Spec],
    traced: bool,
    t: &mut Tracer,
    parent: Option<SpanId>,
    acc: &mut Acc,
) -> f64 {
    let workers = acc.layers.workers;
    let (makespan, wall) = sweep_pass(specs, workers, t, parent, &mut acc.checker);
    if traced {
        acc.layers.sweep_makespan_n.push(makespan.as_secs_f64());
        let (one_worker, _) = sweep_pass(specs, 1, t, parent, &mut acc.checker);
        acc.layers.sweep_makespan_1.push(one_worker.as_secs_f64());
        let mut busy = 0.0;
        for (i, input) in batch.inputs.iter().enumerate() {
            let run = acc.next_run();
            let plain = one_run(input, None, false, t, parent, run);
            busy += plain.0.total.as_secs_f64();
            acc.latencies.push(plain.0.total.as_secs_f64());
            acc.absorb(i, "standalone run", plain);
        }
        acc.layers.sweep_busy_s.push(busy);
        for (i, input) in batch.inputs.iter().enumerate() {
            let run = acc.next_run();
            let profiled = one_run(input, None, true, t, parent, run);
            acc.absorb(i, "profiled run", profiled);
        }
    }
    wall.as_secs_f64()
}

/// The untimed warm-up batch: fixes every input's reference digest, the
/// batch's event and frame counts, and the `scale` checkpoint instant.
fn warm_up(batch: &mut Batch, specs: &[adapter::Spec], t: &mut Tracer, acc: &mut Acc) {
    let Batch {
        workload,
        inputs,
        ckpt_after,
    } = batch;
    t.scope("warmup", None, 0, |t, me| {
        for (i, (input, spec)) in inputs.iter().zip(specs).enumerate() {
            let run = acc.next_run();
            let facts = if *workload == Workload::Sweep {
                let (report, took) = t.scope("RunSpec::run", me, run, |_, _| {
                    catch_unwind(AssertUnwindSafe(|| adapter::run_one_spec(spec)))
                        .map_err(|p| panic_message(p.as_ref()))
                });
                acc.latencies.push(took.as_secs_f64());
                check_report(
                    &mut acc.checker,
                    i,
                    "reference RunSpec::run",
                    report.as_ref(),
                );
                report.ok().map(|r| adapter::facts(&r))
            } else {
                let (_, checked) = one_run(input, None, false, t, me, run);
                let facts = checked.as_ref().ok().map(|c| c.facts);
                acc.checker.record(i, "reference run", checked);
                facts
            };
            let Some(f) = facts else { continue };
            if *workload == Workload::Scale {
                ckpt_after[i] = Some(f.events / 2);
            }
            let l = &mut acc.layers;
            l.batch_events += f.events;
            l.frames += f.frames_sent;
            l.collisions += f.collisions;
            l.attempts += f.attempts;
            l.failed_attempts += f.failed_attempts;
        }
    });
}

/// Times [`SETUP_ROUNDS`] rounds of `build()` over the whole batch.
fn setup_rounds(batch: &Batch, out: &mut Vec<f64>) {
    for _ in 0..SETUP_ROUNDS {
        let mut round = Duration::ZERO;
        for input in &batch.inputs {
            let t0 = Instant::now();
            let sim = adapter::build(input);
            round += t0.elapsed();
            drop(sim);
        }
        out.push(round.as_secs_f64());
    }
}

/// Runs `batch`: set-up rounds, the warm-up, then timed batches until
/// `seconds` have passed (at least [`MIN_BATCHES`] untraced, one traced).
///
/// # Errors
///
/// Fails when the process's peak memory cannot be read.
pub fn run(mut batch: Batch, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut t = Tracer::new(traced);
    let mut acc = Acc::default();
    let workers = if batch.workload == Workload::Sweep {
        crate::host::nproc()
    } else {
        1
    };
    acc.layers.workers = workers;

    let mut setup = Vec::new();
    setup_rounds(&batch, &mut setup);
    let specs: Vec<adapter::Spec> = batch.inputs.iter().map(adapter::run_spec).collect();
    warm_up(&mut batch, &specs, &mut t, &mut acc);

    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        setup_rounds(&batch, &mut setup);
        let (wall, _) = t.scope("batch", None, 0, |t, me| {
            if batch.workload == Workload::Sweep {
                sweep_batch(&batch, &specs, traced, t, me, &mut acc)
            } else {
                serial_batch(&batch, traced, t, me, &mut acc)
            }
        });
        walls.push(wall);
        if traced {
            acc.layers.batches += 1;
        }
        let enough = traced || walls.len() >= MIN_BATCHES;
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let metrics = if traced {
        acc.layers.metrics()
    } else {
        let values = [
            median(&walls).unwrap_or(0.0),
            median(&setup).unwrap_or(0.0),
            crate::host::peak_rss_mb()?,
            1.0 - acc.checker.fail_ratio(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    };
    Ok(Outcome {
        metrics,
        checker: acc.checker,
        tracer: t,
        batch_walls: walls,
        run_latencies: acc.latencies,
        workers,
    })
}

//! Checkpoint/resume determinism sweep: snapshotting a run at a random
//! event boundary and resuming from the bytes must reproduce the
//! uninterrupted run *exactly* — every golden counter, every f64 bit of
//! delay and energy accounting, every delivery record, and every byte of
//! the windowed observe JSONL stream — for every protocol variant, across
//! seeds.
//!
//! The checkpoint instant is drawn from a seeded [`SimRng`] per
//! combination, so the suite probes a spread of boundaries (early,
//! mid-run, late) while staying fully reproducible. If a future change
//! legitimately alters simulation outcomes, this suite stays green — it
//! only compares a resumed run against its own uninterrupted twin; a
//! failure here always means resume lost or invented state.

use dftmsn::core::variants::ProtocolKind;
use dftmsn::prelude::*;
use dftmsn::radio::ids::NodeId;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// Shared byte sink for capturing the observe stream from both the
/// original and the resumed recorder.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A small but busy pinned workload: large enough that hundreds of MAC
/// cycles, queue evictions and sleep adaptations happen before and after
/// any checkpoint boundary, small enough to sweep 9 combinations in a
/// debug test run.
fn scenario() -> ScenarioParams {
    ScenarioParams::paper_default()
        .with_sensors(16)
        .with_sinks(2)
        .with_duration_secs(600)
}

const OBSERVE_WINDOW_SECS: f64 = 50.0;

/// The counters every variant must reproduce bit-for-bit across a
/// checkpoint/resume cycle.
fn golden(r: &SimReport) -> [u64; 8] {
    [
        r.generated,
        r.delivered,
        r.sink_receptions,
        r.frames_sent,
        r.collisions,
        r.attempts,
        r.multicasts,
        r.copies_sent,
    ]
}

fn build(kind: ProtocolKind, seed: u64, out: SharedBuf) -> (Simulation, MetricsRecorder) {
    let recorder = MetricsRecorder::new(OBSERVE_WINDOW_SECS)
        .streaming_only()
        .with_output(Box::new(out));
    let sim = Simulation::builder(scenario(), kind)
        .seed(seed)
        .observe(recorder.clone())
        .build();
    (sim, recorder)
}

/// Runs one (variant, seed) combination: uninterrupted twin vs.
/// checkpoint-at-`fraction`-of-the-run + resume, comparing reports and
/// observe streams bit-for-bit.
fn check_combo(kind: ProtocolKind, seed: u64, fraction: f64) {
    let label = format!("{kind:?} seed {seed} ckpt@{fraction:.3}");

    // The uninterrupted twin.
    let full_buf = SharedBuf::default();
    let (full_sim, _) = build(kind, seed, full_buf.clone());
    let full = full_sim.run();

    // The interrupted run: step to the first event boundary at or past
    // the checkpoint instant, snapshot, and drop it.
    let part_buf = SharedBuf::default();
    let (mut part_sim, part_rec) = build(kind, seed, part_buf.clone());
    let t_ckpt = fraction * scenario().duration_secs as f64;
    while part_sim.now().as_secs_f64() < t_ckpt {
        if !part_sim.step() {
            break;
        }
    }
    let bytes = part_sim.checkpoint_bytes();
    let cursor = part_rec.bytes_written() as usize;
    let head = part_buf.contents()[..cursor].to_vec();
    drop(part_sim);

    // Resume from the bytes and finish the run.
    let (resumed_sim, resumed_rec) =
        Simulation::resume_from_bytes(&bytes).unwrap_or_else(|e| panic!("{label}: resume: {e}"));
    let tail_buf = SharedBuf::default();
    let resumed_rec = resumed_rec
        .unwrap_or_else(|| panic!("{label}: checkpoint lost the observer"))
        .with_output(Box::new(tail_buf.clone()));
    let _ = &resumed_rec;
    let resumed = resumed_sim.run();

    // Golden counters and exact accounting.
    assert_eq!(
        golden(&resumed),
        golden(&full),
        "{label}: counters diverged"
    );
    assert_eq!(
        resumed.events_processed, full.events_processed,
        "{label}: event count diverged"
    );
    assert_eq!(
        resumed.mean_delay_secs.to_bits(),
        full.mean_delay_secs.to_bits(),
        "{label}: mean delay diverged"
    );
    assert_eq!(
        resumed.total_sensor_energy_j.to_bits(),
        full.total_sensor_energy_j.to_bits(),
        "{label}: energy accounting diverged"
    );
    assert_eq!(
        resumed.deliveries, full.deliveries,
        "{label}: deliveries diverged"
    );

    // The observe stream: checkpointed prefix + resumed suffix must be
    // byte-identical to the uninterrupted stream.
    let mut stitched = head;
    stitched.extend_from_slice(&tail_buf.contents());
    assert_eq!(
        stitched,
        full_buf.contents(),
        "{label}: observe stream not byte-identical"
    );
}

/// Draws a per-combination checkpoint fraction in [0.15, 0.85) from a
/// seeded RNG, so boundaries vary across the sweep but never between CI
/// runs.
fn fraction_for(rng: &mut SimRng) -> f64 {
    rng.gen_range_f64(0.15, 0.85)
}

#[test]
fn every_variant_resumes_bit_identically_under_ticked_mobility() {
    let mut rng = SimRng::seed_from(0xC4EC_0001);
    for kind in ProtocolKind::ALL {
        let fraction = fraction_for(&mut rng);
        check_combo(kind, 1, fraction);
    }
}

#[test]
fn second_seed_resumes_bit_identically() {
    let mut rng = SimRng::seed_from(0xC4EC_0003);
    for kind in [ProtocolKind::Opt, ProtocolKind::Zbr, ProtocolKind::Epidemic] {
        let fraction = fraction_for(&mut rng);
        check_combo(kind, 42, fraction);
    }
}

/// Golden `dftmsn-ckpt/1` fixture: a mid-run snapshot (OPT, 16 sensors,
/// 2 sinks, 800 s, seed 7, checkpointed at the first event boundary past
/// 450 s) committed under `tests/fixtures/`. Resuming it must still work
/// on every future build of this workspace — this is the format-stability
/// contract of the snapshot layout.
///
/// If a PR intentionally changes either the checkpoint format or protocol
/// behaviour, regenerate the fixture and these goldens, and say so in the
/// change notes:
///
/// ```text
/// cargo run -p dftmsn-cli -- run --protocol OPT --sensors 16 --sinks 2 \
///     --duration 800 --seed 7 \
///     --checkpoint tests/fixtures/golden-opt-seed7.ckpt --checkpoint-every 450
/// ```
///
/// (the run completes; the file keeps the last periodic snapshot), then
/// copy the counters from the resumed run.
#[test]
fn committed_golden_fixture_still_resumes() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden-opt-seed7.ckpt");
    let resumed: Resumed =
        Simulation::resume(&path).expect("golden fixture must decode on every build");
    assert!(!resumed.from_backup, "fixture resumed from a .bak?");
    let sim = resumed.sim;
    let t = sim.now().as_secs_f64();
    assert!(
        (450.0..=500.0).contains(&t),
        "fixture should snapshot just past 450 s, got {t}"
    );
    let report = sim.run();
    assert_eq!(
        golden(&report),
        [92, 41, 42, 5040, 1, 2429, 44, 44],
        "fixture continuation diverged from its recorded goldens"
    );
    assert_eq!(report.events_processed, 16289);
    assert_eq!(
        report.mean_delay_secs.to_bits(),
        204.358_425_463_414_62_f64.to_bits()
    );
}

#[test]
fn faulted_runs_resume_bit_identically() {
    // Faults exercise the fault-plan cursor, the fault RNG stream and the
    // crash/recovery state machines across the checkpoint boundary. The
    // second plan adds two per-pair link degradations that are still live
    // at the checkpoint, so the per-pair drop entries cross it too.
    let scenario = scenario();
    let crashes = FaultPlan::node_failures(&scenario, 0.3, Some(120.0), 9);
    let mut links = crashes.clone();
    for (at, a, b, drop_prob) in [(50.0, 16, 2, 0.6), (150.0, 4, 9, 0.9)] {
        let (a, b) = (NodeId(a), NodeId(b));
        links.push(at, FaultKind::LinkDegrade { a, b, drop_prob });
    }

    for (label, plan) in [
        ("faulted OPT", crashes),
        ("faulted OPT, per-pair links", links),
    ] {
        let full_sim = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
            .seed(5)
            .faults(plan.clone())
            .build();
        let full = full_sim.run();
        assert!(full.faults.crashes > 0, "{label}: plan injected nothing");

        let mut part_sim = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
            .seed(5)
            .faults(plan.clone())
            .build();
        while part_sim.now().as_secs_f64() < 300.0 {
            if !part_sim.step() {
                break;
            }
        }
        let bytes = part_sim.checkpoint_bytes();
        let (resumed_sim, _) =
            Simulation::resume_from_bytes(&bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
        let resumed = resumed_sim.run();
        assert_eq!(
            golden(&resumed),
            golden(&full),
            "{label}: counters diverged"
        );
        assert_eq!(
            resumed.faults, full.faults,
            "{label}: fault counters diverged"
        );
    }
}

#[test]
fn adversarial_runs_resume_bit_identically() {
    // Behavior changes ride the fault plan; the checkpoint's behavior
    // tail frame must restore the per-node table, the behavioral
    // counters, and the lifetime anchors so the resumed run is
    // bit-identical — including a behavior whose onset (selfish@400)
    // lies *beyond* the checkpoint instant, so it fires post-resume.
    let scenario = scenario();
    let mut plan =
        dftmsn::core::behavior::parse_spec("liar=0.2;selfish=0.2@400", &scenario, 5).unwrap();
    plan.extend(FaultPlan::node_failures(&scenario, 0.2, Some(120.0), 9));
    let label = "adversarial OPT";

    let full = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
        .seed(5)
        .faults(plan.clone())
        .build()
        .run();
    assert!(
        full.faults.behavior_changes > 0 && full.faults.crashes > 0,
        "{label}: plan injected nothing"
    );

    let mut part_sim = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
        .seed(5)
        .faults(plan.clone())
        .build();
    while part_sim.now().as_secs_f64() < 300.0 {
        if !part_sim.step() {
            break;
        }
    }
    let bytes = part_sim.checkpoint_bytes();
    let (resumed_sim, _) =
        Simulation::resume_from_bytes(&bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
    let resumed = resumed_sim.run();
    assert_eq!(
        golden(&resumed),
        golden(&full),
        "{label}: counters diverged"
    );
    assert_eq!(
        resumed.faults, full.faults,
        "{label}: fault/behavior counters diverged"
    );
    assert_eq!(
        resumed.lifetime, full.lifetime,
        "{label}: lifetime block diverged"
    );
    assert_eq!(
        resumed.mean_delay_secs.to_bits(),
        full.mean_delay_secs.to_bits(),
        "{label}: delay bits diverged"
    );
}

#[test]
fn faulted_runs_checkpoint_mid_run_and_resume_bit_identically() {
    // An OPT run under a crash/recover plan, stepped to the first event
    // boundary at or past 300 s and checkpointed there, must resume into
    // the exact bit-stream of the uninterrupted run, faults included.
    let scenario = scenario();
    let plan = FaultPlan::node_failures(&scenario, 0.3, Some(120.0), 9);
    let label = "faulted OPT";

    let full = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
        .seed(5)
        .faults(plan.clone())
        .build()
        .run();
    assert!(full.faults.crashes > 0, "{label}: plan injected nothing");

    let mut part = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
        .seed(5)
        .faults(plan.clone())
        .build();
    while part.now().as_secs_f64() < 300.0 {
        if !part.step() {
            break;
        }
    }
    let bytes = part.checkpoint_bytes();
    drop(part);

    let (resumed_sim, _) =
        Simulation::resume_from_bytes(&bytes).unwrap_or_else(|e| panic!("{label}: {e}"));
    let resumed = resumed_sim.run();
    assert_eq!(
        golden(&resumed),
        golden(&full),
        "{label}: counters diverged"
    );
    assert_eq!(
        resumed.faults, full.faults,
        "{label}: fault counters diverged"
    );
    assert_eq!(
        resumed.mean_delay_secs.to_bits(),
        full.mean_delay_secs.to_bits(),
        "{label}: delay accounting diverged"
    );
    assert_eq!(
        resumed.total_sensor_energy_j.to_bits(),
        full.total_sensor_energy_j.to_bits(),
        "{label}: energy accounting diverged"
    );
}

/// Steps `sim` until `pred` holds at an event boundary past `t_min`
/// seconds, returning false if the run ends first.
fn step_until(sim: &mut Simulation, t_min: f64, mut pred: impl FnMut(&Simulation) -> bool) -> bool {
    loop {
        if sim.now().as_secs_f64() >= t_min && pred(sim) {
            return true;
        }
        if !sim.step() {
            return false;
        }
    }
}

#[test]
fn checkpoints_taken_mid_frame_resume_bit_identically() {
    // The seam: a `begin_tx` has fired but its (unguarded, not
    // epoch-cancelled) `TxEnd` is still pending. The snapshot must carry
    // the in-flight transmission and the resumed queue must fire the
    // `TxEnd` at the exact original instant. Faults keep the plan cursor
    // and crash paths in play across the boundary.
    let scenario = scenario();
    let plan = FaultPlan::node_failures(&scenario, 0.3, Some(120.0), 9);
    let full = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
        .seed(5)
        .faults(plan.clone())
        .build()
        .run();

    let mut part = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
        .seed(5)
        .faults(plan.clone())
        .build();
    assert!(
        step_until(&mut part, 200.0, |s| s.airborne_frames() > 0),
        "no frame was mid-air at any boundary past 200 s"
    );
    assert!(part.airborne_frames() > 0);
    let bytes = part.checkpoint_bytes();
    drop(part);

    let (resumed_sim, _) = Simulation::resume_from_bytes(&bytes).expect("mid-frame resume");
    assert!(
        resumed_sim.airborne_frames() > 0,
        "the in-flight frame was lost across the checkpoint"
    );
    let resumed = resumed_sim.run();
    assert_eq!(
        golden(&resumed),
        golden(&full),
        "mid-frame: counters diverged"
    );
    assert_eq!(
        resumed.mean_delay_secs.to_bits(),
        full.mean_delay_secs.to_bits(),
        "mid-frame: delay accounting diverged"
    );
    assert_eq!(
        resumed.faults, full.faults,
        "mid-frame: fault counters diverged"
    );
}

#[test]
fn checkpoints_taken_mid_coast_lease_resume_bit_identically() {
    // The seam PR 6 introduced: ticked nodes coast on straight-line
    // leases whose replay into the models is deferred. `checkpoint_bytes`
    // settles every lease before serializing; the resumed run re-grants
    // from the settled models exactly as an uninterrupted run re-grants
    // after its own settle — this proves the settle/regrant round trip is
    // invisible, faults included.
    let scenario = scenario();
    let plan = FaultPlan::node_failures(&scenario, 0.25, Some(150.0), 17);
    let full = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
        .seed(8)
        .faults(plan.clone())
        .build()
        .run();

    let mut part = Simulation::builder(scenario.clone(), ProtocolKind::Opt)
        .seed(8)
        .faults(plan.clone())
        .build();
    assert!(
        step_until(&mut part, 250.0, |s| {
            s.coasting_nodes() > scenario.sensors / 2
        }),
        "most of the population should be mid-lease at a typical boundary"
    );
    let mid_lease = part.coasting_nodes();
    assert!(mid_lease > 0, "checkpoint instant was not mid-lease");
    let bytes = part.checkpoint_bytes();
    drop(part);

    let (resumed_sim, _) = Simulation::resume_from_bytes(&bytes).expect("mid-lease resume");
    let resumed = resumed_sim.run();
    assert_eq!(
        golden(&resumed),
        golden(&full),
        "mid-lease: counters diverged"
    );
    assert_eq!(
        resumed.total_sensor_energy_j.to_bits(),
        full.total_sensor_energy_j.to_bits(),
        "mid-lease: energy accounting diverged"
    );
    assert_eq!(
        resumed.deliveries, full.deliveries,
        "mid-lease: deliveries diverged"
    );
}

#[test]
fn zbr_checkpoint_reencodes_byte_for_byte() {
    // ZBR is a non-FTD-threshold variant, so its snapshots carry 1 in the
    // retired queue-discipline byte; the OPT fixture only ever carries 0.
    let mut sim = Simulation::builder(scenario(), ProtocolKind::Zbr)
        .seed(5)
        .build();
    while sim.now().as_secs_f64() < 300.0 && sim.step() {}
    let bytes = sim.checkpoint_bytes();
    let (mut resumed, _) = Simulation::resume_from_bytes(&bytes).expect("ZBR resume");
    assert_eq!(
        resumed.checkpoint_bytes(),
        bytes,
        "decoding and re-encoding a ZBR checkpoint changed its bytes"
    );
}

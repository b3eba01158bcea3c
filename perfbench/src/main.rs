//! The DFT-MSN simulator's benchmark: one command that runs a named
//! workload from a seed and prints its metrics by name and unit, ending
//! with one JSON line. See `README.md` next to this crate.
//!
//! ```text
//! perfbench --workload paper|scale|sweep --seed N --seconds S --trace 0|1
//! perfbench --compare RESULT_A.json RESULT_B.json
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` makes a separate
//! traced run that reports the per-layer metrics, writes its spans and
//! runs the exercise/bypass check. Every result is also written, with the
//! host fingerprint, to `.bench_out/<workload>-trace<T>.json`.

#![forbid(unsafe_code)]

mod adapter;
mod checks;
mod host;
mod layers;
mod spans;
mod stats;
mod workloads;

use host::{json_str, Fingerprint, HOST_FIELDS};
use layers::{Metric, Rule};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Batch, Workload};

/// Directory, relative to the working directory, for results and spans.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: perfbench --workload paper|scale|sweep --seed N --seconds S --trace 0|1\n       perfbench --compare RESULT_A.json RESULT_B.json";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Cmd {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
}

fn parse_args(args: &[String]) -> Result<Cmd, String> {
    if args.first().map(String::as_str) == Some("--compare") {
        return match args {
            [_, a, b] => Ok(Cmd::Compare(a.into(), b.into())),
            _ => Err("--compare takes two result files".to_owned()),
        };
    }
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        if !["workload", "seed", "seconds", "trace"].contains(&key) {
            return Err(format!("unknown flag '{flag}'"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key, value.as_str());
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("missing --{k}"))
    };
    let workload = get("workload")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_owned())?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be finite and non-negative".to_owned());
    }
    Ok(Cmd::Run(RunArgs {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload '{workload}'"))?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be a whole number".to_owned())?,
        seconds,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
        },
    }))
}

fn result_path(w: Workload, trace: bool) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{}-trace{}.json", w.name(), u8::from(trace)))
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// A stored result's host fields and metric values.
struct Stored {
    host: Vec<String>,
    workload: String,
    trace: String,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &Path) -> Result<Stored, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let leaves =
        adapter::parse_json_leaves(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |k: &str| leaves.get(k).cloned().unwrap_or_default();
    let metrics = leaves
        .iter()
        .filter_map(|(k, v)| {
            let name = k.strip_prefix("metrics.")?.strip_suffix(".value")?;
            Some((name.to_owned(), v.parse().ok()?))
        })
        .collect();
    Ok(Stored {
        host: HOST_FIELDS
            .iter()
            .map(|f| field(&format!("fingerprint.{f}")))
            .collect(),
        workload: field("workload"),
        trace: field("trace"),
        metrics,
    })
}

/// Host fields on which two fingerprints differ.
fn host_mismatch(a: &[String], b: &[String]) -> Vec<String> {
    HOST_FIELDS
        .iter()
        .zip(a.iter().zip(b))
        .filter(|(_, (x, y))| x != y)
        .map(|(f, (x, y))| format!("{f}: '{x}' vs '{y}'"))
        .collect()
}

fn compare(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let (ra, rb) = (load(a)?, load(b)?);
    if (ra.workload.as_str(), ra.trace.as_str()) != (rb.workload.as_str(), rb.trace.as_str()) {
        eprintln!("refusing to compare: different workloads or trace modes");
        return Ok(ExitCode::from(3));
    }
    let diff = host_mismatch(&ra.host, &rb.host);
    if !diff.is_empty() {
        eprintln!(
            "refusing to compare results from different hosts: {}",
            diff.join("; ")
        );
        return Ok(ExitCode::from(3));
    }
    println!("{:<34} {:>16} {:>16} {:>9}", "metric", "A", "B", "B/A");
    for (name, va) in &ra.metrics {
        if let Some(vb) = rb.metrics.get(name) {
            let r = if *va == 0.0 {
                "n/a".to_owned()
            } else {
                format!("{:.4}", vb / va)
            };
            println!("{name:<34} {va:>16.6} {vb:>16.6} {r:>9}");
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Traced results of the other workloads measured on this host.
fn other_traced(me: Workload, fp: &Fingerprint) -> Vec<(Workload, Vec<Metric>)> {
    let mut out = Vec::new();
    for w in Workload::ALL.into_iter().filter(|&w| w != me) {
        let Ok(stored) = load(&result_path(w, true)) else {
            continue;
        };
        if !host_mismatch(&stored.host, &fp.host_fields()).is_empty() {
            println!(
                "exercise: ignoring the stored {} trace from another host",
                w.name()
            );
            continue;
        }
        let mut ms = layers::Layers::default().metrics();
        for m in &mut ms {
            m.value = stored.metrics.get(m.name).copied().unwrap_or(0.0);
        }
        out.push((w, ms));
    }
    out
}

fn run(args: &RunArgs) -> Result<(), String> {
    let fp = Fingerprint::detect();
    let batch = Batch::new(args.workload, args.seed)?;
    let sims = batch.len();
    let outcome = workloads::run(batch, args.seconds, args.trace)?;
    let c = &outcome.checker;

    let mut text = String::new();
    let _ = writeln!(
        text,
        "perfbench {} seed={} trace={} sims/batch={sims} batches={} workers={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        outcome.batch_walls.len(),
        outcome.workers
    );
    let _ = writeln!(text, "fingerprint {}", fp.to_json());
    for m in &outcome.metrics {
        let _ = writeln!(text, "  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        text,
        "  {:<34} {:>18.6} ratio ({} failed of {} runs)",
        "fail_ratio",
        c.fail_ratio(),
        c.failed,
        c.attempted
    );
    let walls = &outcome.batch_walls;
    if let (Some(med), Some((q1, q3)), Some(share)) = (
        stats::median(walls),
        stats::quartiles(walls),
        stats::iqr_share(walls),
    ) {
        let _ = writeln!(
            text,
            "batch wall: n={} q1={q1:.4} median={med:.4} q3={q3:.4} s (iqr/median {share:.4})",
            walls.len()
        );
    }
    let lat = &outcome.run_latencies;
    let _ = write!(
        text,
        "run latency: n={} median={:.4} s",
        lat.len(),
        stats::median(lat).unwrap_or(0.0)
    );
    match stats::high_percentile(lat) {
        Some(tail) => {
            let _ = writeln!(
                text,
                " p{}={:.4} s ({} beyond)",
                tail.pct, tail.value, tail.beyond
            );
        }
        None => {
            let _ = writeln!(text, " (too few runs for a tail percentile)");
        }
    }
    for p in c.problems.iter().take(5) {
        let _ = writeln!(text, "FAILED {p}");
    }

    let mut rules: Vec<Rule> = Vec::new();
    if args.trace {
        let _ = writeln!(
            text,
            "spans: {:<22} {:>7} {:>12} {:>12}",
            "name", "count", "total s", "self s"
        );
        for (name, (count, total, own)) in spans::by_name(outcome.tracer.spans()) {
            let _ = writeln!(
                text,
                "       {name:<22} {count:>7} {:>12.4} {:>12.4}",
                total as f64 / 1e9,
                own as f64 / 1e9
            );
        }
        let others = other_traced(args.workload, &fp);
        rules = layers::exercise(args.workload, &outcome.metrics, &others);
        for r in &rules {
            let _ = writeln!(
                text,
                "exercise {} {}",
                if r.ok { "ok  " } else { "FAIL" },
                r.text
            );
        }
    }
    print!("{text}");

    let correct = c.failed == 0 && rules.iter().all(|r| r.ok);
    let metrics = metrics_json(&outcome.metrics);
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        c.attempted, c.failed
    );

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let stored = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"fingerprint\":{},\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}\n",
        json_str(args.workload.name()),
        args.seed,
        json_str(if args.trace { "1" } else { "0" }),
        fp.to_json(),
        c.attempted,
        c.failed,
        metrics
    );
    let path = result_path(args.workload, args.trace);
    std::fs::write(&path, stored).map_err(|e| format!("{}: {e}", path.display()))?;
    if args.trace {
        let spans = Path::new(OUT_DIR).join(format!(
            "{}-seed{}.spans.jsonl",
            args.workload.name(),
            args.seed
        ));
        std::fs::write(&spans, outcome.tracer.to_jsonl())
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        println!("spans written to {}", spans.display());
    }
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match parse_args(&args) {
        Ok(cmd) => cmd,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        Cmd::Compare(a, b) => compare(&a, &b),
        // A run that completes exits 0 and reports failures in its result.
        Cmd::Run(r) => run(&r).map(|()| ExitCode::SUCCESS),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

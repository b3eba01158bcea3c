//! The host fingerprint recorded with every result, and process memory.

use std::path::Path;
use std::process::Command;

/// Where a result was measured. Two results are comparable only when
/// every host field matches; `git_rev` names the code under test and is
/// what a comparison is *about*, so it is recorded but not required to
/// match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Whether timing starts after a discarded warm-up iteration.
    pub warmth: String,
}

/// The fields [`Fingerprint::host_fields`] returns, in order.
pub const HOST_FIELDS: [&str; 4] = ["nproc", "cpu_model", "rustc", "warmth"];

impl Fingerprint {
    /// Detects the current host. The benchmark always times warm.
    #[must_use]
    pub fn detect() -> Fingerprint {
        Fingerprint {
            nproc: nproc(),
            cpu_model: cpu_model(),
            rustc: command_line("rustc", &["--version"]),
            git_rev: git_rev(),
            warmth: "warm".to_owned(),
        }
    }

    /// The host fields as strings, in [`HOST_FIELDS`] order.
    #[must_use]
    pub fn host_fields(&self) -> [String; 4] {
        [
            self.nproc.to_string(),
            self.cpu_model.clone(),
            self.rustc.clone(),
            self.warmth.clone(),
        ]
    }

    /// The fingerprint as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_rev\":{},\"warmth\":{}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.git_rev),
            json_str(&self.warmth)
        )
    }
}

/// Logical CPUs available to this process (1 when undetectable).
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, v)| v.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checkout's commit. Only a `.git` in the working directory is
/// consulted, never one further up.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_owned();
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_DIR", ".git")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
///
/// # Errors
///
/// Fails where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `s` as a JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_rev_is_excluded_from_host_fields() {
        let a = Fingerprint::detect();
        let b = Fingerprint {
            git_rev: "other".to_owned(),
            ..a.clone()
        };
        assert_eq!(a.host_fields(), b.host_fields());
        let c = Fingerprint {
            nproc: a.nproc + 1,
            ..a.clone()
        };
        assert_ne!(a.host_fields(), c.host_fields());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}

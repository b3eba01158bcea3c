//! Exit-code contract of the `dftmsn` binary for usage errors: an unknown
//! flag prints the diagnostic and the usage text on stderr and exits 2.

use std::process::Command;

#[test]
fn run_threads_is_an_unknown_flag_with_exit_code_2() {
    // Runs are single-threaded; parallelism lives across runs in the
    // experiment harness, so `run` has no thread-count flag.
    let out = Command::new(env!("CARGO_BIN_EXE_dftmsn"))
        .args(["run", "--threads", "4"])
        .output()
        .expect("spawn dftmsn");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let (error, usage) = stderr.split_once("USAGE:").expect("usage text on stderr");
    assert!(
        error.starts_with("error: unknown flag '--threads'"),
        "{stderr}"
    );
    assert!(!usage.contains("--threads"), "{usage}");
}

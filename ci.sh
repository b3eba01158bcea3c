#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 test suite, and a
# benchmark smoke run. Everything here must pass before a change lands.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> single-threaded engine guard (no threads in sim, radio, mobility, core)"
# Runs are single-threaded; parallelism lives across runs in bench::sweep.
if grep -rnE 'std::thread|thread::(scope|spawn)' crates/{sim,radio,mobility,core}/src; then
    echo "single-threaded engine guard: thread use found in an engine crate"; exit 1
fi

echo "==> tier-1 tests (release build + root test suite)"
cargo build --release
cargo test -q

echo "==> full workspace tests"
cargo test --workspace --release -q

echo "==> golden determinism baseline (empty fault plan must change nothing)"
cargo test --release -q --test determinism_baseline

echo "==> analytic-table parity gate (Eqs. 12-14 tables must regenerate byte for byte)"
cargo run --release -q -p dftmsn-bench --bin opt_tables >/dev/null
git diff --exit-code results/opt1_rts_collisions.* results/opt2_cts_collisions.* \
    || { echo "analytic-table parity: opt_tables output differs from the committed tables"; exit 1; }

echo "==> fault-injection smoke (crashes + link drops must register)"
fault_json=$(cargo run --release -q -p dftmsn-cli -- run --protocol OPT \
    --sensors 20 --sinks 2 --duration 2000 --seed 1 \
    --fault-plan "crash=0.3;linkdrop=0.2" --json)
echo "$fault_json" | grep -q '"crashes":[1-9]' \
    || { echo "fault smoke: no crashes counted"; exit 1; }
echo "$fault_json" | grep -q '"frames_dropped":[1-9]' \
    || { echo "fault smoke: no frames dropped"; exit 1; }

echo "==> observe smoke (run --observe JSONL + inspect round trip)"
obs_file=target/ci_observe.jsonl
cargo run --release -q -p dftmsn-cli -- run --protocol OPT \
    --sensors 20 --sinks 2 --duration 2000 --seed 1 \
    --observe "$obs_file" --window 100 >/dev/null
grep -q '"schema":"dftmsn-observe/1"' "$obs_file" \
    || { echo "observe smoke: missing schema header"; exit 1; }
grep -q '"totals":true' "$obs_file" \
    || { echo "observe smoke: missing totals line"; exit 1; }
inspect_out=$(cargo run --release -q -p dftmsn-cli -- inspect "$obs_file")
echo "$inspect_out" | grep -q 'deliveries' \
    || { echo "observe smoke: inspect failed to summarize"; exit 1; }

echo "==> checkpoint/resume determinism gate (resumed run must be bit-identical)"
cargo test --release -q --test checkpoint_resume
ck=target/ci_ckpt.ckpt
rm -f "$ck" "$ck.bak" target/ci_ckpt_full.jsonl target/ci_ckpt_part.jsonl
full_json=$(cargo run --release -q -p dftmsn-cli -- run --protocol OPT \
    --sensors 20 --sinks 2 --duration 2000 --seed 1 \
    --observe target/ci_ckpt_full.jsonl --window 100 --json)
cargo run --release -q -p dftmsn-cli -- run --protocol OPT \
    --sensors 20 --sinks 2 --duration 2000 --seed 1 \
    --observe target/ci_ckpt_part.jsonl --window 100 \
    --checkpoint "$ck" --checkpoint-every 900 >/dev/null
resumed_json=$(cargo run --release -q -p dftmsn-cli -- run --resume "$ck" \
    --observe target/ci_ckpt_part.jsonl --window 100 --json)
cmp -s target/ci_ckpt_full.jsonl target/ci_ckpt_part.jsonl \
    || { echo "checkpoint gate: resumed observe stream is not byte-identical"; exit 1; }
[ "$full_json" = "$resumed_json" ] \
    || { echo "checkpoint gate: resumed report differs from the uninterrupted run"; exit 1; }

echo "==> corrupt-checkpoint rejection smoke (must refuse with exit code 4)"
cp "$ck" target/ci_ckpt_bad.ckpt
rm -f target/ci_ckpt_bad.ckpt.bak
printf 'X' | dd of=target/ci_ckpt_bad.ckpt bs=1 seek=100 conv=notrunc status=none
set +e
cargo run --release -q -p dftmsn-cli -- run --resume target/ci_ckpt_bad.ckpt \
    >/dev/null 2>target/ci_ckpt_bad.err
bad_rc=$?
set -e
[ "$bad_rc" -eq 4 ] \
    || { echo "corrupt checkpoint gate: expected exit 4, got $bad_rc"; exit 1; }
grep -qi 'checksum\|corrupt' target/ci_ckpt_bad.err \
    || { echo "corrupt checkpoint gate: no diagnostic on stderr"; exit 1; }

echo "==> policy-parity gate (builtin variants bit-identical through the trait; policy goldens)"
cargo test --release -q --test policy_parity
cargo run --release -q -p dftmsn-cli -- run --policy twohop:budget=3 \
    --sensors 10 --sinks 2 --duration 300 --json >/dev/null \
    || { echo "policy smoke: run --policy failed"; exit 1; }

echo "==> adversary-parity gate (all-honest runs bit-identical; adversarial runs seed-deterministic)"
# Quiet-run bit-identity across all 24 goldens (behavior machinery compiled
# in but dormant) plus the stacked behavior+fault and lifetime suites.
cargo test --release -q --test determinism_baseline
cargo test --release -q --test lazy_mobility_baseline
cargo test --release -q --test behavior
# Seeded 25%-selfish determinism smoke: two identical invocations must
# produce byte-equal JSON reports.
adv_a=$(cargo run --release -q -p dftmsn-cli -- run --protocol OPT \
    --sensors 20 --sinks 2 --duration 2000 --seed 1 \
    --behaviors "selfish=0.25" --json)
adv_b=$(cargo run --release -q -p dftmsn-cli -- run --protocol OPT \
    --sensors 20 --sinks 2 --duration 2000 --seed 1 \
    --behaviors "selfish=0.25" --json)
[ "$adv_a" = "$adv_b" ] \
    || { echo "adversary gate: selfish run is not seed-deterministic"; exit 1; }
echo "$adv_a" | grep -q '"behavior_changes":[1-9]' \
    || { echo "adversary gate: no behavior changes counted"; exit 1; }
cargo run --release -q -p dftmsn-cli -- run --behaviors "liar=0.1;blackhole=0.1@500" \
    --sensors 10 --sinks 2 --duration 300 --json >/dev/null \
    || { echo "adversary smoke: run --behaviors failed"; exit 1; }

echo "==> public-API surface gate (drift must be declared in API_SURFACE.txt)"
cargo run --release -q -p dftmsn-bench --bin api_surface -- --check

echo "==> docs build cleanly (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> benchmark smoke (perfbench unit tests; every workload runs and checks its outputs)"
# Correctness only: the minimum three timed batches per workload. Performance
# is compared same-host, parent against change, with perfbench's --compare.
CARGO_TARGET_DIR=.bench_build cargo test --release --offline -q \
    --manifest-path perfbench/Cargo.toml
for w in paper scale sweep; do
    last=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 0 --trace 0 | tail -n 1)
    { echo "$last" | grep -q '"correct":true' && echo "$last" | grep -q '"failed":0'; } \
        || { echo "benchmark smoke: $w is not correct: $last"; exit 1; }
done

echo "CI OK"

//! `cargo test` is the smoke check: every workload at 1/50 of its
//! populations, untraced and traced, with zero failed operations,
//! non-vacuous expectations, and the printed metric names equal to
//! `BENCHMARK.json`'s.

use std::process::Command;

#[test]
fn smoke_check_passes() {
    let output = Command::new(env!("CARGO_BIN_EXE_gsa-benchmark"))
        .args(["run", "--check"])
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "run --check failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

//! End-to-end checks of the benchmark command. They run real workloads,
//! so they are skipped in debug builds: run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hsumma-perfbench"))
        .args(args)
        .output()
        .expect("run the benchmark binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs n = 1024 jobs; use --release")]
fn a_corrupted_product_fails_the_command_without_a_result() {
    let (ok, stdout) = run(&[
        "--workload",
        "hsumma_batch",
        "--seed",
        "5",
        "--seconds",
        "0.5",
        "--trace",
        "0",
        "--corrupt-one",
    ]);
    assert!(!ok, "a wrong product must fail the run");
    assert!(!stdout.contains("\"correct\""), "no result line: {stdout}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs n = 1024 jobs; use --release")]
fn a_clean_run_prints_every_end_to_end_metric_last() {
    let (ok, stdout) = run(&[
        "--workload",
        "hsumma_batch",
        "--seed",
        "5",
        "--seconds",
        "0.5",
        "--trace",
        "0",
    ]);
    assert!(ok, "{stdout}");
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for name in [
        "setup_s",
        "latency_p50_ms",
        "latency_p99_ms",
        "ok_frac",
        "gflops",
        "sim_mops_s",
        "peak_rss_mb",
    ] {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} in {last}"
        );
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "sim_replay",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "sim_replay", "--seed", "1", "--seconds", "1"][..],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok && !stdout.contains("\"correct\""), "{args:?}");
    }
}

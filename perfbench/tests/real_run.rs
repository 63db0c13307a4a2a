//! The ladder on real traced runs: the layer rows must add up to the
//! end-to-end trace delta within the A/A floor, and on mz-fleet the
//! memory-sink and wire rows must split that delta exactly. One test
//! runs both workloads in turn, so the two runs never share the cores.

use std::path::Path;
use std::process::Command;

fn traced_run(workload: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .current_dir(root)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload}: {stdout}");
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true"), "{workload}: {last}");
    stdout
}

fn line<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    stdout
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"))
}

/// The numbers in `text`, in order.
fn numbers(text: &str) -> Vec<f64> {
    text.split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .filter_map(|t| t.parse().ok())
        .collect()
}

#[test]
fn layer_rows_reconcile_with_the_trace_delta() {
    for workload in ["epcc-dense", "mz-fleet"] {
        let stdout = traced_run(workload);
        let ladder = line(&stdout, "ladder:");
        assert!(ladder.ends_with(": reconciles"), "{workload}: {ladder}");
        if workload == "mz-fleet" {
            // "fleet: trace.mem A + wire B = C ns/event vs trace - absent D"
            let fleet = line(&stdout, "fleet:");
            let n = numbers(fleet.trim_start_matches("fleet: trace.mem"));
            assert_eq!(n.len(), 4, "{fleet}");
            assert!((n[0] + n[1] - n[2]).abs() < 0.02, "{fleet}");
            assert!((n[2] - n[3]).abs() < 0.02, "{fleet}");
        }
    }
}

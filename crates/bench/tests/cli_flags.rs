//! `omp_prof` rejects malformed flag values with exit 2 instead of
//! running with a default, and `paper` accepts exactly three scales.

use std::process::Command;

fn omp_prof(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_omp_prof"))
        .args(args)
        .output()
        .expect("spawn omp_prof");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_flag_values_exit_2() {
    let cases: [&[&str]; 6] = [
        &["health", "--threads", "four"],
        &["health", "--policy", "blok"],
        &["health", "--class", "q"],
        &["paper", "table1", "--scale", "smok"],
        &["paper", "table1", "--scale", "--paper"],
        &["fleet", "--kill-rank", "one"],
    ];
    for args in cases {
        let (code, stderr) = omp_prof(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        let (flag, value) = (args[args.len() - 2], args[args.len() - 1]);
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "{args:?} must name the flag and the value: {stderr}"
        );
    }
}

#[test]
fn unknown_paper_experiment_exits_2() {
    let (code, stderr) = omp_prof(&["paper", "fig7", "--scale", "smoke"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("fig7"), "{stderr}");
}

#[test]
fn paper_table_runs_at_smoke_scale() {
    let (code, stderr) = omp_prof(&["paper", "table2", "--scale", "smoke"]);
    assert_eq!(code, Some(0), "{stderr}");
}

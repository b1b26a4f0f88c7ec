//! The `check` bin's exit-status contract, run as a process: usage errors
//! exit 2 through the usage message — never a panic — and a named scenario
//! that verifies exits 0 with its exact state counts.

use std::process::{Command, Output};

fn check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_check"))
        .args(args)
        .output()
        .expect("run the check bin")
}

#[test]
fn bad_input_exits_2_without_panicking() {
    let cases: [&[&str]; 4] = [
        &["family", "--nodes", "0"],
        &["scenario", "two_writers", "--max-seconds", "nan"],
        &["scenario", "two_writers", "--max-seconds", "-1"],
        &["scenario", "two_writers", "--reduction", "off"],
    ];
    for args in cases {
        let out = check(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: check"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_verified_scenario_exits_0_with_its_counts() {
    let out = check(&["scenario", "two_writers"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("states=30 transitions=42 terminals=2"),
        "{stdout}"
    );
}

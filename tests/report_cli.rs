//! `cider-report` rejects flags it does not know instead of silently
//! printing a report without the section the user asked for.

use std::process::Command;

#[test]
fn unknown_flag_fails_with_usage_before_any_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_cider-report"))
        .arg("--fleeet")
        .output()
        .expect("cider-report runs");
    assert!(!out.status.success(), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("\"--fleeet\""), "{stderr}");
    assert!(stderr.contains("usage: cider-report"), "{stderr}");
    assert!(out.stdout.is_empty(), "no report section ran");
}

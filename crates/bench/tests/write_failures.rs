//! The figure harness fails loudly when it cannot write its files.

use std::process::{Command, Stdio};

/// `COSERVE_OUT_DIR` under a regular file cannot be created, so every
/// CSV write of `table1_hardware` fails, and `all_figures` must exit
/// non-zero instead of only printing the error.
#[test]
fn all_figures_exits_nonzero_when_a_figure_fails_to_write() {
    let blocker = std::env::temp_dir().join(format!(
        "coserve-bench-write-failure-{}",
        std::process::id()
    ));
    std::fs::write(&blocker, "a regular file, not a directory").unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_all_figures"))
        .arg("table1_hardware")
        .env("COSERVE_OUT_DIR", blocker.join("figures"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    let _ = std::fs::remove_file(&blocker);
    assert!(!status.success(), "all_figures exited with {status}");
}

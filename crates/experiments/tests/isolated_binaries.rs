//! Isolation is pure execution policy for the figure binaries too:
//! under `BGPSIM_ISOLATE=1` each re-executes *itself* as `<exe> worker`
//! for every job, and stdout must not change by a byte.

use std::process::Command;

/// Runs `bin args…` with every `BGPSIM_*` policy variable cleared
/// (plus `isolate`, when set) and returns its stdout.
fn stdout_of(bin: &str, args: &[&str], isolate: bool) -> Vec<u8> {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    for (name, _) in std::env::vars() {
        if name.starts_with("BGPSIM_") {
            cmd.env_remove(name);
        }
    }
    if isolate {
        cmd.env("BGPSIM_ISOLATE", "1");
    }
    let output = cmd.output().expect("spawn figure binary");
    assert!(
        output.status.success(),
        "{bin} {args:?} (isolate={isolate}) failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(!output.stdout.is_empty());
    output.stdout
}

fn assert_isolation_is_invisible(bin: &str, args: &[&str]) {
    let plain = stdout_of(bin, args, false);
    let isolated = stdout_of(bin, args, true);
    assert!(
        plain == isolated,
        "{bin} {args:?}: isolated stdout differs from in-process"
    );
}

#[test]
fn all_figures_quick_is_byte_identical_under_isolation() {
    assert_isolation_is_invisible(env!("CARGO_BIN_EXE_all_figures"), &["quick"]);
}

#[test]
fn fig5_quick_is_byte_identical_under_isolation() {
    assert_isolation_is_invisible(env!("CARGO_BIN_EXE_fig5"), &["quick"]);
}

#[test]
fn churn_quick_is_byte_identical_under_isolation() {
    assert_isolation_is_invisible(env!("CARGO_BIN_EXE_churn"), &["quick", "--seeds", "1"]);
}

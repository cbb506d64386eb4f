//! The built `bsp-experiments` binary answers `--help` and a mistyped id
//! like a CLI, not with a panic.

use std::process::Command;

#[test]
fn help_prints_usage_and_an_unknown_id_exits_2() {
    let exe = env!("CARGO_BIN_EXE_bsp-experiments");
    for flag in ["--help", "-h"] {
        let out = Command::new(exe).arg(flag).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("-- table1 [--scale"), "{flag}: {stdout}");
        assert!(stdout.contains("--threads"), "{flag}: {stdout}");
    }

    let out = Command::new(exe).arg("no-such-id").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no header before the id is checked");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown experiment id: no-such-id"));
    assert!(stderr.contains("ablation-ls"), "lists the known ids");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

//! `native_bench` rejects malformed flags with a usage error (exit code 2)
//! before generating any input graph.

use std::process::Command;

#[test]
fn bad_flags_are_usage_errors() {
    for args in [
        &["--threads", "x"][..],
        &["--reps", "x"],
        &["--backend", "foo"],
        &["--backend", "sim"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_native_bench"))
            .args(args)
            .output()
            .expect("spawn native_bench");
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("native_bench: "), "{args:?}: {stderr}");
    }
}

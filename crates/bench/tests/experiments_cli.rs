//! `experiments` refuses a flag it does not know before it runs anything.

use std::process::Command;

#[test]
fn unknown_flags_exit_2_with_usage_before_running() {
    for args in [
        &["--quik"][..],
        &["--help"],
        &["--quick", "--jobs"],
        &["--out"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("run experiments");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
        assert!(!stderr.contains("== running"), "{args:?} ran an artifact");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}

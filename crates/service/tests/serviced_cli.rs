//! The daemon's command line: a flag it does not know, or a value it cannot
//! parse, stops it with the usage text and exit status 2 instead of
//! starting with a default.

use std::process::{Command, Stdio};

/// Runs `suu_serviced --stdin` plus `extra` on empty input and returns the
/// exit code and stderr.
fn run(extra: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_suu_serviced"))
        .arg("--stdin")
        .args(extra)
        .stdin(Stdio::null())
        .output()
        .expect("daemon binary runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn well_formed_flags_serve_until_eof() {
    let (code, stderr) = run(&["--workers", "2", "--cache-capacity", "16"]);
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn bad_flags_exit_2_with_usage() {
    for (extra, message) in [
        // `--serial` was removed together with the serial execution mode.
        (&["--serial"][..], "unknown flag `--serial`"),
        (
            &["--workers", "x"][..],
            "`--workers` expects a number, got `x`",
        ),
        (&["--cache-capacity", "12x"][..], "got `12x`"),
        (
            &["--queue-capacity"][..],
            "`--queue-capacity` needs a value",
        ),
    ] {
        let (code, stderr) = run(extra);
        assert_eq!(code, Some(2), "{extra:?}: {stderr}");
        assert!(stderr.contains(message), "{extra:?}: {stderr}");
        assert!(
            stderr.contains("usage: suu_serviced"),
            "{extra:?}: {stderr}"
        );
    }
}

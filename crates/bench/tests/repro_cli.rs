//! `repro`'s command line: anything it was not asked for is a usage
//! error (exit 2, nothing run, nothing written), not a full evaluation.

use std::process::Command;

/// Runs `repro` with `args` in a fresh empty directory; returns its exit
/// code and whatever files it left there.
fn repro(case: &str, args: &[&str]) -> (Option<i32>, Vec<String>) {
    let dir = std::env::temp_dir().join(format!("repro_cli_{}_{case}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("repro spawns");
    let left: Vec<String> = std::fs::read_dir(&dir)
        .expect("scratch dir lists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    (output.status.code(), left)
}

#[test]
fn malformed_command_lines_exit_2_and_write_nothing() {
    let cases: [(&str, &[&str]); 9] = [
        ("unknown", &["--bogus-flag"]),
        ("typo", &["--jsn"]),
        ("modifier", &["--trace-format", "chrome"]),
        ("no_value", &["--trace"]),
        ("flag_as_value", &["--journal", "--json"]),
        (
            "bad_format",
            &["--trace", "t.jsonl", "--trace-format", "xml"],
        ),
        ("json_trace", &["--json", "--trace", "t.jsonl"]),
        ("json_resume", &["--resume", "j.wal", "--json"]),
        ("two_modes", &["--trace", "t.jsonl", "--journal", "j.wal"]),
    ];
    for (case, args) in cases {
        let (code, left) = repro(case, args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(left.is_empty(), "{args:?} wrote {left:?}");
    }
}

#[test]
fn help_exits_0() {
    let (code, left) = repro("help", &["--help"]);
    assert_eq!(code, Some(0));
    assert!(left.is_empty(), "--help wrote {left:?}");
}

//! `hygcn help [command]` and `hygcn <command> --help`/`-h` print the
//! usage and exit 0, driving the real `hygcn` binary; a request about a
//! command that does not exist is an error naming it.

use std::process::{Command, Output};

fn hygcn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hygcn"))
        .args(args)
        .output()
        .expect("failed to spawn hygcn")
}

fn assert_prints_usage(args: &[&str]) {
    let out = hygcn(args);
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    assert!(
        stdout.starts_with("hygcn — HyGCN") && stdout.contains("usage: hygcn <command>"),
        "{args:?}: {stdout}"
    );
    assert!(stderr.is_empty(), "{args:?}: {stderr}");
}

#[test]
fn every_command_prints_the_usage_on_request() {
    for request in [vec![], vec!["help"], vec!["--help"], vec!["-h"]] {
        assert_prints_usage(&request);
    }
    for command in [
        "simulate", "compare", "sweep", "campaign", "figures", "store", "bench", "lint", "datasets",
    ] {
        assert_prints_usage(&["help", command]);
        assert_prints_usage(&["--help", command]);
        assert_prints_usage(&[command, "--help"]);
        assert_prints_usage(&[command, "-h"]);
    }
    // Among other flags, and after a positional.
    assert_prints_usage(&["bench", "--runs", "3", "--help"]);
    assert_prints_usage(&["figures", "fig10", "-h"]);
    assert_prints_usage(&["store", "fsck", "--help"]);
}

#[test]
fn help_about_an_unknown_command_names_it() {
    for args in [["help", "simulat"], ["simulat", "--help"]] {
        let out = hygcn(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr.contains("unknown command 'simulat'"),
            "{args:?}: {stderr}"
        );
    }
}

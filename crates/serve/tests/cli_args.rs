//! Argument handling of the `tuffy` binary, run as a child process.

use std::process::{Command, Output};

fn tuffy(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tuffy"))
        .args(args)
        .output()
        .expect("spawn tuffy")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Every flag that configures a local engine is rejected under
/// `--connect`, by name, before any connection is attempted (port 1 on
/// loopback refuses connections, so a connect attempt would report it).
#[test]
fn connect_rejects_local_engine_flags_by_name() {
    let flags: [&[&str]; 15] = [
        &["-i", "prog.mln"],
        &["-e", "evidence.db"],
        &["--explain"],
        &["--explain-schedule"],
        &["--parallel", "2"],
        &["--no-partition"],
        &["--mem-budget", "4096"],
        &["--partition-rounds", "2"],
        &["--join-order", "program"],
        &["--join-algo", "nl"],
        &["--no-pushdown"],
        &["--mem-budget-bytes", "64"],
        &["--learn", "labels.db"],
        &["--learner", "dn"],
        &["--learn-iters", "3"],
    ];
    for flag in flags {
        let mut args = vec!["--connect", "127.0.0.1:1"];
        args.extend_from_slice(flag);
        let out = tuffy(&args);
        let err = stderr(&out);
        assert!(!out.status.success(), "{flag:?} was accepted");
        assert!(
            err.starts_with(&format!("{} ", flag[0])),
            "{flag:?}: stderr does not name it: {err}"
        );
        assert!(
            !err.contains("127.0.0.1:1"),
            "{flag:?}: tried to connect: {err}"
        );
    }
}

/// Removed flags fail as unknown ones rather than being ignored.
#[test]
fn serve_is_an_unknown_flag() {
    for flag in ["--serve", "--arch", "--no-stats", "--ground-threads"] {
        let out = tuffy(&[flag, "2"]);
        assert!(!out.status.success());
        assert!(
            stderr(&out).contains(&format!("unknown flag `{flag}`")),
            "{}",
            stderr(&out)
        );
    }
}

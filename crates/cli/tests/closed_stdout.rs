//! A closed stdout ends `ses` quietly: `ses … | head -1` must not print a
//! panic and a backtrace once `head` has gone.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_the_command_quietly() {
    // Nobody listens on a port just released, so `ses top` prints a retry
    // line every `--interval` ms until a write fails: it is certain to
    // write again after the reader below has closed the pipe.
    let port = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("free port")
        .port();
    let mut child = Command::new(env!("CARGO_BIN_EXE_ses"))
        .args([
            "top",
            "--addr",
            &format!("127.0.0.1:{port}"),
            "--interval",
            "10",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ses");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read one line");
    assert!(line.contains("retrying"), "unexpected first line: {line:?}");
    drop(reader);

    let out = child.wait_with_output().expect("wait for ses");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "ses panicked on a closed stdout:\n{stderr}"
    );
    assert!(
        out.status.success(),
        "ses exited with {}:\n{stderr}",
        out.status
    );
}

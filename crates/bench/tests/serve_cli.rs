//! `balance serve` as a process: a closed output pipe ends the run cleanly,
//! and a stdin pipe gets each answer before it sends the next query.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

const BALANCE: &str = env!("CARGO_BIN_EXE_balance");

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kb-serve-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn serve(store: &PathBuf, batch: Option<&PathBuf>) -> Child {
    let mut cmd = Command::new(BALANCE);
    cmd.arg("serve").arg("--store").arg(store);
    if let Some(batch) = batch {
        cmd.arg("--batch").arg(batch);
    }
    let stdin = if batch.is_some() {
        Stdio::null()
    } else {
        Stdio::piped()
    };
    cmd.stdin(stdin)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("balance spawns")
}

fn stderr_of(child: &mut Child) -> String {
    let mut err = String::new();
    std::io::Read::read_to_string(child.stderr.as_mut().unwrap(), &mut err).unwrap();
    err
}

#[test]
fn serve_into_a_closed_pipe_exits_zero_without_a_panic() {
    let dir = tmp_dir("pipe");
    let batch = dir.join("batch.txt");
    // Far more output than a pipe buffers, so the child is still writing
    // when the reader goes away.
    std::fs::write(&batch, "io matmul 8 27\n".repeat(200_000)).unwrap();
    let mut child = serve(&dir.join("store"), Some(&batch));
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    stdout.read_line(&mut first).unwrap();
    assert!(first.starts_with("io matmul 8 27 = "), "{first}");
    drop(stdout);
    let err = stderr_of(&mut child);
    let status = child.wait().unwrap();
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(status.code(), Some(0), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_on_a_stdin_pipe_answers_each_query_as_it_arrives() {
    let dir = tmp_dir("repl");
    let mut child = serve(&dir.join("store"), None);
    let mut stdin = child.stdin.take().unwrap();
    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    // Each query arrives alone, after the answer to the one before.
    for _ in 0..2 {
        stdin.write_all(b"io matmul 8 27\n").unwrap();
        stdin.flush().unwrap();
        // stdin stays open: the answer must arrive before end of input.
        let answer = match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(read) => read.unwrap(),
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                panic!("no answer while stdin was open");
            }
        };
        assert!(answer.starts_with("io matmul 8 27 = "), "{answer}");
    }
    drop(stdin);
    let err = stderr_of(&mut child);
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

//! Process-level tests of the `nokd` and `nokq` binaries.

#![cfg(test)]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use nok_core::XmlDb;

const BIB: &str = "<bib><book><title>TCP/IP</title></book></bib>";

fn temp_db(name: &str, xml: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    XmlDb::create_on_disk(&dir, xml).unwrap().flush().unwrap();
    dir
}

/// `nokd` refuses a directory whose superblock does not name the page
/// format it reads: it exits before binding a socket, and says what to do.
#[test]
fn nokd_refuses_missing_or_other_format_superblock() {
    let dir = temp_db("nokd-superblock", BIB);
    let sb_path = dir.join("super.blk");
    let mut format0 = std::fs::read(&sb_path).unwrap();
    format0[10] = 0;
    for (what, bytes) in [("format 0", Some(format0)), ("missing", None)] {
        match bytes {
            Some(b) => std::fs::write(&sb_path, b).unwrap(),
            None => std::fs::remove_file(&sb_path).unwrap(),
        }
        let out = Command::new(env!("CARGO_BIN_EXE_nokd"))
            .arg(&dir)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{what}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.contains("unsupported database format"), "{what}: {err}");
        assert!(err.contains("rebuild"), "{what}: {err}");
        assert!(out.stdout.is_empty(), "{what}: never listened: {out:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn nokq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nokq"))
        .args(args)
        .output()
        .unwrap()
}

fn offline(dir: &Path, queries: &[&str]) -> Output {
    nokq(&[&["--offline", dir.to_str().unwrap()], queries].concat())
}

/// Served output equals `--offline` output at any pipeline depth, and a
/// failing query leaves exactly the lines before it on stdout.
#[test]
fn nokq_over_the_wire_equals_offline_and_keeps_the_prefix_before_an_error() {
    let mut xml = String::from("<bib>");
    for i in 0..40 {
        xml.push_str(&format!(
            "<book year=\"{}\"><title>T{i}</title><price>{i}.5</price></book>",
            1990 + i % 7
        ));
    }
    xml.push_str("</bib>");
    let dir = temp_db("nokd-wire", &xml);

    let mut nokd = Command::new(env!("CARGO_BIN_EXE_nokd"))
        .arg(&dir)
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    BufReader::new(nokd.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner.trim().strip_prefix("listening on ").unwrap();

    let good = [
        "//book",
        "/bib/book/title",
        "//book[price<10]/title",
        "//book[@year=\"1993\"]",
        "//nothing",
        "//price",
    ];
    let queries: Vec<&str> = good.iter().cycle().take(30).copied().collect();
    let oracle = offline(&dir, &queries);
    assert!(oracle.status.success(), "{oracle:?}");
    assert_eq!(oracle.stdout.iter().filter(|b| **b == b'\n').count(), 30);

    let mut failing = queries.clone();
    failing.insert(11, "not a path");
    let failing_oracle = offline(&dir, &failing);
    assert_eq!(failing_oracle.status.code(), Some(1));

    for depth in ["1", "8"] {
        let served = nokq(&[&["--addr", addr, "--pipeline", depth], &queries[..]].concat());
        assert!(served.status.success(), "depth {depth}: {served:?}");
        assert_eq!(served.stdout, oracle.stdout, "depth {depth}");

        let served = nokq(&[&["--addr", addr, "--pipeline", depth], &failing[..]].concat());
        assert_eq!(served.status.code(), Some(1), "depth {depth}: {served:?}");
        assert_eq!(served.stdout, failing_oracle.stdout, "depth {depth}");
        assert_eq!(served.stdout.iter().filter(|b| **b == b'\n').count(), 11);
        let err = String::from_utf8_lossy(&served.stderr).into_owned();
        assert!(
            err.starts_with("nokq: not a path: "),
            "depth {depth}: {err}"
        );
    }

    let stopped = nokq(&["--addr", addr, "--stats", "--shutdown"]);
    assert!(stopped.status.success(), "{stopped:?}");
    let out = String::from_utf8_lossy(&stopped.stdout).into_owned();
    assert!(out.contains("\"served\":"), "{out}");
    assert!(out.ends_with("{\"stopping\":true}\n"), "{out}");
    assert!(nokd.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}

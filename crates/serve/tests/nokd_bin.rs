//! `nokd` refuses a directory whose superblock does not name the page
//! format it reads: it exits before binding a socket, and says what to do.

use std::process::Command;

use nok_core::XmlDb;

const BIB: &str = "<bib><book><title>TCP/IP</title></book></bib>";

#[test]
fn nokd_refuses_missing_or_other_format_superblock() {
    let dir = std::env::temp_dir().join(format!("nokd-superblock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    XmlDb::create_on_disk(&dir, BIB).unwrap().flush().unwrap();
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

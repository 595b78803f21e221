//! The golden report corpus: each report below is a pure function of its
//! seed, so its stdout must match its copy in `tests/golden/` byte for
//! byte. `WIDELEAK_BLESS=1 cargo test -p wideleak --test golden` rewrites
//! the goldens; a run that exits non-zero never rewrites one.

use std::path::PathBuf;
use std::process::Command;

fn golden(name: &str, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_wideleak")).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "wideleak {args:?} failed ({}):\n{stderr}", out.status);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name);
    if std::env::var_os("WIDELEAK_BLESS").is_some_and(|v| v == "1") {
        return std::fs::write(&path, &out.stdout).expect("golden is writable");
    }
    let want = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    if out.stdout != want {
        let (want, got) = (String::from_utf8_lossy(&want), String::from_utf8_lossy(&out.stdout));
        let w: Vec<&str> = want.split_inclusive('\n').collect();
        let g: Vec<&str> = got.split_inclusive('\n').collect();
        // Lines are compared by position and quoted, so trailing blanks
        // and a missing final newline show; an absent line prints "".
        let at = |i| (w.get(i).copied().unwrap_or(""), g.get(i).copied().unwrap_or(""));
        let diff: String = (0..w.len().max(g.len()))
            .map(at)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, (a, b))| format!("line {}:\n  - {a:?}\n  + {b:?}\n", i + 1))
            .collect();
        panic!(
            "wideleak {args:?} differs from tests/golden/{name} ({} lines expected, {} got); \
             WIDELEAK_BLESS=1 accepts it:\n{diff}",
            w.len(),
            g.len()
        );
    }
}

macro_rules! goldens {
    ($($name:ident: [$($arg:literal),+],)+) => {$(
        #[test]
        fn $name() {
            golden(concat!(stringify!($name), ".txt"), &[$($arg),+]);
        }
    )+};
}

goldens! {
    study: ["--fast", "study"],
    attack: ["--fast", "attack"],
    resilience: ["--quick", "resilience"],
    adapt: ["--quick", "adapt"],
    load: ["--quick", "load"],
    load_inprocess: ["--quick", "--transport", "inprocess", "load"],
    load_constricted: ["--quick", "--congestion", "constricted", "load"],
    campaign: ["campaign", "--quick", "--workers", "2"],
}

/// The study report does not depend on the transport, so over TCP it
/// must print the in-process golden.
#[test]
fn study_tcp() {
    golden("study.txt", &["--fast", "--transport", "tcp", "study"]);
}

/// Each golden pins a report no other golden already pins.
#[test]
fn goldens_are_distinct() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let goldens: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("golden directory is readable")
        .map(|entry| {
            let path = entry.expect("golden entry is readable").path();
            let bytes = std::fs::read(&path).expect("golden is readable");
            (path.display().to_string(), bytes)
        })
        .collect();
    for (i, (a, a_bytes)) in goldens.iter().enumerate() {
        for (b, b_bytes) in &goldens[i + 1..] {
            assert_ne!(a_bytes, b_bytes, "{a} and {b} are byte-identical");
        }
    }
}

//! Runs the end-to-end gates over the release binaries built next to
//! it: smoke, determinism matrix, cache roundtrip, sharded sweep and
//! daemon (see [`memx_bench::gates`]).
//!
//! ```text
//! memx-gates [--cache-dir DIR]
//! ```
//!
//! `DIR` is the store the cache gate runs on; a store carried over from
//! an older build is what lets that gate catch a stale entry. Without
//! it a throwaway store is used. Exits 0 when every gate holds, 1 when
//! one fails, 2 on bad usage.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use memx_bench::gates::Gates;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let store = match &args[..] {
        [] => None,
        [flag, dir] if flag == "--cache-dir" => Some(PathBuf::from(dir)),
        _ => {
            eprintln!("usage: memx-gates [--cache-dir DIR]");
            return ExitCode::from(2);
        }
    };
    let exe = std::env::current_exe().unwrap_or_default();
    let bin_dir = exe.parent().unwrap_or(Path::new(".")).to_path_buf();
    // The binaries run from the workspace root: `memx-corpus` reads `corpus/`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let work = bin_dir.join("memx-gates.work");
    if Gates::new(bin_dir, root, work).run_all(store.as_deref()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The warm-start store admin tool.
//!
//! ```text
//! hanoi-store stats   <store-dir>
//! hanoi-store verify  <store-dir>
//! hanoi-store gc      <store-dir> [--max-bytes N]
//! hanoi-store merge   <src-dir> <dst-dir>
//! hanoi-store sync    <store-dir> <remote-dir>
//! ```
//!
//! Every subcommand prints one JSON object on stdout (machine-consumable —
//! the CI smoke job parses it) and exits non-zero
//! on I/O failure.  `verify` additionally exits with status 2 when it
//! quarantined chunks or found broken manifests, so scripts can gate on
//! store health.

use std::process::ExitCode;

use hanoi_store::ChunkStore;

fn usage() -> ExitCode {
    eprintln!("usage: hanoi-store <stats|verify|gc|merge|sync> <dir> [<dir2>] [--max-bytes N]");
    ExitCode::FAILURE
}

fn fail(context: &str, error: std::io::Error) -> ExitCode {
    eprintln!("hanoi-store: {context}: {error}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let max_bytes_at = args.iter().position(|a| a == "--max-bytes");
    let max_bytes = max_bytes_at
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u64>().ok());
    if max_bytes_at.is_some() && max_bytes.is_none() {
        return usage();
    }
    // Positional operands: everything after the subcommand that is neither
    // a flag nor the value consumed by one.
    let positional: Vec<&String> = args
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(i, a)| !a.starts_with("--") && Some(i.wrapping_sub(1)) != max_bytes_at)
        .map(|(_, a)| a)
        .collect();

    let open = |dir: &String| ChunkStore::open(dir);
    match (command.as_str(), positional.as_slice()) {
        ("stats", [dir]) => match open(dir) {
            Ok(store) => {
                println!("{}", store.stats().to_json().render_pretty());
                ExitCode::SUCCESS
            }
            Err(e) => fail("open", e),
        },
        ("verify", [dir]) => match open(dir) {
            Ok(store) => {
                let report = store.verify();
                println!("{}", report.to_json().render_pretty());
                if report.chunks_quarantined > 0 || report.manifests_broken > 0 {
                    ExitCode::from(2)
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => fail("open", e),
        },
        ("gc", [dir]) => match open(dir).and_then(|store| store.gc(max_bytes)) {
            Ok(report) => {
                println!("{}", report.to_json().render_pretty());
                ExitCode::SUCCESS
            }
            Err(e) => fail("gc", e),
        },
        ("merge", [src, dst]) => {
            let merged = open(src).and_then(|src| Ok((src, open(dst)?)));
            match merged.and_then(|(src, dst)| dst.merge_from(&src)) {
                Ok(report) => {
                    println!("{}", report.to_json().render_pretty());
                    ExitCode::SUCCESS
                }
                Err(e) => fail("merge", e),
            }
        }
        ("sync", [dir, remote]) => {
            let opened = open(dir).and_then(|local| Ok((local, open(remote)?)));
            match opened.and_then(|(local, remote)| local.sync(&remote)) {
                Ok((pulled, pushed)) => {
                    let combined = hanoi_lang::json::Json::obj([
                        ("pulled", pulled.to_json()),
                        ("pushed", pushed.to_json()),
                    ]);
                    println!("{}", combined.render_pretty());
                    ExitCode::SUCCESS
                }
                Err(e) => fail("sync", e),
            }
        }
        _ => usage(),
    }
}

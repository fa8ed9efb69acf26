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
//!
//! A malformed command line — an unknown subcommand or `--flag`,
//! `--max-bytes` on anything but `gc`, a missing or unparsable
//! `--max-bytes` value, or the wrong number of directories — touches no
//! store, names the offending argument on stderr, and exits with status 1
//! (status 2 is reserved for `verify`'s "store damaged").

use std::process::ExitCode;

use hanoi_store::ChunkStore;

const USAGE: &str =
    "usage: hanoi-store <stats|verify|gc|merge|sync> <dir> [<dir2>] [--max-bytes N]";

/// One parsed invocation: the subcommand and its directories.
#[derive(Debug, PartialEq, Eq)]
enum Command<'a> {
    Stats(&'a str),
    Verify(&'a str),
    Gc(&'a str, Option<u64>),
    Merge(&'a str, &'a str),
    Sync(&'a str, &'a str),
}

/// Parses the arguments after the program name, or names the one that is
/// wrong.
fn parse_args(args: &[String]) -> Result<Command<'_>, String> {
    let (command, rest) = args.split_first().ok_or("missing subcommand")?;
    let mut dirs = Vec::new();
    let mut max_bytes = None;
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--max-bytes" if command == "gc" => {
                let value = rest.next().ok_or("`--max-bytes` needs a value")?;
                let parsed = value
                    .parse::<u64>()
                    .map_err(|_| format!("`--max-bytes {value}` is not a byte count"))?;
                max_bytes = Some(parsed);
            }
            "--max-bytes" => return Err(format!("`--max-bytes` is not accepted by `{command}`")),
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            dir => dirs.push(dir),
        }
    }
    match (command.as_str(), dirs.as_slice()) {
        ("stats", [dir]) => Ok(Command::Stats(dir)),
        ("verify", [dir]) => Ok(Command::Verify(dir)),
        ("gc", [dir]) => Ok(Command::Gc(dir, max_bytes)),
        ("merge", [src, dst]) => Ok(Command::Merge(src, dst)),
        ("sync", [dir, remote]) => Ok(Command::Sync(dir, remote)),
        ("stats" | "verify" | "gc" | "merge" | "sync", _) => Err(format!(
            "`{command}` does not take {} directories",
            dirs.len()
        )),
        (other, _) => Err(format!("unknown subcommand `{other}`")),
    }
}

fn fail(context: &str, error: std::io::Error) -> ExitCode {
    eprintln!("hanoi-store: {context}: {error}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(command) => command,
        Err(error) => {
            eprintln!("hanoi-store: {error}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let open = |dir: &str| ChunkStore::open(dir);
    match command {
        Command::Stats(dir) => match open(dir) {
            Ok(store) => {
                println!("{}", store.stats().to_json().render_pretty());
                ExitCode::SUCCESS
            }
            Err(e) => fail("open", e),
        },
        Command::Verify(dir) => match open(dir) {
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
        Command::Gc(dir, max_bytes) => match open(dir).and_then(|store| store.gc(max_bytes)) {
            Ok(report) => {
                println!("{}", report.to_json().render_pretty());
                ExitCode::SUCCESS
            }
            Err(e) => fail("gc", e),
        },
        Command::Merge(src, dst) => {
            let merged = open(src).and_then(|src| Ok((src, open(dst)?)));
            match merged.and_then(|(src, dst)| dst.merge_from(&src)) {
                Ok(report) => {
                    println!("{}", report.to_json().render_pretty());
                    ExitCode::SUCCESS
                }
                Err(e) => fail("merge", e),
            }
        }
        Command::Sync(dir, remote) => {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn well_formed_lines_parse() {
        assert_eq!(parse_args(&args("stats /s")), Ok(Command::Stats("/s")));
        assert_eq!(parse_args(&args("verify /s")), Ok(Command::Verify("/s")));
        assert_eq!(parse_args(&args("gc /s")), Ok(Command::Gc("/s", None)));
        assert_eq!(
            parse_args(&args("gc /s --max-bytes 5")),
            Ok(Command::Gc("/s", Some(5)))
        );
        assert_eq!(
            parse_args(&args("gc --max-bytes 5 /s")),
            Ok(Command::Gc("/s", Some(5)))
        );
        assert_eq!(
            parse_args(&args("merge /a /b")),
            Ok(Command::Merge("/a", "/b"))
        );
        assert_eq!(
            parse_args(&args("sync /a /b")),
            Ok(Command::Sync("/a", "/b"))
        );
    }

    #[test]
    fn malformed_lines_name_the_offending_argument() {
        let error = |line: &str| parse_args(&args(line)).unwrap_err();
        assert!(error("gc /s --dry-run").contains("`--dry-run`"));
        assert!(error("stats /s --max-bytes 5").contains("`--max-bytes`"));
        assert!(error("merge /a /b --max-bytes 5").contains("`--max-bytes`"));
        assert!(error("gc /s --max-bytes").contains("`--max-bytes`"));
        assert!(error("gc /s --max-bytes lots").contains("`--max-bytes lots`"));
        assert!(error("gc /s --max-bytes -1").contains("`--max-bytes -1`"));
        assert!(error("stats").contains("`stats`"));
        assert!(error("stats /a /b").contains("`stats`"));
        assert!(error("merge /a").contains("`merge`"));
        assert!(error("sync /a /b /c").contains("`sync`"));
        assert!(error("prune /s").contains("`prune`"));
        assert!(error("").contains("subcommand"));
    }
}

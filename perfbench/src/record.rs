//! What a run records about itself: the source revision it measured, its
//! memory high-water mark, and the determinism guard's reference file.
//!
//! Everything is read and written relative to the current directory, the
//! root of the checkout being measured.

use std::io;
use std::path::{Path, PathBuf};

use hanoi_lang::digest::Digest;
use hanoi_lang::json::Json;

/// Where runs keep state between invocations: guard records, result
/// records, span dumps and scratch stores.  It sits in the benchmark's build
/// directory, which version control ignores.
pub const STATE_DIR: &str = ".bench_build/perfbench";

/// The sources whose digest identifies "the same code" for the guard.
const SOURCE_ROOTS: &[&str] = &["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"];

/// A digest over every Rust source and manifest under [`SOURCE_ROOTS`].
pub fn source_digest() -> io::Result<String> {
    let mut files = Vec::new();
    for root in SOURCE_ROOTS {
        collect_sources(Path::new(root), &mut files)?;
    }
    files.sort();
    let mut text = String::new();
    for file in files {
        let content = std::fs::read_to_string(&file)?;
        text.push_str(&format!("{}\n{}\n", file.display(), content.len()));
        text.push_str(&content);
    }
    Ok(Digest::of_str(&text).to_hex())
}

fn collect_sources(path: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let metadata = match std::fs::metadata(path) {
        Ok(metadata) => metadata,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if metadata.is_file() {
        let source = matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml" | "lock")
        );
        if source {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    for entry in std::fs::read_dir(path)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        collect_sources(&entry.path(), out)?;
    }
    Ok(())
}

/// The git revision of the checkout, when it is a git work tree.
pub fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|line| line.ends_with(reference))
        .and_then(|line| line.split_whitespace().next())
        .map(str::to_string)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}

/// Compares this run's guard lines with the reference recorded by an
/// earlier run of the same sources, recording them when there is none.
/// Returns the lines that differ, as `(reference, now)`.
pub fn check_guard(
    workload: &str,
    source: &str,
    lines: &[String],
) -> io::Result<Vec<(String, String)>> {
    let path = Path::new(STATE_DIR).join(format!("guard-{workload}.json"));
    let previous = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| hanoi_lang::json::parse(&text).ok())
        .filter(|json| json.get("source").and_then(Json::as_str) == Some(source));
    let Some(previous) = previous else {
        let record = Json::obj([
            ("source", Json::Str(source.to_string())),
            (
                "lines",
                Json::Arr(lines.iter().cloned().map(Json::Str).collect()),
            ),
        ]);
        std::fs::write(&path, record.render_pretty())?;
        return Ok(Vec::new());
    };
    let reference: Vec<String> = previous
        .get("lines")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|l| l.as_str().map(str::to_string))
        .collect();
    let mut mismatches: Vec<(String, String)> = reference
        .iter()
        .zip(lines)
        .filter(|(a, b)| a != b)
        .map(|(a, b)| (a.clone(), b.clone()))
        .collect();
    if reference.len() != lines.len() {
        mismatches.push((
            format!("{} jobs", reference.len()),
            format!("{} jobs", lines.len()),
        ));
    }
    Ok(mismatches)
}

/// Copies a directory tree (a chunked store) to `to` and flushes every copied
/// file to disk, so that the restore timed next does not pay for writing
/// the copy back (the store's first `fsync` would otherwise wait for it).
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
            std::fs::File::open(&target)?.sync_all()?;
        }
    }
    std::fs::File::open(to)?.sync_all()
}

/// Number and total size of the files directly inside `dir`.
pub fn dir_files(dir: &Path) -> io::Result<(u64, u64)> {
    let mut count = 0;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            count += 1;
            bytes += entry.metadata()?.len();
        }
    }
    Ok((count, bytes))
}

/// A scratch directory removed (best effort) when dropped.
#[derive(Debug)]
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    /// Creates an empty scratch directory under [`STATE_DIR`].
    pub fn new(name: &str) -> io::Result<WorkDir> {
        let path = Path::new(STATE_DIR).join(name);
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

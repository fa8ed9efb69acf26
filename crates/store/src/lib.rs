//! The content-addressed, chunked warm-start store.
//!
//! PR 5–7 made cold-start cost a *cache* problem — structural digests key
//! the check-outcome cache and the term banks, and the engine persists them
//! between processes — but persistence was one
//! monolithic JSON blob per problem fingerprint: all-or-nothing to restore,
//! impossible to share incrementally between hosts, and unbounded on disk.
//! This crate replaces the blob with a **content-addressed chunk store**:
//!
//! - Every snapshot is split into independently addressed **chunks** — the
//!   check cache by recency stripe ([`hanoi_verifier::CheckCache::split_snapshot`]),
//!   each term bank into a core (value/name/world tables) plus memo-table
//!   parts ([`hanoi_synth::TermBank::split_snapshot`]).  Verifier pools are
//!   not stored; the `shapes` chunk older builds wrote is ignored on read.
//!   A chunk lives at `chunks/<digest>.json`, where
//!   the digest ([`hanoi_lang::digest::Digest::of_str`]) is computed over
//!   exactly the bytes in the file — so every read can re-hash and *prove*
//!   the chunk is what its name claims.
//! - A per-problem **manifest** at `manifests/<fingerprint>.json` lists, in
//!   assembly order, the `(section, chunk digest, bytes)` triples a restore
//!   needs.  Chunks shared between saves (or between problems) are stored
//!   once; a save whose older stripes did not move writes only the new
//!   chunks.
//! - Each manifest file's **mtime** is the problem's recency record: a save
//!   rewrites the manifest and a restore bumps its mtime, and the
//!   byte-budgeted GC evicts the least-recently-used manifests first.
//!   Recency is advisory — a lost mtime update changes eviction order,
//!   never data.
//!
//! # Corruption isolation
//!
//! A chunk whose bytes no longer hash to its name is **quarantined**
//! (renamed to `<digest>.json.corrupt`) and the restore proceeds with the
//! remaining chunks: a tampered check stripe costs its few dozen memoized
//! outcomes, a tampered bank part costs its memo rows, a tampered bank core
//! costs that one bank — never the snapshot, and never correctness, because
//! every surviving component is validated by the component decoders before
//! the engine uses it.
//!
//! # GC liveness
//!
//! [`ChunkStore::gc`] deletes a chunk only when **no** manifest references
//! it, and a byte budget is enforced by deleting whole least-recently-used
//! *manifests* (then their newly orphaned chunks) — so a manifest that
//! survives GC always has every chunk it lists, and a restore that finds a
//! manifest can never be broken by a concurrent budget pass that respected
//! this order.  [`ChunkStore::merge_from`] maintains the same invariant
//! from the other side: chunks are copied *before* the manifest that
//! references them, so an interrupted merge leaves at worst unreferenced
//! chunks (collected by the next GC), never a live manifest with holes.
//!
//! # Fleet sync
//!
//! Two stores sync by manifest diff: [`ChunkStore::merge_from`] copies the
//! manifests the destination is missing (or holds an older version of) and
//! only the chunks those manifests need that the destination does not
//! already have.  The Nth process in a fleet therefore warms up by copying
//! deltas, not whole snapshots (`tests/store_roundtrip.rs` pins the delta
//! bound).  [`ChunkStore::sync`] is the bidirectional
//! convenience (pull, then push).
//!
//! The `hanoi-store` admin binary exposes `stats`, `verify`, `gc
//! --max-bytes`, `merge` and `sync` over these primitives.

#![warn(missing_docs)]

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

use hanoi_lang::digest::Digest;
use hanoi_lang::json::{counters, Json};
use hanoi_lang::util::{sync_dir, write_atomic};

mod snapshot;

pub use snapshot::{SaveReport, WrapperLoad};

/// The manifest format version written by this crate.
pub const STORE_VERSION: u64 = 1;

/// Check-cache entries per stripe chunk.  Small enough that an appending
/// save re-writes only the newest stripe; large enough that a big cache is
/// hundreds of chunks, not tens of thousands of files.
pub const STRIPE_LEN: usize = 64;

/// Memo-table rows per term-bank part chunk.
pub const ROWS_PER_PART: usize = 256;

/// Chunk files larger than this are treated as corrupt on load (a hostile
/// store cannot make a restore allocate unboundedly).
const MAX_CHUNK_BYTES: u64 = 64 * 1024 * 1024;

/// Manifest files larger than this are treated as corrupt.
const MAX_META_BYTES: u64 = 16 * 1024 * 1024;

/// One `(section, chunk, bytes)` row of a [`Manifest`], in assembly order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Which snapshot section the chunk belongs to: `"checks"` (one per
    /// recency stripe) or `"bank-core:<label>"` / `"bank-part:<label>"` per
    /// synthesizer back end.  Older builds also wrote a `"shapes"` section,
    /// which loads skip like any unknown section.
    pub section: String,
    /// The content address: the digest of the chunk file's exact bytes.
    pub chunk: Digest,
    /// The chunk's size in bytes, as written.
    pub bytes: u64,
}

/// A per-problem manifest: everything a restore needs, by content address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The problem fingerprint this manifest belongs to (also its file
    /// name).
    pub fingerprint: Digest,
    /// The engine wrapper format version the snapshot was saved under —
    /// carried through so the store never has to understand the wrapper.
    pub wrapper_version: u64,
    /// The engine wrapper `kind` tag, carried through like the version.
    pub wrapper_kind: String,
    /// The chunk list, in assembly order.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    fn to_json(&self) -> Json {
        Json::obj([
            ("version", Json::Num(STORE_VERSION as f64)),
            ("kind", Json::Str("hanoi-manifest".to_string())),
            ("fingerprint", Json::Str(self.fingerprint.to_hex())),
            ("wrapper_version", Json::Num(self.wrapper_version as f64)),
            ("wrapper_kind", Json::Str(self.wrapper_kind.clone())),
            (
                "chunks",
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|e| {
                            Json::obj([
                                ("section", Json::Str(e.section.clone())),
                                ("chunk", Json::Str(e.chunk.to_hex())),
                                ("bytes", Json::Num(e.bytes as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(json: &Json) -> Option<Manifest> {
        if json.get("version").and_then(Json::as_usize)? as u64 != STORE_VERSION
            || json.get("kind").and_then(Json::as_str)? != "hanoi-manifest"
        {
            return None;
        }
        let fingerprint = Digest::from_hex(json.get("fingerprint").and_then(Json::as_str)?)?;
        let wrapper_version = json.get("wrapper_version").and_then(Json::as_usize)? as u64;
        let wrapper_kind = json.get("wrapper_kind").and_then(Json::as_str)?.to_string();
        let mut entries = Vec::new();
        for row in json.get("chunks").and_then(Json::as_arr)? {
            entries.push(ManifestEntry {
                section: row.get("section").and_then(Json::as_str)?.to_string(),
                chunk: Digest::from_hex(row.get("chunk").and_then(Json::as_str)?)?,
                bytes: row.get("bytes").and_then(Json::as_usize)? as u64,
            });
        }
        Some(Manifest {
            fingerprint,
            wrapper_version,
            wrapper_kind,
            entries,
        })
    }
}

/// Point-in-time store statistics, as reported by [`ChunkStore::stats`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Live manifests (problems restorable from this store).
    pub manifests: usize,
    /// Live chunk files.
    pub chunks: usize,
    /// Total bytes across live chunk files.
    pub chunk_bytes: u64,
    /// Total bytes across manifest files.
    pub manifest_bytes: u64,
    /// Quarantined files (`*.corrupt`) awaiting diagnosis or GC.
    pub quarantined: usize,
}

impl StoreStats {
    /// Total live bytes (chunks + manifests) — the quantity `gc --max-bytes`
    /// budgets.
    pub fn total_bytes(&self) -> u64 {
        self.chunk_bytes + self.manifest_bytes
    }

    /// The stats as a JSON object (the admin CLI's output format).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("manifests", Json::Num(self.manifests as f64)),
            ("chunks", Json::Num(self.chunks as f64)),
            ("chunk_bytes", Json::Num(self.chunk_bytes as f64)),
            ("manifest_bytes", Json::Num(self.manifest_bytes as f64)),
            ("total_bytes", Json::Num(self.total_bytes() as f64)),
            ("quarantined", Json::Num(self.quarantined as f64)),
        ])
    }
}

counters! {
    /// The outcome of a [`ChunkStore::verify`] sweep.
    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    pub struct VerifyReport {
        /// Chunks whose bytes re-hashed to their name.
        pub chunks_ok: usize,
        /// Chunks that failed the re-hash and were quarantined.
        pub chunks_quarantined: usize,
        /// Manifests whose every chunk exists and verified.
        pub manifests_ok: usize,
        /// Manifests referencing a missing or quarantined chunk (restores from
        /// them degrade to partial warmth), or unparseable manifest files
        /// (quarantined).
        pub manifests_broken: usize,
    }
}

counters! {
    /// The outcome of a [`ChunkStore::gc`] pass.
    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    pub struct GcReport {
        /// Unreferenced chunk files deleted.
        pub chunks_deleted: usize,
        /// Manifests evicted to meet the byte budget (LRU first).
        pub manifests_evicted: usize,
        /// Quarantined (`*.corrupt`) and leftover temporary files purged.
        pub debris_purged: usize,
        /// Total bytes freed.
        pub bytes_freed: u64,
        /// Live bytes remaining after the pass.
        pub bytes_remaining: u64,
    }
}

counters! {
    /// The outcome of a [`ChunkStore::merge_from`] (one direction of a sync).
    #[derive(Debug, Default, Clone, PartialEq, Eq)]
    pub struct MergeReport {
        /// Manifests copied into the destination (new or updated).
        pub manifests_copied: usize,
        /// Manifests already present byte-identically (nothing transferred).
        pub manifests_unchanged: usize,
        /// Manifests skipped because a needed source chunk was missing or
        /// corrupt — the destination never receives a manifest with holes.
        pub manifests_skipped: usize,
        /// Chunks actually transferred (the delta).
        pub chunks_copied: usize,
        /// Bytes actually transferred — the headline fleet-sync number: for an
        /// incremental sync this is ≪ the full snapshot size.
        pub chunk_bytes_copied: u64,
    }
}

/// The outcome of a chunk read.
#[derive(Debug)]
pub enum ChunkLoad {
    /// No chunk file with this digest exists.
    Missing,
    /// The file existed but its bytes did not hash to its name; it was
    /// renamed to `<digest>.json.corrupt`.
    Quarantined,
    /// The chunk verified and parsed.
    Loaded(Json),
}

/// A content-addressed chunk store rooted at one directory.
///
/// The root holds `chunks/` and `manifests/`; a manifest file's mtime is
/// its problem's last save or restore.  All writes go through
/// [`hanoi_lang::util::write_atomic`], so concurrent readers (other engine
/// processes warm-starting from the same directory) never observe torn
/// files.
#[derive(Debug, Clone)]
pub struct ChunkStore {
    root: PathBuf,
}

impl ChunkStore {
    /// Opens (creating if necessary) the store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> io::Result<ChunkStore> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(root.join("chunks"))?;
        std::fs::create_dir_all(root.join("manifests"))?;
        Ok(ChunkStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn chunks_dir(&self) -> PathBuf {
        self.root.join("chunks")
    }

    fn manifests_dir(&self) -> PathBuf {
        self.root.join("manifests")
    }

    fn chunk_path(&self, digest: Digest) -> PathBuf {
        self.chunks_dir().join(format!("{}.json", digest.to_hex()))
    }

    fn manifest_path(&self, fingerprint: Digest) -> PathBuf {
        self.manifests_dir()
            .join(format!("{}.json", fingerprint.to_hex()))
    }

    /// Writes `text` as a chunk named by its own digest.  Idempotent: an
    /// already-present chunk is not rewritten (content addressing makes the
    /// existing bytes provably identical).  Returns the digest, the chunk
    /// size, and whether the file was newly written.
    pub fn put_chunk(&self, text: &str) -> io::Result<(Digest, u64, bool)> {
        let digest = Digest::of_str(text);
        let path = self.chunk_path(digest);
        let bytes = text.len() as u64;
        if path.is_file() {
            return Ok((digest, bytes, false));
        }
        write_atomic(&path, text.as_bytes())?;
        Ok((digest, bytes, true))
    }

    /// Reads and *proves* a chunk: the file's bytes are re-hashed and must
    /// equal the digest in its name, else the file is quarantined
    /// (best-effort rename to `.corrupt`) and the caller proceeds without
    /// it.
    pub fn load_chunk(&self, digest: Digest) -> ChunkLoad {
        let path = self.chunk_path(digest);
        let Ok(metadata) = std::fs::metadata(&path) else {
            return ChunkLoad::Missing;
        };
        if !metadata.is_file() {
            return ChunkLoad::Missing;
        }
        let quarantine = || {
            let corrupt = path.with_extension("json.corrupt");
            let _ = std::fs::rename(&path, corrupt);
            ChunkLoad::Quarantined
        };
        if metadata.len() > MAX_CHUNK_BYTES {
            return quarantine();
        }
        let Ok(text) = std::fs::read_to_string(&path) else {
            return quarantine();
        };
        if Digest::of_str(&text) != digest {
            return quarantine();
        }
        match hanoi_lang::json::parse(&text) {
            // The digest matched, so these are exactly the bytes `put_chunk`
            // rendered — but a store is just a directory, and a foreign tool
            // could have content-addressed non-JSON into it.
            Ok(json) => ChunkLoad::Loaded(json),
            Err(_) => quarantine(),
        }
    }

    /// Writes `manifest` atomically; the fresh file's mtime marks the
    /// problem as most recently used.
    pub fn put_manifest(&self, manifest: &Manifest) -> io::Result<()> {
        write_atomic(
            &self.manifest_path(manifest.fingerprint),
            manifest.to_json().render_pretty().as_bytes(),
        )
    }

    /// Reads the manifest for `fingerprint`.  `None` covers both absence and
    /// defect; a defective manifest file is quarantined so the next open
    /// does not re-parse the same broken bytes.
    pub fn manifest(&self, fingerprint: Digest) -> Option<Manifest> {
        let path = self.manifest_path(fingerprint);
        let metadata = std::fs::metadata(&path).ok().filter(|m| m.is_file())?;
        let parsed = (metadata.len() <= MAX_META_BYTES)
            .then(|| std::fs::read_to_string(&path).ok())
            .flatten()
            .and_then(|text| hanoi_lang::json::parse(&text).ok())
            .and_then(|json| Manifest::from_json(&json))
            // A renamed or copied manifest file must not answer for a
            // different problem.
            .filter(|m| m.fingerprint == fingerprint);
        if parsed.is_none() {
            let _ = std::fs::rename(&path, path.with_extension("json.corrupt"));
        }
        parsed
    }

    /// Every live manifest in the store, in fingerprint order.
    pub fn manifests(&self) -> Vec<Manifest> {
        let mut fingerprints: Vec<Digest> = list_json_stems(&self.manifests_dir())
            .into_iter()
            .filter_map(|stem| Digest::from_hex(&stem))
            .collect();
        fingerprints.sort_by_key(|d| d.0);
        fingerprints
            .into_iter()
            .filter_map(|fp| self.manifest(fp))
            .collect()
    }

    /// Point-in-time statistics over the store directory.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        for entry in read_dir_files(&self.chunks_dir()) {
            let name = entry.0;
            if name.ends_with(".corrupt") {
                stats.quarantined += 1;
            } else if name.ends_with(".json") {
                stats.chunks += 1;
                stats.chunk_bytes += entry.1;
            }
        }
        for entry in read_dir_files(&self.manifests_dir()) {
            let name = entry.0;
            if name.ends_with(".corrupt") {
                stats.quarantined += 1;
            } else if name.ends_with(".json") {
                stats.manifests += 1;
                stats.manifest_bytes += entry.1;
            }
        }
        stats
    }

    /// Re-hashes every chunk (quarantining mismatches) and checks every
    /// manifest's chunk list for holes.
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        for (name, _) in read_dir_files(&self.chunks_dir()) {
            let Some(stem) = name.strip_suffix(".json") else {
                continue;
            };
            let Some(digest) = Digest::from_hex(stem) else {
                continue;
            };
            match self.load_chunk(digest) {
                ChunkLoad::Loaded(_) => report.chunks_ok += 1,
                ChunkLoad::Quarantined => report.chunks_quarantined += 1,
                ChunkLoad::Missing => {}
            }
        }
        for stem in list_json_stems(&self.manifests_dir()) {
            let Some(fingerprint) = Digest::from_hex(&stem) else {
                continue;
            };
            match self.manifest(fingerprint) {
                Some(manifest) => {
                    if manifest
                        .entries
                        .iter()
                        .all(|e| self.chunk_path(e.chunk).is_file())
                    {
                        report.manifests_ok += 1;
                    } else {
                        report.manifests_broken += 1;
                    }
                }
                // `manifest()` quarantined the defective file.
                None => report.manifests_broken += 1,
            }
        }
        report
    }

    /// Garbage-collects the store: purges quarantined and temporary debris,
    /// deletes every chunk no live manifest references, and — when
    /// `max_bytes` is given — evicts whole least-recently-used manifests
    /// (then *their* newly orphaned chunks) until live bytes fit the
    /// budget.
    ///
    /// Liveness invariant: a chunk is deleted only when no surviving
    /// manifest lists it, and budget pressure removes the manifest *before*
    /// its chunks — so any manifest a subsequent restore finds still has
    /// every chunk it needs.
    pub fn gc(&self, max_bytes: Option<u64>) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        // Debris first: quarantined files, interrupted-write leftovers, and
        // the LRU index file older builds kept at the root.
        for dir in [self.chunks_dir(), self.manifests_dir(), self.root.clone()] {
            for (name, bytes) in read_dir_files(&dir) {
                if (name.ends_with(".corrupt")
                    || name.ends_with(".tmp")
                    || name == "store_index.json")
                    && std::fs::remove_file(dir.join(&name)).is_ok()
                {
                    report.debris_purged += 1;
                    report.bytes_freed += bytes;
                }
            }
        }

        let mut manifests: Vec<(Manifest, u64, SystemTime)> = Vec::new();
        for stem in list_json_stems(&self.manifests_dir()) {
            let Some(fingerprint) = Digest::from_hex(&stem) else {
                continue;
            };
            // A defective manifest is quarantined by `manifest()`; its
            // now-unreferenced chunks fall out below.
            if let Some(manifest) = self.manifest(fingerprint) {
                let metadata = std::fs::metadata(self.manifest_path(fingerprint)).ok();
                let bytes = metadata.as_ref().map_or(0, |m| m.len());
                // A time that cannot be read ranks oldest.
                let mtime = metadata
                    .and_then(|m| m.modified().ok())
                    .unwrap_or(SystemTime::UNIX_EPOCH);
                manifests.push((manifest, bytes, mtime));
            }
        }
        // LRU order: oldest manifest mtime first, tie-broken by fingerprint
        // for determinism.
        manifests.sort_by_key(|(m, _, mtime)| (*mtime, m.fingerprint.0));

        let sweep_orphans = |live: &HashSet<Digest>, report: &mut GcReport| -> io::Result<()> {
            for (name, bytes) in read_dir_files(&self.chunks_dir()) {
                let Some(stem) = name.strip_suffix(".json") else {
                    continue;
                };
                let Some(digest) = Digest::from_hex(stem) else {
                    continue;
                };
                if !live.contains(&digest) {
                    std::fs::remove_file(self.chunks_dir().join(&name))?;
                    report.chunks_deleted += 1;
                    report.bytes_freed += bytes;
                }
            }
            Ok(())
        };

        let live: HashSet<Digest> = manifests
            .iter()
            .flat_map(|(m, _, _)| m.entries.iter().map(|e| e.chunk))
            .collect();
        sweep_orphans(&live, &mut report)?;

        if let Some(budget) = max_bytes {
            let chunk_sizes: BTreeMap<Digest, u64> = read_dir_files(&self.chunks_dir())
                .into_iter()
                .filter_map(|(name, bytes)| {
                    let stem = name.strip_suffix(".json")?;
                    Some((Digest::from_hex(stem)?, bytes))
                })
                .collect();
            let mut total: u64 = chunk_sizes.values().sum::<u64>()
                + manifests.iter().map(|(_, bytes, _)| *bytes).sum::<u64>();
            let mut evict_at = 0;
            while total > budget && evict_at < manifests.len() {
                // Evict the coldest manifest, then the chunks only it held
                // live.
                let (manifest, manifest_bytes, _) = &manifests[evict_at];
                evict_at += 1;
                std::fs::remove_file(self.manifest_path(manifest.fingerprint))?;
                report.manifests_evicted += 1;
                report.bytes_freed += manifest_bytes;
                total -= manifest_bytes;
                let live: HashSet<Digest> = manifests[evict_at..]
                    .iter()
                    .flat_map(|(m, _, _)| m.entries.iter().map(|e| e.chunk))
                    .collect();
                let before = report.bytes_freed;
                sweep_orphans(&live, &mut report)?;
                total = total.saturating_sub(report.bytes_freed - before);
            }
            report.bytes_remaining = total;
        } else {
            report.bytes_remaining = {
                let stats = self.stats();
                stats.total_bytes()
            };
        }
        sync_dir(&self.chunks_dir());
        sync_dir(&self.manifests_dir());
        Ok(report)
    }

    /// Copies into `self` every manifest `src` has that `self` is missing or
    /// holds a different (by content) version of, transferring only the
    /// chunks `self` does not already have — the manifest-diff sync
    /// protocol.  Chunks are verified as they are read and land *before*
    /// the manifest referencing them; a source manifest with an unreadable
    /// chunk is skipped whole.
    pub fn merge_from(&self, src: &ChunkStore) -> io::Result<MergeReport> {
        let mut report = MergeReport::default();
        for manifest in src.manifests() {
            let ours = self.manifest(manifest.fingerprint);
            if ours.as_ref() == Some(&manifest) {
                report.manifests_unchanged += 1;
                continue;
            }
            // Chunks first (liveness: the manifest must never land with
            // holes).  Reading through `load_chunk` re-hashes, so corruption
            // in the source is detected here, not propagated.
            let mut complete = true;
            let mut copied = Vec::new();
            for entry in &manifest.entries {
                if self.chunk_path(entry.chunk).is_file() {
                    continue;
                }
                match src.load_chunk(entry.chunk) {
                    ChunkLoad::Loaded(json) => copied.push(json.render_pretty()),
                    ChunkLoad::Missing | ChunkLoad::Quarantined => {
                        complete = false;
                        break;
                    }
                }
            }
            if !complete {
                report.manifests_skipped += 1;
                continue;
            }
            for text in copied {
                let (_, bytes, new) = self.put_chunk(&text)?;
                if new {
                    report.chunks_copied += 1;
                    report.chunk_bytes_copied += bytes;
                }
            }
            self.put_manifest(&manifest)?;
            report.manifests_copied += 1;
        }
        sync_dir(&self.chunks_dir());
        sync_dir(&self.manifests_dir());
        Ok(report)
    }

    /// Bidirectional fleet sync: pull everything `remote` has that `self`
    /// lacks, then push the reverse.  Returns `(pulled, pushed)`.
    pub fn sync(&self, remote: &ChunkStore) -> io::Result<(MergeReport, MergeReport)> {
        let pulled = self.merge_from(remote)?;
        let pushed = remote.merge_from(self)?;
        Ok((pulled, pushed))
    }

    /// Marks `fingerprint` as most recently used by setting its manifest's
    /// mtime to now.  Best-effort: a failed update never fails a save or a
    /// restore; it only changes eviction order.
    pub fn touch(&self, fingerprint: Digest) {
        let _ = std::fs::File::open(self.manifest_path(fingerprint))
            .and_then(|file| file.set_modified(SystemTime::now()));
    }
}

/// Lists `(file name, size)` for every plain file directly in `dir`.
fn read_dir_files(dir: &Path) -> Vec<(String, u64)> {
    let mut files = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return files;
    };
    for entry in entries.flatten() {
        let Ok(metadata) = entry.metadata() else {
            continue;
        };
        if !metadata.is_file() {
            continue;
        }
        if let Ok(name) = entry.file_name().into_string() {
            files.push((name, metadata.len()));
        }
    }
    files.sort();
    files
}

/// The stems of `*.json` files directly in `dir` (sorted).
fn list_json_stems(dir: &Path) -> Vec<String> {
    let mut stems: Vec<String> = read_dir_files(dir)
        .into_iter()
        .filter_map(|(name, _)| name.strip_suffix(".json").map(str::to_string))
        .collect();
    stems.sort();
    stems
}

#[cfg(test)]
mod tests {
    use super::*;
    use hanoi_synth::bank::GuessMemo;
    use hanoi_synth::TermBank;

    fn temp_store(tag: &str) -> ChunkStore {
        let dir = std::env::temp_dir().join(format!(
            "hanoi-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ChunkStore::open(&dir).unwrap()
    }

    /// A realistic engine wrapper: empty check cache, one term bank with
    /// `memos` guess memos.
    fn wrapper(fingerprint: Digest, memos: u64) -> Json {
        let bank = TermBank::new();
        for i in 0..memos {
            bank.guess_memo_put(
                Digest(i as u128 + 1),
                GuessMemo {
                    result: None,
                    terms: i,
                    splits: 0,
                    arith: 0,
                },
            );
        }
        Json::Obj(
            [
                ("version".to_string(), Json::Num(2.0)),
                ("kind".to_string(), Json::Str("hanoi-warm-start".into())),
                ("fingerprint".to_string(), Json::Str(fingerprint.to_hex())),
                (
                    "check_cache".to_string(),
                    Json::obj([
                        (
                            "version",
                            Json::Num(hanoi_verifier::CheckCache::SNAPSHOT_VERSION as f64),
                        ),
                        ("kind", Json::Str("check-cache".into())),
                        ("entries", Json::Arr(Vec::new())),
                    ]),
                ),
                (
                    "banks".to_string(),
                    Json::Obj(
                        [("fold".to_string(), bank.to_json().unwrap())]
                            .into_iter()
                            .collect(),
                    ),
                ),
            ]
            .into_iter()
            .collect(),
        )
    }

    #[test]
    fn chunks_round_trip_and_tampering_quarantines() {
        let store = temp_store("chunk");
        let (digest, bytes, new) = store.put_chunk("{\"hello\": 1}").unwrap();
        assert!(new);
        assert_eq!(bytes, 12);
        // Idempotent re-put.
        let (d2, _, new2) = store.put_chunk("{\"hello\": 1}").unwrap();
        assert_eq!(d2, digest);
        assert!(!new2);
        assert!(matches!(store.load_chunk(digest), ChunkLoad::Loaded(_)));

        // Tamper: the name no longer proves the bytes.
        std::fs::write(store.chunk_path(digest), "{\"hello\": 2}").unwrap();
        assert!(matches!(store.load_chunk(digest), ChunkLoad::Quarantined));
        // The defect was moved aside, not re-read forever.
        assert!(matches!(store.load_chunk(digest), ChunkLoad::Missing));
        assert!(store
            .chunks_dir()
            .join(format!("{}.json.corrupt", digest.to_hex()))
            .is_file());
    }

    #[test]
    fn wrappers_reassemble_byte_identically() {
        let store = temp_store("wrapper");
        let fingerprint = Digest(42);
        let original = wrapper(fingerprint, 10);
        let report = store.save_wrapper(&original).unwrap();
        assert!(report.chunks_total >= 2, "checks + bank core");
        assert_eq!(report.chunks_written, report.chunks_total);

        let WrapperLoad::Loaded {
            wrapper: restored,
            quarantined,
        } = store.load_wrapper(fingerprint)
        else {
            panic!("manifest must load");
        };
        assert_eq!(quarantined, 0);
        assert_eq!(restored.render_pretty(), original.render_pretty());
        // Unknown problems are simply missing.
        assert!(matches!(
            store.load_wrapper(Digest(7)),
            WrapperLoad::Missing
        ));
    }

    #[test]
    fn identical_saves_write_nothing_new() {
        let store = temp_store("incremental");
        let fingerprint = Digest(43);
        store.save_wrapper(&wrapper(fingerprint, 5)).unwrap();
        let again = store.save_wrapper(&wrapper(fingerprint, 5)).unwrap();
        assert_eq!(again.chunks_written, 0);
        assert_eq!(again.bytes_written, 0);
        // A grown snapshot shares its unchanged chunks.
        let grown = store.save_wrapper(&wrapper(fingerprint, 600)).unwrap();
        assert!(grown.chunks_written < grown.chunks_total);
    }

    #[test]
    fn merge_transfers_only_missing_chunks() {
        let a = temp_store("merge-a");
        let b = temp_store("merge-b");
        a.save_wrapper(&wrapper(Digest(1), 5)).unwrap();
        let full = b.merge_from(&a).unwrap();
        assert_eq!(full.manifests_copied, 1);
        assert!(full.chunk_bytes_copied > 0);

        // Nothing changed: the second sync is pure manifest comparison.
        let noop = b.merge_from(&a).unwrap();
        assert_eq!(noop.manifests_unchanged, 1);
        assert_eq!(noop.chunk_bytes_copied, 0);

        // One more problem in `a`: only its chunks travel.  The new wrapper
        // shares the empty check cache chunk with the first one,
        // so the delta is strictly smaller than a full copy.
        a.save_wrapper(&wrapper(Digest(2), 5)).unwrap();
        let delta = b.merge_from(&a).unwrap();
        assert_eq!(delta.manifests_copied, 1);
        assert!(delta.chunk_bytes_copied < full.chunk_bytes_copied);
        assert!(matches!(
            b.load_wrapper(Digest(2)),
            WrapperLoad::Loaded { quarantined: 0, .. }
        ));
    }

    #[test]
    fn merge_skips_manifests_with_corrupt_source_chunks() {
        let a = temp_store("merge-corrupt-a");
        let b = temp_store("merge-corrupt-b");
        a.save_wrapper(&wrapper(Digest(1), 5)).unwrap();
        let manifest = a.manifest(Digest(1)).unwrap();
        let victim = manifest.entries[0].chunk;
        std::fs::write(a.chunk_path(victim), "tampered").unwrap();
        let report = b.merge_from(&a).unwrap();
        assert_eq!(report.manifests_skipped, 1);
        assert_eq!(report.manifests_copied, 0);
        // The destination never received a manifest with holes.
        assert!(matches!(b.load_wrapper(Digest(1)), WrapperLoad::Missing));
    }

    #[test]
    fn gc_deletes_only_orphans_and_evicts_lru_under_budget() {
        let store = temp_store("gc");
        store.save_wrapper(&wrapper(Digest(1), 5)).unwrap();
        store.save_wrapper(&wrapper(Digest(2), 300)).unwrap();
        // An orphan chunk no manifest references, plus quarantine debris.
        store.put_chunk("\"orphan\"").unwrap();
        std::fs::write(store.chunks_dir().join("junk.json.corrupt"), "x").unwrap();

        let unbudgeted = store.gc(None).unwrap();
        assert_eq!(unbudgeted.chunks_deleted, 1);
        assert_eq!(unbudgeted.debris_purged, 1);
        assert_eq!(unbudgeted.manifests_evicted, 0);
        // Both problems still restore in full.
        for fp in [Digest(1), Digest(2)] {
            assert!(matches!(
                store.load_wrapper(fp),
                WrapperLoad::Loaded { quarantined: 0, .. }
            ));
        }

        // Touch problem 1 (the restore above already stamped both; stamp 1
        // again so 2 is the LRU), then squeeze: the budget fits one problem.
        assert!(matches!(
            store.load_wrapper(Digest(1)),
            WrapperLoad::Loaded { .. }
        ));
        let squeezed = store.gc(Some(2048)).unwrap();
        assert!(squeezed.manifests_evicted >= 1);
        assert!(squeezed.bytes_remaining <= 2048);
        // The survivor is whole; the evictee is gone, not broken.
        assert!(matches!(
            store.load_wrapper(Digest(1)),
            WrapperLoad::Loaded { quarantined: 0, .. }
        ));
        assert!(matches!(
            store.load_wrapper(Digest(2)),
            WrapperLoad::Missing
        ));
    }

    /// Sets `path`'s mtime to `secs` after the epoch, so recency order in a
    /// test never depends on the clock's granularity.
    fn set_mtime(path: &Path, secs: u64) {
        std::fs::File::open(path)
            .unwrap()
            .set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(secs))
            .unwrap();
    }

    /// Every file under `dir` as `(relative path, bytes)`, sorted.
    fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap().flatten() {
            let path = entry.path();
            if path.is_dir() {
                files.extend(
                    tree(&path)
                        .into_iter()
                        .map(|(rel, bytes)| (Path::new(&entry.file_name()).join(rel), bytes)),
                );
            } else {
                files.push((entry.file_name().into(), std::fs::read(&path).unwrap()));
            }
        }
        files.sort();
        files
    }

    #[test]
    fn a_restore_writes_nothing_but_the_manifest_mtime() {
        let store = temp_store("restore-readonly");
        store.save_wrapper(&wrapper(Digest(1), 5)).unwrap();
        let manifest = store.manifest_path(Digest(1));
        set_mtime(&manifest, 1_000);
        let before = tree(store.root());

        assert!(matches!(
            store.load_wrapper(Digest(1)),
            WrapperLoad::Loaded { quarantined: 0, .. }
        ));
        assert_eq!(
            tree(store.root()),
            before,
            "no file added, removed or rewritten"
        );
        let mtime = std::fs::metadata(&manifest).unwrap().modified().unwrap();
        assert!(mtime > SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1_000));
    }

    #[test]
    fn gc_ignores_and_purges_a_legacy_lru_index() {
        let store = temp_store("legacy-index");
        // Identical banks: the two manifests share every chunk, so evicting
        // either one frees exactly its manifest file.
        store.save_wrapper(&wrapper(Digest(1), 5)).unwrap();
        store.save_wrapper(&wrapper(Digest(2), 5)).unwrap();
        set_mtime(&store.manifest_path(Digest(1)), 2_000);
        set_mtime(&store.manifest_path(Digest(2)), 1_000);
        // The index an older build kept, stamping manifest 2 as newest.
        let legacy = format!(
            r#"{{"version": 1, "kind": "hanoi-store-index", "clock": 2, "entries": [
                {{"fingerprint": "{}", "stamp": 1, "bytes": 10}},
                {{"fingerprint": "{}", "stamp": 2, "bytes": 10}}]}}"#,
            Digest(1).to_hex(),
            Digest(2).to_hex()
        );
        let index = store.root().join("store_index.json");
        std::fs::write(&index, legacy).unwrap();

        let budget = store.stats().total_bytes() - 1;
        let report = store.gc(Some(budget)).unwrap();
        assert_eq!(report.manifests_evicted, 1);
        assert_eq!(report.debris_purged, 1);
        assert!(!index.exists());
        // The older mtime lost, whatever the index said.
        assert!(store.manifest(Digest(1)).is_some());
        assert!(store.manifest(Digest(2)).is_none());
    }

    #[test]
    fn manifests_with_a_legacy_shapes_chunk_still_load() {
        // Older builds appended a pool-shapes chunk to every manifest; a
        // store they wrote must restore whole.
        let store = temp_store("legacy-shapes");
        let original = wrapper(Digest(1), 5);
        store.save_wrapper(&original).unwrap();
        let shapes = Json::obj([
            ("version", Json::Num(1.0)),
            ("kind", Json::Str("hanoi-pool-shapes".into())),
            (
                "shapes",
                Json::Arr(vec![Json::obj([
                    ("size", Json::Num(3.0)),
                    ("ty", Json::Str("list".into())),
                ])]),
            ),
        ]);
        let (chunk, bytes, _) = store.put_chunk(&shapes.render_pretty()).unwrap();
        let mut manifest = store.manifest(Digest(1)).unwrap();
        manifest.entries.push(ManifestEntry {
            section: "shapes".to_string(),
            chunk,
            bytes,
        });
        store.put_manifest(&manifest).unwrap();

        let WrapperLoad::Loaded {
            wrapper: restored,
            quarantined: 0,
        } = store.load_wrapper(Digest(1))
        else {
            panic!("a legacy manifest must load without quarantines");
        };
        assert_eq!(restored.render_pretty(), original.render_pretty());
    }

    #[test]
    fn verify_reports_and_quarantines() {
        let store = temp_store("verify");
        store.save_wrapper(&wrapper(Digest(1), 5)).unwrap();
        let clean = store.verify();
        assert_eq!(clean.chunks_quarantined, 0);
        assert_eq!(clean.manifests_broken, 0);
        assert_eq!(clean.manifests_ok, 1);
        assert!(clean.chunks_ok >= 2, "checks + bank core");

        let manifest = store.manifest(Digest(1)).unwrap();
        std::fs::write(store.chunk_path(manifest.entries[0].chunk), "bad").unwrap();
        let dirty = store.verify();
        assert_eq!(dirty.chunks_quarantined, 1);
        assert_eq!(dirty.manifests_broken, 1);
        // The restore still proceeds, minus the quarantined chunk.
        assert!(matches!(
            store.load_wrapper(Digest(1)),
            WrapperLoad::Loaded { quarantined: 1, .. }
        ));
    }

    #[test]
    fn stats_count_the_store() {
        let store = temp_store("stats");
        assert_eq!(store.stats(), StoreStats::default());
        store.save_wrapper(&wrapper(Digest(1), 5)).unwrap();
        let stats = store.stats();
        assert_eq!(stats.manifests, 1);
        assert!(stats.chunks >= 2, "checks + bank core");
        assert!(stats.total_bytes() > 0);
        assert_eq!(stats.quarantined, 0);
    }

    #[test]
    fn corrupt_manifests_are_quarantined_not_fatal() {
        let store = temp_store("manifest-corrupt");
        store.save_wrapper(&wrapper(Digest(1), 5)).unwrap();
        std::fs::write(store.manifest_path(Digest(1)), "garbage").unwrap();
        assert!(matches!(
            store.load_wrapper(Digest(1)),
            WrapperLoad::Corrupt
        ));
        // Quarantined: the next open treats it as missing.
        assert!(matches!(
            store.load_wrapper(Digest(1)),
            WrapperLoad::Missing
        ));
    }

    #[test]
    fn reports_render_their_admin_cli_json() {
        let verify = VerifyReport {
            chunks_ok: 7,
            chunks_quarantined: 1,
            manifests_ok: 3,
            manifests_broken: 2,
        };
        assert_eq!(
            verify.to_json().render(),
            r#"{"chunks_ok":7,"chunks_quarantined":1,"manifests_broken":2,"manifests_ok":3}"#
        );
        let gc = GcReport {
            chunks_deleted: 4,
            manifests_evicted: 2,
            debris_purged: 1,
            bytes_freed: 4096,
            bytes_remaining: 123456789,
        };
        assert_eq!(
            gc.to_json().render(),
            concat!(
                r#"{"bytes_freed":4096,"bytes_remaining":123456789,"chunks_deleted":4,"#,
                r#""debris_purged":1,"manifests_evicted":2}"#,
            )
        );
        let merge = MergeReport {
            manifests_copied: 5,
            manifests_unchanged: 6,
            manifests_skipped: 1,
            chunks_copied: 9,
            chunk_bytes_copied: 2048,
        };
        assert_eq!(
            merge.to_json().render(),
            concat!(
                r#"{"chunk_bytes_copied":2048,"chunks_copied":9,"manifests_copied":5,"#,
                r#""manifests_skipped":1,"manifests_unchanged":6}"#,
            )
        );
        let stats = StoreStats {
            manifests: 2,
            chunks: 11,
            chunk_bytes: 3000,
            manifest_bytes: 500,
            quarantined: 1,
        };
        assert_eq!(
            stats.to_json().render(),
            concat!(
                r#"{"chunk_bytes":3000,"chunks":11,"manifest_bytes":500,"#,
                r#""manifests":2,"quarantined":1,"total_bytes":3500}"#,
            )
        );
    }
}

//! Splitting engine warm-start wrappers into chunks and reassembling them.
//!
//! The engine's per-problem snapshot is a *wrapper* object — `{version,
//! kind, fingerprint, check_cache, banks}` — whose component
//! formats are owned by the verifier ([`CheckCache`]) and the synthesizer
//! ([`TermBank`]).  This module routes the wrapper through the component
//! chunk codecs on save and back on load; the store itself never interprets
//! component contents, and the reassembled wrapper renders byte-for-byte
//! like the wrapper that was saved (pinned by tests), so the engine
//! validates it exactly as it built it.
//!
//! Section names in the manifest:
//!
//! | section             | contents                                        |
//! |---------------------|-------------------------------------------------|
//! | `checks`            | one check-cache recency stripe (oldest first)   |
//! | `bank-core:<label>` | one term bank's value/name/world tables         |
//! | `bank-part:<label>` | a slice of one bank's memo tables               |
//!
//! Older builds also wrote a `shapes` section (pool-slab shape keys); it is
//! no longer written, and on load it is skipped like any unknown section.

use std::collections::BTreeMap;
use std::io;

use hanoi_lang::digest::Digest;
use hanoi_lang::json::Json;
use hanoi_synth::TermBank;
use hanoi_verifier::CheckCache;

use crate::{ChunkLoad, ChunkStore, Manifest, ManifestEntry, ROWS_PER_PART, STRIPE_LEN};

/// What one [`ChunkStore::save_wrapper`] did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SaveReport {
    /// Chunks the manifest references in total.
    pub chunks_total: usize,
    /// Chunks that were newly written (the rest were already present under
    /// their content address — the incremental-save win).
    pub chunks_written: usize,
    /// Bytes newly written (chunk files only).
    pub bytes_written: u64,
    /// Total bytes across all referenced chunks, new or shared.
    pub bytes_total: u64,
}

/// The outcome of a [`ChunkStore::load_wrapper`].
#[derive(Debug)]
pub enum WrapperLoad {
    /// No manifest exists for the problem.
    Missing,
    /// A manifest existed but was defective and has been quarantined; the
    /// caller proceeds as if missing (and counts the quarantine).
    Corrupt,
    /// The wrapper was reassembled.  `quarantined` counts chunks that were
    /// corrupt (quarantined on disk) or missing; their sections were
    /// dropped, costing warmth but never correctness.
    Loaded {
        /// The reassembled wrapper: the same JSON object the engine handed
        /// to [`ChunkStore::save_wrapper`], minus any dropped sections.
        wrapper: Json,
        /// Chunks dropped from the restore (corrupt or missing).
        quarantined: u64,
    },
}

impl ChunkStore {
    /// Saves an engine warm-start wrapper as chunks plus a manifest.
    ///
    /// The wrapper must carry `version`, `kind`, a hex `fingerprint`, a
    /// `check_cache` snapshot and a `banks` object — anything else is
    /// rejected as [`io::ErrorKind::InvalidData`] (the
    /// engine only ever hands over wrappers it built itself, so a mismatch
    /// is a programming error, not an environmental one).
    pub fn save_wrapper(&self, wrapper: &Json) -> io::Result<SaveReport> {
        let invalid =
            |message: &str| io::Error::new(io::ErrorKind::InvalidData, message.to_string());
        let fingerprint = wrapper
            .get("fingerprint")
            .and_then(Json::as_str)
            .and_then(Digest::from_hex)
            .ok_or_else(|| invalid("wrapper has no fingerprint"))?;
        let wrapper_version = wrapper
            .get("version")
            .and_then(Json::as_usize)
            .ok_or_else(|| invalid("wrapper has no version"))? as u64;
        let wrapper_kind = wrapper
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid("wrapper has no kind"))?
            .to_string();

        // Section chunks, in assembly order.
        let mut sections: Vec<(String, Json)> = Vec::new();
        let checks = wrapper
            .get("check_cache")
            .ok_or_else(|| invalid("wrapper has no check_cache"))?;
        for stripe in CheckCache::split_snapshot(checks, STRIPE_LEN)
            .ok_or_else(|| invalid("check_cache snapshot does not split"))?
        {
            sections.push(("checks".to_string(), stripe));
        }
        let Json::Obj(banks) = wrapper
            .get("banks")
            .ok_or_else(|| invalid("wrapper has no banks"))?
        else {
            return Err(invalid("wrapper banks is not an object"));
        };
        for (label, bank) in banks {
            let chunks = TermBank::split_snapshot(bank, ROWS_PER_PART)
                .ok_or_else(|| invalid("bank snapshot does not split"))?;
            let mut chunks = chunks.into_iter();
            let core = chunks.next().expect("split yields at least the core");
            sections.push((format!("bank-core:{label}"), core));
            for part in chunks {
                sections.push((format!("bank-part:{label}"), part));
            }
        }

        let mut report = SaveReport::default();
        let mut entries = Vec::new();
        for (section, chunk) in sections {
            let (digest, bytes, new) = self.put_chunk(&chunk.render_pretty())?;
            report.chunks_total += 1;
            report.bytes_total += bytes;
            if new {
                report.chunks_written += 1;
                report.bytes_written += bytes;
            }
            entries.push(ManifestEntry {
                section,
                chunk: digest,
                bytes,
            });
        }
        self.put_manifest(&Manifest {
            fingerprint,
            wrapper_version,
            wrapper_kind,
            entries,
        })?;
        hanoi_lang::util::sync_dir(&self.root().join("chunks"));
        hanoi_lang::util::sync_dir(&self.root().join("manifests"));
        Ok(report)
    }

    /// Reassembles the wrapper for `fingerprint` from its manifest and
    /// chunks.  Corrupt chunks are quarantined and *dropped* — a dropped
    /// check stripe means fewer memoized outcomes, a dropped bank part
    /// means fewer memo rows, a dropped bank core drops that one bank —
    /// and the count comes back in [`WrapperLoad::Loaded::quarantined`].
    pub fn load_wrapper(&self, fingerprint: Digest) -> WrapperLoad {
        if !self.manifest_path_exists(fingerprint) {
            return WrapperLoad::Missing;
        }
        let Some(manifest) = self.manifest(fingerprint) else {
            // `manifest()` quarantined the defective file.
            return WrapperLoad::Corrupt;
        };
        let mut quarantined = 0u64;
        let mut stripes: Vec<Json> = Vec::new();
        let mut bank_cores: BTreeMap<String, Json> = BTreeMap::new();
        let mut bank_parts: BTreeMap<String, Vec<Json>> = BTreeMap::new();
        for entry in &manifest.entries {
            let chunk = match self.load_chunk(entry.chunk) {
                ChunkLoad::Loaded(chunk) => chunk,
                // A hole costs exactly this chunk's section, never the
                // restore.
                ChunkLoad::Missing | ChunkLoad::Quarantined => {
                    quarantined += 1;
                    continue;
                }
            };
            if entry.section == "checks" {
                stripes.push(chunk);
            } else if let Some(label) = entry.section.strip_prefix("bank-core:") {
                bank_cores.insert(label.to_string(), chunk);
            } else if let Some(label) = entry.section.strip_prefix("bank-part:") {
                bank_parts.entry(label.to_string()).or_default().push(chunk);
            }
            // Unknown sections (a future format, or the `shapes` section
            // older builds wrote) are ignored, not fatal.
        }

        let (check_cache, skipped) = CheckCache::join_stripes(stripes.iter());
        quarantined += skipped as u64;
        let mut banks = BTreeMap::new();
        for (label, core) in &bank_cores {
            let parts = bank_parts.remove(label).unwrap_or_default();
            match TermBank::join_chunks(core, parts.iter()) {
                Some((bank, skipped)) => {
                    quarantined += skipped as u64;
                    banks.insert(label.clone(), bank);
                }
                // A core that loaded but does not join is defective beyond
                // its digest (cannot happen for chunks we wrote); drop the
                // bank.
                None => quarantined += 1,
            }
        }
        // Parts whose core was dropped have nothing to resolve their ids
        // against; they are already counted via the dropped core chunk.

        let wrapper = Json::Obj(
            [
                (
                    "version".to_string(),
                    Json::Num(manifest.wrapper_version as f64),
                ),
                ("kind".to_string(), Json::Str(manifest.wrapper_kind.clone())),
                ("fingerprint".to_string(), Json::Str(fingerprint.to_hex())),
                ("check_cache".to_string(), check_cache),
                ("banks".to_string(), Json::Obj(banks.into_iter().collect())),
            ]
            .into_iter()
            .collect(),
        );
        self.touch(fingerprint, manifest.chunk_bytes());
        WrapperLoad::Loaded {
            wrapper,
            quarantined,
        }
    }

    fn manifest_path_exists(&self, fingerprint: Digest) -> bool {
        self.root()
            .join("manifests")
            .join(format!("{}.json", fingerprint.to_hex()))
            .is_file()
    }
}

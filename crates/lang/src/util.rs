//! Small shared utilities.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::io::Write as _;
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Writes `bytes` to `path` atomically and durably: the bytes land in a
/// temporary sibling (`<file name>.tmp`), are **fsynced**, and only then
/// atomically renamed into place.  Neither a crash mid-write nor a concurrent
/// reader can ever observe a torn file — without the fsync, the rename could
/// be durable before the data, and a power loss would leave a correctly-named
/// file with truncated contents.
///
/// This is the one shared implementation of the pattern every persistent
/// artifact in the workspace uses: the engine's warm-start snapshots, the
/// chunk store's chunks and manifests (`hanoi_store`), and anything
/// the server checkpoints at drain.  Callers that write several files and
/// then need the *renames* durable should follow up with [`sync_dir`] on the
/// containing directory.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file_name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
        })?
        .to_os_string();
    file_name.push(".tmp");
    let tmp = path.with_file_name(file_name);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    // Durability point: the bytes must hit stable storage before the rename
    // makes them reachable under the real name.
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)
}

/// Best-effort fsync of a directory, making previously performed renames in
/// it durable (directory metadata).  Not every platform lets a directory be
/// fsynced, so failures are swallowed — this is an additional guarantee on
/// top of the per-file one from [`write_atomic`], never a required one.
pub fn sync_dir(dir: &Path) {
    let _ = std::fs::File::open(dir).and_then(|d| d.sync_all());
}

/// A fast, deterministic, non-cryptographic hasher (splitmix64 finalization
/// per write) for hot in-process tables: the synthesizer's term bank and
/// signature-row sets, and the constructor index the interpreter consults
/// on every constructor evaluation.  Their keys are dense ids, id rows and
/// short names, where SipHash's per-hash overhead dominated the actual
/// probe cost.  Never use it for persisted keys; those are
/// [`Digest`](crate::digest::Digest)s.
///
/// Byte writes read the input eight bytes at a time as little-endian words,
/// without copying; a shorter tail is folded into one word with shifts, as
/// if zero-padded to eight bytes.  Each word is mixed together with its byte
/// count.  A golden test pins the output, so a faster `write` cannot move
/// the iteration order of any table keyed by it.  Keys that hash many ids
/// should feed whole words through `write_u64`.
#[derive(Debug, Default, Clone)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        let mut z = (self.0 ^ v).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let word: [u8; 8] = word.try_into().expect("chunks_exact yields 8-byte words");
            self.mix(u64::from_le_bytes(word) ^ 8);
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let word = tail
                .iter()
                .rev()
                .fold(0u64, |acc, &byte| (acc << 8) | u64::from(byte));
            self.mix(word ^ tail.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// The [`std::hash::BuildHasher`] for [`IdHasher`]-backed tables.
pub type IdHashBuilder = BuildHasherDefault<IdHasher>;

/// All ways to write `total` as an ordered sum of `parts` positive integers,
/// in lexicographic order, memoized process-wide (the enumerators ask for
/// the same handful of `(total, parts)` keys at every size).  `(0, 0)` has
/// one composition, the empty one.
pub fn compositions(total: usize, parts: usize) -> Arc<Vec<Vec<usize>>> {
    fn rec(total: usize, parts: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if parts == 1 {
            current.push(total);
            out.push(current.clone());
            current.pop();
            return;
        }
        for first in 1..=(total - (parts - 1)) {
            current.push(first);
            rec(total - first, parts - 1, current, out);
            current.pop();
        }
    }
    type Memo = Mutex<HashMap<(usize, usize), Arc<Vec<Vec<usize>>>>>;
    const POISONED: &str = "a thread panicked while holding the compositions memo";
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let memo = MEMO.get_or_init(Memo::default);
    if let Some(cached) = memo.lock().expect(POISONED).get(&(total, parts)) {
        return Arc::clone(cached);
    }
    let mut out = Vec::new();
    if parts == 0 {
        if total == 0 {
            out.push(Vec::new());
        }
    } else if total >= parts {
        rec(total, parts, &mut Vec::with_capacity(parts), &mut out);
    }
    let computed = Arc::new(out);
    memo.lock()
        .expect(POISONED)
        .insert((total, parts), Arc::clone(&computed));
    computed
}

/// Calls `visit` with every tuple of the cartesian product of `groups`, in
/// lexicographic order (the last position varies fastest), until it returns
/// [`ControlFlow::Break`].  Zero groups have one tuple, the empty one; a
/// product with an empty group has none.
pub fn for_each_product<'a, T>(
    groups: &[&'a [T]],
    mut visit: impl FnMut(&[&'a T]) -> ControlFlow<()>,
) {
    fn rec<'a, T>(
        groups: &[&'a [T]],
        current: &mut Vec<&'a T>,
        visit: &mut impl FnMut(&[&'a T]) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let Some((first, rest)) = groups.split_first() else {
            return visit(current);
        };
        for item in *first {
            current.push(item);
            rec(rest, current, visit)?;
            current.pop();
        }
        ControlFlow::Continue(())
    }
    if groups.iter().any(|g| g.is_empty()) {
        return;
    }
    let _ = rec(groups, &mut Vec::with_capacity(groups.len()), &mut visit);
}

/// A shared, thread-safe cooperative-cancellation flag.
///
/// A token is cheap to clone (`Arc` of one atomic); every clone observes the
/// same flag.  Long-running components never poll tokens directly — they poll
/// the [`Deadline`] the token is attached to via [`Deadline::with_cancel`],
/// so the verifier's and the synthesizer's existing per-tuple deadline checks
/// double as cancellation points.  Cancellation is level-triggered and
/// permanent: once [`CancelToken::cancel`] has been called every in-flight
/// and future check against the flag aborts.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation.  Idempotent; safe to call from any thread.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }
}

/// A wall-clock deadline shared by long-running components (the verifier, the
/// synthesizers and the inference driver), checked cooperatively.
///
/// A deadline can additionally carry a [`CancelToken`]; [`Deadline::expired`]
/// then reports `true` as soon as *either* the wall clock runs out or the
/// token is cancelled, so every existing deadline poll is also a cancellation
/// point.
#[derive(Debug, Clone, Default)]
pub struct Deadline {
    at: Option<Instant>,
    cancel: Option<CancelToken>,
}

impl Deadline {
    /// No deadline: run to completion.
    pub fn none() -> Self {
        Deadline {
            at: None,
            cancel: None,
        }
    }

    /// A deadline `duration` from now.
    pub fn after(duration: Duration) -> Self {
        Deadline {
            at: Some(Instant::now() + duration),
            cancel: None,
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Self {
        Deadline {
            at: Some(instant),
            cancel: None,
        }
    }

    /// Attaches a cancellation token: the deadline also counts as expired
    /// once the token is cancelled.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// `true` once the deadline has passed or the attached cancellation
    /// token (if any) has been cancelled.
    pub fn expired(&self) -> bool {
        self.cancelled() || self.at.is_some_and(|at| Instant::now() >= at)
    }

    /// `true` when an attached cancellation token has been cancelled
    /// (independent of the wall clock).
    pub fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Time remaining, if a deadline is set (zero once expired or cancelled).
    pub fn remaining(&self) -> Option<Duration> {
        if self.cancelled() {
            return Some(Duration::ZERO);
        }
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }
}

/// A set that remembers insertion order.
///
/// The inference algorithm's example sets (`V+`, `V−`) must behave as sets —
/// membership checks drive the weakening/strengthening decisions — but the
/// order in which examples were discovered matters for reproducibility of
/// synthesis results, so a plain `HashSet` (iteration order unstable across
/// runs) is not appropriate.
#[derive(Debug, Clone)]
pub struct OrderedSet<T> {
    items: Vec<T>,
    index: HashSet<T>,
}

impl<T> Default for OrderedSet<T> {
    fn default() -> Self {
        OrderedSet {
            items: Vec::new(),
            index: HashSet::new(),
        }
    }
}

impl<T: Eq + Hash + Clone> OrderedSet<T> {
    /// An empty set.
    pub fn new() -> Self {
        OrderedSet {
            items: Vec::new(),
            index: HashSet::new(),
        }
    }

    /// Inserts an item; returns `true` if it was not already present.
    pub fn insert(&mut self, item: T) -> bool {
        if self.index.contains(&item) {
            false
        } else {
            self.index.insert(item.clone());
            self.items.push(item);
            true
        }
    }

    /// Inserts every item from the iterator; returns how many were new.
    pub fn extend(&mut self, items: impl IntoIterator<Item = T>) -> usize {
        items
            .into_iter()
            .filter(|item| self.insert(item.clone()))
            .count()
    }

    /// Membership test.
    pub fn contains(&self, item: &T) -> bool {
        self.index.contains(item)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// The elements as a slice, in insertion order.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.items.clear();
        self.index.clear();
    }

    /// Removes an item if present; returns `true` if it was present.
    /// Preserves the order of the remaining items.
    pub fn remove(&mut self, item: &T) -> bool {
        if self.index.remove(item) {
            self.items.retain(|x| x != item);
            true
        } else {
            false
        }
    }
}

impl<T: Eq + Hash + Clone> FromIterator<T> for OrderedSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut set = Self::new();
        for item in iter {
            set.insert(item);
        }
        set
    }
}

impl<T: Eq + Hash + Clone> IntoIterator for OrderedSet<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a, T: Eq + Hash + Clone> IntoIterator for &'a OrderedSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<T: Eq + Hash + Clone> PartialEq for OrderedSet<T> {
    fn eq(&self, other: &Self) -> bool {
        self.index == other.index
    }
}

impl<T: Eq + Hash + Clone> Eq for OrderedSet<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_replaces_files_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!(
            "hanoi-util-atomic-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        // Overwrites are atomic replacements of the whole content.
        write_atomic(&path, b"second, longer content").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer content");
        // The temporary sibling never survives a successful write.
        assert!(!dir.join("artifact.json.tmp").exists());
        // A path without a file name is rejected, not panicked on.
        assert!(write_atomic(Path::new("/"), b"x").is_err());
        sync_dir(&dir); // must not panic, even if the platform refuses
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `IdHasher`'s output is pinned: tables keyed by it iterate in hash
    /// order.  The values were recorded from the byte-buffer `write` that
    /// the word-reading one replaced.
    #[test]
    fn id_hasher_output_is_pinned() {
        let bytes: Vec<u8> = (0u8..17)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        let by_length: [u64; 18] = [
            0x0000_0000_0000_0000,
            0x0887_12be_8a58_2fca,
            0x88d3_db75_8153_7d9f,
            0x7224_ef4d_47c6_3589,
            0x2ac6_0bce_40f5_cf94,
            0xa95b_25f0_ad8a_f73a,
            0xc25b_3fa8_a04b_65f1,
            0xccfa_be73_6911_ad1c,
            0xb792_8edc_5740_edf3,
            0xfea5_3e39_d576_b96e,
            0x1e6f_fea6_d87b_cdf2,
            0x9b75_8cdd_c127_0b77,
            0x7eb0_70e7_626b_3a4c,
            0x5fd5_6593_c50b_d617,
            0xfe83_4495_9d14_878e,
            0x3fc8_0020_44e4_c094,
            0x0ea2_d241_4b84_2a80,
            0xfd12_8073_8876_70e5,
        ];
        for (len, &expected) in by_length.iter().enumerate() {
            let mut hasher = IdHasher::default();
            hasher.write(&bytes[..len]);
            assert_eq!(hasher.finish(), expected, "write of {len} bytes");
        }
        let names = [
            ("O", 0xcf24_19af_f38a_d2f4),
            ("Cons", 0x666f_cdb8_c217_000a),
            ("balance", 0x06ed_33b9_9c33_de63),
        ];
        for (name, expected) in names {
            let mut hasher = IdHasher::default();
            name.hash(&mut hasher);
            assert_eq!(hasher.finish(), expected, "hash of {name:?}");
        }
    }

    #[test]
    fn compositions_are_correct() {
        assert_eq!(*compositions(3, 1), vec![vec![3]]);
        assert_eq!(*compositions(3, 2), vec![vec![1, 2], vec![2, 1]]);
        assert_eq!(
            *compositions(4, 2),
            vec![vec![1, 3], vec![2, 2], vec![3, 1]]
        );
        assert_eq!(compositions(4, 3).len(), 3);
        assert!(compositions(2, 3).is_empty());
        assert!(compositions(1, 2).is_empty());
        assert_eq!(*compositions(0, 0), vec![Vec::<usize>::new()]);
        assert!(compositions(3, 0).is_empty());
        // The memo serves repeated requests from the same allocation.
        assert!(Arc::ptr_eq(&compositions(4, 2), &compositions(4, 2)));
    }

    #[test]
    fn products_visit_lexicographically() {
        let collect = |groups: &[&[u8]]| {
            let mut out = Vec::new();
            for_each_product(groups, |tuple| {
                out.push(tuple.iter().map(|&&x| x).collect::<Vec<u8>>());
                ControlFlow::Continue(())
            });
            out
        };
        assert_eq!(
            collect(&[&[1, 2], &[3, 4, 5]]),
            vec![
                vec![1, 3],
                vec![1, 4],
                vec![1, 5],
                vec![2, 3],
                vec![2, 4],
                vec![2, 5]
            ]
        );
        assert_eq!(collect(&[]), vec![Vec::<u8>::new()]);
        assert!(collect(&[&[1, 2], &[]]).is_empty());
        // A break ends the walk at once.
        let mut visited = 0;
        for_each_product(&[&[1u8, 2][..], &[3, 4, 5]], |_| {
            visited += 1;
            if visited == 4 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(visited, 4);
    }

    #[test]
    fn deadlines_expire() {
        assert!(!Deadline::none().expired());
        assert!(Deadline::none().remaining().is_none());
        assert!(!Deadline::after(Duration::from_secs(3600)).expired());
        let past = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(past.expired());
        assert_eq!(past.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn cancellation_expires_deadlines() {
        let token = CancelToken::new();
        let unlimited = Deadline::none().with_cancel(token.clone());
        let timed = Deadline::after(Duration::from_secs(3600)).with_cancel(token.clone());
        assert!(!unlimited.expired());
        assert!(!timed.expired());
        assert!(!unlimited.cancelled());

        // Cancelling any clone flips every deadline holding the token.
        token.clone().cancel();
        assert!(token.is_cancelled());
        assert!(unlimited.expired() && unlimited.cancelled());
        assert!(timed.expired() && timed.cancelled());
        assert_eq!(timed.remaining(), Some(Duration::ZERO));
        // A deadline without the token is unaffected.
        assert!(!Deadline::none().expired());
    }

    #[test]
    fn insertion_order_is_preserved() {
        let mut set = OrderedSet::new();
        assert!(set.insert(3));
        assert!(set.insert(1));
        assert!(!set.insert(3));
        assert!(set.insert(2));
        let items: Vec<i32> = set.iter().copied().collect();
        assert_eq!(items, vec![3, 1, 2]);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn membership_and_removal() {
        let mut set: OrderedSet<&str> = ["a", "b", "c"].into_iter().collect();
        assert!(set.contains(&"b"));
        assert!(set.remove(&"b"));
        assert!(!set.contains(&"b"));
        assert!(!set.remove(&"b"));
        assert_eq!(set.as_slice(), &["a", "c"]);
    }

    #[test]
    fn equality_ignores_order() {
        let a: OrderedSet<i32> = [1, 2, 3].into_iter().collect();
        let b: OrderedSet<i32> = [3, 2, 1].into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn extend_counts_new_items() {
        let mut set: OrderedSet<i32> = [1, 2].into_iter().collect();
        assert_eq!(set.extend([2, 3, 4]), 2);
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn clear_empties() {
        let mut set: OrderedSet<i32> = [1].into_iter().collect();
        set.clear();
        assert!(set.is_empty());
    }
}

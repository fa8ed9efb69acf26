//! The order-preserving parallel map behind the engine's batch runner.
//!
//! Inference runs are serial; parallelism lives only where work is coarse,
//! across the independent runs of one batch.  The build environment is
//! offline, so instead of `rayon` the map is built directly on
//! [`std::thread::scope`]:
//!
//! * [`par_map`] — order-preserving parallel map over a slice;
//! * [`effective_workers`] — resolves the user-facing `parallelism` knob
//!   (`0` = one worker per available core).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves the user-facing `parallelism` knob to a worker count:
/// `0` means "one worker per available core", any other value is taken
/// literally. The result is always at least 1.
pub fn effective_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Maps `f` over `items` on `workers` threads, preserving order.
///
/// With `workers <= 1` this is a plain sequential map.
pub fn par_map<T, U>(items: &[T], workers: usize, f: impl Fn(&T) -> U + Sync) -> Vec<U>
where
    T: Sync,
    U: Send,
{
    let workers = workers.min(items.len().max(1));
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    // Small chunks keep the load balanced when per-item cost is skewed.
    let chunk_size = (items.len() / (workers * 8)).clamp(1, 256);
    let cursor = AtomicUsize::new(0);
    let chunks: Mutex<Vec<(usize, Vec<U>)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let start = cursor.fetch_add(chunk_size, Ordering::Relaxed);
                if start >= items.len() {
                    return;
                }
                let end = (start + chunk_size).min(items.len());
                let mapped: Vec<U> = items[start..end].iter().map(&f).collect();
                chunks.lock().unwrap().push((start, mapped));
            });
        }
    });

    let mut chunks = chunks.into_inner().unwrap();
    chunks.sort_by_key(|(start, _)| *start);
    let out: Vec<U> = chunks.into_iter().flat_map(|(_, mapped)| mapped).collect();
    debug_assert_eq!(out.len(), items.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_workers_resolves_auto() {
        assert!(effective_workers(0) >= 1);
        assert_eq!(effective_workers(3), 3);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        for workers in [1usize, 2, 5] {
            let doubled = par_map(&items, workers, |&x| x * 2);
            assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
    }
}

//! Deterministic work-stealing parallel search primitives, shared by the
//! verifier's sweeps, the synthesizer's layer construction and the engine's
//! batch runner.
//!
//! The verifier's hot path is embarrassingly parallel — evaluate a pure
//! predicate over an indexed space of candidate×value tuples, short-circuit
//! on the first counterexample — but *which* counterexample is reported
//! matters: the whole CEGIS loop, the counterexample-list cache and the
//! experiment tables all assume the verifier is a deterministic function of
//! its inputs.  The primitives here therefore guarantee **serial-equivalent
//! results**: the reported match is always the one with the least index under
//! the enumeration order, regardless of which worker finds a match first.
//!
//! The build environment is offline, so instead of `rayon` these are built
//! directly on [`std::thread::scope`]:
//!
//! * [`find_first`] — parallel short-circuiting search over `0..len`;
//! * [`par_map`] — order-preserving parallel map over a slice;
//! * [`effective_workers`] — resolves the user-facing `parallelism` knob
//!   (`0` = one worker per available core).
//!
//! Both primitives hand out *contiguous chunks* of the index space through a
//! monotonically increasing atomic cursor, so workers sweep the space in
//! roughly enumeration order and the short-circuit cutoff stays tight.

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

/// One decided index: either a match or an error produced by `test`.
enum Decision<T, E> {
    Match(T),
    Fail(E),
}

/// Searches `0..len` for the least index at which `test` decides the
/// outcome — by returning `Ok(Some(_))` (a match) or `Err(_)` (an error) —
/// and returns that outcome.  `Ok(None)` means no index decided.
///
/// With `workers <= 1` this is a plain sequential loop. With more workers the
/// index space is handed out in contiguous chunks of `chunk_size`; a decided
/// index becomes a *cutoff* above which chunks are skipped, so the search
/// still short-circuits, while indices below the cutoff are always fully
/// tested — which is exactly what makes the result serial-equivalent.
///
/// `test` must be a pure function of the index (calls may happen on any
/// worker thread, and indices above a decided one may or may not be tested).
pub fn find_first<T, E>(
    len: usize,
    workers: usize,
    chunk_size: usize,
    test: impl Fn(usize) -> Result<Option<T>, E> + Sync,
) -> Result<Option<T>, E>
where
    T: Send,
    E: Send,
{
    let workers = workers.min(len.max(1));
    if workers <= 1 {
        for index in 0..len {
            match test(index) {
                Ok(None) => {}
                Ok(Some(found)) => return Ok(Some(found)),
                Err(e) => return Err(e),
            }
        }
        return Ok(None);
    }

    let chunk_size = chunk_size.max(1);
    let cursor = AtomicUsize::new(0);
    // Least index that decided an outcome so far; indices at or above it can
    // no longer influence the result.
    let cutoff = AtomicUsize::new(usize::MAX);
    let best: Mutex<Option<(usize, Decision<T, E>)>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let start = cursor.fetch_add(chunk_size, Ordering::Relaxed);
                if start >= len || start >= cutoff.load(Ordering::Acquire) {
                    return;
                }
                let end = (start + chunk_size).min(len);
                for index in start..end {
                    if index >= cutoff.load(Ordering::Acquire) {
                        break;
                    }
                    let decision = match test(index) {
                        Ok(None) => continue,
                        Ok(Some(found)) => Decision::Match(found),
                        Err(e) => Decision::Fail(e),
                    };
                    let mut guard = best.lock().unwrap();
                    if guard.as_ref().is_none_or(|(held, _)| index < *held) {
                        *guard = Some((index, decision));
                        cutoff.fetch_min(index, Ordering::Release);
                    }
                    // Every chunk this worker could claim from here on starts
                    // above `index`, hence above the cutoff: stop entirely.
                    return;
                }
            });
        }
    });

    match best.into_inner().unwrap() {
        None => Ok(None),
        Some((_, Decision::Match(found))) => Ok(Some(found)),
        Some((_, Decision::Fail(e))) => Err(e),
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
    // Small chunks keep the load balanced when per-item cost is skewed
    // (predicate evaluation time grows with value size).
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

/// Retains, in order, the items for which `keep` returns true, evaluating
/// `keep` in parallel. Serial-equivalent to `items.retain(keep)`.
pub fn par_retain<T>(items: &mut Vec<T>, workers: usize, keep: impl Fn(&T) -> bool + Sync)
where
    T: Send + Sync,
{
    if workers <= 1 {
        items.retain(|item| keep(item));
        return;
    }
    let flags = par_map(items, workers, keep);
    let mut flags = flags.into_iter();
    items.retain(|_| flags.next().expect("one flag per item"));
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
    fn find_first_matches_serial_on_every_target() {
        // For every target index, parallel search must report exactly that
        // index even when later indices also match.
        for len in [0usize, 1, 7, 100] {
            for target in 0..len.min(10) {
                for workers in [1usize, 2, 4, 7] {
                    let result: Result<Option<usize>, ()> =
                        find_first(len, workers, 3, |i| Ok((i >= target).then_some(i)));
                    assert_eq!(
                        result,
                        Ok(Some(target)),
                        "len={len} target={target} workers={workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn find_first_returns_none_when_nothing_matches() {
        for workers in [1usize, 2, 8] {
            let result: Result<Option<usize>, ()> = find_first(1000, workers, 16, |_| Ok(None));
            assert_eq!(result, Ok(None));
        }
    }

    #[test]
    fn errors_behave_like_matches_for_ordering() {
        // An error at index 10, a match at index 5: the match wins because it
        // is earlier in enumeration order — exactly what a serial loop does.
        for workers in [1usize, 4] {
            let result: Result<Option<&str>, &str> = find_first(100, workers, 4, |i| match i {
                5 => Ok(Some("match")),
                10 => Err("boom"),
                _ => Ok(None),
            });
            assert_eq!(result, Ok(Some("match")));
            // And the reverse: an earlier error wins over a later match.
            let result: Result<Option<&str>, &str> = find_first(100, workers, 4, |i| match i {
                5 => Err("boom"),
                10 => Ok(Some("match")),
                _ => Ok(None),
            });
            assert_eq!(result, Err("boom"));
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        for workers in [1usize, 2, 5] {
            let doubled = par_map(&items, workers, |&x| x * 2);
            assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_retain_is_serial_equivalent() {
        for workers in [1usize, 3, 8] {
            let mut items: Vec<usize> = (0..500).collect();
            par_retain(&mut items, workers, |&x| x % 3 == 0);
            let expected: Vec<usize> = (0..500).filter(|&x| x % 3 == 0).collect();
            assert_eq!(items, expected);
        }
    }
}

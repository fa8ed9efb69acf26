//! Bounded admission: the load-shedding queue between connections and the
//! worker pool.
//!
//! Admission is where the server turns *overload* into *backpressure*
//! instead of latency collapse.  The queue is strictly bounded
//! ([`crate::Tunables::max_queue_depth`]); a submit beyond the bound (or
//! beyond the submitting client's fair share,
//! [`crate::Tunables::per_client_quota`]) is rejected immediately with a
//! [`ShedReason`] and a `retry_after_ms` hint that scales with the current
//! backlog per worker — clients learn to back off harder the more overloaded
//! the server is.  The hint carries ±25% of deterministic jitter: identical
//! hints to a burst of shed clients would synchronize their retries into a
//! thundering herd that re-overloads the queue at the same instant.
//!
//! The fairness key is the client's *address* (like the rate limiter's
//! buckets), not its connection id: runs outlive connections now, so a
//! connection-keyed quota could be laundered away — submit a full quota,
//! disconnect (the runs keep executing under the disconnect grace),
//! reconnect with a fresh id and a fresh quota, repeat.  An address-keyed
//! slot stays charged until the run itself finishes, whatever happened to
//! the socket it arrived on.  Behind a reverse proxy every client shares
//! the proxy's address — enable PROXY protocol support
//! ([`crate::ServerConfig::proxy_protocol`]) to recover real client
//! addresses there.
//!
//! The bounds themselves are read from the server's [`HotTunables`] on
//! every submit, so a hot config reload resizes the queue and quotas for
//! the very next request without restarting workers.
//!
//! The queue is also the drain gate: [`Admission::begin_drain`] atomically
//! stops admission (everything new sheds with [`ShedReason::Draining`])
//! while letting queued and running work finish, and
//! [`Admission::wait_idle`] lets the drain coordinator wait for the backlog
//! to clear.  All waiting is condvar-based; locks are poison-tolerant so a
//! panicking worker cannot wedge admission for everyone else.

use std::collections::{HashMap, VecDeque};
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::config::HotTunables;
use crate::protocol::ShedReason;
use crate::registry::splitmix64;

/// Ceiling on the backoff hint handed to shed clients.
const MAX_RETRY_AFTER_MS: u64 = 30_000;

/// The bounded admission queue.  `J` is the job payload; the queue itself
/// only interprets the submitting client's address (for fairness
/// accounting).
#[derive(Debug)]
pub struct Admission<J> {
    state: Mutex<State<J>>,
    wake: Condvar,
    workers: usize,
    tunables: Arc<HotTunables>,
    /// Stream state for the retry-hint jitter (SplitMix64 counter).
    jitter: AtomicU64,
}

#[derive(Debug)]
struct State<J> {
    queue: VecDeque<(IpAddr, J)>,
    /// Queued + running jobs per client address.
    in_flight: HashMap<IpAddr, usize>,
    /// Jobs currently running on workers.
    active: usize,
    draining: bool,
    shutdown: bool,
}

/// What a worker's [`Admission::next`] poll produced.
#[derive(Debug)]
pub enum Next<J> {
    /// A job to execute, with the address of the client that submitted it.
    Job(IpAddr, J),
    /// Nothing arrived within the patience window; poll again.
    Idle,
    /// The queue is shut down and empty; the worker should exit.
    Shutdown,
}

impl<J> Admission<J> {
    /// Creates a queue reading its depth, quota, and retry base from the
    /// server's hot tunables on every submit.
    pub fn new(workers: usize, tunables: Arc<HotTunables>) -> Self {
        Admission {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                in_flight: HashMap::new(),
                active: 0,
                draining: false,
                shutdown: false,
            }),
            wake: Condvar::new(),
            workers: workers.max(1),
            tunables,
            jitter: AtomicU64::new(0x005e_ed0f_ad15_5105),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<J>> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The backoff hint: the base interval scaled by how many jobs are
    /// already waiting or running per worker, then spread by ±25% of
    /// bounded jitter so a burst of simultaneous sheds does not come back
    /// as a synchronized retry herd.
    fn retry_hint(&self, state: &State<J>, base_ms: u64) -> u64 {
        let backlog_per_worker = (state.queue.len() + state.active) as u64 / self.workers as u64;
        let hint = base_ms
            .saturating_mul(1 + backlog_per_worker)
            .min(MAX_RETRY_AFTER_MS);
        let spread = hint / 2;
        let rand = splitmix64(self.jitter.fetch_add(1, Ordering::Relaxed));
        (hint - hint / 4 + rand % (spread + 1)).clamp(1, MAX_RETRY_AFTER_MS)
    }

    /// Admits a job, or sheds it with a reason and a backoff hint.  Returns
    /// the queue depth the job joined at (including itself).
    #[allow(clippy::result_large_err)]
    pub fn submit(&self, client: IpAddr, job: J) -> Result<usize, (ShedReason, u64)> {
        let tunables = self.tunables.get();
        let mut state = self.lock();
        if state.draining || state.shutdown {
            let hint = self.retry_hint(&state, tunables.retry_after_base_ms);
            return Err((ShedReason::Draining, hint));
        }
        if state.in_flight.get(&client).copied().unwrap_or(0) >= tunables.per_client_quota {
            let hint = self.retry_hint(&state, tunables.retry_after_base_ms);
            return Err((ShedReason::ClientQuota, hint));
        }
        if state.queue.len() >= tunables.max_queue_depth {
            let hint = self.retry_hint(&state, tunables.retry_after_base_ms);
            return Err((ShedReason::QueueFull, hint));
        }
        *state.in_flight.entry(client).or_insert(0) += 1;
        state.queue.push_back((client, job));
        self.wake.notify_one();
        Ok(state.queue.len())
    }

    /// Takes the next job, waiting up to `patience` for one to arrive.
    /// Workers call this in a loop; [`Next::Idle`] lets them interleave
    /// shutdown checks with waiting.
    pub fn next(&self, patience: Duration) -> Next<J> {
        let mut state = self.lock();
        if let Some((client, job)) = state.queue.pop_front() {
            state.active += 1;
            return Next::Job(client, job);
        }
        if state.shutdown {
            return Next::Shutdown;
        }
        let (mut state, _) = self
            .wake
            .wait_timeout(state, patience)
            .unwrap_or_else(|p| p.into_inner());
        if let Some((client, job)) = state.queue.pop_front() {
            state.active += 1;
            return Next::Job(client, job);
        }
        if state.shutdown {
            Next::Shutdown
        } else {
            Next::Idle
        }
    }

    /// Marks a job taken by [`Admission::next`] as finished, releasing its
    /// client-quota slot and waking idle waiters.
    pub fn finish(&self, client: IpAddr) {
        let mut state = self.lock();
        state.active = state.active.saturating_sub(1);
        release_quota(&mut state.in_flight, client);
        self.wake.notify_all();
    }

    /// Stops admission: every later submit sheds with
    /// [`ShedReason::Draining`].  Queued and running jobs are unaffected.
    /// Idempotent.
    pub fn begin_drain(&self) {
        self.lock().draining = true;
        self.wake.notify_all();
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }

    /// Shuts the queue down: workers drain remaining jobs, then see
    /// [`Next::Shutdown`].
    pub fn shutdown(&self) {
        self.lock().shutdown = true;
        self.wake.notify_all();
    }

    /// Waits until no job is queued or running, up to `timeout`.  Returns
    /// whether the queue went idle in time.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            if state.queue.is_empty() && state.active == 0 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            state = self
                .wake
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }

    /// Empties the queue, returning the jobs that never started (their
    /// quota slots are released).  The drain coordinator uses this to
    /// cancel queued work when the drain patience runs out.
    pub fn drain_queue(&self) -> Vec<(IpAddr, J)> {
        let mut state = self.lock();
        let jobs: Vec<(IpAddr, J)> = state.queue.drain(..).collect();
        for (client, _) in &jobs {
            release_quota(&mut state.in_flight, *client);
        }
        self.wake.notify_all();
        jobs
    }

    /// Current load: `(queued, active)`.
    pub fn load(&self) -> (usize, usize) {
        let state = self.lock();
        (state.queue.len(), state.active)
    }
}

fn release_quota(in_flight: &mut HashMap<IpAddr, usize>, client: IpAddr) {
    if let Some(count) = in_flight.get_mut(&client) {
        *count = count.saturating_sub(1);
        if *count == 0 {
            in_flight.remove(&client);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Tunables;

    fn ip(last: u8) -> IpAddr {
        IpAddr::from([10, 0, 0, last])
    }

    fn tunables(depth: usize, quota: usize, base_ms: u64) -> Arc<HotTunables> {
        Arc::new(HotTunables::new(Tunables {
            max_queue_depth: depth,
            per_client_quota: quota,
            retry_after_base_ms: base_ms,
            ..Tunables::default()
        }))
    }

    #[test]
    fn bounds_quota_and_shed_reasons() {
        // 1 worker, depth 2, quota 2.
        let queue: Admission<&'static str> = Admission::new(1, tunables(2, 2, 100));
        assert_eq!(queue.submit(ip(1), "a"), Ok(1));
        assert_eq!(queue.submit(ip(1), "b"), Ok(2));
        // Client 1 is at quota; client 2 hits the depth bound instead.
        let (reason, hint) = queue.submit(ip(1), "c").unwrap_err();
        assert_eq!(reason, ShedReason::ClientQuota);
        assert!(hint >= 100, "jitter floor is -25% of the base hint: {hint}");
        let (reason, _) = queue.submit(ip(2), "d").unwrap_err();
        assert_eq!(reason, ShedReason::QueueFull);

        // A worker takes one; the freed depth admits client 2, but client 1
        // stays at quota until `finish` (quota covers queued + running).
        assert!(matches!(
            queue.next(Duration::from_millis(1)),
            Next::Job(client, "a") if client == ip(1)
        ));
        assert!(matches!(
            queue.submit(ip(1), "e"),
            Err((ShedReason::ClientQuota, _))
        ));
        assert_eq!(queue.submit(ip(2), "f"), Ok(2));
        queue.finish(ip(1));
        // Client 1's quota slot is freed, but the depth bound (2) is full
        // again ("b" and "f"): the shed reason switches.
        let (reason, _) = queue.submit(ip(1), "g").unwrap_err();
        assert_eq!(reason, ShedReason::QueueFull);
        assert_eq!(queue.load(), (2, 0));
    }

    #[test]
    fn quota_is_keyed_by_address_and_survives_reconnects() {
        // The connection-laundering attack: submit a full quota, "drop the
        // connection" (runs keep executing), come back as a fresh
        // connection, submit again.  The address-keyed quota must not care
        // which socket the submits arrived on.
        let queue: Admission<&'static str> = Admission::new(1, tunables(64, 2, 100));
        assert_eq!(queue.submit(ip(1), "a"), Ok(1));
        assert_eq!(queue.submit(ip(1), "b"), Ok(2));
        // The "reconnect": same address, notionally a brand-new connection.
        let (reason, _) = queue.submit(ip(1), "laundered").unwrap_err();
        assert_eq!(reason, ShedReason::ClientQuota);
        // Only finishing a run frees the slot — not any connection event.
        assert!(matches!(
            queue.next(Duration::from_millis(1)),
            Next::Job(..)
        ));
        queue.finish(ip(1));
        assert_eq!(queue.submit(ip(1), "c"), Ok(2));
    }

    #[test]
    fn retry_hint_scales_with_backlog_and_jitter_spreads_the_herd() {
        let queue: Admission<usize> = Admission::new(1, tunables(4, 64, 100));
        for job in 0..4 {
            queue.submit(ip(9), job).unwrap();
        }
        // 4 queued jobs on 1 worker: the deterministic hint is
        // base * (1 + 4) = 500 ms; jitter keeps it within ±25%.
        let hints: Vec<u64> = (0..32)
            .map(|_| queue.submit(ip(9), 99).unwrap_err().1)
            .collect();
        for &hint in &hints {
            assert!((375..=625).contains(&hint), "hint {hint} out of band");
        }
        // The herd is actually spread: a burst of sheds does not hand every
        // client the same retry instant.
        let distinct: std::collections::HashSet<u64> = hints.iter().copied().collect();
        assert!(distinct.len() > 8, "only {} distinct hints", distinct.len());
    }

    #[test]
    fn reloaded_tunables_govern_the_next_submit() {
        let hot = tunables(1, 8, 100);
        let queue: Admission<usize> = Admission::new(1, hot.clone());
        queue.submit(ip(1), 0).unwrap();
        assert!(matches!(
            queue.submit(ip(1), 1),
            Err((ShedReason::QueueFull, _))
        ));
        // A hot reload deepens the queue: the very next submit is admitted.
        let mut wider = (*hot.get()).clone();
        wider.max_queue_depth = 4;
        hot.swap(wider);
        assert_eq!(queue.submit(ip(1), 1), Ok(2));
    }

    #[test]
    fn drain_stops_admission_and_idles() {
        let queue: Admission<usize> = Admission::new(1, tunables(8, 8, 10));
        queue.submit(ip(1), 7).unwrap();
        queue.begin_drain();
        assert!(queue.is_draining());
        assert!(matches!(
            queue.submit(ip(1), 8),
            Err((ShedReason::Draining, _))
        ));
        // Still one queued job: not idle yet.
        assert!(!queue.wait_idle(Duration::from_millis(10)));
        let leftover = queue.drain_queue();
        assert_eq!(leftover, vec![(ip(1), 7)]);
        assert!(queue.wait_idle(Duration::from_millis(10)));
        // Quota slot was released with the queue entry.
        assert!(queue.load() == (0, 0));
        queue.shutdown();
        assert!(matches!(
            queue.next(Duration::from_millis(1)),
            Next::Shutdown
        ));
    }
}

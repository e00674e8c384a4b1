//! The daemon's job table: every submission becomes a [`Job`] that moves
//! `Queued → Running → Done/Failed` (or `Cancelled` while still queued),
//! accumulating progress events along the way. That record is the only
//! job state machine in the daemon: each move also moves the table's
//! [`Lifecycle`] counts, which `/metrics` reads. Any number of followers —
//! the submitting connection in stream mode, later `GET /jobs/<id>`
//! polls — observe the same record; a condvar wakes streamers as events
//! land. The table also carries the in-flight index keyed by content
//! hash, which is what lets a duplicate submission coalesce onto a job
//! that is already queued or running instead of simulating again.
//! Finished records stay queryable by id until [`MAX_RETAINED_BYTES`] of
//! them have piled up; then the oldest go first. A record keeps no trace:
//! it keeps the submission text ([`Job::text`]) that `/trace` re-runs
//! instead, and is charged its document, that text, its events and
//! [`RECORD_OVERHEAD_BYTES`].

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use metrics::Json;

/// Lock a mutex, shrugging off poisoning. A scenario that panics inside a
/// worker must not wedge the daemon: every critical section in this module
/// is a single-field transition, so the data is consistent even when the
/// holder died mid-section, and recovering beats panicking every follower.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Where a job stands. Terminal states carry what the follower needs.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is simulating it.
    Running,
    /// Finished; the deterministic result document.
    Done(Arc<String>),
    /// The run failed (scenario panicked or the cache write trapped a
    /// fatal I/O error).
    Failed(String),
    /// Cancelled while still queued; it never simulated.
    Cancelled,
}

impl JobState {
    /// Short wire label for status JSON.
    pub fn label(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Has the job reached a state it can never leave?
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

struct JobInner {
    state: JobState,
    events: Vec<Json>,
    /// When a worker took the job (`Queued → Running`).
    started: Option<Instant>,
    /// When the job entered its terminal state.
    ended: Option<Instant>,
}

/// One submission's shared record.
pub struct Job {
    /// Job id, unique per daemon process.
    pub id: u64,
    /// Content hash of the compiled scenario.
    pub hash: u64,
    /// Scenario name (diagnostics; the hash is the identity).
    pub name: String,
    /// The submitted scenario text: the recipe `/trace` and `/flows`
    /// compile and run again.
    pub text: String,
    admitted: Instant,
    inner: Mutex<JobInner>,
    changed: Condvar,
    /// The table's counts, moved by every transition of this job.
    lifecycle: Arc<Mutex<Lifecycle>>,
}

/// Where every job the table admitted stands: how many are queued or
/// running now, and how many reached each terminal state.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Lifecycle {
    /// Jobs waiting for a worker (gauge).
    pub queued: usize,
    /// Jobs a worker is simulating (gauge).
    pub running: usize,
    /// Jobs that reached `Done`.
    pub completed: usize,
    /// Jobs that reached `Failed`: the scenario panicked, or the daemon
    /// refused the job because it was draining.
    pub failed: usize,
    /// Jobs that reached `Cancelled`: a `DELETE` won while they were queued.
    pub cancelled: usize,
}

impl Lifecycle {
    /// Jobs ever admitted: each is in exactly one count.
    pub fn admitted(&self) -> usize {
        self.queued + self.running + self.completed + self.failed + self.cancelled
    }

    /// The count a job in `state` is held in.
    fn count(&mut self, state: &JobState) -> &mut usize {
        match state {
            JobState::Queued => &mut self.queued,
            JobState::Running => &mut self.running,
            JobState::Done(_) => &mut self.completed,
            JobState::Failed(_) => &mut self.failed,
            JobState::Cancelled => &mut self.cancelled,
        }
    }
}

/// What a blocking follower gets next.
#[derive(Debug, Clone, PartialEq)]
pub enum Follow {
    /// New progress events since the follower's cursor.
    Events(Vec<Json>),
    /// Terminal: the job's final state (never `Queued`/`Running`).
    Finished(JobState),
}

impl Job {
    /// A fresh `Queued` job, counted as queued from the start.
    fn new(
        id: u64,
        hash: u64,
        name: String,
        text: String,
        lifecycle: Arc<Mutex<Lifecycle>>,
    ) -> Arc<Job> {
        lock_recover(&lifecycle).queued += 1;
        Arc::new(Job {
            id,
            hash,
            name,
            text,
            admitted: Instant::now(),
            inner: Mutex::new(JobInner {
                state: JobState::Queued,
                events: Vec::new(),
                started: None,
                ended: None,
            }),
            changed: Condvar::new(),
            lifecycle,
        })
    }

    /// Current state (cloned).
    pub fn state(&self) -> JobState {
        lock_recover(&self.inner).state.clone()
    }

    /// All events recorded so far (cloned).
    pub fn events(&self) -> Vec<Json> {
        lock_recover(&self.inner).events.clone()
    }

    /// Append a progress event and wake followers.
    pub fn push_event(&self, event: Json) {
        let mut inner = lock_recover(&self.inner);
        inner.events.push(event);
        self.changed.notify_all();
    }

    /// Move `Queued → Running`. Returns `false` (a no-op) if the job was
    /// cancelled first — the executor must then skip the simulation.
    pub fn start(&self) -> bool {
        let mut inner = lock_recover(&self.inner);
        if inner.state != JobState::Queued {
            return false;
        }
        self.transition(&mut inner, JobState::Running);
        true
    }

    /// Enter a terminal state and wake every follower. No-op if already
    /// terminal (a cancel that raced a completion loses).
    pub fn finish(&self, state: JobState) {
        assert!(state.is_terminal(), "finish takes a terminal state");
        let mut inner = lock_recover(&self.inner);
        if !inner.state.is_terminal() {
            self.transition(&mut inner, state);
        }
    }

    /// Cancel if still queued. `true` when the cancellation won.
    pub fn cancel(&self) -> bool {
        let mut inner = lock_recover(&self.inner);
        if inner.state != JobState::Queued {
            return false;
        }
        self.transition(&mut inner, JobState::Cancelled);
        true
    }

    /// The one place a job's state changes, from `Queued` or `Running` to
    /// `to`: stamp the start or end time, move the job from one lifecycle
    /// count to the next, and only then wake the followers — so anyone
    /// who has seen the new state (a `?wait=1` client, say) finds it
    /// already counted.
    fn transition(&self, inner: &mut JobInner, to: JobState) {
        let now = Some(Instant::now());
        if to.is_terminal() {
            inner.ended = now;
        } else {
            inner.started = now;
        }
        {
            let mut lifecycle = lock_recover(&self.lifecycle);
            *lifecycle.count(&inner.state) -= 1;
            *lifecycle.count(&to) += 1;
        }
        inner.state = to;
        self.changed.notify_all();
    }

    /// Wall-clock `(wait, run)`: admission until a worker took the job,
    /// and from then until its terminal state — each up to now while it is
    /// still going on. `run` is `None` for a job no worker has started.
    pub fn timing(&self) -> (Duration, Option<Duration>) {
        let inner = lock_recover(&self.inner);
        let end = inner.ended.unwrap_or_else(Instant::now);
        match inner.started {
            Some(started) => (started - self.admitted, Some(end - started)),
            None => (end - self.admitted, None),
        }
    }

    /// What this record is charged against [`MAX_RETAINED_BYTES`] once it
    /// is terminal: the result document (or failure message), the
    /// submission text, the progress events as they render, and
    /// [`RECORD_OVERHEAD_BYTES`].
    fn retained_bytes(&self) -> usize {
        let inner = lock_recover(&self.inner);
        let payload = match &inner.state {
            JobState::Done(document) => document.len(),
            JobState::Failed(message) => message.len(),
            _ => 0,
        };
        let events: usize = inner.events.iter().map(|e| e.render_compact().len()).sum();
        payload + self.text.len() + events + RECORD_OVERHEAD_BYTES
    }

    /// Block until there is something past `cursor`: either new events
    /// (cursor advances) or the terminal state once all events are drained.
    pub fn follow(&self, cursor: &mut usize) -> Follow {
        let mut inner = lock_recover(&self.inner);
        loop {
            if inner.events.len() > *cursor {
                let fresh = inner.events[*cursor..].to_vec();
                *cursor = inner.events.len();
                return Follow::Events(fresh);
            }
            if inner.state.is_terminal() {
                return Follow::Finished(inner.state.clone());
            }
            inner = self
                .changed
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Bytes of terminal job records (result document, submission text,
/// events) kept for `GET /jobs/<id>` and its `/result`, `/trace`, `/flows`
/// before the oldest are evicted. Results survive eviction anyway — they
/// live in the content-addressed cache — so this only bounds status and
/// trace history, keeping a long-lived daemon's footprint flat however
/// fast submissions arrive.
pub const MAX_RETAINED_BYTES: usize = 64 * 1024 * 1024;

/// Charged to every terminal record on top of its payload (the `Job`, its
/// name, map node and locks), so the budget bounds the record count too:
/// at most 65 536 empty records.
const RECORD_OVERHEAD_BYTES: usize = 1024;

/// A registered job and, once it is terminal, what it is charged.
struct Record {
    job: Arc<Job>,
    /// `None` while the job is live; live records are never evicted.
    charged: Option<usize>,
}

/// The id-ordered registry: ids rise with admission, so iteration order
/// is age order.
#[derive(Default)]
struct Registry {
    records: BTreeMap<u64, Record>,
    /// How many records are terminal, and the sum of their charges.
    terminal: usize,
    retained_bytes: usize,
}

/// The daemon's registry of jobs, plus the in-flight (hash → job) index
/// used to coalesce duplicate submissions.
#[derive(Default)]
pub struct JobTable {
    next_id: AtomicU64,
    registry: Mutex<Registry>,
    in_flight: Mutex<HashMap<u64, Arc<Job>>>,
    coalesced: AtomicUsize,
    lifecycle: Arc<Mutex<Lifecycle>>,
}

/// How a submission was admitted.
pub enum Admission {
    /// A new job was created; the caller must dispatch it.
    New(Arc<Job>),
    /// An identical job (same content hash) is already in flight; the
    /// caller follows it instead of dispatching anything.
    Coalesced(Arc<Job>),
}

/// A snapshot of the table's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// The queued and running gauges and the terminal totals.
    pub lifecycle: Lifecycle,
    /// Submissions coalesced onto an in-flight job.
    pub coalesced: usize,
    /// Terminal records currently retained.
    pub retained: usize,
    /// What those records are charged against [`MAX_RETAINED_BYTES`].
    pub retained_bytes: usize,
}

impl JobTable {
    /// Fresh, empty table.
    pub fn new() -> JobTable {
        JobTable::default()
    }

    /// Admit a submission of scenario `text` for `hash`: attach to an
    /// in-flight twin when one exists, otherwise register a new queued job.
    pub fn admit(&self, hash: u64, name: &str, text: &str) -> Admission {
        let mut in_flight = lock_recover(&self.in_flight);
        if let Some(job) = in_flight.get(&hash) {
            if !job.state().is_terminal() {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                return Admission::Coalesced(Arc::clone(job));
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let job = Job::new(
            id,
            hash,
            name.to_string(),
            text.to_string(),
            Arc::clone(&self.lifecycle),
        );
        in_flight.insert(hash, Arc::clone(&job));
        let record = Record {
            job: Arc::clone(&job),
            charged: None,
        };
        lock_recover(&self.registry).records.insert(id, record);
        Admission::New(job)
    }

    /// Retire a job that has just reached a terminal state: drop it from
    /// the in-flight index (so a resubmission starts fresh instead of
    /// attaching to a finished record), charge its record against
    /// [`MAX_RETAINED_BYTES`], and evict the oldest terminal records until
    /// the budget holds. Live jobs are never evicted, and neither is `job`
    /// itself — alone it may exceed the budget, so that its status and
    /// trace still answer right after completion. Followers hold their own
    /// `Arc`, so an evicted record only leaves the id lookup. Idempotent.
    pub fn retire(&self, job: &Job) {
        {
            let mut in_flight = lock_recover(&self.in_flight);
            if in_flight.get(&job.hash).is_some_and(|j| j.id == job.id) {
                in_flight.remove(&job.hash);
            }
        }
        debug_assert!(job.state().is_terminal(), "retire takes a terminal job");
        let charge = job.retained_bytes();
        let mut registry = lock_recover(&self.registry);
        match registry.records.get_mut(&job.id) {
            Some(record) if record.charged.is_none() => record.charged = Some(charge),
            _ => return, // retired before, or already evicted
        }
        registry.terminal += 1;
        registry.retained_bytes += charge;
        while registry.retained_bytes > MAX_RETAINED_BYTES {
            let oldest = registry
                .records
                .iter()
                .find_map(|(&id, r)| r.charged.filter(|_| id != job.id).map(|c| (id, c)));
            let Some((id, charged)) = oldest else {
                break; // only `job` is left
            };
            registry.records.remove(&id);
            registry.terminal -= 1;
            registry.retained_bytes -= charged;
        }
    }

    /// Look up a job by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        let registry = lock_recover(&self.registry);
        registry.records.get(&id).map(|r| Arc::clone(&r.job))
    }

    /// The table's counters. The lifecycle counts are one consistent
    /// snapshot, as are the retention pair.
    pub fn stats(&self) -> TableStats {
        let lifecycle = *lock_recover(&self.lifecycle);
        let registry = lock_recover(&self.registry);
        TableStats {
            lifecycle,
            coalesced: self.coalesced.load(Ordering::Relaxed),
            retained: registry.terminal,
            retained_bytes: registry.retained_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_follow() {
        let table = JobTable::new();
        let Admission::New(job) = table.admit(42, "s", "") else {
            panic!("fresh hash must admit a new job")
        };
        assert_eq!(job.state(), JobState::Queued);
        assert!(job.start());
        job.push_event(Json::Str("e0".into()));
        job.push_event(Json::Str("e1".into()));
        let mut cursor = 0;
        assert_eq!(
            job.follow(&mut cursor),
            Follow::Events(vec![Json::Str("e0".into()), Json::Str("e1".into())])
        );
        let doc = Arc::new("{}\n".to_string());
        job.finish(JobState::Done(Arc::clone(&doc)));
        table.retire(&job);
        assert_eq!(
            job.follow(&mut cursor),
            Follow::Finished(JobState::Done(doc))
        );
        assert_eq!(table.get(job.id).unwrap().id, job.id);
        assert!(table.get(999).is_none());
    }

    #[test]
    fn duplicate_hash_coalesces_until_retired() {
        let table = JobTable::new();
        let Admission::New(first) = table.admit(7, "a", "") else {
            panic!("new")
        };
        let Admission::Coalesced(twin) = table.admit(7, "a", "") else {
            panic!("in-flight twin must coalesce")
        };
        assert_eq!(twin.id, first.id);
        assert_eq!(
            table.stats().coalesced,
            1,
            "one coalesced submission counted"
        );
        // A different hash is its own job.
        let Admission::New(other) = table.admit(8, "b", "") else {
            panic!("new")
        };
        assert_ne!(other.id, first.id);
        // After the job retires, the same hash admits fresh again.
        first.start();
        first.finish(JobState::Done(Arc::new(String::new())));
        table.retire(&first);
        let Admission::New(fresh) = table.admit(7, "a", "") else {
            panic!("retired hash must admit a new job")
        };
        assert_ne!(fresh.id, first.id);
    }

    #[test]
    fn cancel_only_wins_while_queued() {
        let table = JobTable::new();
        let Admission::New(job) = table.admit(1, "c", "") else {
            panic!("new")
        };
        assert!(job.cancel());
        assert_eq!(job.state(), JobState::Cancelled);
        // The executor then refuses to start it.
        assert!(!job.start());
        // Cancelling again (or after finish) is a no-op.
        assert!(!job.cancel());
        let Admission::New(running) = table.admit(2, "r", "") else {
            panic!("new")
        };
        running.start();
        assert!(!running.cancel(), "running jobs complete");
    }

    fn admit_new(table: &JobTable, hash: u64) -> Arc<Job> {
        let Admission::New(job) = table.admit(hash, "counted", "") else {
            panic!("distinct hashes always admit")
        };
        job
    }

    fn done() -> JobState {
        JobState::Done(Arc::new(String::new()))
    }

    #[test]
    fn each_terminal_transition_is_counted_once() {
        let table = JobTable::new();
        let cancelled = admit_new(&table, 1);
        assert!(cancelled.cancel());
        cancelled.finish(done()); // finish after a cancel
        let finished = admit_new(&table, 2);
        finished.start();
        finished.finish(done());
        assert!(!finished.cancel()); // cancel after a finish
        finished.finish(JobState::Failed("late".into())); // a second finish
        assert_eq!(cancelled.state(), JobState::Cancelled);
        assert_eq!(finished.state(), done());
        let expected = Lifecycle {
            completed: 1,
            cancelled: 1,
            ..Lifecycle::default()
        };
        assert_eq!(table.stats().lifecycle, expected);

        // `handle_submit`'s refusal while draining: `Failed` straight
        // from `Queued`, never started.
        let refused = admit_new(&table, 3);
        assert_eq!(table.stats().lifecycle.queued, 1);
        refused.finish(JobState::Failed("daemon is shutting down".into()));
        let expected = Lifecycle {
            failed: 1,
            ..expected
        };
        assert_eq!(table.stats().lifecycle, expected);
    }

    #[test]
    fn gauges_return_to_zero_once_every_job_is_terminal() {
        let table = JobTable::new();
        let jobs: Vec<_> = (0..4).map(|hash| admit_new(&table, hash)).collect();
        jobs[0].start();
        jobs[1].start();
        let live = table.stats().lifecycle;
        assert_eq!((live.queued, live.running), (2, 2));
        jobs[0].finish(done());
        jobs[1].finish(JobState::Failed("boom".into()));
        assert!(jobs[2].cancel());
        jobs[3].start();
        jobs[3].finish(done());
        let end = table.stats().lifecycle;
        assert_eq!((end.queued, end.running), (0, 0));
        assert_eq!((end.completed, end.failed, end.cancelled), (2, 1, 1));
        assert_eq!(end.admitted(), jobs.len());
    }

    /// Admit a job under `hash`, run it to `Done` with `document` and retire it.
    fn complete(table: &JobTable, hash: u64, document: &Arc<String>) -> Arc<Job> {
        let Admission::New(job) = table.admit(hash, "churn", "") else {
            panic!("distinct hashes always admit")
        };
        job.start();
        job.finish(JobState::Done(Arc::clone(document)));
        table.retire(&job);
        job
    }

    #[test]
    fn terminal_jobs_are_evicted_past_the_byte_budget_live_ones_never() {
        let table = JobTable::new();
        let Admission::New(live) = table.admit(0, "live", "") else {
            panic!("new")
        };
        live.start(); // stays Running for the whole test

        // One shared 1 MiB document: every record is charged its length, so
        // the budget fills after 63 of them without the test holding 64 MiB.
        let document = Arc::new("x".repeat(1 << 20));
        let charge = document.len() + RECORD_OVERHEAD_BYTES;
        let churn = 100u64;
        for i in 1..=churn {
            let job = complete(&table, i, &document);
            let stats = table.stats();
            assert!(stats.retained_bytes <= MAX_RETAINED_BYTES);
            assert_eq!(stats.retained_bytes, stats.retained * charge);
            assert!(table.get(job.id).is_some(), "the record just retired stays");
            table.retire(&job); // retiring twice charges once
            assert_eq!(table.stats(), stats);
        }
        let fit = MAX_RETAINED_BYTES / charge;
        let stats = table.stats();
        assert_eq!(
            stats.lifecycle.admitted(),
            churn as usize + 1,
            "every admission counted"
        );
        assert_eq!(stats.lifecycle.running, 1);
        assert_eq!(stats.retained, fit, "the budget is used, not undershot");
        assert!(table.get(live.id).is_some(), "live jobs are never evicted");
        // Ids 2..=churn+1 were the churn; exactly the newest `fit` remain.
        let oldest_kept = churn + 1 - fit as u64 + 1;
        assert!(table.get(oldest_kept - 1).is_none(), "oldest evicted first");
        for id in oldest_kept..=churn + 1 {
            assert!(table.get(id).is_some(), "job {id} is within the budget");
        }
    }

    #[test]
    fn a_done_record_is_charged_its_document_text_events_and_overhead() {
        let table = JobTable::new();
        let text = "{\"name\": \"charged\"}";
        let Admission::New(job) = table.admit(9, "charged", text) else {
            panic!("new")
        };
        job.start();
        job.push_event(Json::Str("phase".into()));
        job.push_event(Json::UInt(12));
        let document = Arc::new("d".repeat(5000));
        job.finish(JobState::Done(Arc::clone(&document)));
        table.retire(&job);
        let events = "\"phase\"".len() + "12".len();
        let stats = table.stats();
        assert_eq!(stats.retained, 1);
        assert_eq!(
            stats.retained_bytes,
            document.len() + text.len() + events + RECORD_OVERHEAD_BYTES,
            "document + submission text + events + the fixed overhead"
        );
        assert_eq!(table.get(job.id).expect("retained").text, text);
    }

    #[test]
    fn a_lone_oversized_record_outlives_the_budget_until_the_next_one() {
        let table = JobTable::new();
        let small = complete(&table, 1, &Arc::new("{}".to_string()));
        // Larger than the whole budget: everything older goes, it stays, so
        // `GET /jobs/<id>/trace` right after completion still answers.
        let Admission::New(big) = table.admit(2, "big", "") else {
            panic!("new")
        };
        big.start();
        big.push_event(Json::Str("progress".into()));
        big.finish(JobState::Done(Arc::new("d".repeat(MAX_RETAINED_BYTES))));
        table.retire(&big);
        assert!(table.get(small.id).is_none());
        assert!(table.get(big.id).is_some());
        let stats = table.stats();
        assert_eq!(stats.retained, 1);
        let events = "\"progress\"".len();
        assert_eq!(
            stats.retained_bytes,
            MAX_RETAINED_BYTES + events + RECORD_OVERHEAD_BYTES,
            "document + events + the fixed overhead"
        );
        // The next completion evicts it, and the budget holds again.
        let next = complete(&table, 3, &Arc::new("{}".to_string()));
        assert!(table.get(big.id).is_none());
        assert!(table.get(next.id).is_some());
        assert!(table.stats().retained_bytes <= MAX_RETAINED_BYTES);
    }

    #[test]
    fn timing_splits_wait_from_run() {
        let table = JobTable::new();
        let Admission::New(job) = table.admit(1, "t", "") else {
            panic!("new")
        };
        assert_eq!(
            job.timing().1,
            None,
            "no run time before a worker starts it"
        );
        job.start();
        let (wait, run) = job.timing();
        assert!(run.is_some());
        job.finish(JobState::Done(Arc::new(String::new())));
        let (wait_after, run_after) = job.timing();
        assert_eq!(wait_after, wait, "the wait is fixed once the job starts");
        assert!(run_after >= run);
        assert_eq!(
            job.timing(),
            (wait_after, run_after),
            "both fixed once terminal"
        );
        // A job cancelled in the queue waited and never ran.
        let Admission::New(cancelled) = table.admit(2, "c", "") else {
            panic!("new")
        };
        cancelled.cancel();
        let timing = cancelled.timing();
        assert_eq!(timing.1, None);
        assert_eq!(cancelled.timing(), timing);
    }

    #[test]
    fn followers_wake_across_threads() {
        let table = JobTable::new();
        let Admission::New(job) = table.admit(3, "w", "") else {
            panic!("new")
        };
        let follower = {
            let job = Arc::clone(&job);
            // lint: allow(D003) test exercises cross-thread event following; no sim output involved
            std::thread::spawn(move || {
                let mut cursor = 0;
                let mut seen = Vec::new();
                loop {
                    match job.follow(&mut cursor) {
                        Follow::Events(events) => seen.extend(events),
                        Follow::Finished(state) => return (seen, state),
                    }
                }
            })
        };
        job.start();
        for i in 0..3u64 {
            job.push_event(Json::UInt(i));
        }
        job.finish(JobState::Failed("boom".into()));
        let (seen, state) = follower.join().expect("follower");
        assert_eq!(seen, vec![Json::UInt(0), Json::UInt(1), Json::UInt(2)]);
        assert_eq!(state, JobState::Failed("boom".into()));
    }
}

//! Transports and scheduling around the [`Engine`].
//!
//! A *reader* (the stdin loop, or the thread of one TCP connection)
//! frames request lines, gives each request its read-order index and
//! output slot, and admits it: queue bounds, write-ahead append, and a
//! place in a per-session FIFO scheduler, the last two in one step.
//! Requests for the same session execute strictly in arrival order
//! (one at a time — the state-machine semantics clients rely on).
//! Who runs an admitted request:
//!
//! * **The reader itself**, when the client is waiting for the reply
//!   (no bytes are buffered past the request's line) and the session
//!   is idle with nothing queued. A closed-loop client, one request in
//!   flight, never pays the hand-off to a worker and its wakeup.
//! * **A pool worker** otherwise: pipelined input, where distinct
//!   sessions round-robin across workers so a slow `query_plan` in one
//!   session cannot starve another session's routability queries, and
//!   requests for a session that another connection keeps busy.
//!
//! Both run the same routine (`run_job`), so a reply cannot depend
//! on which thread produced it.
//!
//! Responses go through a per-connection **output sequencer**: every
//! request gets a sequence number at read time, and response lines are
//! written strictly in that order regardless of which thread finishes
//! first. Daemon output for a given input stream is therefore
//! byte-deterministic — the property the CI golden diff and the replay
//! determinism test pin — without giving up parallelism across
//! sessions.
//!
//! # Failure containment (`DESIGN.md` §14)
//!
//! Each dispatch runs under [`std::panic::catch_unwind`]: a
//! panic while a request executes becomes a typed `internal_error`
//! reply, poisons only that request's session (later requests against
//! it get `session_poisoned`), and leaves every other session and the
//! pool itself untouched. A worker that dies *outside* the protected
//! region respawns, so pool capacity cannot decay; a reader catches
//! such a panic and keeps reading. The scheduler is
//! bounded ([`ServerConfig`]): past the global or per-session queue
//! limits, a TCP connection's requests are shed at read time with a
//! typed `overloaded` error carrying a `retry_after_ms` hint from an
//! EWMA of recent service times — only `shutdown` bypasses the bound,
//! so the drain path survives any overload. Stdin is one client with
//! nobody to retry a shed request, so its reader waits for a slot
//! instead ([`Server::serve_stdin`]): backpressure through the pipe,
//! and a request file replays to the same replies at any worker count.
//!
//! Latency is recorded per operation as each request is processed, into
//! a fixed-size log-linear histogram (8 sub-buckets per power of two),
//! and summarized (count, p50, p99) in a [`ServeReport`]; the CLI prints
//! it to stderr so stdout stays pure protocol.

use crate::engine::Engine;
use crate::protocol::{Op, Request, Response};
use crate::wal::Wal;
use netrec_json::Json;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::io::{BufRead, ErrorKind, Write};
use std::net::TcpListener;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wire name used in latency accounting for lines rejected before
/// dispatch (parse/version errors have no [`Op`]).
const PROTOCOL_ERROR_OP: &str = "protocol_error";

/// Latency classes of requests refused before execution, named after
/// the error kind of their reply: shed by admission control, and
/// refused because the write-ahead append failed. Recording them under
/// the op they refused would mix replies that did no work into that
/// op's served latencies.
const SHED_OP: &str = "overloaded";
const WAL_REFUSED_OP: &str = "io_error";

/// How admission treats a request past the queue bounds. The transport
/// chooses it, `shutdown` overrides it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admission {
    /// Refuse it with `overloaded` and a retry hint (TCP connections
    /// and the in-process harness).
    Shed,
    /// Wait until a completion frees a slot (stdin).
    Wait,
    /// Bypass the bounds and any checkpoint pause (`shutdown`).
    Force,
}

/// Tuning knobs for the server's containment behavior.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Global bound on requests admitted and not yet completed
    /// (queued + executing). Past it, non-shutdown requests are shed
    /// with `overloaded`.
    pub max_queue: usize,
    /// Per-session bound on *pending* (not yet started) requests. A
    /// single chatty session fills its own queue and gets shed without
    /// consuming the global budget other sessions need.
    pub max_session_queue: usize,
    /// TCP read timeout: how often an idle connection thread wakes to
    /// check the shutdown latch. Also the bound on how long a hung
    /// client can delay its own connection thread's exit.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_queue: 1024,
            max_session_queue: 256,
            read_timeout: Duration::from_millis(200),
        }
    }
}

/// One admitted request: where to answer (connection + slot), the
/// read-order request index (fault-schedule key), when it was admitted
/// (deadline accounting starts here), and what to run.
struct Job {
    conn: Arc<ConnOut>,
    seq: u64,
    index: u64,
    enqueued_at: Instant,
    /// The request's write-ahead log sequence number, when a WAL is
    /// armed — stamped onto the reply so a reconnecting client can tell
    /// durable events from lost-unacked ones.
    wal_seq: Option<u64>,
    req: Request,
}

/// Per-session FIFO scheduler state (guarded by [`Scheduler::state`]).
struct SchedState {
    /// Pending jobs per session, in arrival order.
    per_session: HashMap<String, VecDeque<Job>>,
    /// Sessions with pending work that no worker currently owns.
    run_queue: VecDeque<String>,
    /// Membership index for `run_queue` (no duplicate entries).
    queued: HashSet<String>,
    /// Sessions a worker or a reader is currently executing.
    active: HashSet<String>,
    /// Read-order indices of the jobs admitted (reserved) and not yet
    /// completed: a `shutdown` waits until none below its own is left
    /// ([`Scheduler::await_earlier`]).
    in_flight: BTreeSet<u64>,
    /// EWMA of per-job service time in microseconds (retry hints).
    ewma_us: f64,
    /// Set by [`Server::finish`]: workers exit once drained.
    stopping: bool,
    /// Set while a WAL checkpoint quiesces the pool: non-shutdown
    /// admissions block until the checkpoint installs.
    paused: bool,
    /// Jobs handed to pool workers by [`Scheduler::next`].
    #[cfg(test)]
    pooled: u64,
}

impl Default for SchedState {
    fn default() -> Self {
        SchedState {
            per_session: HashMap::new(),
            run_queue: VecDeque::new(),
            queued: HashSet::new(),
            active: HashSet::new(),
            in_flight: BTreeSet::new(),
            // Seed estimate: a cheap warm query. The EWMA converges to
            // the real mix within a handful of completions.
            ewma_us: 1_000.0,
            stopping: false,
            paused: false,
            #[cfg(test)]
            pooled: 0,
        }
    }
}

struct Scheduler {
    state: Mutex<SchedState>,
    /// Wakes workers: one when work was queued or a finished job
    /// re-queued its session, all when the pool is stopping and drained.
    /// Only [`Scheduler::next`] waits on it, so each single wakeup
    /// always reaches a worker.
    cv: Condvar,
    /// Wakes blocked admissions in [`Scheduler::reserve`] (the pause
    /// lifted, or `in_flight` fell) and the drain in
    /// [`Scheduler::pause_and_drain`] (`in_flight` fell).
    admit_cv: Condvar,
    workers: usize,
    max_queue: usize,
    max_session_queue: usize,
}

impl Scheduler {
    fn new(workers: usize, config: &ServerConfig) -> Self {
        Scheduler {
            state: Mutex::new(SchedState::default()),
            cv: Condvar::new(),
            admit_cv: Condvar::new(),
            workers: workers.max(1),
            max_queue: config.max_queue.max(1),
            max_session_queue: config.max_session_queue.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        // Worker panics are caught around dispatch, never while holding
        // this lock; recover defensively anyway — scheduler state is
        // only mutated under short, panic-free critical sections.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Phase one of admission: claims an in-flight slot for the request
    /// read as `index`. Past the queue bounds, [`Admission::Shed`]
    /// rejects and [`Admission::Wait`] blocks until a completion frees a
    /// slot; both wait out a checkpoint pause. [`Admission::Force`]
    /// (shutdown) bypasses both the bounds and the pause: the drain path
    /// must stay reachable under any overload and cannot deadlock behind
    /// a quiesce. Admission is split from [`Scheduler::enqueue`] so the
    /// write-ahead append can sit between them — a request's log record
    /// exists before any thread can run the job, and a checkpoint's
    /// drain barrier ([`Scheduler::pause_and_drain`]) cannot catch a
    /// request after its append but outside the state it snapshots.
    ///
    /// # Errors
    ///
    /// A `retry_after_ms` hint — the estimated time for the pool to
    /// drain the current backlog.
    fn reserve(&self, session: &str, index: u64, admission: Admission) -> Result<(), u64> {
        let mut st = self.lock();
        if admission != Admission::Force {
            loop {
                if !st.paused {
                    let session_pending = st.per_session.get(session).map_or(0, VecDeque::len);
                    let full = st.in_flight.len() >= self.max_queue
                        || session_pending >= self.max_session_queue;
                    if !full {
                        break;
                    }
                    if admission == Admission::Shed {
                        let backlog = st.in_flight.len().max(1) as f64;
                        let retry_ms =
                            (backlog * st.ewma_us / self.workers as f64 / 1_000.0).ceil() as u64;
                        return Err(retry_ms.clamp(1, 30_000));
                    }
                }
                // Every reserved job completes and notifies, so a full
                // queue always drains far enough to admit.
                st = self
                    .admit_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        st.in_flight.insert(index);
        Ok(())
    }

    /// Releases the reservation of request `index` whose write-ahead
    /// append failed: the request was never logged, so it must never
    /// run.
    fn unreserve(&self, index: u64) {
        let mut st = self.lock();
        st.in_flight.remove(&index);
        self.wake_if_drained(&st);
        self.admit_cv.notify_all();
    }

    /// Wakes every worker once the pool is stopping and no admitted job
    /// is left, so each sees the drain and exits. Short of that, a fall
    /// in `in_flight` gives an idle worker nothing to do.
    fn wake_if_drained(&self, st: &SchedState) {
        if st.stopping && st.in_flight.is_empty() {
            self.cv.notify_all();
        }
    }

    /// Phase two of admission: queues a reserved job for the pool, or
    /// hands it back when `claim` is set and its session is idle with
    /// nothing queued. A handed-back job's session is marked active, so
    /// later requests for it queue behind it, and the caller must run
    /// it ([`run_job`], which completes it).
    fn enqueue(&self, session: String, job: Job, claim: bool) -> Option<(String, Job)> {
        let mut st = self.lock();
        if claim
            && !st.active.contains(&session)
            && st.per_session.get(&session).is_none_or(VecDeque::is_empty)
        {
            st.active.insert(session.clone());
            return Some((session, job));
        }
        st.per_session
            .entry(session.clone())
            .or_default()
            .push_back(job);
        if !st.active.contains(&session) && st.queued.insert(session.clone()) {
            st.run_queue.push_back(session);
        }
        self.cv.notify_one();
        None
    }

    /// Checkpoint quiesce: blocks new (non-shutdown) admissions and
    /// waits until every reserved job has completed. On return the pool
    /// is idle and every appended WAL record's effects are in session
    /// state — exactly what a checkpoint must capture.
    fn pause_and_drain(&self) {
        let mut st = self.lock();
        st.paused = true;
        while !st.in_flight.is_empty() {
            st = self
                .admit_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until every request admitted with a read-order index
    /// below `index` has completed. `shutdown` waits here before it is
    /// admitted, so its reply counts the sessions that every request
    /// read before it opened, at any worker count. Unlike
    /// [`Scheduler::pause_and_drain`] it blocks no other reader: later
    /// requests keep being admitted and cannot hold it back.
    fn await_earlier(&self, index: u64) {
        let mut st = self.lock();
        while st.in_flight.range(..index).next().is_some() {
            st = self
                .admit_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Lifts the checkpoint pause.
    fn resume(&self) {
        self.lock().paused = false;
        self.admit_cv.notify_all();
    }

    /// Jobs admitted and not yet completed (the `health` op's queue
    /// depth).
    fn depth(&self) -> usize {
        self.lock().in_flight.len()
    }

    /// Blocks for the next runnable job; `None` means drained-and-stopping.
    fn next(&self) -> Option<(String, Job)> {
        let mut st = self.lock();
        loop {
            while let Some(session) = st.run_queue.pop_front() {
                st.queued.remove(&session);
                // Invariant: a queued session has pending jobs. If the
                // invariant is ever violated, a phantom entry must not
                // take the whole daemon down (this was a hard panic
                // once) — log it, skip it, keep serving.
                match st
                    .per_session
                    .get_mut(&session)
                    .and_then(VecDeque::pop_front)
                {
                    Some(job) => {
                        st.active.insert(session.clone());
                        #[cfg(test)]
                        {
                            st.pooled += 1;
                        }
                        return Some((session, job));
                    }
                    None => {
                        eprintln!(
                            "serve: scheduler invariant violation: queued session \
                             {session:?} has no pending jobs (skipped)"
                        );
                        st.per_session.remove(&session);
                    }
                }
            }
            if st.stopping && st.in_flight.is_empty() {
                return None;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Marks job `index` finished; re-queues the session if it has more
    /// work, and then wakes one worker for it. A finishing worker asks
    /// for its next job right after, and a reader goes back to reading,
    /// so a job that re-queues nothing wakes no worker unless the pool
    /// has drained.
    fn complete(&self, session: String, index: u64, service_time: Duration) {
        let mut st = self.lock();
        st.active.remove(&session);
        let more = st.per_session.get(&session).is_some_and(|q| !q.is_empty());
        let requeued = more && st.queued.insert(session.clone());
        if requeued {
            st.run_queue.push_back(session);
        } else if !more {
            st.per_session.remove(&session);
        }
        st.in_flight.remove(&index);
        st.ewma_us = 0.8 * st.ewma_us + 0.2 * service_time.as_micros() as f64;
        if requeued {
            self.cv.notify_one();
        }
        self.wake_if_drained(&st);
        self.admit_cv.notify_all();
    }

    fn stop(&self) {
        self.lock().stopping = true;
        self.cv.notify_all();
    }
}

/// Per-connection response sequencer: responses are buffered until
/// every earlier slot has been written, so output order equals request
/// order no matter which thread finishes first.
struct ConnOut {
    inner: Mutex<ConnOutInner>,
}

struct ConnOutInner {
    next: u64,
    buffered: BTreeMap<u64, String>,
    sink: Box<dyn Write + Send>,
}

impl ConnOut {
    fn new(sink: Box<dyn Write + Send>) -> Self {
        ConnOut {
            inner: Mutex::new(ConnOutInner {
                next: 0,
                buffered: BTreeMap::new(),
                sink,
            }),
        }
    }

    /// Hands in the response for slot `seq`; writes every response line
    /// that is now contiguous. Write failures are swallowed — a client
    /// that hung up cannot take the daemon down.
    fn deliver(&self, seq: u64, line: String) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.buffered.insert(seq, line);
        loop {
            let next = inner.next;
            match inner.buffered.remove(&next) {
                Some(mut line) => {
                    inner.next += 1;
                    // One write per reply: a separate newline write
                    // would sit behind Nagle's algorithm until the
                    // client's delayed ACK.
                    line.push('\n');
                    let _ = inner.sink.write_all(line.as_bytes());
                }
                None => break,
            }
        }
        let _ = inner.sink.flush();
    }
}

/// Sub-buckets per power of two in a [`Histogram`] (relative bucket
/// width ≤ 1/8).
const SUB_BUCKETS: usize = 8;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Buckets covering all of `u64`: one per value below [`SUB_BUCKETS`],
/// then [`SUB_BUCKETS`] per power of two from there up.
const BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BITS as usize + 1);

/// A log-linear histogram of microsecond latencies with a fixed-size
/// bucket table: values below 8 get exact buckets, and every power of
/// two `[2^k, 2^(k+1))` above splits into 8 equal sub-buckets. Memory
/// stays constant however many samples a long-lived daemon records.
struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// The bucket holding `v`.
    fn bucket(v: u64) -> usize {
        if v < SUB_BUCKETS as u64 {
            return v as usize;
        }
        let k = 63 - v.leading_zeros(); // ≥ SUB_BITS
        let sub = (v >> (k - SUB_BITS)) as usize & (SUB_BUCKETS - 1);
        (k - SUB_BITS + 1) as usize * SUB_BUCKETS + sub
    }

    /// The largest value bucket `i` holds.
    fn bucket_max(i: usize) -> u64 {
        if i < SUB_BUCKETS {
            return i as u64;
        }
        let shift = (i / SUB_BUCKETS - 1) as u32;
        let low = ((SUB_BUCKETS + i % SUB_BUCKETS) as u64) << shift;
        low + ((1u64 << shift) - 1)
    }

    fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    /// The `pct`-th percentile, by the same rank rule as indexing the
    /// sorted samples at `(count − 1)·pct/100`, reported as the upper
    /// edge of the bucket that rank falls in (never above the largest
    /// sample).
    fn percentile(&self, pct: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (self.total - 1) * pct / 100;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::bucket_max(i).min(self.max);
            }
        }
        self.max
    }
}

/// Per-op latency histograms in microseconds.
#[derive(Default)]
struct Latencies(Mutex<HashMap<String, Histogram>>);

impl Latencies {
    fn record(&self, op: &str, elapsed: Duration) {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(op.to_string())
            .or_default()
            .record(elapsed.as_micros() as u64);
    }
}

/// Latency summary for one operation class.
#[derive(Debug, Clone)]
pub struct OpLatency {
    /// Operation wire name, or the class of a request answered without
    /// executing it: `protocol_error`, `overloaded` (shed), `io_error`
    /// (write-ahead append failed).
    pub op: String,
    /// Requests processed.
    pub count: usize,
    /// Median latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
}

/// What a server run did, rendered to stderr by the CLI on shutdown.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Total requests processed (including rejected lines).
    pub requests: usize,
    /// Per-op latency summaries, sorted by op name.
    pub per_op: Vec<OpLatency>,
}

impl ServeReport {
    /// Renders the stderr summary, one `serve: op=… count=… p50_us=…
    /// p99_us=…` line per op (stable order) — the format the CI latency
    /// gate parses.
    pub fn render(&self) -> String {
        let mut out = format!("serve: requests={}\n", self.requests);
        for op in &self.per_op {
            out.push_str(&format!(
                "serve: op={} count={} p50_us={} p99_us={}\n",
                op.op, op.count, op.p50_us, op.p99_us
            ));
        }
        out
    }

    /// The summary for `op`, if any requests of that class ran.
    pub fn op(&self, op: &str) -> Option<&OpLatency> {
        self.per_op.iter().find(|l| l.op == op)
    }
}

/// State shared by the readers and the worker pool.
struct Shared {
    engine: Arc<Engine>,
    sched: Scheduler,
    latencies: Latencies,
    /// The engine's write-ahead log, cached here so the read path can
    /// append without an engine call per line.
    wal: Option<Arc<Wal>>,
    /// Held across a request's write-ahead append and its
    /// [`Scheduler::enqueue`]: two readers that address one session
    /// take log records in the order their jobs run, so recovery
    /// replays exactly the history clients saw.
    admission: Mutex<()>,
    /// Serializes checkpoint cycles: two readers may see
    /// `checkpoint_due` at once, and a second quiesce must not begin
    /// until the first has fully installed (resuming admissions while
    /// another install is still truncating segments could delete
    /// records appended after its snapshot).
    checkpoint_lock: Mutex<()>,
    /// Read-order index source for dispatched requests (fault-schedule
    /// key): assigned at *read* time, before any queueing, so the same
    /// input stream maps indices identically at any worker count.
    request_counter: AtomicU64,
    /// Test hook: request index after which the thread that ran it
    /// panics *post-delivery* (exercises worker respawn and reader
    /// survival; `u64::MAX` disarms). Fires once.
    #[cfg(test)]
    panic_after: AtomicU64,
}

impl Shared {
    #[cfg(test)]
    fn take_post_delivery_panic(&self, index: u64) -> bool {
        self.panic_after
            .compare_exchange(index, u64::MAX, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }
}

/// Renders a panic payload into the deterministic part of an
/// `internal_error` message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Spawns one pool worker and records its handle for `finish` to join.
fn spawn_worker(shared: Arc<Shared>, handles: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    let handle = {
        let handles = Arc::clone(&handles);
        std::thread::spawn(move || worker_loop(shared, handles))
    };
    handles
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(handle);
}

/// Re-arms pool capacity when a worker dies outside the catch_unwind
/// region (deliver/complete — our own code, but a respawn is cheap
/// insurance against capacity decay in a long-lived daemon).
struct RespawnGuard {
    shared: Arc<Shared>,
    handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("serve: worker died outside dispatch isolation; respawning");
            spawn_worker(Arc::clone(&self.shared), Arc::clone(&self.handles));
        }
    }
}

/// Guarantees `Scheduler::complete` runs exactly once per claimed job,
/// even if delivery panics — a stuck `active` session would silently
/// stall every later request against it.
struct CompleteGuard<'a> {
    sched: &'a Scheduler,
    session: Option<String>,
    index: u64,
    started: Instant,
}

impl Drop for CompleteGuard<'_> {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            self.sched
                .complete(session, self.index, self.started.elapsed());
        }
    }
}

fn worker_loop(shared: Arc<Shared>, handles: Arc<Mutex<Vec<JoinHandle<()>>>>) {
    let _respawn = RespawnGuard {
        shared: Arc::clone(&shared),
        handles,
    };
    while let Some((session, job)) = shared.sched.next() {
        run_job(&shared, session, job);
    }
}

/// Runs one claimed job of `session` to completion and delivers its
/// reply: the one execution routine of pool workers and readers.
fn run_job(shared: &Shared, session: String, job: Job) {
    let started = Instant::now();
    let completer = CompleteGuard {
        sched: &shared.sched,
        session: Some(session),
        index: job.index,
        started,
    };
    // Panic isolation: a panicking dispatch unwinds through the
    // session's MutexGuard (poisoning exactly that session) and is
    // converted here into a typed reply. The message keeps only the
    // panic text, which for injected faults is deterministic — the
    // chaos replay diffs these lines byte-for-byte across worker
    // counts — and says "worker" whichever thread ran the request.
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        shared
            .engine
            .dispatch_indexed(&job.req, job.index, Some(job.enqueued_at))
    }));
    let response = match result {
        Ok(response) => response,
        Err(payload) => Response::error(
            Some(&job.req.id),
            "internal_error",
            &format!("worker panicked: {}", panic_message(payload)),
        ),
    };
    // Replies for logged requests carry their record's sequence
    // number — including internal_error replies, whose mutation
    // (if any) is just as durable as the panic-free case.
    let line = match job.wal_seq {
        Some(seq) => response
            .with_member("wal_seq", Json::Number(seq as f64))
            .to_line(),
        None => response.to_line(),
    };
    shared
        .latencies
        .record(job.req.op.name(), started.elapsed());
    job.conn.deliver(job.seq, line);
    drop(completer);
    #[cfg(test)]
    if shared.take_post_delivery_panic(job.index) {
        panic!("test hook: post-delivery crash");
    }
}

/// Runs a job the reader claimed, on the reader's thread. A dispatch
/// panic is contained inside [`run_job`] as on a worker; a panic
/// outside dispatch is caught here, because nothing would replace a
/// dead reader (on stdin it is the main thread).
fn run_on_reader(shared: &Shared, session: String, job: Job) {
    if std::panic::catch_unwind(AssertUnwindSafe(|| run_job(shared, session, job))).is_err() {
        eprintln!("serve: reader survived a panic outside dispatch isolation");
    }
}

/// The resident server: an [`Engine`] plus its worker pool.
pub struct Server {
    shared: Arc<Shared>,
    worker_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    config: ServerConfig,
}

impl Server {
    /// Spawns `workers` worker threads over `engine` (clamped to ≥ 1)
    /// with the default [`ServerConfig`].
    pub fn new(engine: Arc<Engine>, workers: usize) -> Self {
        Server::with_config(engine, workers, ServerConfig::default())
    }

    /// Spawns `workers` worker threads over `engine` (clamped to ≥ 1).
    pub fn with_config(engine: Arc<Engine>, workers: usize, config: ServerConfig) -> Self {
        let workers = workers.max(1);
        let wal = engine.wal().cloned();
        let shared = Arc::new(Shared {
            engine,
            sched: Scheduler::new(workers, &config),
            latencies: Latencies::default(),
            wal,
            admission: Mutex::new(()),
            checkpoint_lock: Mutex::new(()),
            request_counter: AtomicU64::new(0),
            #[cfg(test)]
            panic_after: AtomicU64::new(u64::MAX),
        });
        let worker_handles = Arc::new(Mutex::new(Vec::with_capacity(workers)));
        for _ in 0..workers {
            spawn_worker(Arc::clone(&shared), Arc::clone(&worker_handles));
        }
        Server {
            shared,
            worker_handles,
            conn_threads: Mutex::new(Vec::new()),
            config,
        }
    }

    /// The engine behind this server.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Test hook: the thread that runs the request with read-order
    /// index `index` panics after delivering its reply — exercises
    /// worker respawn and reader survival.
    #[cfg(test)]
    fn panic_after(&self, index: u64) {
        self.shared.panic_after.store(index, Ordering::SeqCst);
    }

    /// Serves one connection on the calling thread until EOF or a
    /// `shutdown` request is read. Returns the number of lines read.
    ///
    /// Lines are sequenced as they arrive: protocol rejections and
    /// overload sheds answer immediately through the sequencer. A valid
    /// request runs on this thread when the client is waiting for it
    /// (no bytes buffered past its line) and its session is idle, and
    /// queues for the pool otherwise. After a `shutdown` line the reader
    /// stops consuming input ("stop accepting"); its response still
    /// flushes once the queue drains. A final line without a newline is
    /// served like any other.
    pub fn serve_connection(&self, reader: impl BufRead, sink: Box<dyn Write + Send>) -> usize {
        serve_lines(&self.shared, reader, sink, Admission::Shed, Tail::Request)
    }

    /// Serves the daemon's stdin like [`Server::serve_connection`],
    /// except that a request past the queue bounds waits for an
    /// admission slot instead of being shed. Stdin is one client with
    /// nobody to retry a shed request: the reader stops reading until
    /// the pool drains (backpressure through the pipe), so a request
    /// file replays to the same replies at every worker count.
    pub fn serve_stdin(&self, reader: impl BufRead, sink: Box<dyn Write + Send>) -> usize {
        serve_lines(&self.shared, reader, sink, Admission::Wait, Tail::Request)
    }

    /// Accepts TCP connections until the engine shuts down, one thread
    /// per connection. The listener is polled (non-blocking + sleep) so
    /// a `shutdown` arriving on any transport stops the accept loop
    /// within one poll interval.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub fn serve_tcp(&self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        while !self.shared.engine.is_shutting_down() {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    stream.set_nonblocking(false)?;
                    // Replies go out as soon as they are written; the
                    // client's next request should not have to wait
                    // for an ACK first.
                    stream.set_nodelay(true)?;
                    // Finite read timeout so the connection thread
                    // notices shutdown even when its client stays
                    // silent with the socket open (half-open hardening:
                    // a hung or vanished client costs one parked
                    // connection thread, never a pool worker).
                    stream.set_read_timeout(Some(self.config.read_timeout))?;
                    let sink = Box::new(stream.try_clone()?);
                    let handle = {
                        let shared = Arc::clone(&self.shared);
                        std::thread::spawn(move || {
                            let reader = std::io::BufReader::new(stream);
                            serve_lines(&shared, reader, sink, Admission::Shed, Tail::Torn);
                        })
                    };
                    self.conn_threads
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(handle);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Drains queued work, stops the pool, joins every thread
    /// (including respawned workers), fsyncs the write-ahead log, and
    /// returns the latency report.
    pub fn finish(self) -> ServeReport {
        self.shared.sched.stop();
        // Joining pops one handle at a time: a worker that dies during
        // drain pushes its replacement before its own join returns, so
        // the loop always sees (and joins) respawns too.
        loop {
            let handle = self
                .worker_handles
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop();
            match handle {
                Some(handle) => {
                    let _ = handle.join();
                }
                None => break,
            }
        }
        let conn_threads = self
            .conn_threads
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        for t in conn_threads {
            let _ = t.join();
        }
        // Every thread that could append is joined: make the log's tail
        // durable, which `interval` and `off` leave to this point.
        if let Some(wal) = &self.shared.wal {
            if let Err(e) = wal.sync() {
                eprintln!("serve: wal shutdown fsync failed: {e}");
            }
        }
        let table = self
            .shared
            .latencies
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut per_op: Vec<OpLatency> = table
            .iter()
            .map(|(op, hist)| OpLatency {
                op: op.clone(),
                count: hist.total as usize,
                p50_us: hist.percentile(50),
                p99_us: hist.percentile(99),
            })
            .collect();
        per_op.sort_by(|a, b| a.op.cmp(&b.op));
        ServeReport {
            requests: per_op.iter().map(|l| l.count).sum(),
            per_op,
        }
    }
}

/// What a transport makes of the bytes after the last newline when its
/// input ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tail {
    /// A final request that lacks its newline (stdin and in-process
    /// connections: a request file need not end in one).
    Request,
    /// A torn line, dropped undispatched (TCP: the client hung up
    /// mid-request).
    Torn,
}

/// Splits a byte stream into lines with `fill_buf`/`consume`. Unlike
/// [`BufRead::lines`], it tells whether more input was already
/// buffered behind a line, keeps a partial line across a read timeout,
/// and leaves UTF-8 decoding to its caller.
struct Framer<R> {
    reader: R,
    /// The line being assembled.
    partial: Vec<u8>,
    /// The last line handed out.
    line: Vec<u8>,
}

/// One step of a [`Framer`].
enum Frame<'a> {
    /// A line without its newline (or a trailing `\r`). `pipelined`:
    /// bytes past its newline were already buffered, so the client sent
    /// more without waiting for this reply.
    Line(&'a [u8], bool),
    /// A read timed out before the next newline; the partial line is
    /// kept.
    Idle,
    /// End of input, with the bytes after the last newline (none after
    /// a read error).
    End(&'a [u8]),
}

impl<R: BufRead> Framer<R> {
    fn new(reader: R) -> Self {
        Framer {
            reader,
            partial: Vec::new(),
            line: Vec::new(),
        }
    }

    fn next(&mut self) -> Frame<'_> {
        loop {
            let chunk = match self.reader.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Frame::Idle
                }
                Err(_) => {
                    self.partial.clear();
                    return Frame::End(&[]);
                }
            };
            if chunk.is_empty() {
                std::mem::swap(&mut self.line, &mut self.partial);
                self.partial.clear();
                return Frame::End(&self.line);
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(end) => {
                    self.partial.extend_from_slice(&chunk[..end]);
                    let pipelined = end + 1 < chunk.len();
                    self.reader.consume(end + 1);
                    std::mem::swap(&mut self.line, &mut self.partial);
                    self.partial.clear();
                    let line = self.line.strip_suffix(b"\r").unwrap_or(&self.line);
                    return Frame::Line(line, pipelined);
                }
                None => {
                    let len = chunk.len();
                    self.partial.extend_from_slice(chunk);
                    self.reader.consume(len);
                }
            }
        }
    }
}

/// The read loop of every transport: frames lines, admits each request
/// (shedding or waiting past the bounds, per `admission`), and answers
/// a line that is not UTF-8 with a `parse` error. Returns the number of
/// lines read.
fn serve_lines(
    shared: &Shared,
    reader: impl BufRead,
    sink: Box<dyn Write + Send>,
    admission: Admission,
    tail: Tail,
) -> usize {
    let conn = Arc::new(ConnOut::new(sink));
    let mut framer = Framer::new(reader);
    let mut seq = 0u64;
    loop {
        let (bytes, waiting, last) = match framer.next() {
            Frame::Line(bytes, pipelined) => (bytes, !pipelined, false),
            // A read timeout (TCP) only polls the shutdown latch.
            Frame::Idle if shared.engine.is_shutting_down() => break,
            Frame::Idle => continue,
            Frame::End(bytes) if tail == Tail::Request => (bytes, true, true),
            Frame::End(_) => break,
        };
        let stop = match std::str::from_utf8(bytes) {
            Ok(line) if line.trim().is_empty() => false,
            Ok(line) => {
                seq += 1;
                read_one_line(shared, &conn, seq - 1, line, admission, waiting)
            }
            Err(e) => {
                seq += 1;
                let started = Instant::now();
                let response = Response::error(
                    None,
                    "parse",
                    &format!("request line is not valid UTF-8: {e}"),
                );
                answer_now(shared, &conn, seq - 1, PROTOCOL_ERROR_OP, started, response);
                false
            }
        };
        if stop || last {
            break;
        }
    }
    seq as usize
}

/// Delivers a reply produced on the read path without running the
/// request, timed from `started` under latency class `class`.
fn answer_now(
    shared: &Shared,
    conn: &ConnOut,
    slot: u64,
    class: &str,
    started: Instant,
    response: Response,
) {
    shared.latencies.record(class, started.elapsed());
    conn.deliver(slot, response.to_line());
}

/// Handles one read line: parse, index, admit (or shed, or wait, per
/// the transport's `admission`), and reply on the spot for protocol
/// errors and `health`. An admitted request runs on this thread when
/// its client is `waiting` for the reply and its session is idle, and
/// queues for the pool otherwise. Returns `true` when the line was a
/// `shutdown` request (the reader should stop consuming input).
fn read_one_line(
    shared: &Shared,
    conn: &Arc<ConnOut>,
    slot: u64,
    line: &str,
    admission: Admission,
    waiting: bool,
) -> bool {
    let parsed = Request::parse(line);
    // Replies answered here, on the read path, are timed from parse to
    // delivery.
    let started = Instant::now();
    let req = match parsed {
        Ok(req) => req,
        Err(e) => {
            answer_now(
                shared,
                conn,
                slot,
                PROTOCOL_ERROR_OP,
                started,
                Response::from(&e),
            );
            return false;
        }
    };
    // Health answers at read time: shed-exempt (it must work *because*
    // the daemon is overloaded), consumes no request index (a polling
    // supervisor must not shift the fault schedule), and is never
    // WAL-logged (probes are not events).
    if matches!(req.op, Op::Health) {
        let response = shared
            .engine
            .health_response(&req.id, Some(shared.sched.depth()));
        answer_now(shared, conn, slot, req.op.name(), started, response);
        return false;
    }
    let is_shutdown = matches!(req.op, Op::Shutdown);
    let index = shared.request_counter.fetch_add(1, Ordering::SeqCst);
    // Bounded-log maintenance rides the read path: when enough records
    // have accumulated, quiesce, snapshot every session, and truncate —
    // *before* this request is admitted, so its own record lands after
    // the checkpoint.
    if let Some(wal) = &shared.wal {
        if wal.checkpoint_due() {
            checkpoint_now(shared, wal);
        }
    }
    // Shutdown answers after everything read before it, so its
    // `sessions` count does not depend on the worker count.
    if is_shutdown {
        shared.sched.await_earlier(index);
    }
    let admission = if is_shutdown {
        Admission::Force
    } else {
        admission
    };
    if let Err(retry_after_ms) = shared.sched.reserve(req.session_name(), index, admission) {
        let response = Response::error_with(
            Some(&req.id),
            "overloaded",
            "queue full; retry after the hinted backoff",
            vec![("retry_after_ms", Json::Number(retry_after_ms as f64))],
        );
        answer_now(shared, conn, slot, SHED_OP, started, response);
        return is_shutdown;
    }
    // One admission step: the write-ahead append and the hand-off to the
    // scheduler share one lock, so requests from different connections
    // take log records in the order their session runs them. Write-ahead:
    // the request is logged and made durable per policy before any
    // thread can run it. The injected crash faults fire here — after
    // admission, at or mid-append — the exact window the kill-loop
    // harness sweeps. Shed requests above were never logged: no reply
    // was promised, so no durability is owed.
    let order = shared
        .admission
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let mut wal_seq = None;
    if let Some(wal) = &shared.wal {
        let faults = shared
            .engine
            .fault_plan()
            .map(|plan| plan.faults_at(index))
            .unwrap_or_default();
        wal.crash_abort(&faults);
        wal.torn_abort(line, &faults);
        match wal.append_line(line) {
            Ok(seq) => wal_seq = Some(seq),
            Err(e) => {
                drop(order);
                // Unlogged means unexecuted: release the slot and
                // refuse, or the reply would acknowledge an event
                // recovery cannot reproduce.
                shared.sched.unreserve(index);
                let response = Response::error(
                    Some(&req.id),
                    "io_error",
                    &format!("write-ahead append failed; event not accepted: {e}"),
                );
                answer_now(shared, conn, slot, WAL_REFUSED_OP, started, response);
                return is_shutdown;
            }
        }
    }
    let session = req.session_name().to_string();
    let job = Job {
        conn: Arc::clone(conn),
        seq: slot,
        index,
        enqueued_at: Instant::now(),
        wal_seq,
        req,
    };
    let claimed = shared.sched.enqueue(session, job, waiting);
    drop(order);
    if let Some((session, job)) = claimed {
        run_on_reader(shared, session, job);
    }
    is_shutdown
}

/// One checkpoint cycle: quiesce the pool, snapshot every session at
/// the log's current high-water mark, install (atomic replace +
/// segment truncation), resume. Failures downgrade to a stderr warning
/// and the log is retained — the previous checkpoint plus the full
/// suffix still recovers, it is just longer. A poisoned session also
/// skips the cycle: its in-memory state is suspect, but its WAL history
/// is sound, and replaying that history at next boot resurrects the
/// session at its last pre-panic state.
fn checkpoint_now(shared: &Shared, wal: &Arc<Wal>) {
    let _serialize = shared
        .checkpoint_lock
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    // A racing reader may have just finished this cycle; re-check under
    // the lock so back-to-back quiesces don't stall the read path.
    if !wal.checkpoint_due() {
        return;
    }
    shared.sched.pause_and_drain();
    match shared.engine.checkpoint_doc(wal.appended_seq()) {
        Ok(doc) => {
            if let Err(e) = wal.install_checkpoint(&doc) {
                eprintln!("serve: wal checkpoint install failed (log retained): {e}");
            }
        }
        Err(why) => eprintln!("serve: wal checkpoint skipped: {why}"),
    }
    shared.sched.resume();
}

/// Convenience harness: run `input` (a whole JSONL stream) through a
/// fresh pool over `engine` and return `(stdout bytes, report)`.
/// The replay tests and the bench drive the daemon through this.
pub fn run_stream(engine: Arc<Engine>, workers: usize, input: &str) -> (String, ServeReport) {
    run_stream_with(engine, workers, input, ServerConfig::default())
}

/// [`run_stream`] with explicit [`ServerConfig`] knobs (chaos and
/// overload tests).
pub fn run_stream_with(
    engine: Arc<Engine>,
    workers: usize,
    input: &str,
    config: ServerConfig,
) -> (String, ServeReport) {
    let server = Server::with_config(engine, workers, config);
    let out = SharedBuf::default();
    server.serve_connection(input.as_bytes(), Box::new(out.clone()));
    let report = server.finish();
    (out.take(), report)
}

/// A `Write` handle over a shared byte buffer (test/bench sink).
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn take(&self) -> String {
        let bytes = std::mem::take(&mut *self.0.lock().unwrap_or_else(PoisonError::into_inner));
        String::from_utf8(bytes).expect("responses are UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::SyncPolicy;
    use netrec_core::solver::SolverSpec;
    use netrec_core::{FaultPlan, RecoveryProblem};
    use netrec_graph::Graph;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::path::{Path, PathBuf};

    fn problem() -> RecoveryProblem {
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 10.0).unwrap();
        g.add_edge(g.node(2), g.node(3), 10.0).unwrap();
        g.add_edge(g.node(0), g.node(3), 10.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(3), 5.0)
            .unwrap();
        p
    }

    fn engine() -> Arc<Engine> {
        Arc::new(Engine::new(problem(), SolverSpec::parse("isp").unwrap()))
    }

    fn faulty_engine(spec: &str) -> Arc<Engine> {
        Arc::new(
            Engine::new(problem(), SolverSpec::parse("isp").unwrap())
                .with_faults(FaultPlan::parse(spec).unwrap()),
        )
    }

    const STREAM: &str = r#"{"v":1,"id":"q0","op":"query_routability"}
{"v":1,"id":"d1","op":"disrupt","edges":[1,3],"cost":1.0}
not json at all
{"v":1,"id":"q1","op":"query_routability"}
{"v":1,"id":"p1","op":"query_plan","solver":"isp"}
{"v":1,"id":"z","op":"shutdown"}
"#;

    #[test]
    fn output_order_matches_input_order_at_any_worker_count() {
        let expected_ids = [
            Some("q0"),
            Some("d1"),
            None,
            Some("q1"),
            Some("p1"),
            Some("z"),
        ];
        let mut outputs = Vec::new();
        for workers in [1, 4] {
            let (out, report) = run_stream(engine(), workers, STREAM);
            let ids: Vec<Option<String>> = out
                .lines()
                .map(|l| Response::parse(l).unwrap().id().map(str::to_string))
                .collect();
            assert_eq!(
                ids,
                expected_ids
                    .iter()
                    .map(|o| o.map(str::to_string))
                    .collect::<Vec<_>>(),
                "workers={workers}"
            );
            assert_eq!(report.requests, 6);
            assert!(report.op("query_routability").unwrap().count == 2);
            assert!(report.op("protocol_error").is_some());
            outputs.push(out);
        }
        assert_eq!(
            outputs[0], outputs[1],
            "stdout is byte-identical regardless of pool size"
        );
    }

    #[test]
    fn shutdown_counts_the_sessions_of_every_earlier_request() {
        // The query opens session s1 after a 300 ms injected delay. With
        // two workers the shutdown used to run beside it and report the
        // session table before s1 existed.
        const RACE: &str = r#"{"v":1,"id":"q","op":"query_routability","session":"s1"}
{"v":1,"id":"z","op":"shutdown"}
"#;
        let outputs: Vec<String> = [1, 2]
            .into_iter()
            .map(|workers| run_stream(faulty_engine("latency@0:300"), workers, RACE).0)
            .collect();
        assert_eq!(outputs[0], outputs[1], "replies differ by worker count");
        let shutdown = Response::parse(outputs[1].lines().nth(1).unwrap()).unwrap();
        assert!(
            shutdown.to_line().contains(r#""sessions":1"#),
            "{}",
            shutdown.to_line()
        );
    }

    #[test]
    fn sessions_make_progress_despite_a_slow_neighbor() {
        // A heavy plan request on session "slow" queues first; queries
        // on session "fast" still answer (round-robin across sessions)
        // and the final output order is the input order.
        let stream = r#"{"v":1,"id":"a","session":"slow","op":"disrupt","edges":[1,3],"cost":1.0}
{"v":1,"id":"b","session":"slow","op":"query_plan","solver":"opt"}
{"v":1,"id":"c","session":"fast","op":"query_routability"}
{"v":1,"id":"d","session":"fast","op":"query_routability"}
{"v":1,"id":"z","op":"shutdown"}
"#;
        let (out, _) = run_stream(engine(), 2, stream);
        let ids: Vec<&str> = out
            .lines()
            .map(|l| {
                let r = Response::parse(l).unwrap();
                assert!(r.is_ok(), "{l}");
                ""
            })
            .collect();
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn injected_panic_is_contained_to_its_session() {
        // panic@1 fires during d1 (session "default"): the mutation
        // lands, the reply is replaced by internal_error, the session
        // poisons. Later default-session requests get session_poisoned;
        // the "side" session keeps answering; shutdown still drains.
        let stream = r#"{"v":1,"id":"q0","op":"query_routability"}
{"v":1,"id":"d1","op":"disrupt","edges":[1,3],"cost":1.0}
{"v":1,"id":"q1","op":"query_routability"}
{"v":1,"id":"s1","session":"side","op":"query_routability"}
{"v":1,"id":"z","op":"shutdown"}
"#;
        let mut outputs = Vec::new();
        for workers in [1, 4] {
            let (out, _) = run_stream(faulty_engine("panic@1"), workers, stream);
            let replies: Vec<Response> = out.lines().map(|l| Response::parse(l).unwrap()).collect();
            assert_eq!(
                replies.len(),
                5,
                "workers={workers}: every request answered"
            );
            assert!(replies[0].is_ok());
            assert_eq!(replies[1].error_kind(), Some("internal_error"));
            assert!(
                replies[1]
                    .to_line()
                    .contains("injected panic after disrupt (request index 1)"),
                "deterministic panic message: {}",
                replies[1].to_line()
            );
            assert_eq!(replies[2].error_kind(), Some("session_poisoned"));
            assert!(replies[3].is_ok(), "other sessions unaffected");
            assert!(replies[4].is_ok(), "shutdown drains past poisoned sessions");
            outputs.push(out);
        }
        assert_eq!(outputs[0], outputs[1], "containment is byte-deterministic");
    }

    #[test]
    fn overload_sheds_with_typed_retry_hints_and_never_sheds_shutdown() {
        // latency@0 holds the single worker for 300ms while the reader
        // (same thread, instant) floods the queue past max_queue=2.
        let stream = r#"{"v":1,"id":"a","op":"query_routability"}
{"v":1,"id":"b","op":"query_routability"}
{"v":1,"id":"c","op":"query_routability"}
{"v":1,"id":"d","op":"query_routability"}
{"v":1,"id":"z","op":"shutdown"}
"#;
        let config = ServerConfig {
            max_queue: 2,
            ..ServerConfig::default()
        };
        let (out, report) = run_stream_with(faulty_engine("latency@0:300"), 1, stream, config);
        let replies: Vec<Response> = out.lines().map(|l| Response::parse(l).unwrap()).collect();
        assert_eq!(replies.len(), 5, "shed requests still get replies in order");
        assert!(replies[0].is_ok());
        let shed: Vec<&Response> = replies
            .iter()
            .filter(|r| r.error_kind() == Some("overloaded"))
            .collect();
        assert!(!shed.is_empty(), "the flood must shed: {out}");
        for r in &shed {
            let retry = r
                .json()
                .get("error")
                .and_then(|e| e.get("retry_after_ms"))
                .and_then(Json::as_u64)
                .unwrap();
            assert!(retry >= 1, "{}", r.to_line());
        }
        let z = replies.last().unwrap();
        assert!(z.is_ok(), "shutdown bypasses the bound: {}", z.to_line());
        // Shed replies count in their own latency class, so the op's
        // line holds only the requests it served.
        let count = |op: &str| {
            report
                .per_op
                .iter()
                .find(|l| l.op == op)
                .map_or(0, |l| l.count)
        };
        let served = replies
            .iter()
            .filter(|r| r.is_ok() && r.id() != Some("z"))
            .count();
        assert_eq!(count("query_routability"), served, "{report:?}");
        assert_eq!(count("overloaded"), shed.len(), "{report:?}");
    }

    #[test]
    fn stdin_waits_for_a_slot_instead_of_shedding() {
        // latency@0 holds a worker for 200ms while the reader runs far
        // past max_queue=2 and max_session_queue=1 over two sessions.
        // The stdin reader waits for slots: nothing sheds, and the
        // replies do not depend on the worker count.
        let mut stream = String::new();
        for i in 0..8 {
            let session = if i % 3 == 0 { "a" } else { "b" };
            let edge = i % 4;
            stream.push_str(&format!(
                r#"{{"v":1,"id":"d{i}","session":"{session}","op":"disrupt","edges":[{edge}],"cost":1.0}}
{{"v":1,"id":"q{i}","session":"{session}","op":"query_routability"}}
{{"v":1,"id":"r{i}","session":"{session}","op":"repair","edges":[{edge}]}}
"#
            ));
        }
        stream.push_str(r#"{"v":1,"id":"z","op":"shutdown"}"#);
        let config = ServerConfig {
            max_queue: 2,
            max_session_queue: 1,
            ..ServerConfig::default()
        };
        let outputs: Vec<String> = [1, 2]
            .into_iter()
            .map(|workers| {
                let server =
                    Server::with_config(faulty_engine("latency@0:200"), workers, config.clone());
                let out = SharedBuf::default();
                server.serve_stdin(stream.as_bytes(), Box::new(out.clone()));
                server.finish();
                out.take()
            })
            .collect();
        for out in &outputs {
            assert_eq!(out.lines().count(), 25, "{out}");
            let shed = out
                .lines()
                .filter(|l| l.contains(r#""overloaded""#))
                .count();
            assert_eq!(shed, 0, "stdin never sheds:\n{out}");
            assert!(
                out.lines().all(|l| Response::parse(l).unwrap().is_ok()),
                "{out}"
            );
        }
        assert_eq!(
            outputs[0], outputs[1],
            "stdin replays are byte-deterministic"
        );
        // The same stream over a shedding transport does shed.
        let (shed, _) = run_stream_with(faulty_engine("latency@0:200"), 1, &stream, config);
        assert!(shed.contains(r#""overloaded""#), "{shed}");
    }

    #[test]
    fn worker_respawns_after_a_post_delivery_crash() {
        // One worker, a crash after request index 1: without respawn
        // the remaining requests would never execute and finish() would
        // hang on an undrained queue.
        let server = Server::with_config(engine(), 1, ServerConfig::default());
        server.panic_after(1);
        let out = SharedBuf::default();
        server.serve_connection(STREAM.as_bytes(), Box::new(out.clone()));
        let report = server.finish();
        let out = out.take();
        assert_eq!(out.lines().count(), 6, "all requests answered:\n{out}");
        for line in out.lines() {
            Response::parse(line).unwrap();
        }
        assert_eq!(report.requests, 6);
    }

    #[test]
    fn scheduler_skips_phantom_queue_entries() {
        // Regression: a queued session with no pending jobs was a hard
        // `.expect` panic in the worker loop. Inject the corrupt state
        // directly and prove next() skips it and still drains.
        let sched = Scheduler::new(1, &ServerConfig::default());
        {
            let mut st = sched.lock();
            st.queued.insert("ghost".to_string());
            st.run_queue.push_back("ghost".to_string());
        }
        sched.stop();
        assert!(sched.next().is_none(), "phantom skipped, drain reported");
    }

    fn wal_scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("netrec_server_wal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The sim crate's boot sequence in miniature: open the log,
    /// restore checkpoint + replay suffix, attach.
    fn wal_engine(dir: &Path, segment_records: u64) -> Arc<Engine> {
        wal_engine_with(dir, SyncPolicy::Always, segment_records)
    }

    fn wal_engine_with(dir: &Path, policy: SyncPolicy, segment_records: u64) -> Arc<Engine> {
        let (wal, boot) = Wal::open(dir, policy, segment_records).unwrap();
        let engine = Engine::new(problem(), SolverSpec::parse("isp").unwrap());
        if let Some(cp) = &boot.checkpoint {
            engine.restore_checkpoint(cp).unwrap();
        }
        for record in &boot.records {
            engine.apply_replay(&record.line).unwrap();
        }
        engine.attach_wal(Arc::new(wal));
        Arc::new(engine)
    }

    /// A graceful shutdown fsyncs what the interval flusher has not yet
    /// reached (no flusher runs here, and its 60 s tick never comes).
    #[test]
    fn graceful_shutdown_fsyncs_the_log() {
        let dir = wal_scratch("shutdown_sync");
        let engine = wal_engine_with(&dir, SyncPolicy::Interval(60_000), 1024);
        let stream = r#"{"v":1,"id":"d1","op":"disrupt","edges":[1,3],"cost":1.0}
{"v":1,"id":"z","op":"shutdown"}
"#;
        run_stream(Arc::clone(&engine), 2, stream);
        let health = engine.wal().unwrap().health();
        assert_eq!(health.appended_seq, 2);
        assert_eq!(health.durable_seq, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_replies_carry_wal_seq_and_recovery_replays_the_log() {
        let dir = wal_scratch("seq");
        let stream = r#"{"v":1,"id":"d1","op":"disrupt","edges":[1,3],"cost":1.0}
{"v":1,"id":"h1","op":"health"}
{"v":1,"id":"q1","op":"query_routability"}
{"v":1,"id":"z","op":"shutdown"}
"#;
        let (out, _) = run_stream(wal_engine(&dir, 1024), 2, stream);
        let replies: Vec<Response> = out.lines().map(|l| Response::parse(l).unwrap()).collect();
        assert_eq!(replies.len(), 4);
        // Logged requests carry their record seq; health is not logged
        // but reports the log's high-water mark.
        let seq_of = |r: &Response| r.json().get("wal_seq").and_then(Json::as_u64);
        assert_eq!(seq_of(&replies[0]), Some(1), "{out}");
        assert_eq!(seq_of(&replies[1]), Some(1), "health high-water: {out}");
        assert!(
            // Read-time depth: the preceding disrupt may still be in
            // flight, so only the member's presence is deterministic.
            replies[1]
                .json()
                .get("queue_depth")
                .and_then(Json::as_u64)
                .is_some(),
            "{out}"
        );
        assert_eq!(seq_of(&replies[2]), Some(2));
        assert_eq!(seq_of(&replies[3]), Some(3));

        // A fresh engine over the same directory replays the log: the
        // disruption survives the "crash" (health left no record).
        let recovered = wal_engine(&dir, 1024);
        let reply = recovered.process_line(r#"{"v":1,"id":"s","op":"snapshot"}"#);
        let snap = Response::parse(&reply).unwrap();
        assert_eq!(
            snap.json().get("broken_edges").and_then(Json::as_u64),
            Some(2),
            "{reply}"
        );
        // And live appends continue after the replayed suffix.
        let (out2, _) = run_stream(
            recovered,
            1,
            "{\"v\":1,\"id\":\"d2\",\"op\":\"repair\",\"edges\":[1]}\n",
        );
        let r = Response::parse(out2.trim_end()).unwrap();
        assert_eq!(seq_of(&r), Some(4), "{out2}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_checkpoints_quiesce_truncate_and_stay_byte_deterministic() {
        let dir1 = wal_scratch("ckpt_a");
        let dir2 = wal_scratch("ckpt_b");
        // 14 logged requests against a 4-record segment cap: several
        // checkpoint cycles ride the read path mid-stream.
        let mut stream = String::new();
        for i in 0..6 {
            stream.push_str(&format!(
                "{{\"v\":1,\"id\":\"d{i}\",\"op\":\"disrupt\",\"edges\":[{}],\"cost\":1.0}}\n",
                i % 4
            ));
            stream.push_str(&format!(
                "{{\"v\":1,\"id\":\"q{i}\",\"op\":\"query_routability\"}}\n"
            ));
        }
        stream.push_str("{\"v\":1,\"id\":\"r\",\"op\":\"repair\",\"edges\":[0,1,2,3]}\n");
        stream.push_str("{\"v\":1,\"id\":\"z\",\"op\":\"shutdown\"}\n");
        let (out_small, _) = run_stream(wal_engine(&dir1, 4), 4, &stream);
        let (out_large, _) = run_stream(wal_engine(&dir2, 1024), 4, &stream);
        assert_eq!(
            out_small, out_large,
            "checkpoint cycles must not change a single reply byte"
        );
        // The checkpoint bounded the log: far fewer than 14 records
        // remain on disk in the small-segment directory.
        let (_, boot) = Wal::open(&dir1, SyncPolicy::Always, 4).unwrap();
        let cp = boot.checkpoint.expect("a checkpoint was installed");
        assert!(
            cp.get("wal_seq").and_then(Json::as_u64).unwrap() >= 4,
            "{cp:?}"
        );
        assert!(
            boot.records.len() < 14,
            "suffix is bounded: {} records",
            boot.records.len()
        );
        // Both directories recover to identical *state*. (Only state:
        // dir1 recovers through its checkpoint, so its oracle cache is
        // cold and the snapshot's cumulative counters legitimately
        // differ — generation and damage are what durability promises.)
        let a = wal_engine(&dir1, 4);
        let b = wal_engine(&dir2, 1024);
        let probe = r#"{"v":1,"id":"s","op":"snapshot"}"#;
        let snap_a = Response::parse(&a.process_line(probe)).unwrap();
        let snap_b = Response::parse(&b.process_line(probe)).unwrap();
        for member in [
            "generation",
            "broken_nodes",
            "broken_edges",
            "events_applied",
        ] {
            assert_eq!(
                snap_a.json().get(member),
                snap_b.json().get(member),
                "{member}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn health_consumes_no_request_index_and_is_shed_exempt() {
        // panic@0 hits read-order index 0. If health consumed an index,
        // the disrupt after it would shift to index 1 and execute
        // cleanly; instead the disrupt must be the one that panics.
        let stream = r#"{"v":1,"id":"h0","op":"health"}
{"v":1,"id":"d0","op":"disrupt","edges":[1],"cost":1.0}
{"v":1,"id":"z","op":"shutdown"}
"#;
        let (out, report) = run_stream(faulty_engine("panic@0"), 1, stream);
        let replies: Vec<Response> = out.lines().map(|l| Response::parse(l).unwrap()).collect();
        assert_eq!(replies.len(), 3);
        assert!(replies[0].is_ok(), "{out}");
        assert_eq!(
            replies[0].json().get("op").and_then(Json::as_str),
            Some("health")
        );
        assert!(
            replies[0]
                .json()
                .get("queue_depth")
                .and_then(Json::as_u64)
                .is_some(),
            "server-side health reports queue depth: {out}"
        );
        assert_eq!(
            replies[1].error_kind(),
            Some("internal_error"),
            "health must not have consumed index 0: {out}"
        );
        assert_eq!(report.op("health").unwrap().count, 1);
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        let engine = engine();
        let server = Arc::new(Server::new(Arc::clone(&engine), 2));
        let (addr, acceptor) = serve_loopback(&server);

        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(
                b"{\"v\":1,\"id\":\"t1\",\"op\":\"query_routability\"}\n{\"v\":1,\"id\":\"t2\",\"op\":\"shutdown\"}\n",
            )
            .unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let r = Response::parse(line.trim_end()).unwrap();
        assert!(r.is_ok());
        assert_eq!(r.id(), Some("t1"));
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::parse(line.trim_end()).unwrap().id(), Some("t2"));

        acceptor.join().unwrap();
        assert!(engine.is_shutting_down());
        let report = Arc::try_unwrap(server)
            .ok()
            .expect("acceptor joined; sole owner")
            .finish();
        assert_eq!(report.op("shutdown").unwrap().count, 1);
    }

    #[test]
    fn hung_and_half_open_clients_cannot_wedge_the_daemon() {
        let engine = engine();
        let config = ServerConfig {
            read_timeout: Duration::from_millis(25),
            ..ServerConfig::default()
        };
        let server = Arc::new(Server::with_config(Arc::clone(&engine), 1, config));
        let (addr, acceptor) = serve_loopback(&server);

        // Client A: sends half a request (no newline) and goes silent —
        // a hung, half-open connection.
        let mut hung = TcpStream::connect(addr).unwrap();
        hung.write_all(b"{\"v\":1,\"id\":\"h1\",\"op\":\"query_rou")
            .unwrap();

        // Client B: full service while A hangs — the worker pool is
        // never parked on A's socket, only A's own reader thread is.
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"{\"v\":1,\"id\":\"b1\",\"op\":\"query_routability\"}\n")
            .unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let r = Response::parse(line.trim_end()).unwrap();
        assert!(r.is_ok(), "served while a client hangs: {line}");
        assert_eq!(r.id(), Some("b1"));

        // Client C disconnects mid-request: the torn line is dropped,
        // nothing dispatches, nothing crashes.
        let mut torn = TcpStream::connect(addr).unwrap();
        torn.write_all(b"{\"v\":1,\"id\":\"t1\",\"op\":\"disrupt\"")
            .unwrap();
        drop(torn);

        client
            .write_all(b"{\"v\":1,\"id\":\"b2\",\"op\":\"shutdown\"}\n")
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::parse(line.trim_end()).unwrap().id(), Some("b2"));

        drop(hung);
        acceptor.join().unwrap();
        // finish() joins A's and C's connection threads: the read
        // timeout guarantees they notice the shutdown latch.
        let report = Arc::try_unwrap(server)
            .ok()
            .expect("acceptor joined; sole owner")
            .finish();
        assert_eq!(report.op("query_routability").unwrap().count, 1);
        assert_eq!(
            report.op("disrupt").map(|l| l.count),
            None,
            "the torn request never dispatched"
        );
    }

    #[test]
    fn tcp_answers_a_non_utf8_line_with_a_parse_error() {
        // A lossy decode would run this disrupt under an id the client
        // never sent, and log the rewritten line.
        let engine = engine();
        let server = Arc::new(Server::new(Arc::clone(&engine), 1));
        let (addr, acceptor) = serve_loopback(&server);
        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"{\"v\":1,\"id\":\"b\xff\",\"op\":\"disrupt\",\"edges\":[1]}\n")
            .unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let r = Response::parse(line.trim_end()).unwrap();
        assert_eq!(r.error_kind(), Some("parse"), "{line}");
        assert_eq!(r.id(), None, "{line}");
        client
            .write_all(b"{\"v\":1,\"id\":\"z\",\"op\":\"shutdown\"}\n")
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::parse(line.trim_end()).unwrap().id(), Some("z"));
        acceptor.join().unwrap();
        let report = Arc::try_unwrap(server)
            .ok()
            .expect("acceptor joined; sole owner")
            .finish();
        assert_eq!(report.op("disrupt").map(|l| l.count), None);
        assert_eq!(report.op("protocol_error").unwrap().count, 1);
    }

    /// The sorted-sample percentile the histogram replaces: the sample at
    /// rank `(len − 1)·pct/100`.
    fn sorted_percentile(sorted: &[u64], pct: u64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        sorted[((sorted.len() - 1) as u64 * pct / 100) as usize]
    }

    #[test]
    fn histogram_buckets_tile_the_value_range() {
        // Bucket edges are contiguous: each bucket starts one past the
        // previous one's largest value, and the last covers u64::MAX.
        let mut next = 0u64;
        for i in 0..BUCKETS {
            assert_eq!(Histogram::bucket(next), i, "first value of bucket {i}");
            let max = Histogram::bucket_max(i);
            assert_eq!(Histogram::bucket(max), i, "last value of bucket {i}");
            // Log-linear: a bucket is at most 1/8 as wide as its values.
            assert!(
                max - next <= next / SUB_BUCKETS as u64,
                "bucket {i} too wide"
            );
            next = max.wrapping_add(1);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn histogram_percentiles_land_within_one_bucket_of_sorted_samples() {
        // Deterministic samples spread over six decades, heavy-tailed like
        // a mix of warm queries and plans.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut samples = Vec::new();
        let latencies = Latencies::default();
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let decade = (state >> 60) % 6;
            let v = (state >> 20) % 10u64.pow(decade as u32 + 1);
            samples.push(v);
            latencies.record("op", Duration::from_micros(v));
        }
        // One fixed-size bucket array per op, however many samples.
        let table = latencies.0.lock().unwrap();
        assert_eq!(table.len(), 1);
        let hist = &table["op"];
        assert_eq!(hist.total, samples.len() as u64);
        samples.sort_unstable();
        for pct in [0, 1, 10, 50, 90, 99, 100] {
            let exact = sorted_percentile(&samples, pct);
            let approx = hist.percentile(pct);
            let (be, ba) = (Histogram::bucket(exact), Histogram::bucket(approx));
            assert!(
                be.abs_diff(ba) <= 1,
                "p{pct}: histogram {approx} (bucket {ba}) vs sorted {exact} (bucket {be})"
            );
        }
        assert_eq!(Histogram::default().percentile(50), 0, "empty histogram");
    }

    /// Boots `server` on a loopback listener; returns its address and
    /// the acceptor thread.
    fn serve_loopback(server: &Arc<Server>) -> (std::net::SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = Arc::clone(server);
        let acceptor = std::thread::spawn(move || server.serve_tcp(listener).unwrap());
        (addr, acceptor)
    }

    #[test]
    fn tcp_replies_are_not_held_back_by_delayed_acks() {
        // One request at a time from an otherwise idle client: a reply
        // split over two writes waits for the client's delayed ACK
        // (~40 ms a round trip on Linux, ~880 ms for these 20).
        let engine = engine();
        let server = Arc::new(Server::new(Arc::clone(&engine), 2));
        let (addr, acceptor) = serve_loopback(&server);
        let client = TcpStream::connect(addr).unwrap();
        let mut writer = client.try_clone().unwrap();
        let mut reader = BufReader::new(client);
        let mut line = String::new();
        let started = Instant::now();
        for i in 0..20 {
            writer
                .write_all(
                    format!("{{\"v\":1,\"id\":\"r{i}\",\"op\":\"query_routability\"}}\n")
                        .as_bytes(),
                )
                .unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(Response::parse(line.trim_end()).unwrap().is_ok(), "{line}");
        }
        let elapsed = started.elapsed();
        writer
            .write_all(b"{\"v\":1,\"id\":\"z\",\"op\":\"shutdown\"}\n")
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        acceptor.join().unwrap();
        Arc::try_unwrap(server)
            .ok()
            .expect("acceptor joined; sole owner")
            .finish();
        assert!(
            elapsed < Duration::from_millis(400),
            "20 sequential round trips took {elapsed:?}"
        );
    }

    #[test]
    fn checkpoint_drain_cannot_swallow_a_worker_wakeup() {
        // Two connections pipeline mixed requests into two workers while
        // the log checkpoints every 4 records. If enqueue's wakeup could
        // reach the checkpoint drain instead of an idle worker, a job
        // admitted just before a pause would never run: in_flight never
        // drains, the pause never lifts, and the daemon stops answering.
        const PER_CONN: usize = 4_000;
        let dir = wal_scratch("wedge");
        let (wal, _) = Wal::open(&dir, SyncPolicy::Off, 4).unwrap();
        let engine = Engine::new(problem(), SolverSpec::parse("isp").unwrap());
        engine.attach_wal(Arc::new(wal));
        let server = Arc::new(Server::new(Arc::new(engine), 2));
        let (addr, acceptor) = serve_loopback(&server);

        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for conn in 0..2 {
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                let client = TcpStream::connect(addr).unwrap();
                let reader = BufReader::new(client.try_clone().unwrap());
                let replies = std::thread::spawn(move || {
                    reader
                        .lines()
                        .take(PER_CONN)
                        .filter(|l| l.as_ref().is_ok_and(|l| Response::parse(l).is_ok()))
                        .count()
                });
                let mut stream = String::new();
                for i in 0..PER_CONN {
                    let session = format!("c{conn}s{}", i % 2);
                    let edge = (i / 4) % 4;
                    let op = match i % 4 {
                        0 => format!("\"op\":\"disrupt\",\"edges\":[{edge}],\"cost\":1.0"),
                        2 => format!("\"op\":\"repair\",\"edges\":[{edge}]"),
                        _ => "\"op\":\"query_routability\"".to_string(),
                    };
                    stream.push_str(&format!(
                        "{{\"v\":1,\"id\":\"{conn}-{i}\",\"session\":\"{session}\",{op}}}\n"
                    ));
                }
                let mut writer = client;
                writer.write_all(stream.as_bytes()).unwrap();
                let _ = done_tx.send(replies.join().unwrap());
            });
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        for _ in 0..2 {
            let left = deadline.saturating_duration_since(Instant::now());
            let answered = done_rx
                .recv_timeout(left)
                .expect("the daemon stopped answering mid-stream (checkpoint wedge)");
            assert_eq!(answered, PER_CONN, "every pipelined request answered");
        }

        let mut client = TcpStream::connect(addr).unwrap();
        client
            .write_all(b"{\"v\":1,\"id\":\"z\",\"op\":\"shutdown\"}\n")
            .unwrap();
        let mut line = String::new();
        BufReader::new(client).read_line(&mut line).unwrap();
        acceptor.join().unwrap();
        let report = Arc::try_unwrap(server)
            .ok()
            .expect("acceptor joined; sole owner")
            .finish();
        assert_eq!(report.op("disrupt").unwrap().count, PER_CONN / 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The committed smoke stream and its golden replies.
    const EVENTS: &str = include_str!("../../../examples/serve/events.jsonl");
    const GOLDEN: &str = include_str!("../../../examples/serve/golden.jsonl");

    /// The instance the goldens were recorded on: `serve --topology
    /// bell --pairs 4 --flow 10 --seed 42`.
    fn golden_engine(faults: Option<&str>) -> Arc<Engine> {
        use netrec_topology::demand::{generate_demands, DemandSpec};
        let topology = netrec_topology::bell::bell_canada();
        let mut p = RecoveryProblem::new(topology.graph().clone());
        for (s, t, amount) in generate_demands(&topology, &DemandSpec::new(4, 10.0), 42) {
            p.add_demand(s, t, amount).unwrap();
        }
        let engine = Engine::new(p, SolverSpec::isp());
        Arc::new(match faults {
            Some(spec) => engine.with_faults(FaultPlan::parse(spec).unwrap()),
            None => engine,
        })
    }

    /// Replies the sink has written, and a condvar signalled per write.
    type ReplyCount = Arc<(Mutex<usize>, Condvar)>;

    /// A client with one request in flight: each read hands the server
    /// one line, after the previous line's reply reached the sink.
    struct ClosedLoop {
        lines: std::vec::IntoIter<String>,
        current: Vec<u8>,
        pos: usize,
        /// Replies the lines handed out so far are owed.
        owed: usize,
        replies: ReplyCount,
    }

    impl Read for ClosedLoop {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos == self.current.len() {
                let (count, cv) = &*self.replies;
                let mut written = count.lock().unwrap();
                while *written < self.owed {
                    let (guard, wait) = cv.wait_timeout(written, Duration::from_secs(60)).unwrap();
                    assert!(!wait.timed_out(), "no reply to line {}", self.owed);
                    written = guard;
                }
                let Some(line) = self.lines.next() else {
                    return Ok(0);
                };
                if !line.trim().is_empty() {
                    self.owed += 1;
                }
                self.current = format!("{line}\n").into_bytes();
                self.pos = 0;
            }
            let n = buf.len().min(self.current.len() - self.pos);
            buf[..n].copy_from_slice(&self.current[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// A sink that counts reply lines for [`ClosedLoop`].
    struct CountingSink {
        out: SharedBuf,
        replies: ReplyCount,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.out.write_all(buf)?;
            let (count, cv) = &*self.replies;
            *count.lock().unwrap() += buf.iter().filter(|&&b| b == b'\n').count();
            cv.notify_all();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Replays `input` through `server` one request at a time. Returns
    /// the replies and the number of jobs the pool ran.
    fn closed_loop(server: Server, input: &str) -> (String, u64) {
        let replies = ReplyCount::default();
        let out = SharedBuf::default();
        let reader = ClosedLoop {
            lines: input
                .lines()
                .map(str::to_string)
                .collect::<Vec<_>>()
                .into_iter(),
            current: Vec::new(),
            pos: 0,
            owed: 0,
            replies: Arc::clone(&replies),
        };
        let sink = CountingSink {
            out: out.clone(),
            replies,
        };
        server.serve_connection(BufReader::new(reader), Box::new(sink));
        let pooled = server.shared.sched.lock().pooled;
        server.finish();
        (out.take(), pooled)
    }

    #[test]
    fn a_waiting_client_is_served_on_its_reader_with_the_golden_replies() {
        for workers in [1, 4] {
            let (out, pooled) = closed_loop(Server::new(golden_engine(None), workers), EVENTS);
            assert!(
                out == GOLDEN,
                "workers={workers}: replies differ from golden.jsonl"
            );
            assert_eq!(
                pooled, 0,
                "workers={workers}: the pool ran a closed-loop request"
            );
        }
        // Pipelined, the same stream goes to the pool.
        let server = Server::new(golden_engine(None), 2);
        let out = SharedBuf::default();
        server.serve_connection(EVENTS.as_bytes(), Box::new(out.clone()));
        assert!(server.shared.sched.lock().pooled > 200);
        server.finish();
        assert!(out.take() == GOLDEN);
    }

    #[test]
    fn a_panic_on_the_reader_is_contained_like_one_on_a_worker() {
        // The chaos-replay schedule: a dispatch panic at index 100, solve
        // errors, and 1 ms of latency on every request.
        let spec = "seed=7;latency=1:1;panic@100;solve_error@5,40,90;torn@60";
        let (pipelined, _) = run_stream(golden_engine(Some(spec)), 1, EVENTS);
        assert!(pipelined.contains(r#""kind":"internal_error""#));
        assert!(pipelined.contains(r#""kind":"session_poisoned""#));
        for workers in [1, 4] {
            let server = Server::new(golden_engine(Some(spec)), workers);
            let (out, pooled) = closed_loop(server, EVENTS);
            assert!(
                out == pipelined,
                "workers={workers}: closed-loop faulted replies differ"
            );
            assert_eq!(pooled, 0, "workers={workers}");
        }
    }

    #[test]
    fn a_reader_survives_a_panic_outside_dispatch() {
        // The hook panics after request index 1 is delivered: on the
        // reader, nothing would replace the thread, so it must live on
        // and serve the rest of the stream.
        let server = Server::new(engine(), 1);
        server.panic_after(1);
        let (out, pooled) = closed_loop(server, STREAM);
        assert_eq!(pooled, 0);
        let ids: Vec<Option<String>> = out
            .lines()
            .map(|l| Response::parse(l).unwrap().id().map(str::to_string))
            .collect();
        let expected = [
            Some("q0"),
            Some("d1"),
            None,
            Some("q1"),
            Some("p1"),
            Some("z"),
        ];
        assert_eq!(ids, expected.map(|id| id.map(str::to_string)), "{out}");
    }
}

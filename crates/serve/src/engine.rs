//! Request dispatch: the bridge from protocol values to session state.
//!
//! [`Engine::process_line`] is the daemon's whole behavior as one
//! synchronous, deterministic function — parse a request line, route it
//! to its session, render a response line. The server wraps it with
//! transports and a worker pool; tests and the replay bench call it
//! directly, so the golden streams CI diffs exercise exactly the code
//! the daemon runs.
//!
//! Mutating events pre-validate every component id against the topology
//! **before** applying anything, so a protocol event is atomic: either
//! the whole event commits or the session state is untouched and a
//! structured error comes back. (The underlying
//! [`RecoveryProblem::apply_stream`] is prefix-applied; the
//! pre-validation is what lifts that to all-or-nothing at the protocol
//! layer.)

use crate::protocol::{Op, Request, Response};
use crate::session::Session;
use crate::wal::Wal;
use netrec_core::fault::{FaultPlan, Faults};
use netrec_core::fsio;
use netrec_core::oracle::OracleStats;
use netrec_core::solver::SolverSpec;
use netrec_core::{
    AnswerSource, RecoveryError, RecoveryPlan, RecoveryProblem, RoutabilityArtifact, StatePatch,
};
use netrec_graph::{EdgeId, NodeId};
use netrec_json::{object, Json};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The outcome of a successful [`Engine::restore_from_file`].
#[derive(Debug, Clone)]
pub struct RestoreReport {
    /// The restored session's name (recorded in the snapshot).
    pub session: String,
    /// Set when the file's torn trailing record was salvaged — the
    /// restore succeeded from the valid prefix, but the operator should
    /// know the file was damaged and has been truncated.
    pub warning: Option<String>,
}

/// The resident dispatcher: shared base topology, the session table,
/// the shutdown latch, and (under chaos testing) the fault plan.
pub struct Engine {
    base: Arc<RecoveryProblem>,
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    default_solver: SolverSpec,
    shutdown: AtomicBool,
    faults: Option<FaultPlan>,
    /// Shared precomputed routability artifact, attached to every
    /// session (created, forked, or restored) when present.
    artifact: Option<Arc<RoutabilityArtifact>>,
    /// Request index source for callers that dispatch without a
    /// transport (tests, benches, the CLI's inline loop): the server
    /// assigns indices at read time instead, so fault schedules hit the
    /// same requests at any worker count.
    dispatch_counter: AtomicU64,
    /// Boot time, for the `health` op's uptime.
    started: Instant,
    /// The write-ahead log, when `--wal` armed one (attached once at
    /// boot, after recovery replay, before any transport runs).
    wal: OnceLock<Arc<Wal>>,
}

impl Engine {
    /// Boots an engine over `base`. `default_solver` answers
    /// `query_plan` requests that name no solver.
    pub fn new(base: RecoveryProblem, default_solver: SolverSpec) -> Self {
        Engine {
            base: Arc::new(base),
            sessions: Mutex::new(HashMap::new()),
            default_solver,
            shutdown: AtomicBool::new(false),
            faults: None,
            artifact: None,
            dispatch_counter: AtomicU64::new(0),
            started: Instant::now(),
            wal: OnceLock::new(),
        }
    }

    /// Attaches the write-ahead log (at most once, at boot). The server
    /// reads it back via [`Engine::wal`] to arm the append-before-reply
    /// admission path and to stamp `wal_seq` onto replies.
    pub fn attach_wal(&self, wal: Arc<Wal>) {
        let _ = self.wal.set(wal);
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.get()
    }

    /// Arms the deterministic fault-injection plane: dispatched
    /// requests are matched against `plan` by their read-order index.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attaches a shared precomputed routability artifact
    /// (`netrec-cli precompute`): every session probes it before its
    /// warm oracle on exact routability queries. Verdicts are
    /// unchanged — the artifact stores proven answers — only costs and
    /// the reported `answer_source` differ.
    pub fn with_artifact(mut self, artifact: Arc<RoutabilityArtifact>) -> Self {
        self.artifact = Some(artifact);
        self
    }

    /// The attached artifact, if any.
    pub fn artifact(&self) -> Option<&Arc<RoutabilityArtifact>> {
        self.artifact.as_ref()
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Whether a `shutdown` request has been accepted.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The shared base topology.
    pub fn base(&self) -> &Arc<RecoveryProblem> {
        &self.base
    }

    /// Number of open sessions.
    pub fn session_count(&self) -> usize {
        // A worker panic can only poison an individual session lock —
        // the table lock is never held across user code — but recover
        // anyway: the table itself (a name→handle map) cannot be left
        // half-mutated by our lock holders.
        self.sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The session handle for `name`, created on first use. The table
    /// lock is held only for the lookup — solves run under the
    /// individual session's lock, so a long `query_plan` in one session
    /// never blocks another session's queries.
    fn session(&self, name: &str) -> Arc<Mutex<Session>> {
        let mut table = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(table.entry(name.to_string()).or_insert_with(|| {
            let mut session = Session::new(Arc::clone(&self.base));
            session.set_artifact(self.artifact.clone());
            Arc::new(Mutex::new(session))
        }))
    }

    /// Processes one request line and returns the response line
    /// (without trailing newline). Total: any input produces exactly
    /// one well-formed response line; nothing panics the caller's loop
    /// (except a deliberately injected panic fault, which the server's
    /// worker isolation converts to a typed `internal_error`).
    pub fn process_line(&self, line: &str) -> String {
        match Request::parse(line) {
            Ok(req) => self.dispatch(&req).to_line(),
            Err(e) => Response::from(&e).to_line(),
        }
    }

    /// Routes a parsed request to its session, drawing the request
    /// index from the engine's own counter (transportless callers).
    pub fn dispatch(&self, req: &Request) -> Response {
        // Health consumes no request index: a supervisor polling it
        // must not shift which requests the fault plan hits.
        if matches!(req.op, Op::Health) {
            return self.health_response(&req.id, None);
        }
        let index = self.dispatch_counter.fetch_add(1, Ordering::SeqCst);
        self.dispatch_indexed(req, index, None)
    }

    /// Routes a parsed request to its session. `index` is the
    /// read-order request index the fault plan keys on; `enqueued_at`
    /// anchors deadline accounting (a request's `deadline_ms` budget
    /// includes its queue wait, so an overloaded daemon sheds work via
    /// `deadline_exceeded` instead of solving for clients that gave
    /// up).
    pub fn dispatch_indexed(
        &self,
        req: &Request,
        index: u64,
        enqueued_at: Option<Instant>,
    ) -> Response {
        let faults = match &self.faults {
            Some(plan) => plan.faults_at(index),
            None => Faults::default(),
        };
        if let Some(ms) = faults.latency_ms {
            std::thread::sleep(Duration::from_millis(ms));
        }
        // Health takes no session lock either — it must answer even
        // when every session is poisoned (that is when an operator
        // needs it most).
        if matches!(req.op, Op::Health) {
            return self.health_response(&req.id, None);
        }
        // Shutdown is handled before any session lock: the drain path
        // must stay reachable even when every session is poisoned, and
        // an injected panic must not be able to wedge it.
        if matches!(req.op, Op::Shutdown) {
            self.shutdown.store(true, Ordering::SeqCst);
            return Response::ok(
                &req.id,
                "shutdown",
                vec![("sessions", Json::Number(self.session_count() as f64))],
            );
        }
        let session_name = req.session_name();
        let handle = self.session(session_name);
        let mut session = match handle.lock() {
            Ok(guard) => guard,
            // A previous panic died while mutating this session: its
            // state is suspect, so every later request against it gets
            // a typed rejection instead of suspect answers. Other
            // sessions are unaffected — poisoning is the containment
            // boundary.
            Err(_) => {
                return Response::error(
                    Some(&req.id),
                    "session_poisoned",
                    &format!(
                        "session {session_name:?} was poisoned by an earlier panic; \
                         open a fresh session or restore from a snapshot"
                    ),
                )
            }
        };
        let reply = self.execute(req, &mut session, session_name, &faults, enqueued_at);
        // The injected panic fires *after* the op executed, while the
        // session guard is still held — modeling a panic in response
        // rendering, the worst case for state consistency: side effects
        // landed, the reply is lost, and the lock poisons so the
        // containment above kicks in for every later request.
        if faults.panic {
            panic!(
                "injected panic after {} (request index {index})",
                req.op.name()
            );
        }
        reply
    }

    /// Executes one non-shutdown op under its session lock.
    fn execute(
        &self,
        req: &Request,
        session: &mut Session,
        session_name: &str,
        faults: &Faults,
        enqueued_at: Option<Instant>,
    ) -> Response {
        match &req.op {
            Op::Disrupt { nodes, edges, cost } => self.mutate(req, session, |problem| {
                if !cost.is_finite() || *cost < 0.0 {
                    return Err(RecoveryError::InvalidCost(*cost));
                }
                let mut patches = Vec::with_capacity(nodes.len() + edges.len());
                for &n in nodes {
                    check_node(problem, n)?;
                    patches.push(StatePatch::BreakNode {
                        node: NodeId::new(n),
                        cost: *cost,
                    });
                }
                for &e in edges {
                    check_edge(problem, e)?;
                    patches.push(StatePatch::BreakEdge {
                        edge: EdgeId::new(e),
                        cost: *cost,
                    });
                }
                Ok(patches)
            }),
            Op::Repair { nodes, edges } => self.mutate(req, session, |problem| {
                let mut patches = Vec::with_capacity(nodes.len() + edges.len());
                for &n in nodes {
                    check_node(problem, n)?;
                    patches.push(StatePatch::RepairNode {
                        node: NodeId::new(n),
                    });
                }
                for &e in edges {
                    check_edge(problem, e)?;
                    patches.push(StatePatch::RepairEdge {
                        edge: EdgeId::new(e),
                    });
                }
                Ok(patches)
            }),
            Op::Demand { pairs, replace } => self.mutate(req, session, |problem| {
                let mut patches = Vec::with_capacity(pairs.len() + 1);
                if *replace {
                    patches.push(StatePatch::ClearDemands);
                }
                for &(s, t, amount) in pairs {
                    check_node(problem, s)?;
                    check_node(problem, t)?;
                    if s == t {
                        return Err(RecoveryError::UnknownDemandEndpoint);
                    }
                    if !amount.is_finite() || amount < 0.0 {
                        return Err(RecoveryError::InvalidCost(amount));
                    }
                    patches.push(StatePatch::AddDemand {
                        source: NodeId::new(s),
                        target: NodeId::new(t),
                        amount,
                    });
                }
                Ok(patches)
            }),
            Op::QueryRoutability { degraded_ok } => {
                let reply = if *degraded_ok {
                    match session.query_routability_degraded() {
                        Ok((routable, certificate)) => Response::ok(
                            &req.id,
                            "query_routability",
                            vec![
                                ("generation", generation(session)),
                                ("routable", Json::Bool(routable)),
                                ("degraded", Json::Bool(true)),
                                ("certificate", Json::String(certificate.to_string())),
                            ],
                        ),
                        Err(e) => recovery_error(req, &e),
                    }
                } else {
                    match session.query_routability() {
                        Ok((routable, cost, source)) => Response::ok(
                            &req.id,
                            "query_routability",
                            vec![
                                ("generation", generation(session)),
                                ("routable", Json::Bool(routable)),
                                ("answer_source", Json::String(source.as_str().to_string())),
                                ("oracle", stats_json(&cost)),
                            ],
                        ),
                        Err(e) => recovery_error(req, &e),
                    }
                };
                // A solve-error fault *replaces* the reply after the
                // query ran normally: warm oracle state and the verdict
                // cache evolve exactly as in the fault-free run, so
                // every non-faulted response downstream stays
                // byte-identical.
                if faults.solve_error {
                    return recovery_error(req, &RecoveryError::InjectedFault);
                }
                reply
            }
            Op::QueryPlan {
                solver,
                deadline_ms,
                degraded_ok,
            } => {
                let spec = match solver {
                    None => self.default_solver.clone(),
                    Some(s) => match SolverSpec::parse(s) {
                        Ok(spec) => spec,
                        Err(e) => {
                            return Response::error(
                                Some(&req.id),
                                "bad_request",
                                &format!("invalid solver spec: {e}"),
                            )
                        }
                    },
                };
                let deadline_at = deadline_ms
                    .map(|ms| enqueued_at.unwrap_or_else(Instant::now) + Duration::from_millis(ms));
                let baseline = session.oracle_stats();
                // query_plan side effects are a fresh solver + fresh
                // context, so a solve-error fault can be injected
                // genuinely (the context hook): it fails on the first
                // checkpoint with zero side effects.
                match session.query_plan(&spec, deadline_at, faults.solve_error) {
                    Ok(plan) => {
                        let delta = session.oracle_stats().delta_since(&baseline);
                        Response::ok(
                            &req.id,
                            "query_plan",
                            vec![
                                ("generation", generation(session)),
                                ("solver", Json::String(spec.to_string())),
                                ("plan", plan_json(&plan, session.problem())),
                                // Plans are always fresh solves (the
                                // replay-determinism contract), so the
                                // classified tier is `full_solve` unless
                                // a future warm-plan path changes that.
                                (
                                    "answer_source",
                                    Json::String(
                                        AnswerSource::classify(&delta).as_str().to_string(),
                                    ),
                                ),
                                ("oracle", stats_json(&delta)),
                            ],
                        )
                    }
                    Err(e)
                        if *degraded_ok
                            && (e.is_interruption() || e == RecoveryError::InjectedFault) =>
                    {
                        // Degraded answer: the last known-good plan with
                        // staleness metadata, instead of a bare typed
                        // error the client can do nothing with.
                        match session.last_plan() {
                            Some(stale) => Response::ok(
                                &req.id,
                                "query_plan",
                                vec![
                                    ("generation", generation(session)),
                                    ("degraded", Json::Bool(true)),
                                    ("reason", Json::String(e.kind().to_string())),
                                    ("solver", Json::String(stale.solver.clone())),
                                    ("plan", plan_json(&stale.plan, session.problem())),
                                    (
                                        "stale_events",
                                        Json::Number(
                                            (session.events_applied() - stale.events_applied)
                                                as f64,
                                        ),
                                    ),
                                    (
                                        "stale_generation",
                                        Json::String(format!("{:016x}", stale.fingerprint)),
                                    ),
                                ],
                            ),
                            None => recovery_error(req, &e),
                        }
                    }
                    Err(e) => recovery_error(req, &e),
                }
            }
            Op::Snapshot { fork, path } => {
                let mut body = vec![
                    ("generation", generation(session)),
                    (
                        "nodes",
                        Json::Number(session.problem().graph().node_count() as f64),
                    ),
                    (
                        "edges",
                        Json::Number(session.problem().graph().edge_count() as f64),
                    ),
                    (
                        "broken_nodes",
                        Json::Number(session.problem().broken_node_count() as f64),
                    ),
                    (
                        "broken_edges",
                        Json::Number(session.problem().broken_edge_count() as f64),
                    ),
                    (
                        "demands",
                        Json::Number(session.problem().demand_pairs().len() as f64),
                    ),
                    (
                        "total_demand",
                        Json::Number(session.problem().total_demand()),
                    ),
                    (
                        "events_applied",
                        Json::Number(session.events_applied() as f64),
                    ),
                    (
                        "warm_witnesses",
                        Json::Number(session.warm_witnesses() as f64),
                    ),
                    ("oracle", stats_json(&session.oracle_stats())),
                ];
                if let Some(fork_name) = fork {
                    if fork_name == session_name {
                        return Response::error(
                            Some(&req.id),
                            "bad_request",
                            "cannot fork a session onto itself",
                        );
                    }
                    let mut table = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
                    if table.contains_key(fork_name) {
                        return Response::error(
                            Some(&req.id),
                            "bad_request",
                            &format!("session {fork_name:?} already exists"),
                        );
                    }
                    table.insert(fork_name.clone(), Arc::new(Mutex::new(session.fork())));
                    body.push(("forked", Json::String(fork_name.clone())));
                }
                if let Some(path) = path {
                    let doc = persist_json(session_name, session);
                    // Persisted as one checksummed record frame, so
                    // `--restore` can verify integrity byte-for-byte
                    // and salvage a torn tail someone appends later.
                    let bytes = fsio::frame_record(doc.to_line().as_bytes());
                    match fsio::atomic_write_torn(Path::new(path), &bytes, false, faults.torn) {
                        Ok(()) => body.push(("persisted", Json::String(path.clone()))),
                        // The write is atomic: on failure the path holds
                        // its previous complete content (or nothing), so
                        // a typed error is the whole story.
                        Err(e) => {
                            return Response::error(
                                Some(&req.id),
                                "io_error",
                                &format!("snapshot persist to {path:?} failed: {e}"),
                            )
                        }
                    }
                }
                Response::ok(&req.id, "snapshot", body)
            }
            // Handled before the session lock in dispatch_indexed;
            // answer again rather than panic if a caller routes one here.
            Op::Health => self.health_response(&req.id, None),
            // Handled before the session lock in dispatch_indexed;
            // latch again rather than panic if a caller routes one here.
            Op::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Response::ok(
                    &req.id,
                    "shutdown",
                    vec![("sessions", Json::Number(self.session_count() as f64))],
                )
            }
        }
    }

    /// Restores a session persisted by `snapshot` with `path` into the
    /// table under its recorded name. The recorded generation is
    /// re-verified against the rebuilt state — a snapshot against a
    /// different base topology (or a corrupted complete file) is
    /// rejected rather than silently served.
    ///
    /// Snapshot files are checksummed record streams
    /// ([`fsio::frame_record`]; the
    /// last valid record is the snapshot). Checksums are verified
    /// record by record, and a torn *trailing* record — what a crash
    /// mid-append leaves — is salvaged: the file is truncated back to
    /// its valid prefix and the restore proceeds with a typed warning
    /// instead of refusing to boot. A file that does not open with a
    /// record frame (such as a bare-JSON snapshot of an older release)
    /// is refused untouched: salvage would truncate it to nothing.
    ///
    /// # Errors
    ///
    /// A human-readable reason: unreadable file, not a record stream,
    /// no intact record, malformed or wrong-kind JSON, component ids
    /// outside the base topology, fingerprint mismatch, or a name
    /// collision with a live session.
    pub fn restore_from_file(&self, path: &Path) -> Result<RestoreReport, String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let origin = path.display().to_string();
        if !fsio::is_record_stream(&bytes) {
            return Err(format!(
                "{origin}: not a snapshot record stream (expected checksummed \
                 record frames, as `snapshot` writes them; bare-JSON snapshots \
                 are not read)"
            ));
        }
        let scan =
            fsio::salvage_records(path).map_err(|e| format!("{origin}: salvage failed: {e}"))?;
        let warning = scan.torn.as_ref().map(|reason| {
            format!(
                "{origin}: torn trailing record salvaged ({reason}); \
                 truncated to {} bytes",
                scan.valid_len
            )
        });
        let payload = scan.records.last().ok_or_else(|| {
            format!(
                "{origin}: no intact snapshot record survives ({})",
                scan.torn.as_deref().unwrap_or("empty file")
            )
        })?;
        let text = std::str::from_utf8(payload)
            .map_err(|_| format!("{origin}: snapshot record is not UTF-8"))?;
        let doc =
            Json::parse(text.trim()).map_err(|e| format!("{origin} is not valid JSON: {e}"))?;
        let session = self.restore_session_doc(&doc, &origin)?;
        Ok(RestoreReport { session, warning })
    }

    /// Builds the `health` reply: uptime, session count, optionally the
    /// submitter's queue depth, and WAL durability counters when a log
    /// is attached. Deliberately timing-dependent — health is an
    /// operator probe, not part of the deterministic replay surface,
    /// which is why it is never WAL-logged and consumes no request
    /// index.
    pub fn health_response(&self, id: &str, queue_depth: Option<usize>) -> Response {
        let mut body = vec![
            (
                "uptime_ms",
                Json::Number(self.started.elapsed().as_millis() as f64),
            ),
            ("sessions", Json::Number(self.session_count() as f64)),
            (
                "shutting_down",
                Json::Bool(self.shutdown.load(Ordering::SeqCst)),
            ),
        ];
        if let Some(depth) = queue_depth {
            body.push(("queue_depth", Json::Number(depth as f64)));
        }
        if let Some(wal) = self.wal.get() {
            let h = wal.health();
            body.push(("wal_sync", Json::String(wal.policy().to_string())));
            body.push(("wal_seq", Json::Number(h.appended_seq as f64)));
            body.push(("wal_durable_seq", Json::Number(h.durable_seq as f64)));
            body.push(("last_fsync_lag_ms", Json::Number(h.fsync_lag_ms as f64)));
        }
        Response::ok(id, "health", body)
    }

    /// Re-executes one logged request line during WAL recovery: same
    /// dispatch path as live traffic, but fault-free (injected faults
    /// already happened in the previous life — replaying them would
    /// diverge recovery from the durable history) and with replies
    /// discarded. Queries are replayed too, not just mutations: they
    /// warm the oracle exactly as the original run did, which is what
    /// makes post-recovery replies byte-identical to an uninterrupted
    /// run. `shutdown` and `health` records are skipped.
    ///
    /// # Errors
    ///
    /// The line no longer parses (a damaged log record whose checksum
    /// still held — the caller stops replay there with a warning).
    pub fn apply_replay(&self, line: &str) -> Result<(), String> {
        let req =
            Request::parse(line).map_err(|e| format!("unreplayable record: {}", e.message))?;
        if matches!(req.op, Op::Shutdown | Op::Health) {
            return Ok(());
        }
        let session_name = req.session_name();
        let handle = self.session(session_name);
        let mut session = handle.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = self.execute(&req, &mut session, session_name, &Faults::default(), None);
        Ok(())
    }

    /// Renders the checkpoint document covering the WAL up to
    /// `wal_seq`: every live session in its persisted form, sorted by
    /// name. The caller must have quiesced execution first.
    ///
    /// # Errors
    ///
    /// A session lock is poisoned: its in-memory state is suspect, but
    /// its WAL history is sound — so the right move is to *skip* the
    /// checkpoint (keeping the full log) rather than bake suspect state
    /// into the new recovery root. A later boot replays the poisoned
    /// session back to its last pre-panic state, clean.
    pub fn checkpoint_doc(&self, wal_seq: u64) -> Result<Json, String> {
        let handles: Vec<(String, Arc<Mutex<Session>>)> = {
            let table = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
            let mut v: Vec<_> = table
                .iter()
                .map(|(name, handle)| (name.clone(), Arc::clone(handle)))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        let mut sessions = Vec::with_capacity(handles.len());
        for (name, handle) in &handles {
            match handle.lock() {
                Ok(session) => sessions.push(persist_json(name, &session)),
                Err(_) => {
                    return Err(format!(
                        "session {name:?} is poisoned; checkpoint skipped so its \
                         WAL history survives for replay"
                    ))
                }
            }
        }
        Ok(object(vec![
            ("wal_seq", Json::Number(wal_seq as f64)),
            ("sessions", Json::Array(sessions)),
        ]))
    }

    /// Restores every session of a WAL checkpoint document into the
    /// (empty, boot-time) session table, verifying each rebuilt
    /// generation fingerprint. Returns the number of sessions restored.
    ///
    /// # Errors
    ///
    /// A malformed document, a session that does not rebuild on this
    /// base topology, or a fingerprint mismatch.
    pub fn restore_checkpoint(&self, doc: &Json) -> Result<usize, String> {
        let sessions = doc
            .get("sessions")
            .and_then(Json::as_array)
            .ok_or_else(|| "checkpoint is missing array \"sessions\"".to_string())?;
        for session_doc in sessions {
            self.restore_session_doc(session_doc, "wal checkpoint")?;
        }
        Ok(sessions.len())
    }

    /// Rebuilds one persisted session document, verifies its recorded
    /// generation fingerprint against the rebuilt state, and inserts it
    /// under its recorded name.
    fn restore_session_doc(&self, doc: &Json, origin: &str) -> Result<String, String> {
        if doc.get("kind").and_then(Json::as_str) != Some(SNAPSHOT_KIND) {
            return Err(format!(
                "{origin} is not a session snapshot (missing kind {SNAPSHOT_KIND:?})"
            ));
        }
        if doc.get("v").and_then(Json::as_u64) != Some(crate::protocol::PROTOCOL_VERSION) {
            return Err(format!("{origin}: unsupported snapshot version"));
        }
        let name = doc
            .get("session")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{origin}: missing session name"))?
            .to_string();
        let generation = doc
            .get("generation")
            .and_then(Json::as_str)
            .and_then(|g| u64::from_str_radix(g, 16).ok())
            .ok_or_else(|| format!("{origin}: missing or malformed generation"))?;
        let events_applied = doc
            .get("events_applied")
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("{origin}: missing events_applied"))?;
        let broken_nodes = cost_pairs(doc, "broken_nodes").map_err(|e| format!("{origin}: {e}"))?;
        let broken_edges = cost_pairs(doc, "broken_edges").map_err(|e| format!("{origin}: {e}"))?;
        let demands = demand_triples(doc).map_err(|e| format!("{origin}: {e}"))?;
        let mut session = Session::restore(
            Arc::clone(&self.base),
            &broken_nodes,
            &broken_edges,
            &demands,
            events_applied,
        )
        .map_err(|e| format!("{origin}: {e}"))?;
        session.set_artifact(self.artifact.clone());
        if session.fingerprint() != generation {
            return Err(format!(
                "{origin}: generation mismatch (snapshot {:016x}, rebuilt {:016x}) — \
                 wrong base topology or corrupted snapshot",
                generation,
                session.fingerprint()
            ));
        }
        let mut table = self.sessions.lock().unwrap_or_else(PoisonError::into_inner);
        if table.contains_key(&name) {
            return Err(format!("{origin}: session {name:?} already exists"));
        }
        table.insert(name.clone(), Arc::new(Mutex::new(session)));
        Ok(name)
    }

    /// Shared shape of the three mutating ops: validate and build the
    /// patch list against the current state, apply it atomically,
    /// answer with the new generation.
    fn mutate(
        &self,
        req: &Request,
        session: &mut Session,
        build: impl FnOnce(&RecoveryProblem) -> Result<Vec<StatePatch>, RecoveryError>,
    ) -> Response {
        let patches = match build(session.problem()) {
            Ok(p) => p,
            Err(e) => return recovery_error(req, &e),
        };
        match session.apply_stream(&patches) {
            Ok(applied) => Response::ok(
                &req.id,
                req.op.name(),
                vec![
                    ("generation", generation(session)),
                    ("applied", Json::Number(applied as f64)),
                    (
                        "broken_nodes",
                        Json::Number(session.problem().broken_node_count() as f64),
                    ),
                    (
                        "broken_edges",
                        Json::Number(session.problem().broken_edge_count() as f64),
                    ),
                ],
            ),
            // Unreachable given pre-validation, but keep the session
            // consistent and the reply structured if it ever fires.
            Err((_, e)) => recovery_error(req, &e),
        }
    }
}

fn check_node(problem: &RecoveryProblem, n: usize) -> Result<(), RecoveryError> {
    if n >= problem.graph().node_count() {
        return Err(RecoveryError::UnknownDemandEndpoint);
    }
    Ok(())
}

fn check_edge(problem: &RecoveryProblem, e: usize) -> Result<(), RecoveryError> {
    if e >= problem.graph().edge_count() {
        return Err(RecoveryError::UnknownDemandEndpoint);
    }
    Ok(())
}

/// The `"kind"` discriminator of a persisted session snapshot file.
const SNAPSHOT_KIND: &str = "netrec-session-snapshot";

/// Renders the crash-safe persisted form of a session: everything
/// needed to rebuild its *observable* state on the same base topology
/// (damage with costs, the demand set, lineage depth) plus the
/// generation for restore-time verification. Warm oracle state is
/// deliberately not persisted — it is a cache, and caches are rebuilt,
/// not trusted across crashes.
fn persist_json(session_name: &str, session: &Session) -> Json {
    let problem = session.problem();
    let graph = problem.graph();
    let mut broken_nodes = Vec::new();
    for (i, &broken) in problem.broken_node_mask().iter().enumerate() {
        if broken {
            broken_nodes.push(Json::Array(vec![
                Json::Number(i as f64),
                Json::Number(problem.node_cost(graph.node(i))),
            ]));
        }
    }
    let mut broken_edges = Vec::new();
    for (i, &broken) in problem.broken_edge_mask().iter().enumerate() {
        if broken {
            broken_edges.push(Json::Array(vec![
                Json::Number(i as f64),
                Json::Number(problem.edge_cost(EdgeId::new(i))),
            ]));
        }
    }
    let demands = problem
        .demand_pairs()
        .iter()
        .map(|&(s, t, amount)| {
            Json::Array(vec![
                Json::Number(s.index() as f64),
                Json::Number(t.index() as f64),
                Json::Number(amount),
            ])
        })
        .collect();
    object(vec![
        ("v", Json::Number(crate::protocol::PROTOCOL_VERSION as f64)),
        ("kind", Json::String(SNAPSHOT_KIND.to_string())),
        ("session", Json::String(session_name.to_string())),
        (
            "generation",
            Json::String(format!("{:016x}", session.fingerprint())),
        ),
        (
            "events_applied",
            Json::Number(session.events_applied() as f64),
        ),
        ("broken_nodes", Json::Array(broken_nodes)),
        ("broken_edges", Json::Array(broken_edges)),
        ("demands", Json::Array(demands)),
    ])
}

/// Reads a `[[id, cost], ...]` member of a snapshot file.
fn cost_pairs(doc: &Json, key: &str) -> Result<Vec<(usize, f64)>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing array {key:?}"))?;
    items
        .iter()
        .map(|item| {
            item.as_array()
                .filter(|pair| pair.len() == 2)
                .and_then(|pair| Some((pair[0].as_usize()?, pair[1].as_f64()?)))
                .ok_or_else(|| format!("{key:?} entries must be [id, cost]"))
        })
        .collect()
}

/// Reads the `[[source, target, amount], ...]` demand member.
fn demand_triples(doc: &Json) -> Result<Vec<(usize, usize, f64)>, String> {
    let items = doc
        .get("demands")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing array \"demands\"".to_string())?;
    items
        .iter()
        .map(|item| {
            item.as_array()
                .filter(|t| t.len() == 3)
                .and_then(|t| Some((t[0].as_usize()?, t[1].as_usize()?, t[2].as_f64()?)))
                .ok_or_else(|| "\"demands\" entries must be [source, target, amount]".to_string())
        })
        .collect()
}

/// The generation fingerprint as a fixed-width hex string (JSON numbers
/// are f64 and cannot carry 64 bits losslessly).
fn generation(session: &Session) -> Json {
    Json::String(format!("{:016x}", session.fingerprint()))
}

/// A solver-layer failure as a typed error reply. Interruptions
/// (deadline, cancellation) use the same path: the kind string tells
/// the client, and the session stays open.
fn recovery_error(req: &Request, e: &RecoveryError) -> Response {
    Response::error(Some(&req.id), e.kind(), &e.to_string())
}

/// The subset of oracle counters a client can act on.
fn stats_json(stats: &OracleStats) -> Json {
    object(vec![
        (
            "routability_queries",
            Json::Number(stats.routability_queries as f64),
        ),
        (
            "satisfaction_queries",
            Json::Number(stats.satisfaction_queries as f64),
        ),
        ("lp_solves", Json::Number(stats.lp_solves as f64)),
        (
            "warm_start_hits",
            Json::Number(stats.warm_start_hits as f64),
        ),
        ("cache_hits", Json::Number(stats.cache_hits as f64)),
        ("full_solves", Json::Number(stats.full_solves as f64)),
        ("artifact_hits", Json::Number(stats.artifact_hits as f64)),
        (
            "artifact_misses",
            Json::Number(stats.artifact_misses as f64),
        ),
    ])
}

/// A plan in wire form: sorted component ids (the plan is normalized),
/// totals, and the solver's run counters.
fn plan_json(plan: &RecoveryPlan, problem: &RecoveryProblem) -> Json {
    object(vec![
        ("algorithm", Json::String(plan.algorithm.clone())),
        (
            "repaired_nodes",
            Json::Array(
                plan.repaired_nodes
                    .iter()
                    .map(|n| Json::Number(n.index() as f64))
                    .collect(),
            ),
        ),
        (
            "repaired_edges",
            Json::Array(
                plan.repaired_edges
                    .iter()
                    .map(|e| Json::Number(e.index() as f64))
                    .collect(),
            ),
        ),
        ("total_repairs", Json::Number(plan.total_repairs() as f64)),
        ("repair_cost", Json::Number(plan.repair_cost(problem))),
        ("iterations", Json::Number(plan.iterations as f64)),
        ("used_fallback", Json::Bool(plan.used_fallback)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_graph::Graph;

    fn engine() -> Engine {
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 10.0).unwrap();
        g.add_edge(g.node(2), g.node(3), 10.0).unwrap();
        g.add_edge(g.node(0), g.node(3), 10.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(3), 5.0)
            .unwrap();
        Engine::new(p, SolverSpec::parse("isp").unwrap())
    }

    fn ok(engine: &Engine, line: &str) -> Response {
        let reply = Response::parse(&engine.process_line(line)).unwrap();
        assert!(reply.is_ok(), "{line} -> {}", reply.to_line());
        reply
    }

    fn err(engine: &Engine, line: &str) -> Response {
        let reply = Response::parse(&engine.process_line(line)).unwrap();
        assert!(!reply.is_ok(), "{line} -> {}", reply.to_line());
        reply
    }

    #[test]
    fn disrupt_query_repair_round() {
        let e = engine();
        let r = ok(&e, r#"{"v":1,"id":"q0","op":"query_routability"}"#);
        assert_eq!(r.json().get("routable"), Some(&Json::Bool(true)));
        ok(
            &e,
            r#"{"v":1,"id":"d1","op":"disrupt","edges":[1,3],"cost":2.0}"#,
        );
        let r = ok(&e, r#"{"v":1,"id":"q1","op":"query_routability"}"#);
        assert_eq!(r.json().get("routable"), Some(&Json::Bool(false)));
        ok(&e, r#"{"v":1,"id":"r1","op":"repair","edges":[3]}"#);
        let r = ok(&e, r#"{"v":1,"id":"q2","op":"query_routability"}"#);
        assert_eq!(r.json().get("routable"), Some(&Json::Bool(true)));
    }

    #[test]
    fn mutating_events_are_atomic() {
        let e = engine();
        let before = ok(&e, r#"{"v":1,"id":"s0","op":"snapshot"}"#);
        let gen_before = before.json().get("generation").cloned();
        // Edge 99 is out of range: the whole event must be rejected,
        // including the valid edge 1 before it.
        let r = err(&e, r#"{"v":1,"id":"d1","op":"disrupt","edges":[1,99]}"#);
        assert_eq!(r.error_kind(), Some("unknown_endpoint"));
        let after = ok(&e, r#"{"v":1,"id":"s1","op":"snapshot"}"#);
        assert_eq!(after.json().get("generation").cloned(), gen_before);
        assert_eq!(after.json().get("broken_edges"), Some(&Json::Number(0.0)));
    }

    #[test]
    fn sessions_are_isolated_and_forkable() {
        let e = engine();
        ok(
            &e,
            r#"{"v":1,"id":"d1","session":"a","op":"disrupt","edges":[0],"cost":1.0}"#,
        );
        let r = ok(
            &e,
            r#"{"v":1,"id":"q1","session":"b","op":"query_routability"}"#,
        );
        assert_eq!(r.json().get("routable"), Some(&Json::Bool(true)));
        let r = ok(
            &e,
            r#"{"v":1,"id":"s1","session":"a","op":"snapshot","fork":"a2"}"#,
        );
        assert_eq!(r.json().get("forked").and_then(Json::as_str), Some("a2"));
        // Fork carries the damage; diverging it leaves "a" untouched.
        ok(
            &e,
            r#"{"v":1,"id":"d2","session":"a2","op":"disrupt","edges":[3],"cost":1.0}"#,
        );
        let a = ok(&e, r#"{"v":1,"id":"s2","session":"a","op":"snapshot"}"#);
        assert_eq!(a.json().get("broken_edges"), Some(&Json::Number(1.0)));
        let a2 = ok(&e, r#"{"v":1,"id":"s3","session":"a2","op":"snapshot"}"#);
        assert_eq!(a2.json().get("broken_edges"), Some(&Json::Number(2.0)));
        // Forking onto an existing name is rejected.
        let r = err(
            &e,
            r#"{"v":1,"id":"s4","session":"a","op":"snapshot","fork":"a2"}"#,
        );
        assert_eq!(r.error_kind(), Some("bad_request"));
    }

    #[test]
    fn query_plan_solves_and_reports() {
        let e = engine();
        ok(
            &e,
            r#"{"v":1,"id":"d1","op":"disrupt","edges":[1,3],"cost":1.0}"#,
        );
        let r = ok(&e, r#"{"v":1,"id":"p1","op":"query_plan","solver":"isp"}"#);
        let plan = r.json().get("plan").unwrap();
        assert_eq!(plan.get("algorithm").and_then(Json::as_str), Some("ISP"));
        assert!(plan.get("total_repairs").and_then(Json::as_usize).unwrap() >= 1);
        let r = err(
            &e,
            r#"{"v":1,"id":"p2","op":"query_plan","solver":"warp-drive"}"#,
        );
        assert_eq!(r.error_kind(), Some("bad_request"));
    }

    #[test]
    fn deadline_exceeded_is_typed_and_survivable() {
        let e = engine();
        ok(
            &e,
            r#"{"v":1,"id":"d1","op":"disrupt","edges":[1,3],"cost":1.0}"#,
        );
        let r = err(&e, r#"{"v":1,"id":"p1","op":"query_plan","deadline_ms":0}"#);
        assert_eq!(r.error_kind(), Some("deadline_exceeded"));
        // The session survives the interruption.
        let r = ok(&e, r#"{"v":1,"id":"p2","op":"query_plan"}"#);
        assert!(r.is_ok(), "{}", r.to_line());
    }

    #[test]
    fn demand_replace_swaps_the_demand_set() {
        let e = engine();
        ok(
            &e,
            r#"{"v":1,"id":"m1","op":"demand","pairs":[[1,2,3.0]],"replace":true}"#,
        );
        let s = ok(&e, r#"{"v":1,"id":"s1","op":"snapshot"}"#);
        assert_eq!(s.json().get("demands"), Some(&Json::Number(1.0)));
        assert_eq!(s.json().get("total_demand"), Some(&Json::Number(3.0)));
        // Self-demand is rejected atomically.
        let r = err(
            &e,
            r#"{"v":1,"id":"m2","op":"demand","pairs":[[0,3,1.0],[2,2,1.0]]}"#,
        );
        assert_eq!(r.error_kind(), Some("unknown_endpoint"));
        let s = ok(&e, r#"{"v":1,"id":"s2","op":"snapshot"}"#);
        assert_eq!(s.json().get("demands"), Some(&Json::Number(1.0)));
    }

    #[test]
    fn shutdown_latches() {
        let e = engine();
        assert!(!e.is_shutting_down());
        ok(&e, r#"{"v":1,"id":"z","op":"shutdown"}"#);
        assert!(e.is_shutting_down());
    }

    #[test]
    fn malformed_lines_never_panic_and_always_answer() {
        let e = engine();
        for line in [
            "",
            "{",
            "[]",
            r#"{"v":9,"id":"x","op":"shutdown"}"#,
            "\u{0}",
        ] {
            let reply = Response::parse(&e.process_line(line)).unwrap();
            assert!(!reply.is_ok());
        }
        assert!(!e.is_shutting_down(), "bad version must not shut down");
    }

    fn faulty(spec: &str) -> Engine {
        let e = engine();
        Engine::with_faults(e, FaultPlan::parse(spec).unwrap())
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!(
            "netrec-engine-test-{}-{tag}-{n}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn injected_solve_error_is_typed_and_preserves_warm_state() {
        // solve_error@1 hits q1. The faulted run and a fault-free run
        // must agree byte-for-byte on every *other* response — the
        // fault replaces q1's reply but never perturbs session state.
        let script = [
            r#"{"v":1,"id":"d0","op":"disrupt","edges":[1],"cost":1.0}"#,
            r#"{"v":1,"id":"q1","op":"query_routability"}"#,
            r#"{"v":1,"id":"q2","op":"query_routability"}"#,
            r#"{"v":1,"id":"p3","op":"query_plan","solver":"isp"}"#,
        ];
        let clean: Vec<String> = {
            let e = engine();
            script.iter().map(|l| e.process_line(l)).collect()
        };
        let e = faulty("solve_error@1");
        let faulted: Vec<String> = script.iter().map(|l| e.process_line(l)).collect();
        let r = Response::parse(&faulted[1]).unwrap();
        assert_eq!(r.error_kind(), Some("injected_fault"), "{}", faulted[1]);
        for i in [0usize, 2, 3] {
            assert_eq!(clean[i], faulted[i], "non-faulted response {i} diverged");
        }
    }

    #[test]
    fn injected_panic_poisons_only_its_session() {
        let e = faulty("panic@1");
        ok(&e, r#"{"v":1,"id":"q0","op":"query_routability"}"#);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.process_line(r#"{"v":1,"id":"d1","op":"disrupt","edges":[1],"cost":1.0}"#)
        }));
        assert!(panicked.is_err(), "the panic fault must actually unwind");
        // The default session is now poisoned; the mutation landed
        // before the panic fired but its state is suspect by policy.
        let r = err(&e, r#"{"v":1,"id":"q1","op":"query_routability"}"#);
        assert_eq!(r.error_kind(), Some("session_poisoned"));
        // Other sessions and the drain path are untouched.
        ok(
            &e,
            r#"{"v":1,"id":"q2","session":"side","op":"query_routability"}"#,
        );
        ok(&e, r#"{"v":1,"id":"z","op":"shutdown"}"#);
        assert!(e.is_shutting_down());
    }

    #[test]
    fn degraded_routability_reports_a_certificate_without_oracle_mutation() {
        let e = engine();
        ok(
            &e,
            r#"{"v":1,"id":"d0","op":"disrupt","edges":[1,3],"cost":1.0}"#,
        );
        // Two exact queries: the second is a verdict-cache hit whose
        // oracle delta is the steady state repeat queries report.
        ok(&e, r#"{"v":1,"id":"q0","op":"query_routability"}"#);
        let exact_before = ok(&e, r#"{"v":1,"id":"q0","op":"query_routability"}"#);
        let r = ok(
            &e,
            r#"{"v":1,"id":"q1","op":"query_routability","degraded_ok":true}"#,
        );
        assert_eq!(r.json().get("degraded"), Some(&Json::Bool(true)));
        let cert = r
            .json()
            .get("error")
            .map(|_| "")
            .or_else(|| r.json().get("certificate").and_then(Json::as_str))
            .unwrap();
        assert!(
            ["exact", "certified", "conservative"].contains(&cert),
            "{}",
            r.to_line()
        );
        assert!(
            r.json().get("oracle").is_none(),
            "degraded answers carry no oracle counters: {}",
            r.to_line()
        );
        // The degraded path never touches the exact cache or the warm
        // oracle: the exact answer is unchanged, byte for byte.
        let exact_after = ok(&e, r#"{"v":1,"id":"q0","op":"query_routability"}"#);
        assert_eq!(exact_before.to_line(), exact_after.to_line());
    }

    #[test]
    fn degraded_routability_labels_a_disconnected_demand_exact() {
        // Every edge down: the demand is disconnected, an exact proof,
        // not a boundary artifact of the approximation.
        let e = engine();
        ok(
            &e,
            r#"{"v":1,"id":"d0","op":"disrupt","edges":[0,1,2,3],"cost":1.0}"#,
        );
        let r = ok(
            &e,
            r#"{"v":1,"id":"q1","op":"query_routability","degraded_ok":true}"#,
        );
        assert_eq!(r.json().get("routable"), Some(&Json::Bool(false)));
        assert_eq!(
            r.json().get("certificate").and_then(Json::as_str),
            Some("exact"),
            "{}",
            r.to_line()
        );
    }

    #[test]
    fn degraded_query_plan_serves_the_last_known_good_plan() {
        let e = engine();
        ok(
            &e,
            r#"{"v":1,"id":"d0","op":"disrupt","edges":[1],"cost":1.0}"#,
        );
        // No prior plan: a degraded-tolerant request still gets the
        // typed error — there is nothing to degrade to.
        let r = err(
            &e,
            r#"{"v":1,"id":"p0","op":"query_plan","deadline_ms":0,"degraded_ok":true}"#,
        );
        assert_eq!(r.error_kind(), Some("deadline_exceeded"));
        // Solve once for real, mutate, then ask again with a dead
        // deadline: the stale plan comes back with staleness metadata.
        ok(&e, r#"{"v":1,"id":"p1","op":"query_plan","solver":"isp"}"#);
        ok(
            &e,
            r#"{"v":1,"id":"d1","op":"disrupt","edges":[3],"cost":1.0}"#,
        );
        let r = ok(
            &e,
            r#"{"v":1,"id":"p2","op":"query_plan","deadline_ms":0,"degraded_ok":true}"#,
        );
        assert_eq!(r.json().get("degraded"), Some(&Json::Bool(true)));
        assert_eq!(
            r.json().get("reason").and_then(Json::as_str),
            Some("deadline_exceeded")
        );
        assert_eq!(r.json().get("stale_events"), Some(&Json::Number(1.0)));
        assert!(r.json().get("plan").is_some(), "{}", r.to_line());
        // Without degraded_ok the same request stays a typed error.
        let r = err(&e, r#"{"v":1,"id":"p3","op":"query_plan","deadline_ms":0}"#);
        assert_eq!(r.error_kind(), Some("deadline_exceeded"));
    }

    #[test]
    fn snapshot_persists_and_restores_across_engines() {
        let path = tmp_path("roundtrip");
        let e = engine();
        ok(
            &e,
            r#"{"v":1,"id":"d0","session":"ops","op":"disrupt","edges":[1,3],"cost":2.5}"#,
        );
        ok(
            &e,
            r#"{"v":1,"id":"m1","session":"ops","op":"demand","pairs":[[1,2,4.0]]}"#,
        );
        let line = format!(
            r#"{{"v":1,"id":"s1","session":"ops","op":"snapshot","path":{:?}}}"#,
            path.to_str().unwrap()
        );
        let snap = ok(&e, &line);
        let generation = snap.json().get("generation").cloned().unwrap();
        assert_eq!(
            snap.json().get("persisted").and_then(Json::as_str),
            path.to_str()
        );

        let e2 = engine();
        let report = e2.restore_from_file(&path).unwrap();
        assert_eq!(report.session, "ops");
        assert!(report.warning.is_none(), "{:?}", report.warning);
        assert_fingerprints_are_full_hashes(&e2);
        let snap2 = ok(&e2, r#"{"v":1,"id":"s2","session":"ops","op":"snapshot"}"#);
        assert_eq!(
            snap2.json().get("generation").cloned(),
            Some(generation),
            "restored session reproduces the persisted generation"
        );
        assert_eq!(snap2.json().get("broken_edges"), Some(&Json::Number(2.0)));
        assert_eq!(snap2.json().get("events_applied"), Some(&Json::Number(2.0)));
        // A second restore collides with the live session.
        let collision = e2.restore_from_file(&path).unwrap_err();
        assert!(collision.contains("already exists"), "{collision}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_rejects_a_mismatched_base_topology() {
        let path = tmp_path("mismatch");
        let e = engine();
        ok(
            &e,
            r#"{"v":1,"id":"d0","session":"ops","op":"disrupt","edges":[1],"cost":1.0}"#,
        );
        let line = format!(
            r#"{{"v":1,"id":"s1","session":"ops","op":"snapshot","path":{:?}}}"#,
            path.to_str().unwrap()
        );
        ok(&e, &line);

        // A different base: same shape but a different edge capacity,
        // which the generation fingerprint covers — so the rebuilt
        // fingerprint cannot match the recorded one.
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 7.0).unwrap();
        g.add_edge(g.node(2), g.node(3), 10.0).unwrap();
        g.add_edge(g.node(0), g.node(3), 10.0).unwrap();
        let mut p = RecoveryProblem::new(g);
        p.add_demand(p.graph().node(0), p.graph().node(3), 5.0)
            .unwrap();
        let other = Engine::new(p, SolverSpec::parse("isp").unwrap());
        let e = other.restore_from_file(&path).unwrap_err();
        assert!(e.contains("generation mismatch"), "{e}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_snapshot_write_is_a_typed_io_error_and_the_target_survives() {
        let path = tmp_path("torn");
        let e = faulty("torn@1");
        ok(
            &e,
            r#"{"v":1,"id":"d0","op":"disrupt","edges":[1],"cost":1.0}"#,
        );
        let line = format!(
            r#"{{"v":1,"id":"s1","op":"snapshot","path":{:?}}}"#,
            path.to_str().unwrap()
        );
        let r = err(&e, &line);
        assert_eq!(r.error_kind(), Some("io_error"), "{}", r.to_line());
        assert!(
            !path.exists(),
            "a torn write must never leave a partial snapshot at the target"
        );
        // The session itself is fine; a retry (no fault at this index)
        // persists a complete, restorable snapshot.
        let retry = format!(
            r#"{{"v":1,"id":"s2","op":"snapshot","path":{:?}}}"#,
            path.to_str().unwrap()
        );
        ok(&e, &retry);
        let e2 = engine();
        assert_eq!(e2.restore_from_file(&path).unwrap().session, "default");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_salvages_a_torn_trailing_record() {
        let path = tmp_path("salvage");
        let e = engine();
        ok(
            &e,
            r#"{"v":1,"id":"d0","op":"disrupt","edges":[1],"cost":1.0}"#,
        );
        let line = format!(
            r#"{{"v":1,"id":"s1","op":"snapshot","path":{:?}}}"#,
            path.to_str().unwrap()
        );
        ok(&e, &line);
        // A crash mid-append leaves a partial frame after the good
        // record; restore must verify record-by-record, truncate the
        // tear away, and succeed with a typed warning.
        let good_len = std::fs::metadata(&path).unwrap().len();
        let extra = fsio::frame_record(br#"{"junk":1}"#);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&extra[..extra.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let e2 = engine();
        let report = e2.restore_from_file(&path).unwrap();
        assert_eq!(report.session, "default");
        let warning = report.warning.expect("salvage must be reported");
        assert!(warning.contains("salvaged"), "{warning}");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            good_len,
            "salvage truncates the file back to its valid prefix"
        );
        // After salvage the file is clean: a fresh restore warns nothing.
        let e3 = engine();
        assert!(e3.restore_from_file(&path).unwrap().warning.is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_refuses_a_bare_json_snapshot_untouched() {
        let path = tmp_path("bare");
        let e = engine();
        let line = format!(
            r#"{{"v":1,"id":"s1","op":"snapshot","path":{:?}}}"#,
            path.to_str().unwrap()
        );
        ok(&e, &line);
        // The same snapshot document, written as one bare JSON line.
        let scan = fsio::scan_records(&std::fs::read(&path).unwrap());
        let bare = [scan.records.last().unwrap().as_slice(), b"\n"].concat();
        std::fs::write(&path, &bare).unwrap();
        let reason = engine().restore_from_file(&path).unwrap_err();
        assert!(reason.contains("not a snapshot record stream"), "{reason}");
        assert_eq!(std::fs::read(&path).unwrap(), bare, "file left as found");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restore_rejects_torn_debris_with_no_intact_record() {
        // atomic_write_torn's failure mode: the *target* is never
        // damaged, but the .tmp debris holds a half-written frame. A
        // restore pointed at such debris has nothing to salvage and
        // must say so rather than fabricate a session.
        let path = tmp_path("debris");
        let doc_bytes = fsio::frame_record(br#"{"v":1,"kind":"netrec-session-snapshot"}"#);
        let err = fsio::atomic_write_torn(&path, &doc_bytes, false, true).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
        let debris = {
            let mut name = path.file_name().unwrap().to_os_string();
            name.push(".tmp");
            path.with_file_name(name)
        };
        assert!(debris.exists(), "torn write leaves .tmp debris");
        let e = engine();
        let reason = e.restore_from_file(&debris).unwrap_err();
        assert!(reason.contains("no intact snapshot record"), "{reason}");
        let _ = std::fs::remove_file(&debris);
    }

    #[test]
    fn health_answers_without_touching_sessions_or_indices() {
        let e = faulty("crash@0; panic@0");
        // Index 0 would crash/panic if health consumed an index — it
        // must not (and must not create the default session either).
        let r = ok(&e, r#"{"v":1,"id":"h1","op":"health"}"#);
        assert_eq!(r.json().get("sessions"), Some(&Json::Number(0.0)));
        assert!(r.json().get("uptime_ms").and_then(Json::as_f64).is_some());
        assert_eq!(r.json().get("shutting_down"), Some(&Json::Bool(false)));
        assert!(
            r.json().get("wal_seq").is_none(),
            "no WAL attached, no WAL counters: {}",
            r.to_line()
        );
    }

    #[test]
    fn replay_rebuilds_the_live_state_byte_for_byte() {
        let script = [
            r#"{"v":1,"id":"d0","op":"disrupt","edges":[1,3],"cost":2.0}"#,
            r#"{"v":1,"id":"q0","op":"query_routability"}"#,
            r#"{"v":1,"id":"m0","op":"demand","pairs":[[1,2,4.0]]}"#,
            r#"{"v":1,"id":"f0","op":"snapshot","fork":"side"}"#,
            r#"{"v":1,"id":"r0","session":"side","op":"repair","edges":[3]}"#,
            r#"{"v":1,"id":"p0","op":"query_plan","solver":"isp"}"#,
        ];
        let live = engine();
        for line in &script {
            live.process_line(line);
        }
        let recovered = engine();
        for line in &script {
            recovered.apply_replay(line).unwrap();
        }
        // Same sessions, same generations, and — because queries were
        // replayed too — the same warm-path replies going forward.
        assert_eq!(recovered.session_count(), live.session_count());
        for probe in [
            r#"{"v":1,"id":"s1","op":"snapshot"}"#,
            r#"{"v":1,"id":"s2","session":"side","op":"snapshot"}"#,
            r#"{"v":1,"id":"q9","op":"query_routability"}"#,
        ] {
            assert_eq!(live.process_line(probe), recovered.process_line(probe));
        }
    }

    #[test]
    fn checkpoint_doc_round_trips_through_restore_checkpoint() {
        let e = engine();
        ok(
            &e,
            r#"{"v":1,"id":"d0","op":"disrupt","edges":[1],"cost":1.5}"#,
        );
        ok(
            &e,
            r#"{"v":1,"id":"d1","session":"ops","op":"disrupt","nodes":[2],"cost":3.0}"#,
        );
        let doc = e.checkpoint_doc(7).unwrap();
        assert_eq!(doc.get("wal_seq").and_then(Json::as_u64), Some(7));
        let e2 = engine();
        assert_eq!(e2.restore_checkpoint(&doc).unwrap(), 2);
        assert_fingerprints_are_full_hashes(&e2);
        for probe in [
            r#"{"v":1,"id":"s1","op":"snapshot"}"#,
            r#"{"v":1,"id":"s2","session":"ops","op":"snapshot"}"#,
        ] {
            assert_eq!(e.process_line(probe), e2.process_line(probe));
        }
    }

    /// Every session's cached fingerprint equals the full from-scratch
    /// hash (session.rs keeps it as a test reference).
    fn assert_fingerprints_are_full_hashes(e: &Engine) {
        let table = e.sessions.lock().unwrap();
        assert!(!table.is_empty());
        for (name, session) in table.iter() {
            let session = session.lock().unwrap();
            assert_eq!(
                session.fingerprint(),
                session.fingerprint_reference(),
                "session {name}"
            );
        }
    }

    #[test]
    fn checkpoint_doc_refuses_poisoned_sessions() {
        let e = faulty("panic@0");
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.process_line(r#"{"v":1,"id":"d0","op":"disrupt","edges":[1],"cost":1.0}"#)
        }));
        let reason = e.checkpoint_doc(1).unwrap_err();
        assert!(reason.contains("poisoned"), "{reason}");
    }

    /// Sweeps the test engine's base (intact plus every single-edge
    /// cut) into an artifact.
    fn sweep_base(base: &RecoveryProblem) -> Arc<RoutabilityArtifact> {
        use netrec_core::oracle::artifact::ArtifactBuilder;
        use netrec_core::oracle::{ExactLp, RoutabilityOracle};
        let demands = base.demands();
        let exact = ExactLp::new();
        let mut builder = ArtifactBuilder::new(base.graph(), &demands);
        let edge_count = base.graph().edge_count();
        let mut masks: Vec<Vec<bool>> = vec![vec![true; edge_count]];
        for e in 0..edge_count {
            let mut m = vec![true; edge_count];
            m[e] = false;
            masks.push(m);
        }
        for mask in &masks {
            let view = base.graph().view().with_edge_mask(mask);
            let routable = exact.is_routable(&view, &demands).unwrap();
            builder.record(&view, &demands, routable);
        }
        Arc::new(builder.finish("square", &["single-cut".to_string()]))
    }

    #[test]
    fn artifact_changes_provenance_but_never_answers() {
        let plain = engine();
        let artifact = sweep_base(plain.base());
        let front = engine().with_artifact(Arc::clone(&artifact));
        assert!(front.artifact().is_some());
        let script = [
            r#"{"v":1,"id":"q0","op":"query_routability"}"#.to_string(),
            r#"{"v":1,"id":"d1","op":"disrupt","edges":[3],"cost":2.0}"#.to_string(),
            r#"{"v":1,"id":"q1","op":"query_routability"}"#.to_string(),
            r#"{"v":1,"id":"q2","op":"query_routability"}"#.to_string(),
        ];
        for line in &script {
            let a = ok(&plain, line);
            let b = ok(&front, line);
            // Same verdicts and generations; only provenance (the
            // answer_source tier and the oracle cost counters) may
            // differ between the cold and artifact-fronted engines.
            assert_eq!(a.json().get("routable"), b.json().get("routable"));
            assert_eq!(a.json().get("generation"), b.json().get("generation"));
        }
        // The swept single-cut state was answered by the artifact on
        // one engine and by a live solve on the other.
        let a = ok(&plain, r#"{"v":1,"id":"q3","op":"query_routability"}"#);
        let b = ok(&front, r#"{"v":1,"id":"q3","op":"query_routability"}"#);
        assert_eq!(
            a.json().get("answer_source"),
            Some(&Json::String("full_solve".to_string())),
            "{}",
            a.to_line()
        );
        assert_eq!(
            b.json().get("answer_source"),
            Some(&Json::String("artifact".to_string())),
            "{}",
            b.to_line()
        );
        // Cumulative snapshot stats expose the hit rate.
        let snap = ok(&front, r#"{"v":1,"id":"s0","op":"snapshot"}"#);
        let oracle = snap.json().get("oracle").cloned().unwrap();
        assert!(
            oracle.get("artifact_hits").and_then(Json::as_f64).unwrap() >= 1.0,
            "{}",
            snap.to_line()
        );
        // Forked sessions inherit the artifact.
        ok(
            &front,
            r#"{"v":1,"id":"f0","op":"snapshot","fork":"child"}"#,
        );
        ok(
            &front,
            r#"{"v":1,"id":"r0","session":"child","op":"repair","edges":[3]}"#,
        );
        let r = ok(
            &front,
            r#"{"v":1,"id":"q4","session":"child","op":"query_routability"}"#,
        );
        assert_eq!(
            r.json().get("answer_source"),
            Some(&Json::String("artifact".to_string())),
            "{}",
            r.to_line()
        );
    }
}

//! Resident recovery-as-a-service: the `netrec-cli serve` daemon.
//!
//! One-shot CLI invocations pay topology parsing, graph construction,
//! and cold LP solves on every question. For operators steering a live
//! recovery — "is the network routable *now*? what if we also lose
//! substation 17? which repairs next?" — that boot cost dominates. This
//! crate keeps everything warm instead: load the topology **once**,
//! then answer a stream of events and queries at millisecond latency
//! from per-session incremental-oracle state.
//!
//! The daemon speaks a versioned JSONL protocol (one JSON object per
//! line, `"v":1`) over stdin/stdout and, optionally, a TCP listener —
//! see [`protocol`] for the grammar and `DESIGN.md` §13 for the full
//! specification. Events mutate named sessions (`disrupt`, `repair`,
//! `demand`, `snapshot`/fork); queries read them (`query_routability`,
//! `query_plan`); `shutdown` drains and exits.
//!
//! Three properties anchor the design:
//!
//! * **Replay determinism** — a `query_plan` answer is byte-identical
//!   to solving the same prefix state from scratch with the same
//!   [`SolverSpec`](netrec_core::solver::SolverSpec): plan requests use
//!   a fresh solver and context every time, and only the *oracle* is
//!   warm (its verdicts are exact regardless of history). Replaying a
//!   recorded stream therefore reproduces responses byte-for-byte.
//! * **Isolation** — sessions share one immutable base topology behind
//!   an `Arc` and own private overlays; a fork copies the overlay plus
//!   the oracle's transferable witnesses, so what-if exploration never
//!   perturbs the main line.
//! * **Fairness** — per-session FIFO with round-robin across sessions,
//!   plus per-connection output sequencing: stdout order always equals
//!   request order (CI diffs it against goldens), yet a slow
//!   `query_plan` cannot starve another session's routability queries.
//!   A client that waits for each reply is served on its connection's
//!   own reader thread; a bounded worker pool takes pipelined input and
//!   sessions busy elsewhere. Per-request deadlines surface as typed
//!   `deadline_exceeded` responses; the session survives.
//! * **Failure containment** — a panic while a request executes becomes
//!   a typed `internal_error` reply and poisons only that session
//!   (later requests against it answer `session_poisoned`); queue
//!   bounds shed excess load with `overloaded` + `retry_after_ms`;
//!   degraded answers (`"degraded":true`) fall back to the certified
//!   oracle threshold path or the last known-good plan; `snapshot` can
//!   persist sessions atomically and `--restore` rebuilds them after a
//!   crash. A seeded fault-injection plane
//!   ([`netrec_core::FaultPlan`], `NETREC_FAULTS`) makes all of it
//!   deterministically testable — see `DESIGN.md` §14.
//! * **Durability** — with `--wal DIR`, every admitted request is
//!   appended to a segmented, checksummed write-ahead log ([`wal`]) and
//!   made durable per `--wal-sync` *before* its reply is released, so
//!   no acknowledged event outlives the process only in memory. The
//!   append and the hand-off to the scheduler are one step, so the log
//!   order is the execution order. Boot
//!   replays checkpoint + log suffix deterministically (salvaging a
//!   torn tail), replies carry `wal_seq`, and the `health` op reports
//!   the durability counters — see `DESIGN.md` §16.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod protocol;
pub mod server;
pub mod session;
pub mod wal;

pub use engine::{Engine, RestoreReport};
pub use protocol::{Op, ProtocolError, Request, Response, DEFAULT_SESSION, PROTOCOL_VERSION};
pub use server::{run_stream, run_stream_with, OpLatency, ServeReport, Server, ServerConfig};
pub use session::{Session, StalePlan};
pub use wal::{SyncPolicy, Wal, WalBoot, WalHealth, WalRecord};

//! The write-ahead event log: durability for the resident daemon
//! (`DESIGN.md` §16).
//!
//! Every admitted request line is appended to a segmented, checksummed
//! log *before* it can execute, so a crash can lose at most replies,
//! never acknowledged events: `serve --wal DIR` boot replays
//! checkpoint + log suffix through the engine and reaches exactly the
//! state the durable prefix describes. The reader that admits a
//! request appends it and hands it to the scheduler under one lock
//! (the server's admission step), so the log *is* the execution order,
//! across connections too, and replay is deterministic at any worker
//! count.
//!
//! # Layout
//!
//! `DIR/checkpoint` is an [`fsio`] container
//! (atomic tmp+rename) holding the persisted state of every session
//! plus the log sequence number it covers. `DIR/wal-NNNNNN.log` are
//! append-only segments of [`fsio::frame_record`] frames; each record
//! payload is one JSON line `{"seq":N,"line":"<request line>"}`.
//! Appends rotate to a fresh segment every [`Wal::SEGMENT_RECORDS`]
//! records, and a successful checkpoint deletes every covered segment —
//! the log is bounded by one segment plus the checkpoint.
//!
//! # Salvage
//!
//! A crash mid-append leaves a torn tail frame. Boot truncates the
//! damaged segment back to its longest valid record prefix and reports
//! a warning — it never refuses to boot over tail damage, because tail
//! damage is exactly what a crash is expected to leave. Records are
//! checksummed individually, so everything before the tear is trusted.
//!
//! # Sync policy
//!
//! [`SyncPolicy`] decides when appends become *durable* (fsync):
//! `always` fsyncs every append before the request may execute (the
//! strict ack-after-fsync contract), `interval:MS` group-commits from a
//! background flusher (bounded loss window, much cheaper), `off` leaves
//! it to the OS (crash-consistent, not power-safe). Replies carry the
//! record's `wal_seq` either way, and the `health` op reports both the
//! appended and the durable sequence, so clients can reconcile after a
//! reconnect.

use netrec_core::fault::Faults;
use netrec_core::fsio;
use netrec_json::{object, Json};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::time::{Duration, Instant};

/// The container kind tag of the checkpoint file.
const CHECKPOINT_KIND: &str = "netrec-wal-checkpoint";

/// The checkpoint format version.
const CHECKPOINT_VERSION: u32 = 1;

/// When appended records become durable (fsynced).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Fsync every append before its request executes: no acknowledged
    /// event can be lost, even to power failure.
    Always,
    /// Group-commit: a background flusher fsyncs dirty appends every
    /// this-many milliseconds. Loss window bounded by the interval.
    Interval(u64),
    /// Never fsync explicitly: appends reach the OS immediately (they
    /// survive a process crash) but power loss may drop the tail.
    Off,
}

impl SyncPolicy {
    /// Parses the `--wal-sync` flag grammar: `always`, `interval:MS`,
    /// or `off`.
    ///
    /// # Errors
    ///
    /// A message naming the malformed value.
    pub fn parse(spec: &str) -> Result<SyncPolicy, String> {
        match spec {
            "always" => Ok(SyncPolicy::Always),
            "off" => Ok(SyncPolicy::Off),
            other => match other.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .ok()
                    .filter(|&ms| ms > 0)
                    .map(SyncPolicy::Interval)
                    .ok_or_else(|| {
                        format!("bad interval in --wal-sync {spec:?} (want interval:MS)")
                    }),
                None => Err(format!(
                    "unknown --wal-sync {spec:?} (want always, interval:MS, or off)"
                )),
            },
        }
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncPolicy::Always => f.write_str("always"),
            SyncPolicy::Interval(ms) => write!(f, "interval:{ms}"),
            SyncPolicy::Off => f.write_str("off"),
        }
    }
}

/// One logged request, as recovered at boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's log sequence number (1-based; replies echo it as
    /// `wal_seq`).
    pub seq: u64,
    /// The raw request line exactly as the client sent it.
    pub line: String,
}

/// What [`Wal::open`] found on disk: the state to rebuild and how.
#[derive(Debug)]
pub struct WalBoot {
    /// The checkpoint document, when one exists (restore its sessions
    /// first, then replay `records` on top).
    pub checkpoint: Option<Json>,
    /// Log records past the checkpoint, in sequence order.
    pub records: Vec<WalRecord>,
    /// Salvage and consistency warnings (torn tails truncated, ignored
    /// trailing segments) — boot proceeds, the operator is told.
    pub warnings: Vec<String>,
}

/// A snapshot of the log's durability counters (the `health` op).
#[derive(Debug, Clone, Copy)]
pub struct WalHealth {
    /// Sequence number of the last appended record (0 = none yet).
    pub appended_seq: u64,
    /// Sequence number of the last *fsynced* record.
    pub durable_seq: u64,
    /// How long the oldest unsynced append has been waiting, in
    /// milliseconds (0 when everything is durable).
    pub fsync_lag_ms: u64,
}

struct WalState {
    /// The live segment. Appends are buffered: `always` flushes and
    /// fsyncs every record before returning, while `interval`/`off`
    /// leave bytes in the buffer until the next [`Wal::sync`] — their
    /// durability window already tolerates that, and it keeps a logged
    /// append within ~2x of an unlogged request instead of paying a
    /// write syscall per event.
    file: BufWriter<File>,
    seg_index: u64,
    seg_records: u64,
    next_seq: u64,
    appended_seq: u64,
    synced_seq: u64,
    /// Records appended since the last installed checkpoint.
    since_checkpoint: u64,
    /// When the oldest unsynced append landed (`None` = clean).
    dirty_since: Option<Instant>,
}

/// A live write-ahead log rooted at one directory. See the module docs
/// for layout, salvage, and sync semantics.
pub struct Wal {
    dir: PathBuf,
    policy: SyncPolicy,
    segment_records: u64,
    state: Mutex<WalState>,
    /// Runs inside [`Wal::sync`] between the flush and the fsync, where
    /// the log lock is released; tests park it there to stand for a
    /// slow disk.
    #[cfg(test)]
    sync_hook: Mutex<Option<Box<dyn Fn() + Send>>>,
}

impl Wal {
    /// Records per segment before appends rotate to a fresh file, and
    /// the checkpoint cadence (the server checkpoints when this many
    /// records have accumulated past the last checkpoint).
    pub const SEGMENT_RECORDS: u64 = 1024;

    /// Opens (creating if needed) the log directory, salvages any torn
    /// segment tail, and returns the live log plus everything needed to
    /// rebuild state: checkpoint document and post-checkpoint records.
    ///
    /// Tail damage is a warning, never a failure — but a checkpoint
    /// file that exists and cannot be validated *is* an error: it is
    /// written atomically, so damage there means real corruption, and
    /// silently dropping it would resurrect a stale world.
    ///
    /// # Errors
    ///
    /// Filesystem errors, or a corrupt checkpoint file.
    pub fn open(
        dir: &Path,
        policy: SyncPolicy,
        segment_records: u64,
    ) -> std::io::Result<(Wal, WalBoot)> {
        std::fs::create_dir_all(dir)?;
        let mut warnings = Vec::new();
        let checkpoint_path = dir.join("checkpoint");
        let (checkpoint, checkpoint_seq) =
            match fsio::read_container(&checkpoint_path, CHECKPOINT_KIND, CHECKPOINT_VERSION) {
                Ok(payload) => {
                    let text = String::from_utf8(payload).map_err(|_| {
                        std::io::Error::other("wal checkpoint payload is not UTF-8")
                    })?;
                    let doc = Json::parse(text.trim()).map_err(|e| {
                        std::io::Error::other(format!("wal checkpoint is not valid JSON: {e}"))
                    })?;
                    let seq = doc.get("wal_seq").and_then(Json::as_u64).ok_or_else(|| {
                        std::io::Error::other("wal checkpoint is missing \"wal_seq\"")
                    })?;
                    (Some(doc), seq)
                }
                Err(fsio::ContainerError::Io(std::io::ErrorKind::NotFound, _)) => (None, 0),
                Err(e) => {
                    return Err(std::io::Error::other(format!(
                        "wal checkpoint {} is corrupt: {e}",
                        checkpoint_path.display()
                    )))
                }
            };
        // Scan segments in name order; each is salvaged independently.
        // Damage in a non-final segment orphans everything after it —
        // records past a hole cannot be trusted to describe a
        // contiguous history, so they are dropped with a warning.
        let mut seg_indices: Vec<u64> = std::fs::read_dir(dir)?
            .filter_map(|entry| {
                let name = entry.ok()?.file_name().into_string().ok()?;
                let idx = name.strip_prefix("wal-")?.strip_suffix(".log")?;
                idx.parse::<u64>().ok()
            })
            .collect();
        seg_indices.sort_unstable();
        let mut records: Vec<WalRecord> = Vec::new();
        let mut next_seq = checkpoint_seq + 1;
        let mut last_seg = 0u64;
        'segments: for (pos, &seg) in seg_indices.iter().enumerate() {
            last_seg = seg;
            let path = segment_path(dir, seg);
            let scan = fsio::salvage_records(&path)?;
            if let Some(reason) = &scan.torn {
                warnings.push(format!(
                    "wal segment {} salvaged: {reason} (truncated to {} bytes)",
                    path.display(),
                    scan.valid_len
                ));
            }
            for payload in &scan.records {
                let record = match parse_record(payload) {
                    Ok(r) => r,
                    Err(why) => {
                        warnings.push(format!(
                            "wal segment {}: unreadable record ({why}); \
                             replay stops at seq {}",
                            path.display(),
                            next_seq.saturating_sub(1)
                        ));
                        break 'segments;
                    }
                };
                // Records at or below the checkpoint are already baked
                // into it (a crash between checkpoint install and
                // segment deletion leaves them behind harmlessly).
                if record.seq < next_seq {
                    continue;
                }
                if record.seq > next_seq {
                    warnings.push(format!(
                        "wal segment {}: sequence gap (expected {next_seq}, found {}); \
                         replay stops before the gap",
                        path.display(),
                        record.seq
                    ));
                    break 'segments;
                }
                next_seq += 1;
                records.push(record);
            }
            if scan.torn.is_some() && pos + 1 < seg_indices.len() {
                warnings.push(format!(
                    "wal segments after {} ignored: they follow a torn tail",
                    path.display()
                ));
                break 'segments;
            }
        }
        // Live appends continue into a fresh segment — never into a
        // salvaged one, so a boot loop under a crashy workload cannot
        // compound damage in a single file.
        let seg_index = last_seg + 1;
        let file = BufWriter::new(open_segment(dir, seg_index)?);
        let wal = Wal {
            dir: dir.to_path_buf(),
            policy,
            segment_records: segment_records.max(1),
            state: Mutex::new(WalState {
                file,
                seg_index,
                seg_records: 0,
                next_seq,
                appended_seq: next_seq - 1,
                synced_seq: next_seq - 1,
                since_checkpoint: records.len() as u64,
                dirty_since: None,
            }),
            #[cfg(test)]
            sync_hook: Mutex::new(None),
        };
        Ok((
            wal,
            WalBoot {
                checkpoint,
                records,
                warnings,
            },
        ))
    }

    /// The configured sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one request line and applies the sync policy; returns
    /// the record's sequence number. Under `always`, the record is
    /// durable when this returns — the request has not executed yet,
    /// which is exactly the write-ahead contract.
    ///
    /// # Errors
    ///
    /// Filesystem errors. The caller must not execute the request: a
    /// reply would acknowledge an event the log did not capture.
    pub fn append_line(&self, line: &str) -> std::io::Result<u64> {
        let mut st = self.lock();
        let seq = st.next_seq;
        let frame = fsio::frame_record(&record_payload(seq, line));
        st.file.write_all(&frame)?;
        st.next_seq += 1;
        st.appended_seq = seq;
        st.seg_records += 1;
        st.since_checkpoint += 1;
        if st.dirty_since.is_none() {
            st.dirty_since = Some(Instant::now());
        }
        if self.policy == SyncPolicy::Always {
            st.file.flush()?;
            st.file.get_ref().sync_data()?;
            st.synced_seq = seq;
            st.dirty_since = None;
        }
        if st.seg_records >= self.segment_records {
            self.rotate(&mut st)?;
        }
        Ok(seq)
    }

    /// Injected crash fault (`crash@I`): makes every *prior* append
    /// durable, then aborts the process before this request's record
    /// exists. The recovered state is exactly the durable prefix —
    /// deterministic, which is what lets the kill-loop harness compare
    /// against a golden byte-for-byte.
    pub fn crash_abort(&self, faults: &Faults) -> bool {
        if !faults.crash {
            return false;
        }
        let mut st = self.lock();
        let _ = st.file.flush();
        let _ = st.file.get_ref().sync_data();
        std::process::abort();
    }

    /// Injected torn-append fault (`wal_torn@I`): writes roughly half
    /// of this request's frame, forces it to disk, and aborts — leaving
    /// a genuine torn tail for boot salvage to truncate. (A plain kill
    /// rarely tears a small buffered write; this makes the salvage path
    /// testable on demand.)
    pub fn torn_abort(&self, line: &str, faults: &Faults) -> bool {
        if !faults.wal_torn {
            return false;
        }
        let mut st = self.lock();
        let seq = st.next_seq;
        let frame = fsio::frame_record(&record_payload(seq, line));
        let half = (frame.len() / 2).max(1);
        let _ = st.file.write_all(&frame[..half]);
        let _ = st.file.flush();
        let _ = st.file.get_ref().sync_data();
        std::process::abort();
    }

    /// Fsyncs outstanding appends, if any (the interval flusher's
    /// tick). Only the flush runs under the log lock: it hands the
    /// buffered records to the OS and notes the last seq it covered. The
    /// fsync then runs on a cloned handle outside the lock, so appends,
    /// and the admissions waiting behind them, never wait for the disk.
    /// Afterwards the durable seq rises to the flushed seq and no
    /// further: records appended during the fsync stay dirty until the
    /// next tick. (`always` appends and segment rotation still fsync
    /// under the lock: they need the records durable before going on.)
    ///
    /// # Errors
    ///
    /// Filesystem errors from the flush or the fsync.
    pub fn sync(&self) -> std::io::Result<()> {
        let (file, flushed_seq, flushed_at) = {
            let mut st = self.lock();
            if st.synced_seq >= st.appended_seq {
                return Ok(());
            }
            st.file.flush()?;
            (
                st.file.get_ref().try_clone()?,
                st.appended_seq,
                Instant::now(),
            )
        };
        #[cfg(test)]
        if let Some(hook) = self
            .sync_hook
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            hook();
        }
        file.sync_data()?;
        let mut st = self.lock();
        st.synced_seq = st.synced_seq.max(flushed_seq);
        st.dirty_since = if st.synced_seq >= st.appended_seq {
            None
        } else {
            // What is still dirty was appended after the flush.
            st.dirty_since.map(|since| since.max(flushed_at))
        };
        Ok(())
    }

    /// Spawns the group-commit flusher when the policy is
    /// `interval:MS`; no-op otherwise. The thread holds only a [`Weak`]
    /// handle and exits on its next tick after the log is dropped.
    pub fn spawn_flusher(wal: &Arc<Wal>) {
        let SyncPolicy::Interval(ms) = wal.policy else {
            return;
        };
        let weak: Weak<Wal> = Arc::downgrade(wal);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(ms));
            match weak.upgrade() {
                Some(wal) => {
                    if let Err(e) = wal.sync() {
                        eprintln!("serve: wal interval fsync failed: {e}");
                    }
                }
                None => return,
            }
        });
    }

    /// Sequence number of the last appended record.
    pub fn appended_seq(&self) -> u64 {
        self.lock().appended_seq
    }

    /// Whether enough records have accumulated past the last checkpoint
    /// that the server should quiesce and install a new one.
    pub fn checkpoint_due(&self) -> bool {
        self.lock().since_checkpoint >= self.segment_records
    }

    /// Durability counters for the `health` op.
    pub fn health(&self) -> WalHealth {
        let st = self.lock();
        WalHealth {
            appended_seq: st.appended_seq,
            durable_seq: if self.policy == SyncPolicy::Off {
                // Without fsyncs the OS owns durability; report what
                // was handed to it rather than a misleading zero.
                st.appended_seq
            } else {
                st.synced_seq
            },
            fsync_lag_ms: st
                .dirty_since
                .map(|t| t.elapsed().as_millis() as u64)
                .filter(|_| self.policy != SyncPolicy::Off)
                .unwrap_or(0),
        }
    }

    /// Installs a checkpoint covering every record appended so far: the
    /// document is written atomically, then all fully-covered segments
    /// are deleted and appends continue into a fresh one. The caller
    /// must have quiesced execution — the document must describe the
    /// state *after* the last appended record.
    ///
    /// # Errors
    ///
    /// Filesystem errors; on error the previous checkpoint (if any)
    /// still stands and no segment has been deleted.
    pub fn install_checkpoint(&self, doc: &Json) -> std::io::Result<()> {
        let mut st = self.lock();
        fsio::write_container(
            &self.dir.join("checkpoint"),
            CHECKPOINT_KIND,
            CHECKPOINT_VERSION,
            doc.to_line().as_bytes(),
            true,
        )?;
        // The checkpoint is the authority now: every segment (including
        // the live one) holds only covered records. Start fresh.
        let old_seg = st.seg_index;
        st.seg_index += 1;
        st.file = BufWriter::new(open_segment(&self.dir, st.seg_index)?);
        st.seg_records = 0;
        st.since_checkpoint = 0;
        st.synced_seq = st.appended_seq;
        st.dirty_since = None;
        drop(st);
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(idx) = name
                    .to_str()
                    .and_then(|n| n.strip_prefix("wal-")?.strip_suffix(".log"))
                    .and_then(|i| i.parse::<u64>().ok())
                else {
                    continue;
                };
                if idx <= old_seg {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }

    fn rotate(&self, st: &mut WalState) -> std::io::Result<()> {
        // Finish the outgoing segment cleanly so its tail can never
        // look torn to a later boot.
        st.file.flush()?;
        st.file.get_ref().sync_data()?;
        st.synced_seq = st.appended_seq;
        st.dirty_since = None;
        st.seg_index += 1;
        st.file = BufWriter::new(open_segment(&self.dir, st.seg_index)?);
        st.seg_records = 0;
        Ok(())
    }
}

/// Builds the JSON payload of one log record.
fn record_payload(seq: u64, line: &str) -> Vec<u8> {
    object(vec![
        ("seq", Json::Number(seq as f64)),
        ("line", Json::String(line.to_string())),
    ])
    .to_line()
    .into_bytes()
}

/// Parses one record payload back into `(seq, line)`.
fn parse_record(payload: &[u8]) -> Result<WalRecord, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("payload is not JSON: {e}"))?;
    let seq = doc
        .get("seq")
        .and_then(Json::as_u64)
        .ok_or_else(|| "missing \"seq\"".to_string())?;
    let line = doc
        .get("line")
        .and_then(Json::as_str)
        .ok_or_else(|| "missing \"line\"".to_string())?
        .to_string();
    Ok(WalRecord { seq, line })
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:06}.log"))
}

fn open_segment(dir: &Path, index: u64) -> std::io::Result<File> {
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(segment_path(dir, index))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("netrec_wal_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sync_policy_grammar_round_trips() {
        for (spec, policy) in [
            ("always", SyncPolicy::Always),
            ("off", SyncPolicy::Off),
            ("interval:25", SyncPolicy::Interval(25)),
        ] {
            let parsed = SyncPolicy::parse(spec).unwrap();
            assert_eq!(parsed, policy);
            assert_eq!(parsed.to_string(), spec);
        }
        for bad in ["", "sometimes", "interval:", "interval:0", "interval:ms"] {
            SyncPolicy::parse(bad).expect_err(bad);
        }
    }

    #[test]
    fn appends_replay_in_order_across_reopen() {
        let dir = scratch("roundtrip");
        let lines = ["{\"a\":1}", "{\"b\":2}", "{\"c\":3}"];
        {
            let (wal, boot) = Wal::open(&dir, SyncPolicy::Always, 1024).unwrap();
            assert!(boot.checkpoint.is_none() && boot.records.is_empty());
            assert!(boot.warnings.is_empty());
            for (i, line) in lines.iter().enumerate() {
                assert_eq!(wal.append_line(line).unwrap(), i as u64 + 1);
            }
            assert_eq!(wal.appended_seq(), 3);
            let h = wal.health();
            assert_eq!((h.appended_seq, h.durable_seq, h.fsync_lag_ms), (3, 3, 0));
        }
        let (wal, boot) = Wal::open(&dir, SyncPolicy::Always, 1024).unwrap();
        assert_eq!(
            boot.records,
            lines
                .iter()
                .enumerate()
                .map(|(i, l)| WalRecord {
                    seq: i as u64 + 1,
                    line: (*l).to_string()
                })
                .collect::<Vec<_>>()
        );
        assert!(boot.warnings.is_empty(), "{:?}", boot.warnings);
        // Sequence numbering continues where the log left off.
        assert_eq!(wal.append_line("{\"d\":4}").unwrap(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_salvaged_with_a_warning() {
        let dir = scratch("torn");
        {
            let (wal, _) = Wal::open(&dir, SyncPolicy::Off, 1024).unwrap();
            wal.append_line("{\"keep\":1}").unwrap();
            wal.append_line("{\"tear\":2}").unwrap();
        }
        // Tear the tail of the only segment by hand.
        let seg = segment_path(&dir, 1);
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();
        let (wal, boot) = Wal::open(&dir, SyncPolicy::Off, 1024).unwrap();
        assert_eq!(boot.records.len(), 1);
        assert_eq!(boot.records[0].line, "{\"keep\":1}");
        assert!(
            boot.warnings.iter().any(|w| w.contains("salvaged")),
            "{:?}",
            boot.warnings
        );
        // The next append continues at the sequence after the survivor.
        assert_eq!(wal.append_line("{\"next\":3}").unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_rotate_and_checkpoints_truncate() {
        let dir = scratch("rotate");
        let (wal, _) = Wal::open(&dir, SyncPolicy::Off, 2).unwrap();
        for i in 0..5 {
            wal.append_line(&format!("{{\"i\":{i}}}")).unwrap();
        }
        let segs = |dir: &Path| {
            let mut v: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .filter_map(|e| e.ok()?.file_name().into_string().ok())
                .filter(|n| n.starts_with("wal-"))
                .collect();
            v.sort();
            v
        };
        assert!(segs(&dir).len() >= 3, "{:?}", segs(&dir));
        assert!(wal.checkpoint_due());
        let doc = object(vec![
            ("wal_seq", Json::Number(wal.appended_seq() as f64)),
            ("sessions", Json::Array(vec![])),
        ]);
        wal.install_checkpoint(&doc).unwrap();
        assert_eq!(segs(&dir).len(), 1, "covered segments deleted");
        assert!(!wal.checkpoint_due());
        // Post-checkpoint appends land in the fresh segment and replay
        // on top of the checkpoint.
        wal.append_line("{\"after\":1}").unwrap();
        drop(wal);
        let (_, boot) = Wal::open(&dir, SyncPolicy::Off, 2).unwrap();
        let cp = boot.checkpoint.expect("checkpoint survives");
        assert_eq!(cp.get("wal_seq").and_then(Json::as_u64), Some(5));
        assert_eq!(boot.records.len(), 1);
        assert_eq!(boot.records[0].seq, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_sync_leaves_appends_unblocked() {
        use std::sync::mpsc;
        let dir = scratch("slow_sync");
        let (wal, _) = Wal::open(&dir, SyncPolicy::Interval(1000), 1024).unwrap();
        let wal = Arc::new(wal);
        let (parked_tx, parked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        *wal.sync_hook.lock().unwrap() = Some(Box::new(move || {
            parked_tx.send(()).unwrap();
            let _ = release_rx.lock().unwrap().recv();
        }));
        assert_eq!(wal.append_line("{\"a\":1}").unwrap(), 1);
        let syncer = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || wal.sync())
        };
        // The sync has flushed seq 1 and is parked before its fsync.
        parked_rx.recv().unwrap();
        let (appended_tx, appended_rx) = mpsc::channel();
        let appender = {
            let wal = Arc::clone(&wal);
            std::thread::spawn(move || appended_tx.send(wal.append_line("{\"b\":2}")))
        };
        let Ok(appended) = appended_rx.recv_timeout(Duration::from_secs(10)) else {
            release_tx.send(()).unwrap();
            panic!("an append waited for an in-flight fsync");
        };
        assert_eq!(appended.unwrap(), 2);
        let during = wal.health();
        release_tx.send(()).unwrap();
        syncer.join().unwrap().unwrap();
        appender.join().unwrap().unwrap();
        assert_eq!((during.appended_seq, during.durable_seq), (2, 0));
        // The sync covers what it flushed, not the append that raced it.
        let after = wal.health();
        assert_eq!((after.appended_seq, after.durable_seq), (2, 1));
        *wal.sync_hook.lock().unwrap() = None;
        wal.sync().unwrap();
        let caught_up = wal.health();
        assert_eq!((caught_up.durable_seq, caught_up.fsync_lag_ms), (2, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interval_flusher_catches_up() {
        let dir = scratch("interval");
        let (wal, _) = Wal::open(&dir, SyncPolicy::Interval(10), 1024).unwrap();
        let wal = Arc::new(wal);
        Wal::spawn_flusher(&wal);
        wal.append_line("{\"x\":1}").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while wal.health().durable_seq < 1 {
            assert!(Instant::now() < deadline, "flusher never synced");
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

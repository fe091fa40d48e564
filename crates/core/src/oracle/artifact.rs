//! The precomputed routability artifact and its oracle front door.
//!
//! `netrec-cli precompute` sweeps disruption classes of one base
//! instance offline and stores what it proved in a
//! [`RoutabilityArtifact`]: exact per-state verdicts keyed by the
//! canonical subgraph fingerprint (the private `canon` module), monotone
//! routable/unroutable witnesses, and cut certificates. At query time
//! [`ArtifactOracle`] consults the artifact first — a verdict hit is an
//! O(1) hash lookup, no LP anywhere near it — and falls through to its
//! inner backend (the [`super::IncrementalOracle`] by default) on a
//! miss. The
//! artifact is immutable after load, so one [`Arc`] serves every
//! session of a resident daemon and every scenario of a campaign
//! concurrently.
//!
//! **When is a hit sound?** Three transfer rules, all exact:
//!
//! 1. *Fingerprint equality.* Answers transfer only while the base
//!    instance matches: the generation key (graph wiring + demand
//!    list, `generation_key_of`) is stored in the artifact and
//!    checked on every lookup. Two states that canonicalize to the same
//!    effective subgraph are the same LP instance, so the stored
//!    verdict *is* the exact verdict.
//! 2. *Monotone witnesses.* A state extending a routable witness
//!    (every witness edge present with at least its capacity) is
//!    routable — the witnessed routing is still feasible. A state that
//!    a stored unroutable witness extends is unroutable — it offers
//!    strictly less. Same deduction the incremental oracle makes, from
//!    witnesses proven offline.
//! 3. *Cut certificates.* For a node set `S` recorded from an
//!    unroutable state, any state whose enabled capacity crossing `S`
//!    is below the total demand that must cross `S` is unroutable:
//!    every unit of crossing demand consumes a unit of crossing
//!    capacity regardless of routing. This transfers across capacity
//!    changes monotone witnesses cannot reach.
//!
//! On disk the artifact is netrec-json text inside the checksummed
//! [`crate::fsio`] container frame, so torn, truncated,
//! version-mismatched, or foreign files are rejected at load with
//! typed errors ([`ArtifactError`]) instead of producing wrong
//! answers. Integer bit patterns (keys, bitsets, capacity bits) cannot
//! travel as JSON numbers, which are `f64`s; payload version 2 stores
//! each word list as one lowercase hex string of 16-digit words, so a
//! list costs one JSON string instead of one per word (DESIGN.md §15).

use super::canon::{
    canonicalize, extends, insert_maximal_capped, insert_minimal_capped, EffState, RawState,
    UnionFind,
};
use super::{
    Counter, EvalOracle, IncSnapshot, OracleStats, Patch, RoutabilityOracle, SatisfactionOracle,
};
use crate::fsio::{self, ContainerError};
use crate::RecoveryError;
use netrec_graph::certificate::CUT_MARGIN;
use netrec_graph::{Graph, View};
use netrec_json::{object, Json};
use netrec_lp::mcf::Demand;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Container kind tag of artifact files.
pub const ARTIFACT_KIND: &str = "routability-artifact";

/// Artifact format version; bumped on any change to the JSON schema.
/// Version 2 packs each word list into one hex string; a version-1 file
/// is refused at load and must be regenerated with `netrec-cli
/// precompute`.
pub const ARTIFACT_VERSION: u32 = 2;

/// Witness-list bound per kind. Far above the live oracle's 16: the
/// artifact is built once offline and shared read-only, so the only
/// recurring cost is the O(|witnesses| · |E|) scan on a verdict miss.
const MAX_ARTIFACT_WITNESSES: usize = 512;

/// Cut-certificate bound (each check is O(|E|) per miss).
const MAX_CUTS: usize = 256;

/// A typed artifact failure: the container frame rejected the file, the
/// payload did not parse as an artifact, or the artifact does not match
/// the instance it was asked to serve.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// The container frame rejected the file (truncated, torn,
    /// version-mismatched, wrong kind, unreadable…).
    Container(ContainerError),
    /// The payload is not a well-formed artifact (JSON or schema).
    Parse(String),
    /// The artifact was built for a different base instance than the
    /// one it must serve (generation fingerprint mismatch).
    InstanceMismatch,
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Container(e @ ContainerError::VersionMismatch { .. }) => write!(
                f,
                "{e}; the artifact was written by another build, re-run \
                 `netrec-cli precompute` to regenerate it"
            ),
            ArtifactError::Container(e) => write!(f, "{e}"),
            ArtifactError::Parse(why) => write!(f, "malformed artifact payload: {why}"),
            ArtifactError::InstanceMismatch => {
                write!(
                    f,
                    "artifact was precomputed for a different topology/demand instance"
                )
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Container(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ContainerError> for ArtifactError {
    fn from(e: ContainerError) -> Self {
        ArtifactError::Container(e)
    }
}

impl From<ArtifactError> for RecoveryError {
    fn from(e: ArtifactError) -> Self {
        RecoveryError::Artifact(e.to_string())
    }
}

/// Encodes a word list as one lowercase hex string, 16 digits a word,
/// most significant digit first (the payload-version-2 form of every
/// word list).
fn encode_words(words: &[u64]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(16 * words.len());
    for &word in words {
        for shift in (0..16).rev() {
            out.push(DIGITS[(word >> (4 * shift)) as usize & 0xf] as char);
        }
    }
    out
}

/// Decodes [`encode_words`]' form with a nibble loop. Anything it would
/// not have written (a length that is not a multiple of 16, an
/// uppercase or non-hex digit) is an error, so every list has exactly
/// one spelling and saved files stay byte-deterministic.
fn decode_words(text: &str) -> Result<Vec<u64>, &'static str> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(16) {
        return Err("length is not a multiple of 16 digits");
    }
    let mut words = Vec::with_capacity(bytes.len() / 16);
    for digits in bytes.chunks_exact(16) {
        let mut word = 0u64;
        for &digit in digits {
            let nibble = match digit {
                b'0'..=b'9' => digit - b'0',
                b'a'..=b'f' => digit - b'a' + 10,
                _ => return Err("not a lowercase hex digit"),
            };
            word = word << 4 | u64::from(nibble);
        }
        words.push(word);
    }
    Ok(words)
}

/// A capacity-weighted unroutability certificate: the node set `S` (as
/// a bitset) and the total demand that must cross it. Any state whose
/// enabled crossing capacity is below `crossing_demand` is unroutable.
#[derive(Debug, Clone, PartialEq)]
struct CutCertificate {
    words: Vec<u64>,
    crossing_demand: f64,
}

impl CutCertificate {
    #[inline]
    fn contains(&self, node: usize) -> bool {
        self.words[node / 64] & (1 << (node % 64)) != 0
    }
}

/// The precomputed routability table (see the module docs). Immutable
/// after construction; share via [`Arc`].
#[derive(Debug, Clone)]
pub struct RoutabilityArtifact {
    /// Base-instance fingerprint ([`super::generation_key_of`]).
    generation: Vec<u64>,
    node_count: usize,
    edge_count: usize,
    /// Exact verdicts: canonical state key → routable.
    verdicts: HashMap<Vec<u64>, bool>,
    /// Minimal routable witnesses.
    routable: Vec<EffState>,
    /// Maximal unroutable witnesses.
    unroutable: Vec<EffState>,
    /// Capacity-weighted unroutability certificates.
    cuts: Vec<CutCertificate>,
    /// Free-form provenance: what the sweep covered.
    topology: String,
    classes: Vec<String>,
    /// Disruption states the offline sweep scored.
    source_states: usize,
}

impl RoutabilityArtifact {
    /// Whether this artifact was precomputed for exactly this base
    /// instance (graph wiring + demand list). Lookups on a
    /// non-matching instance always miss.
    pub fn matches(&self, graph: &Graph, demands: &[Demand]) -> bool {
        self.generation == super::generation_key_of(graph, demands)
    }

    /// The stored base-instance fingerprint (for the builder's
    /// generation policy).
    pub(crate) fn generation_key(&self) -> &[u64] {
        &self.generation
    }

    /// Number of exact per-state verdicts stored.
    pub fn verdict_count(&self) -> usize {
        self.verdicts.len()
    }

    /// Number of monotone witnesses stored (both kinds).
    pub fn witness_count(&self) -> usize {
        self.routable.len() + self.unroutable.len()
    }

    /// Number of cut certificates stored.
    pub fn cut_count(&self) -> usize {
        self.cuts.len()
    }

    /// Disruption states the offline sweep scored to build this
    /// artifact.
    pub fn source_states(&self) -> usize {
        self.source_states
    }

    /// Topology label recorded at build time.
    pub fn topology(&self) -> &str {
        &self.topology
    }

    /// Disruption classes the sweep covered, as recorded at build time.
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// Answers a routability query from the artifact alone, or `None`
    /// on a miss. This is the exact probe [`ArtifactOracle`] and the
    /// serve sessions share: fingerprint check, canonical-key verdict
    /// lookup, then witness and cut-certificate scans.
    pub fn lookup(&self, view: &View<'_>, demands: &[Demand]) -> Option<bool> {
        let graph = view.graph();
        if !self.matches(graph, demands) {
            return None;
        }
        let raw = RawState::of(view);
        let q = canonicalize(graph, demands, &raw.enabled, &raw.caps);
        self.lookup_canonical(graph, &q)
    }

    /// The canonical-state lookup behind [`Self::lookup`] (fingerprint
    /// already checked by the caller).
    fn lookup_canonical(&self, graph: &Graph, q: &EffState) -> Option<bool> {
        if let Some(&verdict) = self.verdicts.get(&q.key()) {
            return Some(verdict);
        }
        if self.routable.iter().any(|w| extends(q, w)) {
            return Some(true);
        }
        if self.unroutable.iter().any(|w| extends(w, q)) {
            return Some(false);
        }
        for cut in &self.cuts {
            let mut crossing_cap = 0.0;
            for e in graph.edges() {
                if q.enabled(e.index()) {
                    let (u, v) = graph.endpoints(e);
                    if cut.contains(u.index()) != cut.contains(v.index()) {
                        crossing_cap += q.caps[e.index()];
                    }
                }
            }
            if crossing_cap < cut.crossing_demand - CUT_MARGIN {
                return Some(false);
            }
        }
        None
    }

    /// Serializes to the on-disk netrec-json payload.
    fn to_json(&self) -> Json {
        let hex_list = |vals: &[u64]| Json::String(encode_words(vals));
        let state_json = |s: &EffState| {
            // Capacities only for enabled edges, in id order (the same
            // compression as `EffState::key`), stored as f64 bit
            // patterns so the round trip is exact.
            let caps: Vec<u64> = s
                .caps
                .iter()
                .enumerate()
                .filter(|&(e, _)| s.enabled(e))
                .map(|(_, c)| c.to_bits())
                .collect();
            object(vec![
                ("words", hex_list(&s.words)),
                ("caps", hex_list(&caps)),
            ])
        };
        let mut verdicts: Vec<(&Vec<u64>, bool)> =
            self.verdicts.iter().map(|(k, &v)| (k, v)).collect();
        // HashMap iteration order is unstable, and the witness lists
        // carry the builder's insertion order (which differs between a
        // whole-sweep build and a sharded merge); the file must be
        // byte-deterministic for golden tests and content-addressed
        // caching, so everything serializes sorted.
        verdicts.sort();
        let sorted_states = |states: &[EffState]| {
            let mut keyed: Vec<(Vec<u64>, Json)> =
                states.iter().map(|s| (s.key(), state_json(s))).collect();
            keyed.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Array(keyed.into_iter().map(|(_, j)| j).collect())
        };
        object(vec![
            ("generation", hex_list(&self.generation)),
            ("nodes", Json::Number(self.node_count as f64)),
            ("edges", Json::Number(self.edge_count as f64)),
            ("topology", Json::String(self.topology.clone())),
            (
                "classes",
                Json::Array(
                    self.classes
                        .iter()
                        .map(|c| Json::String(c.clone()))
                        .collect(),
                ),
            ),
            ("source_states", Json::Number(self.source_states as f64)),
            (
                "verdicts",
                Json::Array(
                    verdicts
                        .into_iter()
                        .map(|(key, routable)| {
                            object(vec![
                                ("key", hex_list(key)),
                                ("routable", Json::Bool(routable)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("routable", sorted_states(&self.routable)),
            ("unroutable", sorted_states(&self.unroutable)),
            ("cuts", {
                let mut cuts: Vec<&CutCertificate> = self.cuts.iter().collect();
                cuts.sort_by(|a, b| {
                    (&a.words, a.crossing_demand.to_bits())
                        .cmp(&(&b.words, b.crossing_demand.to_bits()))
                });
                Json::Array(
                    cuts.into_iter()
                        .map(|c| {
                            object(vec![
                                ("nodes", hex_list(&c.words)),
                                ("demand", hex_list(&[c.crossing_demand.to_bits()])),
                            ])
                        })
                        .collect(),
                )
            }),
        ])
    }

    /// Deserializes the on-disk payload.
    fn from_json(json: &Json) -> Result<Self, ArtifactError> {
        let parse = |why: &str| ArtifactError::Parse(why.to_string());
        let hex_list = |j: Option<&Json>, what: &str| -> Result<Vec<u64>, ArtifactError> {
            let text = j
                .and_then(Json::as_str)
                .ok_or_else(|| parse(&format!("missing {what}")))?;
            decode_words(text).map_err(|why| parse(&format!("bad hex words in {what}: {why}")))
        };
        let node_count = json
            .get("nodes")
            .and_then(Json::as_usize)
            .ok_or_else(|| parse("missing nodes"))?;
        let edge_count = json
            .get("edges")
            .and_then(Json::as_usize)
            .ok_or_else(|| parse("missing edges"))?;
        let words_per_state = edge_count.div_ceil(64);
        let state = |j: &Json| -> Result<EffState, ArtifactError> {
            let words = hex_list(j.get("words"), "state words")?;
            if words.len() != words_per_state {
                return Err(parse("state bitset width does not match edge count"));
            }
            let cap_bits = hex_list(j.get("caps"), "state caps")?;
            let mut caps = vec![0.0; edge_count];
            let mut next = 0;
            for (e, cap) in caps.iter_mut().enumerate() {
                if words[e / 64] & (1 << (e % 64)) != 0 {
                    let bits = *cap_bits
                        .get(next)
                        .ok_or_else(|| parse("state caps shorter than its bitset"))?;
                    *cap = f64::from_bits(bits);
                    next += 1;
                }
            }
            if next != cap_bits.len() {
                return Err(parse("state caps longer than its bitset"));
            }
            Ok(EffState { words, caps })
        };
        let states = |key: &str| -> Result<Vec<EffState>, ArtifactError> {
            json.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| parse(&format!("missing {key}")))?
                .iter()
                .map(state)
                .collect()
        };
        let mut verdicts = HashMap::new();
        for entry in json
            .get("verdicts")
            .and_then(Json::as_array)
            .ok_or_else(|| parse("missing verdicts"))?
        {
            let key = hex_list(entry.get("key"), "verdict key")?;
            // A key is a state bitset, then the capacity bits of each
            // edge it enables.
            let enabled: usize = key
                .iter()
                .take(words_per_state)
                .map(|w| w.count_ones() as usize)
                .sum();
            if key.len() != words_per_state + enabled {
                return Err(parse("verdict key width does not match its bitset"));
            }
            let routable = match entry.get("routable") {
                Some(Json::Bool(b)) => *b,
                _ => return Err(parse("verdict without a boolean routable field")),
            };
            verdicts.insert(key, routable);
        }
        let mut cuts = Vec::new();
        for entry in json
            .get("cuts")
            .and_then(Json::as_array)
            .ok_or_else(|| parse("missing cuts"))?
        {
            let words = hex_list(entry.get("nodes"), "cut nodes")?;
            if words.len() != node_count.div_ceil(64) {
                return Err(parse("cut bitset width does not match node count"));
            }
            let [demand_bits] = hex_list(entry.get("demand"), "cut demand")?[..] else {
                return Err(parse("cut demand is not one word"));
            };
            let crossing_demand = f64::from_bits(demand_bits);
            if !crossing_demand.is_finite() || crossing_demand <= 0.0 {
                return Err(parse("cut with non-positive crossing demand"));
            }
            cuts.push(CutCertificate {
                words,
                crossing_demand,
            });
        }
        Ok(RoutabilityArtifact {
            generation: hex_list(json.get("generation"), "generation")?,
            node_count,
            edge_count,
            verdicts,
            routable: states("routable")?,
            unroutable: states("unroutable")?,
            cuts,
            topology: json
                .get("topology")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            classes: json
                .get("classes")
                .and_then(Json::as_array)
                .map(|cs| {
                    cs.iter()
                        .filter_map(Json::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
            source_states: json
                .get("source_states")
                .and_then(Json::as_usize)
                .unwrap_or(0),
        })
    }

    /// Writes the artifact to `path` inside the checksummed container
    /// frame, atomically (tmp + rename).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the destination is
    /// untouched.
    pub fn save(&self, path: &Path, durable: bool) -> std::io::Result<()> {
        let payload = self.to_json().to_line();
        fsio::write_container(
            path,
            ARTIFACT_KIND,
            ARTIFACT_VERSION,
            payload.as_bytes(),
            durable,
        )
    }

    /// Loads an artifact from `path`, validating the container frame
    /// (kind, version, length, checksum) and the payload schema.
    ///
    /// # Errors
    ///
    /// A typed [`ArtifactError`] naming what was wrong — a torn or
    /// truncated file, a version mismatch, corruption, or a malformed
    /// payload. A rejected file never yields answers.
    pub fn load(path: &Path) -> Result<RoutabilityArtifact, ArtifactError> {
        let payload = fsio::read_container(path, ARTIFACT_KIND, ARTIFACT_VERSION)?;
        let text = String::from_utf8(payload)
            .map_err(|_| ArtifactError::Parse("payload is not UTF-8".to_string()))?;
        let json = Json::parse(&text).map_err(ArtifactError::Parse)?;
        RoutabilityArtifact::from_json(&json)
    }

    /// [`Self::load`] through a process-wide cache keyed by the
    /// canonical path: a daemon with many sessions and a campaign with
    /// many scenarios sharing one artifact parse it once and share the
    /// [`Arc`]. Load failures are not cached — a path can be retried
    /// after the file is fixed.
    ///
    /// # Errors
    ///
    /// Same as [`Self::load`].
    pub fn cached_load(path: &Path) -> Result<Arc<RoutabilityArtifact>, ArtifactError> {
        static CACHE: OnceLock<Mutex<HashMap<PathBuf, Arc<RoutabilityArtifact>>>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        let key = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
        if let Some(hit) = cache.lock().expect("artifact cache poisoned").get(&key) {
            return Ok(Arc::clone(hit));
        }
        let loaded = Arc::new(RoutabilityArtifact::load(path)?);
        cache
            .lock()
            .expect("artifact cache poisoned")
            .insert(key, Arc::clone(&loaded));
        Ok(loaded)
    }
}

/// Accumulates scored disruption states into a [`RoutabilityArtifact`].
/// The precompute sweep drives one builder per shard and
/// [`merge`](ArtifactBuilder::merge)s them in shard order, so the
/// result is deterministic for a given sweep regardless of thread
/// interleaving.
#[derive(Debug, Clone)]
pub struct ArtifactBuilder {
    generation: Vec<u64>,
    node_count: usize,
    edge_count: usize,
    verdicts: HashMap<Vec<u64>, bool>,
    routable: Vec<EffState>,
    unroutable: Vec<EffState>,
    cuts: Vec<CutCertificate>,
    source_states: usize,
}

impl ArtifactBuilder {
    /// A builder pinned to one base instance.
    pub fn new(graph: &Graph, demands: &[Demand]) -> Self {
        ArtifactBuilder {
            generation: super::generation_key_of(graph, demands),
            node_count: graph.node_count(),
            edge_count: graph.edge_count(),
            verdicts: HashMap::new(),
            routable: Vec::new(),
            unroutable: Vec::new(),
            cuts: Vec::new(),
            source_states: 0,
        }
    }

    /// Records one scored disruption state: the exact verdict keyed by
    /// its canonical state, a monotone witness, and (for unroutable
    /// states) the cut certificates of every disconnected demand.
    pub fn record(&mut self, view: &View<'_>, demands: &[Demand], is_routable: bool) {
        let graph = view.graph();
        debug_assert!(
            self.generation == super::generation_key_of(graph, demands),
            "artifact builder fed a state from a different base instance"
        );
        self.source_states += 1;
        let raw = RawState::of(view);
        if !is_routable {
            // Cuts come from the *raw* mask: canonicalization drops every
            // edge of a disconnected demand's components, which would
            // collapse each source side to the lone source node and lose
            // the informative partition.
            self.derive_cuts(graph, demands, &raw.enabled);
        }
        let q = canonicalize(graph, demands, &raw.enabled, &raw.caps);
        self.verdicts.insert(q.key(), is_routable);
        if is_routable {
            insert_minimal_capped(&mut self.routable, q, MAX_ARTIFACT_WITNESSES);
        } else {
            insert_maximal_capped(&mut self.unroutable, q, MAX_ARTIFACT_WITNESSES);
        }
    }

    /// For each demand disconnected in the swept state, certify the node
    /// set of its source-side component: in that state no enabled
    /// capacity crosses it (it is a component), so the certificate holds
    /// with the full demand that must cross. The resulting bound —
    /// "enabled capacity crossing `S` below the crossing demand ⇒
    /// unroutable" — is a plain cut bound, valid for *any* node set, so
    /// it transfers to every queried state regardless of how `S` was
    /// found.
    fn derive_cuts(&mut self, graph: &Graph, demands: &[Demand], enabled: &[bool]) {
        let n = graph.node_count();
        let mut uf = UnionFind::new(n);
        for e in graph.edges() {
            if enabled[e.index()] {
                let (u, v) = graph.endpoints(e);
                uf.union(u.index(), v.index());
            }
        }
        for d in demands {
            if !d.is_active() {
                continue;
            }
            let rs = uf.find(d.source.index());
            if rs == uf.find(d.target.index()) {
                continue;
            }
            let mut words = vec![0u64; n.div_ceil(64)];
            for node in 0..n {
                if uf.find(node) == rs {
                    words[node / 64] |= 1 << (node % 64);
                }
            }
            let inside = |node: usize| words[node / 64] & (1 << (node % 64)) != 0;
            let crossing_demand: f64 = demands
                .iter()
                .filter(|d| d.is_active() && inside(d.source.index()) != inside(d.target.index()))
                .map(|d| d.amount)
                .sum();
            if crossing_demand <= 0.0 {
                continue;
            }
            if self.cuts.len() < MAX_CUTS && !self.cuts.iter().any(|c| c.words == words) {
                self.cuts.push(CutCertificate {
                    words,
                    crossing_demand,
                });
            }
        }
    }

    /// Folds another shard's accumulation into this one. Merging the
    /// shards in index order yields the same artifact every run.
    pub fn merge(&mut self, other: ArtifactBuilder) {
        assert_eq!(
            self.generation, other.generation,
            "cannot merge artifact shards from different base instances"
        );
        self.source_states += other.source_states;
        self.verdicts.extend(other.verdicts);
        for w in other.routable {
            insert_minimal_capped(&mut self.routable, w, MAX_ARTIFACT_WITNESSES);
        }
        for w in other.unroutable {
            insert_maximal_capped(&mut self.unroutable, w, MAX_ARTIFACT_WITNESSES);
        }
        for c in other.cuts {
            if self.cuts.len() < MAX_CUTS && !self.cuts.iter().any(|mine| mine.words == c.words) {
                self.cuts.push(c);
            }
        }
    }

    /// Disruption states recorded so far.
    pub fn recorded(&self) -> usize {
        self.source_states
    }

    /// Finishes the artifact, stamping its provenance labels.
    pub fn finish(self, topology: &str, classes: &[String]) -> RoutabilityArtifact {
        RoutabilityArtifact {
            generation: self.generation,
            node_count: self.node_count,
            edge_count: self.edge_count,
            verdicts: self.verdicts,
            routable: self.routable,
            unroutable: self.unroutable,
            cuts: self.cuts,
            topology: topology.to_string(),
            classes: classes.to_vec(),
            source_states: self.source_states,
        }
    }
}

/// The artifact-fronted oracle: probes the shared read-only
/// [`RoutabilityArtifact`] first and falls through to an inner backend
/// on a miss (see the module docs for the hit soundness argument).
/// Satisfaction queries and batch scoring always go to the inner
/// backend — the artifact stores routability verdicts only.
pub struct ArtifactOracle {
    artifact: Arc<RoutabilityArtifact>,
    inner: Box<dyn EvalOracle>,
    artifact_hits: Counter,
    artifact_misses: Counter,
}

impl ArtifactOracle {
    /// Fronts `inner` with `artifact`.
    pub fn new(artifact: Arc<RoutabilityArtifact>, inner: Box<dyn EvalOracle>) -> Self {
        ArtifactOracle {
            artifact,
            inner,
            artifact_hits: Counter::default(),
            artifact_misses: Counter::default(),
        }
    }

    /// The shared artifact this oracle probes.
    pub fn artifact(&self) -> &Arc<RoutabilityArtifact> {
        &self.artifact
    }
}

impl std::fmt::Debug for ArtifactOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactOracle")
            .field("artifact_verdicts", &self.artifact.verdict_count())
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl RoutabilityOracle for ArtifactOracle {
    fn is_routable(&self, view: &View<'_>, demands: &[Demand]) -> Result<bool, RecoveryError> {
        if let Some(verdict) = self.artifact.lookup(view, demands) {
            self.artifact_hits.bump();
            return Ok(verdict);
        }
        self.artifact_misses.bump();
        self.inner.is_routable(view, demands)
    }
}

impl SatisfactionOracle for ArtifactOracle {
    fn satisfied(&self, view: &View<'_>, demands: &[Demand]) -> Result<Vec<f64>, RecoveryError> {
        self.inner.satisfied(view, demands)
    }
}

impl EvalOracle for ArtifactOracle {
    fn name(&self) -> String {
        format!("artifact({})", self.inner.name())
    }

    fn stats(&self) -> OracleStats {
        let mut stats = self.inner.stats();
        // Artifact hits never reach the inner backend, so its query
        // counter misses them; fold them back in so `queries()` counts
        // every question asked of this oracle.
        stats.routability_queries += self.artifact_hits.get();
        stats.artifact_hits = self.artifact_hits.get();
        stats.artifact_misses = self.artifact_misses.get();
        stats
    }

    fn reset_stats(&self) {
        self.artifact_hits.reset();
        self.artifact_misses.reset();
        self.inner.reset_stats();
    }

    fn warm_state(&self) -> Option<IncSnapshot> {
        self.inner.warm_state()
    }

    fn evaluate_batch(
        &self,
        view: &View<'_>,
        demands: &[Demand],
        patches: &[Patch],
    ) -> Result<Vec<f64>, RecoveryError> {
        self.inner.evaluate_batch(view, demands, patches)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ExactLp, IncrementalOracle};
    use super::*;

    fn square() -> Graph {
        let mut g = Graph::with_nodes(4);
        g.add_edge(g.node(0), g.node(1), 10.0).unwrap();
        g.add_edge(g.node(1), g.node(3), 10.0).unwrap();
        g.add_edge(g.node(0), g.node(2), 4.0).unwrap();
        g.add_edge(g.node(2), g.node(3), 4.0).unwrap();
        g
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("netrec_artifact_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Sweeps all single-edge cuts of the square, building an artifact
    /// with exact verdicts.
    fn sweep_square(g: &Graph, demands: &[Demand]) -> RoutabilityArtifact {
        let exact = ExactLp::new();
        let mut builder = ArtifactBuilder::new(g, demands);
        // Intact state plus every single-edge cut.
        let mut masks: Vec<Vec<bool>> = vec![vec![true; 4]];
        for e in 0..4 {
            let mut m = vec![true; 4];
            m[e] = false;
            masks.push(m);
        }
        for mask in &masks {
            let view = g.view().with_edge_mask(mask);
            let routable = exact.is_routable(&view, demands).unwrap();
            builder.record(&view, demands, routable);
        }
        builder.finish("square", &["single-cut".to_string()])
    }

    #[test]
    fn artifact_round_trips_through_disk() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        let artifact = sweep_square(&g, &demands);
        assert!(artifact.verdict_count() >= 5);
        let dir = scratch("roundtrip");
        let path = dir.join("square.nra");
        artifact.save(&path, false).unwrap();
        let loaded = RoutabilityArtifact::load(&path).unwrap();
        assert_eq!(loaded.verdict_count(), artifact.verdict_count());
        assert_eq!(loaded.witness_count(), artifact.witness_count());
        assert_eq!(loaded.cut_count(), artifact.cut_count());
        assert_eq!(loaded.source_states(), artifact.source_states());
        assert!(loaded.matches(&g, &demands));
        // Every swept state answers identically after the round trip.
        for e in 0..4 {
            let mut mask = vec![true; 4];
            mask[e] = false;
            let view = g.view().with_edge_mask(&mask);
            assert_eq!(
                loaded.lookup(&view, &demands),
                artifact.lookup(&view, &demands),
                "edge {e}"
            );
            assert!(loaded.lookup(&view, &demands).is_some(), "edge {e}");
        }
        // Serialization is byte-deterministic (golden replay and
        // content addressing depend on it).
        let again = dir.join("square2.nra");
        loaded.save(&again, false).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&again).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hits_match_exact_and_misses_fall_through() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        let artifact = Arc::new(sweep_square(&g, &demands));
        let oracle = ArtifactOracle::new(Arc::clone(&artifact), Box::new(IncrementalOracle::new()));
        let exact = ExactLp::new();
        // Swept states: artifact hits, identical verdicts, zero solves.
        assert!(oracle.is_routable(&g.view(), &demands).unwrap());
        let mask = vec![false, true, true, true];
        let view = g.view().with_edge_mask(&mask);
        assert_eq!(
            oracle.is_routable(&view, &demands).unwrap(),
            exact.is_routable(&view, &demands).unwrap()
        );
        let stats = oracle.stats();
        assert_eq!(stats.artifact_hits, 2, "{stats:?}");
        assert_eq!(stats.full_solves, 0, "{stats:?}");
        assert_eq!(stats.routability_queries, 2, "{stats:?}");
        // An unswept state (capacity override) falls through to the
        // inner backend and still matches exact.
        let caps = vec![10.0, 10.0, 4.0, 1.0];
        let recap = g.view().with_capacities(&caps);
        assert_eq!(
            oracle.is_routable(&recap, &demands).unwrap(),
            exact.is_routable(&recap, &demands).unwrap()
        );
        // (The witness scan may or may not cover it; either way the
        // answer is exact. A genuinely foreign instance must miss:)
        let other = [Demand::new(g.node(0), g.node(3), 999.0)];
        assert!(!oracle.is_routable(&g.view(), &other).unwrap());
        let stats = oracle.stats();
        assert!(stats.artifact_misses >= 1, "{stats:?}");
    }

    #[test]
    fn witnesses_transfer_to_unswept_states() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        let artifact = sweep_square(&g, &demands);
        // Raising a capacity above the swept value extends the intact
        // routable witness: hit, no LP.
        let caps = vec![11.0, 12.0, 4.0, 4.0];
        let view = g.view().with_capacities(&caps);
        assert_eq!(artifact.lookup(&view, &demands), Some(true));
    }

    #[test]
    fn cut_certificates_catch_capacity_starvation() {
        // Path 0-1-2 with demand 0→2: cutting edge 1 disconnects the
        // demand, so the sweep records the {0,1} cut with crossing
        // demand 5. A state where that edge is *enabled but too small*
        // is unroutable by the certificate even though no witness
        // dominates it.
        let mut g = Graph::with_nodes(3);
        g.add_edge(g.node(0), g.node(1), 8.0).unwrap();
        g.add_edge(g.node(1), g.node(2), 8.0).unwrap();
        let demands = [Demand::new(g.node(0), g.node(2), 5.0)];
        let exact = ExactLp::new();
        let mut builder = ArtifactBuilder::new(&g, &demands);
        for e in 0..2 {
            let mut mask = vec![true; 2];
            mask[e] = false;
            let view = g.view().with_edge_mask(&mask);
            let routable = exact.is_routable(&view, &demands).unwrap();
            builder.record(&view, &demands, routable);
        }
        let artifact = builder.finish("path3", &["single-cut".to_string()]);
        assert!(artifact.cut_count() >= 1, "sweep derived no cuts");
        // Enabled-but-starved crossing edge: capacity 2 < demand 5.
        let caps = vec![8.0, 2.0];
        let view = g.view().with_capacities(&caps);
        assert_eq!(artifact.lookup(&view, &demands), Some(false));
        assert!(!exact.is_routable(&view, &demands).unwrap());
        // Ample crossing capacity: the certificate stays silent and the
        // verdict map has no entry → honest miss.
        let caps = vec![8.0, 9.0];
        let view = g.view().with_capacities(&caps);
        assert_eq!(artifact.lookup(&view, &demands), None);
    }

    #[test]
    fn every_exact_backend_answers_what_the_lp_answers_at_the_capacity_edge() {
        // The square's max flow 0→3 is 14. A demand just above it is
        // infeasible in exact arithmetic, but the simplex accepts a
        // violation up to its feasibility tolerance; every exact
        // backend, with its cut checks, must agree with the plain LP.
        let g = square();
        for delta in [2e-9, 5e-8, 2e-7] {
            let demands = [Demand::new(g.node(0), g.node(3), 14.0 + delta)];
            // The sweep records only the state with node 0's edges cut,
            // so the artifact holds the stored cut {0}; the intact state
            // (crossing capacity 14) is left to that cut and the inner
            // backend.
            let mut builder = ArtifactBuilder::new(&g, &demands);
            let isolated = vec![false, true, false, true];
            builder.record(&g.view().with_edge_mask(&isolated), &demands, false);
            let artifact = Arc::new(builder.finish("square", &["single-cut".to_string()]));
            assert_eq!(artifact.cut_count(), 1);
            let fronted = ArtifactOracle::new(artifact, Box::new(IncrementalOracle::new()));
            let lp = netrec_lp::mcf::routability(&g.view(), &demands)
                .unwrap()
                .is_some();
            let view = g.view();
            assert_eq!(
                ExactLp::new().is_routable(&view, &demands).unwrap(),
                lp,
                "{delta}"
            );
            assert_eq!(
                IncrementalOracle::new()
                    .is_routable(&view, &demands)
                    .unwrap(),
                lp,
                "{delta}"
            );
            assert_eq!(fronted.is_routable(&view, &demands).unwrap(), lp, "{delta}");
        }
    }

    #[test]
    fn foreign_instances_never_hit() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        let artifact = sweep_square(&g, &demands);
        // Different demand amount → different generation → miss.
        let other = [Demand::new(g.node(0), g.node(3), 9.0)];
        assert_eq!(artifact.lookup(&g.view(), &other), None);
        assert!(!artifact.matches(&g, &other));
        // Different wiring, same shape → miss.
        let mut h = Graph::with_nodes(4);
        h.add_edge(h.node(0), h.node(2), 10.0).unwrap();
        h.add_edge(h.node(2), h.node(3), 10.0).unwrap();
        h.add_edge(h.node(0), h.node(1), 4.0).unwrap();
        h.add_edge(h.node(1), h.node(3), 4.0).unwrap();
        let hd = [Demand::new(h.node(0), h.node(3), 8.0)];
        assert_eq!(artifact.lookup(&h.view(), &hd), None);
    }

    #[test]
    fn sharded_build_merges_deterministically() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        let exact = ExactLp::new();
        // One builder over all states vs two shards merged.
        let whole = sweep_square(&g, &demands);
        let mut shard0 = ArtifactBuilder::new(&g, &demands);
        let mut shard1 = ArtifactBuilder::new(&g, &demands);
        let mut masks: Vec<Vec<bool>> = vec![vec![true; 4]];
        for e in 0..4 {
            let mut m = vec![true; 4];
            m[e] = false;
            masks.push(m);
        }
        for (i, mask) in masks.iter().enumerate() {
            let view = g.view().with_edge_mask(mask);
            let routable = exact.is_routable(&view, &demands).unwrap();
            let shard = if i % 2 == 0 { &mut shard0 } else { &mut shard1 };
            shard.record(&view, &demands, routable);
        }
        shard0.merge(shard1);
        let merged = shard0.finish("square", &["single-cut".to_string()]);
        assert_eq!(merged.verdict_count(), whole.verdict_count());
        assert_eq!(merged.source_states(), whole.source_states());
        let dir = scratch("merge");
        let a = dir.join("whole.nra");
        let b = dir.join("merged.nra");
        whole.save(&a, false).unwrap();
        merged.save(&b, false).unwrap();
        // Verdict maps are sorted at serialization, so identical
        // content produces identical bytes regardless of build order.
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_files_are_rejected_with_typed_errors() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        let artifact = sweep_square(&g, &demands);
        let dir = scratch("reject");
        let path = dir.join("square.nra");
        artifact.save(&path, false).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Truncated (torn copy).
        let torn = dir.join("torn.nra");
        std::fs::write(&torn, &full[..full.len() / 2]).unwrap();
        assert!(matches!(
            RoutabilityArtifact::load(&torn),
            Err(ArtifactError::Container(ContainerError::Truncated { .. }))
        ));
        // Version-mismatched: rewrite the frame with a future version.
        let bumped = dir.join("future.nra");
        let payload = fsio::read_container(&path, ARTIFACT_KIND, ARTIFACT_VERSION).unwrap();
        fsio::write_container(
            &bumped,
            ARTIFACT_KIND,
            ARTIFACT_VERSION + 1,
            &payload,
            false,
        )
        .unwrap();
        assert!(matches!(
            RoutabilityArtifact::load(&bumped),
            Err(ArtifactError::Container(
                ContainerError::VersionMismatch { .. }
            ))
        ));
        // Valid frame around a malformed payload.
        let junk = dir.join("junk.nra");
        fsio::write_container(
            &junk,
            ARTIFACT_KIND,
            ARTIFACT_VERSION,
            b"{\"nodes\":4}",
            false,
        )
        .unwrap();
        assert!(matches!(
            RoutabilityArtifact::load(&junk),
            Err(ArtifactError::Parse(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_1_file_is_refused_and_names_precompute() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        let dir = scratch("v1");
        let path = dir.join("square.nra");
        sweep_square(&g, &demands).save(&path, false).unwrap();
        let payload = fsio::read_container(&path, ARTIFACT_KIND, ARTIFACT_VERSION).unwrap();
        let old = dir.join("v1.nra");
        fsio::write_container(&old, ARTIFACT_KIND, 1, &payload, false).unwrap();
        let err = RoutabilityArtifact::load(&old).unwrap_err();
        assert_eq!(
            err,
            ArtifactError::Container(ContainerError::VersionMismatch {
                found: 1,
                supported: 2
            })
        );
        assert!(err.to_string().contains("netrec-cli precompute"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn word_strings_decode_only_in_their_one_spelling() {
        assert_eq!(
            decode_words("00000000000000ff0123456789abcdef"),
            Ok(vec![0xff, 0x0123_4567_89ab_cdef])
        );
        assert_eq!(decode_words(""), Ok(vec![]));
        let words = [0, 1, u64::MAX, 0x8000_0000_0000_0000, 0xdead_beef];
        assert_eq!(decode_words(&encode_words(&words)), Ok(words.to_vec()));
        for bad in [
            "0",
            "000000000000000",
            "00000000",
            "00000000000000000",
            "00000000000000FF",
            "000000000000000g",
            "-000000000000001",
            "+000000000000001",
            "0x00000000000001",
            "00000000000000\u{e9}",
        ] {
            assert!(decode_words(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn malformed_word_strings_are_parse_errors() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        let exact = ExactLp::new();
        let mut builder = ArtifactBuilder::new(&g, &demands);
        for mask in [vec![true; 4], vec![false, true, false, true]] {
            let view = g.view().with_edge_mask(&mask);
            let routable = exact.is_routable(&view, &demands).unwrap();
            builder.record(&view, &demands, routable);
        }
        let artifact = builder.finish("square", &["single-cut".to_string()]);
        assert_eq!(artifact.cut_count(), 1);
        let text = artifact.to_json().to_line();
        assert!(RoutabilityArtifact::from_json(&Json::parse(&text).unwrap()).is_ok());
        // Rewrites the first `"field":"…"` word string with `edit`.
        let load_edited = |field: &str, edit: &dyn Fn(&str) -> String| {
            let open = format!("\"{field}\":\"");
            let start = text.find(&open).expect(field) + open.len();
            let end = start + text[start..].find('"').unwrap();
            let edited = format!(
                "{}{}{}",
                &text[..start],
                edit(&text[start..end]),
                &text[end..]
            );
            RoutabilityArtifact::from_json(&Json::parse(&edited).unwrap())
        };
        type Edit = fn(&str) -> String;
        let spellings: [(&str, Edit); 4] = [
            ("odd length", |w| w[1..].to_string()),
            ("uppercase", |w| format!("{}A", &w[1..])),
            ("non-hex", |w| format!("{}g", &w[1..])),
            ("half a word", |w| w[8..].to_string()),
        ];
        for field in ["generation", "key", "words", "caps", "nodes", "demand"] {
            for (what, edit) in spellings {
                assert!(
                    matches!(load_edited(field, &edit), Err(ArtifactError::Parse(_))),
                    "{field}: {what}"
                );
            }
        }
        // A whole extra word breaks every width the schema pins: the
        // state and cut bitsets, caps against their bitset, a verdict
        // key against its bitset, and the single-word cut demand.
        let extra_word = |w: &str| format!("{w}0000000000000000");
        for field in ["key", "words", "caps", "nodes", "demand"] {
            assert!(
                matches!(
                    load_edited(field, &extra_word),
                    Err(ArtifactError::Parse(_))
                ),
                "{field}: extra word"
            );
        }
    }

    #[test]
    fn cached_load_shares_one_parse() {
        let g = square();
        let demands = [Demand::new(g.node(0), g.node(3), 8.0)];
        let artifact = sweep_square(&g, &demands);
        let dir = scratch("cache");
        let path = dir.join("square.nra");
        artifact.save(&path, false).unwrap();
        let a = RoutabilityArtifact::cached_load(&path).unwrap();
        let b = RoutabilityArtifact::cached_load(&path).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second load must share the Arc");
        assert!(RoutabilityArtifact::cached_load(&dir.join("absent.nra")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

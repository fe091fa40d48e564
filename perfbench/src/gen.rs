//! Seeded input generators. Every request line a workload sends comes
//! from here (or, for the adaptive planning loop, from here plus the
//! daemon's own replies), so one `--seed` fixes every input.

use netrec_disrupt::DisruptionModel;
use netrec_graph::View;
use netrec_lp::mcf::{self, Demand};
use netrec_serve::{Op, Request};
use netrec_topology::demand::{generate_demands, DemandSpec};
use netrec_topology::Topology;
use std::collections::BTreeMap;

/// splitmix64: a tiny seeded generator, one independent stream per tag.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream `tag` of `seed`.
    pub fn new(seed: u64, tag: u64) -> Rng {
        let mut rng = Rng(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `k` distinct items of `pool` (all of them when `k ≥ len`).
    fn pick(&mut self, pool: &[usize], k: usize) -> Vec<usize> {
        let mut pool = pool.to_vec();
        let k = k.min(pool.len());
        for i in 0..k {
            let j = i + self.below(pool.len() - i);
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool.sort_unstable();
        pool
    }
}

/// A request line in the protocol's canonical encoding.
pub fn line(id: String, session: &str, op: Op) -> String {
    Request {
        id,
        session: Some(session.to_string()),
        op,
    }
    .to_line()
}

/// Op shares of the committed 222-event replay with its plans moved to
/// the planning workload: query, disrupt, repair, demand, snapshot.
const SERVE_SHARES: [f64; 5] = [0.47, 0.36, 0.12, 0.025, 0.025];
/// Broken edges per session at which disrupts stop adding damage and
/// re-apply the last disrupt instead, which keeps damage bounded.
const DAMAGE_CAP: usize = 5;
/// Share of disrupts and repairs that undo or redo the previous one,
/// returning the session to a state it has already visited.
const REVISIT_SHARE: f64 = 0.25;

/// One live session's damage as the generator tracks it.
struct SessionGen {
    name: String,
    broken: BTreeMap<usize, f64>,
    last_disrupt: Option<(Vec<usize>, f64)>,
    alt_demand: bool,
}

/// The live-operations stream of one connection: two sessions of its
/// own, disjoint from every other connection's.
pub struct ServeStream {
    rng: Rng,
    conn: usize,
    sessions: Vec<SessionGen>,
    edge_count: usize,
    boot_demand: Vec<(usize, usize, f64)>,
    alt_demand: Vec<(usize, usize, f64)>,
    next_id: u64,
}

impl ServeStream {
    /// The stream of connection `conn` over a topology with
    /// `edge_count` edges. `boot_demand` is the daemon's boot demand set
    /// (what the artifact swept); `alt_demand` a second set that demand
    /// events alternate with.
    pub fn new(
        seed: u64,
        conn: usize,
        edge_count: usize,
        boot_demand: Vec<(usize, usize, f64)>,
        alt_demand: Vec<(usize, usize, f64)>,
    ) -> ServeStream {
        let sessions = (0..2)
            .map(|s| SessionGen {
                name: format!("ops-{}", 2 * conn + s),
                broken: BTreeMap::new(),
                last_disrupt: None,
                alt_demand: false,
            })
            .collect();
        ServeStream {
            rng: Rng::new(seed, 100 + conn as u64),
            conn,
            sessions,
            edge_count,
            boot_demand,
            alt_demand,
            next_id: 0,
        }
    }

    /// Draws the rest of the stream from `seed`, keeping the sessions'
    /// damage and demand state and the request ids: the pre-built log
    /// comes from one fixed seed and the run continues from `--seed`.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = Rng::new(seed, 100 + self.conn as u64);
    }

    /// The next request line.
    pub fn next_line(&mut self) -> String {
        let rng = &mut self.rng;
        let s = rng.below(self.sessions.len());
        let roll = rng.unit();
        let revisit = rng.unit() < REVISIT_SHARE;
        let k = 2 + rng.below(2);
        let id = format!("c{}-{}", self.conn, self.next_id);
        self.next_id += 1;
        let sess = &mut self.sessions[s];
        let mut kind = 0;
        let mut acc = SERVE_SHARES[0];
        while roll >= acc && kind + 1 < SERVE_SHARES.len() {
            kind += 1;
            acc += SERVE_SHARES[kind];
        }
        let op = match kind {
            0 => Op::QueryRoutability { degraded_ok: false },
            1 => {
                let (edges, cost) = match &sess.last_disrupt {
                    Some(last) if revisit || sess.broken.len() >= DAMAGE_CAP => last.clone(),
                    _ => {
                        let intact: Vec<usize> = (0..self.edge_count)
                            .filter(|e| !sess.broken.contains_key(e))
                            .collect();
                        let cost = 1.0 + rng.below(300) as f64 / 100.0;
                        (rng.pick(&intact, k), cost)
                    }
                };
                for &e in &edges {
                    sess.broken.insert(e, cost);
                }
                sess.last_disrupt = Some((edges.clone(), cost));
                Op::Disrupt {
                    nodes: Vec::new(),
                    edges,
                    cost,
                }
            }
            2 => {
                let broken: Vec<usize> = sess.broken.keys().copied().collect();
                let undo = sess
                    .last_disrupt
                    .as_ref()
                    .filter(|(edges, _)| {
                        revisit && edges.iter().all(|e| sess.broken.contains_key(e))
                    })
                    .map(|(edges, _)| edges.clone());
                let edges = if broken.is_empty() {
                    rng.pick(&(0..self.edge_count).collect::<Vec<_>>(), k)
                } else if let Some(edges) = undo {
                    edges
                } else if broken.len() <= 3 {
                    // Back to the intact network: a state the artifact swept.
                    broken
                } else {
                    rng.pick(&broken, k)
                };
                for e in &edges {
                    sess.broken.remove(e);
                }
                Op::Repair {
                    nodes: Vec::new(),
                    edges,
                }
            }
            3 => {
                sess.alt_demand = !sess.alt_demand;
                let pairs = if sess.alt_demand {
                    self.alt_demand.clone()
                } else {
                    self.boot_demand.clone()
                };
                Op::Demand {
                    pairs,
                    replace: true,
                }
            }
            _ => Op::Snapshot {
                fork: None,
                path: None,
            },
        };
        line(id, &sess.name, op)
    }
}

/// One incident of the planning workload: a fresh demand set and the
/// damage to plan around.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// `(source, target, amount)` demand pairs.
    pub pairs: Vec<(usize, usize, f64)>,
    /// Broken node ids.
    pub nodes: Vec<usize>,
    /// Broken edge ids.
    pub edges: Vec<usize>,
}

/// Incident `index` of the planning workload. Incidents cycle through
/// the three axes (pairs 1–5 × 10 units; 4 pairs × 2–12 units, both
/// under complete destruction; Gaussian variance 10–150 with 4 × 10),
/// so every run sees the same mix; the seed draws endpoints and the
/// Gaussian failures. Demand sets are redrawn until the fully repaired
/// network can carry them, so no plan request fails. The paper's axes
/// reach 7 pairs and 18 units, where one ISP plan on Bell takes
/// 0.4–4 s: a run would hold a handful of those, and its tail would
/// move with the seed.
pub fn incident(topology: &Topology, seed: u64, index: u64) -> Incident {
    let j = (index / 3) as usize;
    let (pairs, flow, model) = match index % 3 {
        0 => (1 + j % 5, 10.0, DisruptionModel::Complete),
        1 => (4, (2 + 2 * (j % 6)) as f64, DisruptionModel::Complete),
        _ => (
            4,
            10.0,
            DisruptionModel::gaussian((10 + 20 * (j % 8)) as f64),
        ),
    };
    let g = topology.graph();
    let mut rng = Rng::new(seed, 300 + index);
    let demand = loop {
        let draw = generate_demands(topology, &DemandSpec::new(pairs, flow), rng.next_u64());
        let lp: Vec<Demand> = draw.iter().map(|&(s, t, d)| Demand::new(s, t, d)).collect();
        if mcf::routability(&View::full(g), &lp)
            .expect("routability LP on the intact graph")
            .is_some()
        {
            break draw;
        }
    };
    let damage = model.apply(topology, rng.next_u64());
    let ids = |mask: &[bool]| -> Vec<usize> {
        mask.iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect()
    };
    Incident {
        pairs: demand
            .iter()
            .map(|&(s, t, d)| (s.index(), t.index(), d))
            .collect(),
        nodes: ids(&damage.broken_nodes),
        edges: ids(&damage.broken_edges),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_lines(seed: u64, n: usize) -> Vec<String> {
        let boot = vec![(0, 5, 10.0), (3, 9, 10.0)];
        let alt = vec![(1, 7, 10.0)];
        let mut stream = ServeStream::new(seed, 0, 64, boot, alt);
        (0..n).map(|_| stream.next_line()).collect()
    }

    /// 500 lines from a fixed seed, then `n` from `seed`.
    fn reseeded_lines(seed: u64, n: usize) -> Vec<String> {
        let mut stream = ServeStream::new(1, 0, 64, vec![(0, 5, 10.0)], vec![(1, 7, 10.0)]);
        for _ in 0..500 {
            stream.next_line();
        }
        stream.reseed(seed);
        (0..n).map(|_| stream.next_line()).collect()
    }

    #[test]
    fn the_same_seed_gives_identical_inputs() {
        assert_eq!(serve_lines(7, 2000), serve_lines(7, 2000));
        assert_ne!(serve_lines(7, 2000), serve_lines(8, 2000));
        assert_eq!(reseeded_lines(7, 2000), reseeded_lines(7, 2000));
        assert_ne!(reseeded_lines(7, 2000), reseeded_lines(8, 2000));
        let bell = netrec_topology::bell::bell_canada();
        let a: Vec<Incident> = (0..6).map(|i| incident(&bell, 7, i)).collect();
        let b: Vec<Incident> = (0..6).map(|i| incident(&bell, 7, i)).collect();
        let c: Vec<Incident> = (0..6).map(|i| incident(&bell, 8, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn the_serve_mix_follows_the_committed_replay() {
        let lines = serve_lines(3, 20_000);
        let share = |op: &str| {
            let needle = format!("\"op\":\"{op}\"");
            lines.iter().filter(|l| l.contains(&needle)).count() as f64 / lines.len() as f64
        };
        assert!((share("query_routability") - 0.47).abs() < 0.02);
        assert!((share("disrupt") - 0.36).abs() < 0.02);
        assert!((share("repair") - 0.12).abs() < 0.02);
        assert!(share("demand") > 0.01 && share("snapshot") > 0.01);
        for l in &lines {
            let req = Request::parse(l).expect("generated lines parse");
            assert!(req.session_name().starts_with("ops-"));
        }
    }
}

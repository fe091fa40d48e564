//! Output checks: every reply the daemon sent is compared with what an
//! in-process engine answers for the same lines from the same state,
//! and every ISP plan is proven routable under the exact LP.

use netrec_core::{RecoveryPlan, RecoveryProblem, StatePatch};
use netrec_graph::{EdgeId, NodeId};
use netrec_json::Json;
use netrec_serve::{Engine, Op, Session};

/// Mismatching replies printed per connection (the rest are counted).
const MISMATCHES_SHOWN: usize = 3;

/// The fate of one reply under the byte-equality check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Byte-equal to the in-process engine's reply.
    Match,
    /// Differs from the in-process engine's reply.
    Mismatch,
    /// Shed with `overloaded` at admission: never executed, so the
    /// reference skips it too.
    Shed,
    /// No reply came back.
    Missing,
}

/// A daemon reply without the `wal_seq` member the server appends when
/// the write-ahead log is armed (the engine itself never renders it).
pub fn strip_wal_seq(reply: &str) -> String {
    if let Some(at) = reply.rfind(",\"wal_seq\":") {
        let tail = &reply[at + ",\"wal_seq\":".len()..];
        if let Some(digits) = tail.strip_suffix('}') {
            if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
                return format!("{}}}", &reply[..at]);
            }
        }
    }
    reply.to_string()
}

/// Whether a reply is an admission-time `overloaded` shed.
pub fn is_shed(reply: &str) -> bool {
    reply.contains("\"ok\":false") && reply.contains("\"kind\":\"overloaded\"")
}

/// Feeds one connection's `(line, reply)` log through `reference` in
/// order and judges each reply. Sessions never span connections, so
/// connections may be checked one after another on one engine.
pub fn check_connection(reference: &Engine, log: &[(String, Option<String>)]) -> Vec<Verdict> {
    let mut shown = 0;
    log.iter()
        .map(|(line, reply)| match reply {
            None => Verdict::Missing,
            Some(r) if is_shed(r) => Verdict::Shed,
            Some(r) => {
                let expected = reference.process_line(line);
                if expected == strip_wal_seq(r) {
                    return Verdict::Match;
                }
                if shown < MISMATCHES_SHOWN {
                    shown += 1;
                    eprintln!(
                        "perfbench: reply mismatch for {line}\n  daemon:    {r}\n  reference: {expected}"
                    );
                }
                Verdict::Mismatch
            }
        })
        .collect()
}

/// The state patches a mutating request applies (what the engine builds
/// after validation; inputs here are valid by construction).
pub fn patches(op: &Op) -> Vec<StatePatch> {
    match op {
        Op::Disrupt { nodes, edges, cost } => nodes
            .iter()
            .map(|&n| StatePatch::BreakNode {
                node: NodeId::new(n),
                cost: *cost,
            })
            .chain(edges.iter().map(|&e| StatePatch::BreakEdge {
                edge: EdgeId::new(e),
                cost: *cost,
            }))
            .collect(),
        Op::Repair { nodes, edges } => nodes
            .iter()
            .map(|&n| StatePatch::RepairNode {
                node: NodeId::new(n),
            })
            .chain(edges.iter().map(|&e| StatePatch::RepairEdge {
                edge: EdgeId::new(e),
            }))
            .collect(),
        Op::Demand { pairs, replace } => {
            let mut out = Vec::new();
            if *replace {
                out.push(StatePatch::ClearDemands);
            }
            out.extend(pairs.iter().map(|&(s, t, amount)| StatePatch::AddDemand {
                source: NodeId::new(s),
                target: NodeId::new(t),
                amount,
            }));
            out
        }
        _ => Vec::new(),
    }
}

/// The repair list of a `query_plan` reply.
pub fn plan_of(reply: &Json) -> Option<RecoveryPlan> {
    let plan = reply.get("plan")?;
    let ids = |key: &str| -> Option<Vec<usize>> {
        plan.get(key)?
            .as_array()?
            .iter()
            .map(Json::as_usize)
            .collect()
    };
    let mut out = RecoveryPlan::new(plan.get("algorithm")?.as_str()?);
    out.repaired_nodes = ids("repaired_nodes")?
        .into_iter()
        .map(NodeId::new)
        .collect();
    out.repaired_edges = ids("repaired_edges")?
        .into_iter()
        .map(EdgeId::new)
        .collect();
    Some(out)
}

/// The session generation a reply carries, as the engine renders it.
pub fn generation_of(session: &Session) -> String {
    format!("{:016x}", session.fingerprint())
}

/// Checks a `query_plan` reply against the state it was asked about:
/// the reply's generation must be the state's, and when `routable` is
/// required (ISP plans) its repairs must make the state routable under
/// the exact LP.
pub fn check_plan(
    reply: &str,
    generation: &str,
    state: &RecoveryProblem,
    routable: bool,
) -> Result<(), String> {
    let doc = Json::parse(reply).map_err(|e| format!("unparsable plan reply: {e}"))?;
    if doc.get("generation").and_then(Json::as_str) != Some(generation) {
        return Err(format!(
            "plan for the wrong state (want {generation}): {reply}"
        ));
    }
    let plan = plan_of(&doc).ok_or_else(|| format!("reply carries no plan: {reply}"))?;
    if routable && !plan.verify_routable(state).map_err(|e| e.to_string())? {
        return Err(format!("plan leaves the state unroutable: {reply}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrec_core::solver::SolverSpec;

    fn bell_engine() -> Engine {
        let args: Vec<String> = ["--topology", "bell", "--pairs", "4", "--flow", "10"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = crate::serve::boot_options(&args).expect("instance flags");
        let (_, _, problem, _) = netrec_sim::cli::build_problem(&opts).expect("bell builds");
        Engine::new(problem, SolverSpec::parse("isp").expect("isp"))
    }

    #[test]
    fn the_checker_rejects_a_corrupted_reply() {
        let lines = [
            r#"{"v":1,"id":"a","session":"s","op":"disrupt","edges":[3,7],"cost":2}"#,
            r#"{"v":1,"id":"b","session":"s","op":"query_routability"}"#,
            r#"{"v":1,"id":"c","session":"s","op":"query_plan","solver":"isp"}"#,
            r#"{"v":1,"id":"d","session":"s","op":"repair","edges":[3]}"#,
        ];
        let daemon = bell_engine();
        let mut log: Vec<(String, Option<String>)> = lines
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let reply = daemon.process_line(l);
                let body = reply.strip_suffix('}').expect("replies are objects");
                (
                    l.to_string(),
                    Some(format!("{body},\"wal_seq\":{}}}", i + 1)),
                )
            })
            .collect();
        let clean = check_connection(&bell_engine(), &log);
        assert!(clean.iter().all(|v| *v == Verdict::Match), "{clean:?}");

        let reply = log[1].1.as_mut().expect("reply");
        let flipped = reply.replace("\"routable\":false", "\"routable\":true");
        assert_ne!(&flipped, reply, "the fixture query must be unroutable");
        *reply = flipped;
        log[3].1 = Some(
            r#"{"v":1,"id":"d","ok":false,"error":{"kind":"overloaded","message":"x","retry_after_ms":1}}"#
                .to_string(),
        );
        let verdicts = check_connection(&bell_engine(), &log);
        assert_eq!(
            verdicts,
            [
                Verdict::Match,
                Verdict::Mismatch,
                Verdict::Match,
                Verdict::Shed
            ]
        );
    }

    #[test]
    fn wal_seq_is_stripped_only_as_the_last_member() {
        assert_eq!(
            strip_wal_seq(r#"{"ok":true,"wal_seq":12}"#),
            r#"{"ok":true}"#
        );
        assert_eq!(strip_wal_seq(r#"{"ok":true}"#), r#"{"ok":true}"#);
        assert_eq!(
            strip_wal_seq(r#"{"ok":true,"wal_seq":"x"}"#),
            r#"{"ok":true,"wal_seq":"x"}"#
        );
    }

    #[test]
    fn a_plan_for_another_state_or_an_unroutable_plan_is_rejected() {
        let engine = bell_engine();
        let base = std::sync::Arc::clone(engine.base());
        let disrupt = r#"{"v":1,"id":"a","op":"disrupt","edges":[0,1,2,3,4,5,6,7,8,9],"cost":1}"#;
        engine.process_line(disrupt);
        let reply = engine.process_line(r#"{"v":1,"id":"p","op":"query_plan","solver":"isp"}"#);
        let mut session = Session::new(base);
        let req = netrec_serve::Request::parse(disrupt).expect("parses");
        session.apply_stream(&patches(&req.op)).expect("applies");
        let generation = generation_of(&session);
        check_plan(&reply, &generation, session.problem(), true).expect("genuine plan passes");
        assert!(check_plan(&reply, "0000000000000000", session.problem(), true).is_err());
        let empty = reply.replace(
            &reply[reply.find("\"repaired_edges\":[").expect("edges")
                ..reply.find(",\"total_repairs\"").expect("total")],
            "\"repaired_edges\":[]",
        );
        assert!(check_plan(&empty, &generation, session.problem(), true).is_err());
    }
}

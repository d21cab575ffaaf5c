//! Output checks made on every run. Each checks a property of the method
//! on the served answer, not a stored copy of an earlier answer.

use crate::stream::Op;
use sft_service::protocol::{parse_response, EmbedResponse, ResponseBody};

/// What one answer showed.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// An `ok` embedding with this total cost.
    Embedded { total: f64 },
    /// A released session.
    Released,
    /// A structured error: the operation failed.
    Failed(String),
}

/// Relative tolerance of the floating-point identities checked.
const TOL: f64 = 1e-9;

/// Checks one answer against the operation that asked for it. `Err` is a
/// broken property (the run is incorrect); an error answer is
/// `Ok(Verdict::Failed)`.
pub fn answer(op: &Op, id: u64, session: Option<u64>, line: &str) -> Result<Verdict, String> {
    let resp: EmbedResponse =
        parse_response(line).map_err(|e| format!("unparsable answer {line}: {e}"))?;
    if resp.id != Some(id) {
        return Err(format!(
            "answer for id {id} carries id {:?}: {line}",
            resp.id
        ));
    }
    match (&resp.body, op) {
        (ResponseBody::Error(e), _) => Ok(Verdict::Failed(format!("{}: {}", e.code, e.message))),
        (
            ResponseBody::Ok {
                setup,
                link,
                committed,
                max_path_delay,
                ..
            },
            Op::Quote(req) | Op::Commit(req),
        ) => {
            let total = total_cost(line)?;
            let sum = setup + link;
            if (total - sum).abs() > TOL * sum.abs().max(1.0) || total <= 0.0 {
                return Err(format!(
                    "cost.total {total} is not setup {setup} + link {link} > 0: {line}"
                ));
            }
            if *committed != matches!(op, Op::Commit(_)) {
                return Err(format!(
                    "committed flag does not match the request mode: {line}"
                ));
            }
            match (req.delay_budget_ms, max_path_delay) {
                (Some(budget), Some(delay)) if *delay <= budget * (1.0 + TOL) => {}
                (None, None) => {}
                _ => {
                    return Err(format!(
                        "max_path_delay {max_path_delay:?} breaks budget {:?}: {line}",
                        req.delay_budget_ms
                    ))
                }
            }
            Ok(Verdict::Embedded { total })
        }
        (ResponseBody::Released { session: s, .. }, Op::Release { .. }) => {
            if Some(*s) != session {
                return Err(format!(
                    "release of {session:?} answered for session {s}: {line}"
                ));
            }
            Ok(Verdict::Released)
        }
        _ => Err(format!("answer kind does not match the request: {line}")),
    }
}

/// The `cost.total` field exactly as printed (the parsed response keeps
/// only setup and link).
fn total_cost(line: &str) -> Result<f64, String> {
    line.split("\"total\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or_else(|| format!("no cost.total in {line}"))
}

//! The open-loop arrival pump behind `loadgen` and `frontend_scaling`.
//!
//! Each request goes out at its scheduled arrival whatever the state of
//! earlier ones, and its latency runs from that scheduled arrival to its
//! completion, so queueing counts — in the service and behind a late
//! send alike. One thread paces the sends and collects the answers, in
//! process ([`in_process`]) or over the frame protocol ([`wire`]).
//!
//! Every answer is counted exactly once; one that names no outstanding
//! request (undecodable, or an unknown or repeated id) is a failure
//! standing in for the request it answered. One drain rule ends every
//! run: after the last send, outstanding requests get `4 × slo + 5 s`,
//! and whatever is unanswered then, or when every connection has
//! closed, is lost.

use lmpeel_serve::frontend::{is_goaway, WireRequest, WireResponse, WireResult, CODE_DEADLINE};
use lmpeel_serve::{GenerateRequest, LmService, RequestError, ResponseHandle, WireSwarm};
use std::io;
use std::net::SocketAddr;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Longest sleep between polls when nothing moved.
const PUMP_NAP: Duration = Duration::from_micros(100);

/// How one answer ended its request.
enum Reply {
    Ok,
    Shed,
    Deadline,
    Failed,
}

fn reply_to(e: &RequestError) -> Reply {
    match e {
        RequestError::QueueFull => Reply::Shed,
        RequestError::DeadlineExceeded => Reply::Deadline,
        _ => Reply::Failed,
    }
}

/// Everything one open-loop run observed.
#[derive(Debug, Default)]
pub struct Run {
    /// Scheduled-arrival-to-completion latency of each successful
    /// request, in completion order.
    pub ok: Vec<Duration>,
    /// Refused by admission control (service queue or connection cap).
    pub shed: usize,
    /// Retired by a deadline.
    pub deadline: usize,
    /// Any other error, including answers that name no request.
    pub failed: usize,
    /// Never answered before the drain ended.
    pub lost: usize,
    /// Pump start to the end of the drain.
    pub elapsed: Duration,
}

impl Run {
    /// Successful completions within `slo`, per second of the run.
    pub fn goodput(&self, slo: Duration) -> f64 {
        let good = self.ok.iter().filter(|&&l| l <= slo).count();
        good as f64 / self.elapsed.as_secs_f64()
    }
}

/// The answers a step collects, as `(request index, reply)`; an index of
/// `None` names no request.
type Answers = Vec<(Option<usize>, Reply)>;

/// Pace `arrivals` (sorted offsets from the start), count every answer
/// once, and drain by the module's one rule. Each `step` issues the
/// requests now due, appends the answers that have arrived, and returns
/// whether anything moved — or `None` once no answer can arrive.
fn pump(
    arrivals: &[Duration],
    slo: Duration,
    mut step: impl FnMut(Range<usize>, &mut Answers) -> Option<bool>,
) -> Run {
    let n = arrivals.len();
    let mut run = Run::default();
    let mut resolved = vec![false; n];
    let mut answers = Vec::new();
    let (mut answered, mut sent, mut drain_until) = (0usize, 0usize, None);
    let start = Instant::now();
    loop {
        let due = sent + arrivals[sent..].partition_point(|at| start + *at <= Instant::now());
        let moved = step(sent..due, &mut answers);
        sent = due;
        if sent == n && drain_until.is_none() {
            drain_until = Some(Instant::now() + slo * 4 + Duration::from_secs(5));
        }
        let now = Instant::now();
        for (i, reply) in answers.drain(..) {
            answered += 1;
            let fresh = i.filter(|&i| i < n && !std::mem::replace(&mut resolved[i], true));
            match (fresh, reply) {
                (Some(i), Reply::Ok) => {
                    run.ok.push(now.saturating_duration_since(start + arrivals[i]));
                }
                (Some(_), Reply::Shed) => run.shed += 1,
                (Some(_), Reply::Deadline) => run.deadline += 1,
                _ => run.failed += 1,
            }
        }
        if answered >= n || moved.is_none() || drain_until.is_some_and(|d| now >= d) {
            break;
        }
        if moved == Some(false) {
            let until_due = arrivals
                .get(sent)
                .map_or(PUMP_NAP, |at| (start + *at).saturating_duration_since(now));
            std::thread::sleep(until_due.min(PUMP_NAP));
        }
    }
    run.lost = n.saturating_sub(answered);
    run.elapsed = start.elapsed();
    run
}

/// Submit `request(i)` to `service` at each `arrivals[i]` (sorted
/// offsets from the start). Submission never blocks on an answer.
pub fn in_process(
    service: &dyn LmService,
    arrivals: &[Duration],
    slo: Duration,
    mut request: impl FnMut(usize) -> GenerateRequest,
) -> Run {
    let mut pending: Vec<(usize, ResponseHandle)> = Vec::new();
    pump(arrivals, slo, |due, answers| {
        for i in due {
            match service.submit(request(i)) {
                Ok(handle) => pending.push((i, handle)),
                Err(e) => answers.push((Some(i), reply_to(&e))),
            }
        }
        pending.retain(|(i, handle)| {
            let Some(result) = handle.try_wait() else {
                return true;
            };
            answers.push((Some(*i), result.map_or_else(|e| reply_to(&e), |_| Reply::Ok)));
            false
        });
        Some(!answers.is_empty())
    })
}

/// Send `request(i)`, its id set to `i`, at each `arrivals[i]` (sorted
/// offsets from the start) over `connections` connections to the
/// front-end at `addr`, dealt round-robin. Reads go on between paced
/// sends, so pacing never starves the read side into the front-end's
/// slow-reader defense. The connections close when the run ends.
pub fn wire(
    addr: SocketAddr,
    connections: usize,
    arrivals: &[Duration],
    slo: Duration,
    mut request: impl FnMut(usize) -> WireRequest,
) -> io::Result<Run> {
    let mut swarm = WireSwarm::connect(addr, connections.max(1))?;
    let mut frames = Vec::new();
    let run = pump(arrivals, slo, |due, answers| {
        for i in due {
            let mut req = request(i);
            req.id = i as u64;
            swarm.queue(i % swarm.len(), &req.encode());
        }
        let moved = swarm.pump(&mut frames);
        for (_, body) in frames.drain(..).filter(|(_, body)| !is_goaway(body)) {
            let Ok(resp) = WireResponse::decode(&body) else {
                answers.push((None, Reply::Failed));
                continue;
            };
            let reply = match resp.body {
                WireResult::Ok { .. } => Reply::Ok,
                WireResult::Err { .. } if resp.is_shed() => Reply::Shed,
                WireResult::Err { code, .. } if code == CODE_DEADLINE => Reply::Deadline,
                WireResult::Err { .. } => Reply::Failed,
            };
            answers.push((usize::try_from(resp.id).ok(), reply));
        }
        (swarm.open_count() > 0).then_some(moved)
    });
    swarm.shutdown();
    Ok(run)
}

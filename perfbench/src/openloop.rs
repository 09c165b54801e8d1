//! Open-loop request drivers. Each request is sent at its scheduled time
//! whatever the state of earlier ones, and its latency runs from that
//! scheduled time, so a stall is charged to every request it delays. The
//! drivers record how late each send actually went out (generator lag).

use lmpeel_bench::wireload::WireSwarm;
use lmpeel_serve::frontend::{
    is_goaway, WireRequest, WireResponse, WireResult, CODE_DEADLINE, SHED_CONN_INFLIGHT,
    SHED_QUEUE_FULL,
};
use lmpeel_serve::{GenerateRequest, LmService, RequestError, ResponseHandle};
use lmpeel_tokenizer::TokenId;
use std::net::SocketAddr;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Threads blocked on response handles: more than a service holds in
/// queue and batch together, so each completion is stamped as soon as its
/// handle resolves.
const WAITERS: usize = 64;

/// Lead time before the first send, so it is not born late.
const LEAD: Duration = Duration::from_millis(2);

/// Longest sleep between wire pumps while responses are owed.
const PUMP_NAP: Duration = Duration::from_micros(50);

/// Give up on responses this long after the last send.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answered, with the generated token ids.
    Ok {
        latency: Duration,
        tokens: Vec<TokenId>,
    },
    /// Refused by admission control.
    Shed,
    /// Retired by a deadline.
    Deadline,
    /// Any other error, or no answer.
    Failed,
}

/// Everything one open-loop phase observed.
pub struct PhaseRun {
    /// One reply per scheduled request, in schedule order.
    pub replies: Vec<Reply>,
    /// Actual minus scheduled send time, per request.
    pub lags: Vec<Duration>,
    /// First scheduled send to the last reply.
    pub makespan: Duration,
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn classify(result: Result<Vec<TokenId>, RequestError>, latency: Duration) -> Reply {
    match result {
        Ok(tokens) => Reply::Ok { latency, tokens },
        Err(RequestError::QueueFull) => Reply::Shed,
        Err(RequestError::DeadlineExceeded) => Reply::Deadline,
        Err(_) => Reply::Failed,
    }
}

/// Submit `requests` in process at `schedule` (offsets from the phase
/// start). Submission never blocks on a reply: a pool of waiter threads
/// holds the handles and stamps each completion.
pub fn drive_inproc(
    service: &dyn LmService,
    schedule: &[Duration],
    requests: Vec<GenerateRequest>,
) -> PhaseRun {
    assert_eq!(schedule.len(), requests.len(), "one send time per request");
    let n = requests.len();
    let (job_tx, job_rx) = mpsc::channel::<(usize, Instant, ResponseHandle)>();
    let job_rx = Mutex::new(job_rx);
    let (done_tx, done_rx) = mpsc::channel::<(usize, Reply, Instant)>();
    let start = Instant::now() + LEAD;
    let mut lags = Vec::with_capacity(n);
    let mut refused = Vec::new();
    std::thread::scope(|scope| {
        for _ in 0..WAITERS {
            let done_tx = done_tx.clone();
            let job_rx = &job_rx;
            scope.spawn(move || loop {
                let job = job_rx.lock().expect("job queue poisoned").recv();
                let Ok((i, due, handle)) = job else { break };
                let result = handle.wait().map(|r| r.trace.generated_ids());
                let at = Instant::now();
                let reply = classify(result, at.saturating_duration_since(due));
                if done_tx.send((i, reply, at)).is_err() {
                    break;
                }
            });
        }
        for (i, (at, request)) in schedule.iter().zip(requests).enumerate() {
            let due = start + *at;
            sleep_until(due);
            let sent = Instant::now();
            lags.push(sent - due);
            match service.submit(request) {
                Ok(handle) => job_tx.send((i, due, handle)).expect("waiters alive"),
                Err(e) => refused.push((i, classify(Err(e), Duration::ZERO), sent)),
            }
        }
        drop(job_tx);
    });
    drop(done_tx);
    let mut replies = vec![Reply::Failed; n];
    let mut last = start;
    for (i, reply, at) in done_rx.into_iter().chain(refused) {
        replies[i] = reply;
        last = last.max(at);
    }
    PhaseRun {
        replies,
        lags,
        makespan: last - start,
    }
}

/// Send `request(i)` at each `schedule[i]` over `connections`
/// frame-protocol connections to the front-end at `addr` (requests dealt
/// round-robin), all pumped from this one thread. Each frame is built and
/// encoded when it is sent.
pub fn drive_wire(
    addr: SocketAddr,
    connections: usize,
    schedule: &[Duration],
    request: impl Fn(usize) -> WireRequest,
) -> std::io::Result<PhaseRun> {
    let n = schedule.len();
    let mut swarm = WireSwarm::connect(addr, connections.max(1))?;
    let mut replies = vec![Reply::Failed; n];
    let mut lags = Vec::with_capacity(n);
    let mut frames = Vec::new();
    let mut received = 0usize;
    let start = Instant::now() + LEAD;
    let mut last = start;
    let mut next = 0usize;
    let mut last_send = start;
    while received < n {
        while next < n && Instant::now() >= start + schedule[next] {
            let due = start + schedule[next];
            let mut req = request(next);
            req.id = next as u64;
            swarm.queue(next % swarm.len(), &req.encode());
            let sent = Instant::now();
            lags.push(sent - due);
            last_send = sent;
            next += 1;
        }
        let progress = swarm.pump(&mut frames);
        let now = Instant::now();
        for (_, body) in frames.drain(..) {
            if is_goaway(&body) {
                continue;
            }
            let Ok(resp) = WireResponse::decode(&body) else {
                continue;
            };
            let Some(i) = usize::try_from(resp.id).ok().filter(|&i| i < n) else {
                continue;
            };
            let latency = now.saturating_duration_since(start + schedule[i]);
            replies[i] = match resp.body {
                WireResult::Ok { tokens, .. } => Reply::Ok { latency, tokens },
                WireResult::Err { code, .. }
                    if code == SHED_QUEUE_FULL || code == SHED_CONN_INFLIGHT =>
                {
                    Reply::Shed
                }
                WireResult::Err { code, .. } if code == CODE_DEADLINE => Reply::Deadline,
                WireResult::Err { .. } => Reply::Failed,
            };
            received += 1;
            last = now;
        }
        if swarm.open_count() == 0 || (next == n && now - last_send > DRAIN_LIMIT) {
            break;
        }
        if !progress {
            let nap = match schedule.get(next) {
                Some(at) => (start + *at).saturating_duration_since(now).min(PUMP_NAP),
                None => PUMP_NAP,
            };
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
        }
    }
    swarm.shutdown();
    Ok(PhaseRun {
        replies,
        lags,
        makespan: last - start,
    })
}

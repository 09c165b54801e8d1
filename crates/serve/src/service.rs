//! The service facade: the [`LmService`] contract, builder, submit
//! handles, stats, shutdown.

use crate::request::{BackpressurePolicy, GenerateRequest, GenerateResponse, RequestError};
use crate::scheduler::{panic_message, Envelope, Scheduler, SchedulerConfig};
use crate::shard::{ShardRouter, DEFAULT_PREFIX_WINDOW};
use crate::sync::RankedMutex;
use crate::trie::TrieStats;
use lmpeel_lm::LanguageModel;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Service-level counters, readable at any time via
/// [`LmService::stats`].
///
/// `submitted` counts before the envelope is enqueued (and is rolled back
/// if enqueueing fails), so `completed` can never transiently exceed it.
/// `failed` is the superset of every request that terminated with an
/// error past admission to the queue; the kind-specific counters below it
/// break that total down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted onto the queue.
    pub submitted: u64,
    /// Requests that finished with a trace.
    pub completed: u64,
    /// Requests that terminated with any error past the queue
    /// (decode failures, panics, quarantine, cancellation, deadlines,
    /// drain rejections).
    pub failed: u64,
    /// Requests shed at `submit` itself (queue full under the `Reject`
    /// policy, or a dead scheduler); these never count as `submitted`.
    pub rejected: u64,
    /// Requests retired by [`crate::ResponseHandle::cancel`] or a dropped
    /// handle.
    pub cancelled: u64,
    /// Requests retired because their [`crate::Deadline`] expired.
    pub deadline_exceeded: u64,
    /// Requests that terminated because the substrate panicked while
    /// serving them (the panic was contained to the request).
    pub panicked: u64,
    /// Requests rejected because their substrate was quarantined after
    /// repeated panics.
    pub quarantined: u64,
    /// Queued requests rejected with [`RequestError::ShutDown`] during a
    /// graceful [`InferenceService::shutdown`] drain.
    pub drained: u64,
    /// Transient decode errors absorbed by per-request retry budgets
    /// (each retry re-samples the failed token in place; it never
    /// surfaces to the caller).
    pub retried: u64,
    /// Half-open breaker probes that panicked, re-opening the substrate's
    /// breaker with a doubled cooldown.
    pub breaker_reopened: u64,
    /// Half-open breaker probes that completed, closing the substrate's
    /// breaker and restoring normal service.
    pub breaker_recovered: u64,
    /// Prefix-cache accounting summed over all substrates.
    pub prefix: TrieStats,
}

impl ServeStats {
    /// Fold `other`'s counters into `self`, field by field — the one
    /// place per-shard stats aggregation is spelled out, so merging
    /// shard blocks cannot silently go stale when a counter is added.
    pub fn merge(&mut self, other: &ServeStats) {
        let ServeStats {
            submitted,
            completed,
            failed,
            rejected,
            cancelled,
            deadline_exceeded,
            panicked,
            quarantined,
            drained,
            retried,
            breaker_reopened,
            breaker_recovered,
            prefix,
        } = other;
        self.submitted += submitted;
        self.completed += completed;
        self.failed += failed;
        self.rejected += rejected;
        self.cancelled += cancelled;
        self.deadline_exceeded += deadline_exceeded;
        self.panicked += panicked;
        self.quarantined += quarantined;
        self.drained += drained;
        self.retried += retried;
        self.breaker_reopened += breaker_reopened;
        self.breaker_recovered += breaker_recovered;
        self.prefix.merge(prefix);
    }

    /// [`ServeStats::merge`] over any number of per-shard blocks.
    pub fn merged<'a>(blocks: impl IntoIterator<Item = &'a ServeStats>) -> ServeStats {
        let mut total = ServeStats::default();
        for b in blocks {
            total.merge(b);
        }
        total
    }

    /// Classify one terminal result into the counters. Shared by the
    /// scheduler's retire/reject paths so `failed` and its breakdown can
    /// never drift apart.
    pub(crate) fn count_terminal(&mut self, result: &Result<GenerateResponse, RequestError>) {
        match result {
            Ok(_) => self.completed += 1,
            Err(e) => {
                self.failed += 1;
                match e {
                    RequestError::Cancelled => self.cancelled += 1,
                    RequestError::DeadlineExceeded => self.deadline_exceeded += 1,
                    RequestError::Panicked(_) => self.panicked += 1,
                    RequestError::SubstrateQuarantined(_) => self.quarantined += 1,
                    // The scheduler only answers ShutDown while draining.
                    RequestError::ShutDown => self.drained += 1,
                    _ => {}
                }
            }
        }
    }
}

/// The scheduler thread itself panicked — a scheduler bug, not a request
/// failure (per-request substrate panics are contained and reported as
/// [`RequestError::Panicked`]). Returned by [`InferenceService::shutdown`]
/// so crashes cannot be silently swallowed at join time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerPanicked {
    /// The stringified panic payload.
    pub reason: String,
}

impl std::fmt::Display for SchedulerPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "inference scheduler thread panicked: {}", self.reason)
    }
}

impl std::error::Error for SchedulerPanicked {}

/// The service contract: the experiment drivers, the llambo helpers, the
/// front-end and the bench binaries are written once against
/// `dyn LmService`. [`InferenceService`] is its one implementation; the
/// shard count set on its builder scales it from one scheduler thread to
/// one per core without touching a call site.
///
/// The trait is deliberately narrow — submit, stats, shutdown — because
/// that is the whole lifecycle a caller owns. Everything else
/// (backpressure policy, shard count, breaker tuning) is fixed at build
/// time by the [`ServiceBuilder`].
///
/// # Contract
///
/// * `submit` is thread-safe behind `&self` and non-blocking apart from
///   the configured [`BackpressurePolicy`].
/// * Traces are **topology-independent**: a request's response bytes are
///   a deterministic function of the request alone (which shard or
///   admission interleaving handled it cannot change them). The
///   sharded-vs-single equivalence proptests pin this.
/// * `stats` may be read at any time; counters are settled no later than
///   the moment a request's result is observable through its handle.
/// * `shutdown` drains gracefully: in-flight work finishes, queued work
///   is rejected with [`RequestError::ShutDown`], and scheduler-thread
///   panics surface as [`SchedulerPanicked`] instead of being swallowed.
pub trait LmService: Send + Sync {
    /// Queue a request, returning a handle to wait on.
    fn submit(&self, request: GenerateRequest) -> Result<ResponseHandle, RequestError>;

    /// Current counters, aggregated across every shard the service owns.
    fn stats(&self) -> ServeStats;

    /// Gracefully drain and join every scheduler the service owns (see
    /// [`InferenceService::shutdown`]). Takes `Box<Self>` so the trait
    /// stays object-safe while still consuming the service.
    fn shutdown(self: Box<Self>) -> Result<ServeStats, SchedulerPanicked>;

    /// Submit and wait: the one-call path for sequential callers.
    fn generate(&self, request: GenerateRequest) -> Result<GenerateResponse, RequestError> {
        self.submit(request)?.wait()
    }
}

impl LmService for InferenceService {
    /// Route the request to its prefix-affine shard and queue it there.
    /// Under the `Reject` policy a full queue fails fast with
    /// [`RequestError::QueueFull`].
    fn submit(&self, request: GenerateRequest) -> Result<ResponseHandle, RequestError> {
        self.shards[self.router.route(&request.prompt)].submit(request)
    }

    fn stats(&self) -> ServeStats {
        ServeStats::merged(&self.shard_stats())
    }

    fn shutdown(self: Box<Self>) -> Result<ServeStats, SchedulerPanicked> {
        InferenceService::shutdown(*self)
    }
}

impl From<SchedulerPanicked> for RequestError {
    /// A dead scheduler fails a request exactly like a contained
    /// substrate panic would: with the stringified payload. Completes the
    /// `From` lattice (`LmError → RequestError ← SchedulerPanicked`) so
    /// the service and the front-end propagate every failure kind with
    /// `?` instead of ad-hoc rewrapping.
    fn from(e: SchedulerPanicked) -> Self {
        RequestError::Panicked(e.reason)
    }
}

/// Builds one model replica for the shard with the given index.
type ModelFactory = Arc<dyn Fn(usize) -> Arc<dyn LanguageModel> + Send + Sync>;

/// Shard count requested through the environment: `LMPEEL_SHARDS=N`.
/// `None` when unset, empty, zero or unparsable.
fn shards_from_env() -> Option<NonZeroUsize> {
    std::env::var("LMPEEL_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
}

/// Configures and spawns an [`InferenceService`].
///
/// Every knob applies **per shard**: `queue_capacity` bounds each shard's
/// queue, `max_batch` each shard's in-flight set, `prefix_cache_capacity`
/// each shard's tries — so aggregate capacity scales with
/// [`ServiceBuilder::shards`] by construction.
pub struct ServiceBuilder {
    /// Ordered by name so factories run in the same order on every run.
    models: BTreeMap<String, ModelFactory>,
    shards: usize,
    queue_capacity: usize,
    policy: BackpressurePolicy,
    max_batch: usize,
    trie_capacity: usize,
    quarantine_after: u32,
    breaker_cooldown: u64,
    retry_budget: u32,
    fuse_batches: bool,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        Self {
            models: BTreeMap::new(),
            shards: 1,
            queue_capacity: 64,
            policy: BackpressurePolicy::default(),
            max_batch: 16,
            trie_capacity: 32,
            quarantine_after: 3,
            breaker_cooldown: 8,
            retry_budget: 0,
            fuse_batches: true,
        }
    }
}

impl ServiceBuilder {
    /// Fresh builder with the defaults (one shard, queue 64, blocking
    /// backpressure, batch 16, 32 cached prefixes per substrate,
    /// quarantine after 3 consecutive panics).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `model` under `substrate`; requests name it by this key.
    /// Every shard shares this one replica (models are `&self`-pure and
    /// `Send + Sync`). Registering a name again replaces the earlier
    /// model.
    pub fn model(self, substrate: impl Into<String>, model: Arc<dyn LanguageModel>) -> Self {
        self.model_factory(substrate, move |_| Arc::clone(&model))
    }

    /// Register a per-shard replica factory under `substrate`: `factory`
    /// is called once per shard with the shard index, so every shard owns
    /// its own model instance (own interior caches, no cross-shard
    /// sharing) at the cost of one copy of the weights per shard.
    pub fn model_factory(
        mut self,
        substrate: impl Into<String>,
        factory: impl Fn(usize) -> Arc<dyn LanguageModel> + Send + Sync + 'static,
    ) -> Self {
        self.models.insert(substrate.into(), Arc::new(factory));
        self
    }

    /// Number of scheduler shards (minimum 1, the default; one per core
    /// is the intended multi-core shape). Requests are assigned to shards
    /// by a [`ShardRouter`] over the prompt's first
    /// [`DEFAULT_PREFIX_WINDOW`] tokens, so prompts sharing a prefix share
    /// a shard and its prefix cache.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Bound of each shard's request queue (minimum 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// What `submit` does when the queue is full.
    pub fn backpressure(mut self, policy: BackpressurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Maximum generations each shard decodes concurrently (minimum 1).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Snapshot capacity of each substrate's prefix cache (0 disables).
    pub fn prefix_cache_capacity(mut self, capacity: usize) -> Self {
        self.trie_capacity = capacity;
        self
    }

    /// Consecutive panics on one substrate before its circuit breaker
    /// trips open (minimum 1; default 3). While open, requests naming the
    /// substrate fail with [`RequestError::SubstrateQuarantined`]; after
    /// the cooldown (see [`ServiceBuilder::breaker_cooldown`]) one probe
    /// request is admitted — success restores normal service, another
    /// panic re-opens the breaker with exponential backoff.
    pub fn quarantine_after(mut self, panics: u32) -> Self {
        self.quarantine_after = panics.max(1);
        self
    }

    /// Base cooldown of a tripped breaker, in logical scheduler rounds
    /// (minimum 1; default 8). Each failed half-open probe doubles the
    /// cooldown; a successful probe resets it to this base. The clock is
    /// the scheduler's own round counter — no wall time is involved, so
    /// breaker schedules are deterministic.
    pub fn breaker_cooldown(mut self, rounds: u64) -> Self {
        self.breaker_cooldown = rounds.max(1);
        self
    }

    /// In-place decode-step retries granted to each request before a
    /// transient `LmError` becomes its terminal error (default 0: fail
    /// fast). Retries are deterministic — a failed step consumes no RNG
    /// state, so a request that recovers produces the exact trace an
    /// error-free run would have.
    pub fn retry_budget(mut self, retries: u32) -> Self {
        self.retry_budget = retries;
        self
    }

    /// Fuse same-substrate in-flight generations into one batched forward
    /// pass per scheduling round (default `true`). Fusion is
    /// byte-invisible — every request's trace is identical either way
    /// (pinned by the batched-determinism suites) — so `false` exists only
    /// as the reference path for differential tests and benchmarks.
    pub fn fuse_batches(mut self, fuse: bool) -> Self {
        self.fuse_batches = fuse;
        self
    }

    /// Build behind the [`LmService`] contract, taking the shard count
    /// from the environment when it is set: `LMPEEL_SHARDS=N` overrides
    /// [`ServiceBuilder::shards`]. Callers opt into multi-core serving by
    /// switching `build()` to `build_service()` — every submit/wait call
    /// site stays the same. More shards spread only prompts that differ
    /// within [`DEFAULT_PREFIX_WINDOW`] tokens: the paper grid's prompts
    /// share their system instructions past that window, so they all land
    /// on one shard whatever `LMPEEL_SHARDS` says.
    ///
    /// Shard count cannot change any request's bytes (traces are
    /// topology-independent, see [`LmService`]), so reading the
    /// environment here cannot perturb golden outputs.
    pub fn build_service(self) -> Box<dyn LmService> {
        let shards = shards_from_env().map_or(self.shards, NonZeroUsize::get);
        Box::new(self.shards(shards).build())
    }

    /// Spawn every shard's scheduler thread and return the running
    /// service.
    pub fn build(self) -> InferenceService {
        let router = ShardRouter::new(self.shards, DEFAULT_PREFIX_WINDOW);
        let shards = (0..router.shards()).map(|i| self.spawn_shard(i)).collect();
        InferenceService { router, shards }
    }

    /// Build shard `index`'s model replicas and spawn its scheduler.
    fn spawn_shard(&self, index: usize) -> Shard {
        let models = self
            .models
            .iter()
            .map(|(name, factory)| (name.clone(), factory(index)))
            .collect();
        let (tx, rx) = mpsc::sync_channel(self.queue_capacity);
        let stats = Arc::new(RankedMutex::new("stats", ServeStats::default()));
        let draining = Arc::new(AtomicBool::new(false));
        let scheduler = Scheduler::new(
            rx,
            models,
            SchedulerConfig {
                max_batch: self.max_batch,
                trie_capacity: self.trie_capacity,
                quarantine_after: self.quarantine_after,
                breaker_cooldown: self.breaker_cooldown,
                retry_budget: self.retry_budget,
                fuse_batches: self.fuse_batches,
            },
            Arc::clone(&stats),
            Arc::clone(&draining),
        );
        let handle = std::thread::Builder::new()
            .name("lmpeel-serve".into())
            .spawn(move || scheduler.run())
            .expect("spawn scheduler thread");
        Shard {
            tx: Some(tx),
            policy: self.policy,
            handle: Some(handle),
            stats,
            draining,
        }
    }
}

/// A running continuous-batching inference service: `N` scheduler shards
/// (one by default) behind a prefix-affinity [`ShardRouter`].
///
/// Each shard owns a scheduler thread, its model replicas and its
/// per-substrate prefix tries. Requests reach it through [`LmService`]:
/// submission is thread-safe behind `&self`, results come back through
/// per-request [`ResponseHandle`]s, so many callers can wait
/// concurrently. [`InferenceService::shutdown`] drains gracefully (stops
/// admitting, finishes in-flight work, surfaces scheduler panics);
/// dropping the service instead processes everything still queued, then
/// joins each shard (logging any scheduler panic to stderr).
///
/// # Determinism boundary
///
/// A shard fed some request stream behaves byte-identically to a
/// one-shard service fed the same stream (pinned by `tests/sharded.rs`).
/// Cross-shard *completion order* is not pinned: shards run on
/// independent OS threads. Callers observe order only through their own
/// handles, and each handle's bytes are a function of its request alone.
pub struct InferenceService {
    router: ShardRouter,
    shards: Vec<Shard>,
}

/// The former name of a multi-shard [`InferenceService`]. Kept only
/// because the repository benchmark (`perfbench/src/serve.rs`) calls
/// `ShardedService::builder()`, and the benchmark's sources stay fixed
/// so its runs compare across commits. Nothing in the workspace uses
/// it — write `InferenceService::builder().shards(n)`.
pub type ShardedService = InferenceService;

impl InferenceService {
    /// Start configuring a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::new()
    }

    /// The routing function in use (exposed so tests and the load
    /// generator can predict placements).
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Per-shard counter blocks, indexed like the router's shard indices
    /// (for load-balance reporting; their merge is [`LmService::stats`]).
    pub fn shard_stats(&self) -> Vec<ServeStats> {
        self.shards.iter().map(Shard::stats).collect()
    }

    /// Gracefully drain and join every shard: stop admitting, let
    /// in-flight generations finish, reject whatever is still queued with
    /// [`RequestError::ShutDown`] (counted in [`ServeStats::drained`]).
    /// Returns the merged final counters on a clean join; if any shard's
    /// scheduler thread panicked, the first panic is surfaced instead
    /// (after every shard has still been joined, so no thread leaks
    /// behind the error).
    ///
    /// Dropping the service without calling `shutdown` is the lossless
    /// variant: everything queued is still decoded before the join, and a
    /// scheduler panic is logged to stderr.
    pub fn shutdown(self) -> Result<ServeStats, SchedulerPanicked> {
        let mut total = ServeStats::default();
        let mut first_panic = None;
        for shard in self.shards {
            match shard.shutdown() {
                Ok(stats) => total.merge(&stats),
                Err(p) => first_panic = first_panic.or(Some(p)),
            }
        }
        match first_panic {
            Some(p) => Err(p),
            None => Ok(total),
        }
    }
}

/// One scheduler thread and the queue feeding it.
struct Shard {
    tx: Option<SyncSender<Envelope>>,
    policy: BackpressurePolicy,
    handle: Option<JoinHandle<()>>,
    stats: Arc<RankedMutex<ServeStats>>,
    draining: Arc<AtomicBool>,
}

impl Shard {
    fn submit(&self, request: GenerateRequest) -> Result<ResponseHandle, RequestError> {
        let tx = self.tx.as_ref().expect("sender lives until drop");
        let (rtx, rrx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        let env = Envelope {
            request,
            responder: rtx,
            cancel: Arc::clone(&cancel),
            submitted_at: Instant::now(),
        };
        // Count the submission *before* the envelope is visible to the
        // scheduler: a fast completion could otherwise make stats()
        // transiently report completed > submitted.
        self.stats.lock().submitted += 1;
        let enqueued = match self.policy {
            BackpressurePolicy::Block => tx.send(env).map_err(|_| RequestError::ShutDown),
            BackpressurePolicy::Reject => match tx.try_send(env) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(_)) => Err(RequestError::QueueFull),
                Err(TrySendError::Disconnected(_)) => Err(RequestError::ShutDown),
            },
        };
        if let Err(e) = enqueued {
            // The scheduler never saw this request: roll the submission
            // back and account for the shed instead.
            let mut stats = self.stats.lock();
            stats.submitted -= 1;
            stats.rejected += 1;
            return Err(e);
        }
        Ok(ResponseHandle {
            rx: rrx,
            cancel,
            cancel_on_drop: true,
            delivered: Cell::new(false),
        })
    }

    /// Current counters (settled after each scheduling round).
    fn stats(&self) -> ServeStats {
        *self.stats.lock()
    }

    /// Raise the drain flag, then close the queue and join.
    fn shutdown(mut self) -> Result<ServeStats, SchedulerPanicked> {
        self.draining.store(true, Ordering::SeqCst);
        match self.shutdown_inner() {
            Some(reason) => Err(SchedulerPanicked { reason }),
            None => Ok(self.stats()),
        }
    }

    /// Close the queue and join the scheduler; returns the stringified
    /// panic payload if the scheduler thread died panicking.
    fn shutdown_inner(&mut self) -> Option<String> {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            if let Err(payload) = handle.join() {
                return Some(panic_message(payload.as_ref()));
            }
        }
        None
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        if let Some(reason) = self.shutdown_inner() {
            eprintln!("lmpeel-serve: scheduler thread panicked: {reason}");
        }
    }
}

/// The receiving end of one request's result.
///
/// Dropping the handle cancels the request implicitly: if it has not yet
/// produced a result, the scheduler retires it with
/// [`RequestError::Cancelled`] at the next round and frees its batch
/// slot.
#[derive(Debug)]
pub struct ResponseHandle {
    rx: Receiver<Result<GenerateResponse, RequestError>>,
    cancel: Arc<AtomicBool>,
    cancel_on_drop: bool,
    /// Set once `try_wait` has returned the result: the scheduler drops
    /// its sender only after sending, so the channel alone may still
    /// read as empty on the next poll.
    delivered: Cell<bool>,
}

impl ResponseHandle {
    /// Block until the generation finishes (or fails).
    pub fn wait(mut self) -> Result<GenerateResponse, RequestError> {
        // The result (or disconnect) below is terminal either way; don't
        // also flip the cancel flag when `self` drops on return.
        self.cancel_on_drop = false;
        self.rx.recv().unwrap_or(Err(RequestError::ShutDown))
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    ///
    /// A disconnected channel — the scheduler crashed, was shut down
    /// before answering, or already delivered this request's result to an
    /// earlier poll — yields `Some(Err(RequestError::ShutDown))` rather
    /// than `None`, so pollers can never spin forever on a response that
    /// will never come.
    pub fn try_wait(&self) -> Option<Result<GenerateResponse, RequestError>> {
        if self.delivered.get() {
            return Some(Err(RequestError::ShutDown));
        }
        match self.rx.try_recv() {
            Ok(result) => {
                self.delivered.set(true);
                Some(result)
            }
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(RequestError::ShutDown)),
        }
    }

    /// Ask the scheduler to abandon this request. Checked once per
    /// scheduling round (and at admission): the request retires with
    /// [`RequestError::Cancelled`] and its batch slot frees up. A request
    /// that already finished is unaffected — `wait` returns its result.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }
}

impl Drop for ResponseHandle {
    fn drop(&mut self) {
        if self.cancel_on_drop {
            self.cancel.store(true, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `shutdown` must report the scheduler thread's panic payload instead
    /// of discarding it in `join`. Forged directly (per-request panics are
    /// contained by the scheduler, so a real service only reaches this
    /// path through a scheduler bug).
    #[test]
    fn shutdown_surfaces_scheduler_panics() {
        crate::faults::silence_injected_panics();
        let (tx, _rx) = mpsc::sync_channel(1);
        let shard = Shard {
            tx: Some(tx),
            policy: BackpressurePolicy::Block,
            handle: Some(
                std::thread::Builder::new()
                    .name("lmpeel-serve-test".into())
                    .spawn(|| panic!("{} scheduler bug", crate::faults::INJECTED_PANIC))
                    .expect("spawn"),
            ),
            stats: Arc::new(RankedMutex::new("stats", ServeStats::default())),
            draining: Arc::new(AtomicBool::new(false)),
        };
        let service = InferenceService {
            router: ShardRouter::new(1, DEFAULT_PREFIX_WINDOW),
            shards: vec![shard],
        };
        let err = service.shutdown().unwrap_err();
        assert!(err.reason.contains("scheduler bug"), "got {err}");
        assert!(err.to_string().contains("scheduler thread panicked"));
    }

    #[test]
    fn terminal_counting_keeps_failed_and_breakdown_in_sync() {
        let mut stats = ServeStats::default();
        stats.count_terminal(&Err(RequestError::Cancelled));
        stats.count_terminal(&Err(RequestError::DeadlineExceeded));
        stats.count_terminal(&Err(RequestError::Panicked("x".into())));
        stats.count_terminal(&Err(RequestError::SubstrateQuarantined("s".into())));
        stats.count_terminal(&Err(RequestError::ShutDown));
        stats.count_terminal(&Err(RequestError::UnknownSubstrate("u".into())));
        assert_eq!(stats.failed, 6);
        assert_eq!(
            stats.cancelled
                + stats.deadline_exceeded
                + stats.panicked
                + stats.quarantined
                + stats.drained,
            5,
            "every kind-specific counter ticked exactly once"
        );
        assert_eq!(stats.completed, 0);
    }
}

//! The metrics-and-tracing registry for the firewall engine.
//!
//! [`Metrics`] subsumes the original flat `PfStats` counter block (the
//! six legacy counters keep their accessors; `crate::stats::PfStats` is
//! now an alias of this type) and adds the detail layer the evaluation
//! experiments need:
//!
//! * per-rule and per-chain hit/evaluated counters, keyed by chain name
//!   and rule index — the data behind the `pftables -L -v` listing;
//! * per-[`LsmOperation`] invocation counts;
//! * per-[`CtxField`] fetch/hit/miss counters;
//! * log-linear latency histograms (nanosecond buckets, power-of-two
//!   octaves split four ways) for whole-hook evaluation and for context
//!   fetches;
//! * the TRACE target's bounded event ring.
//!
//! The registry is **thread-safe**: the firewall hook runs re-entrantly
//! from many tasks at once (the paper's LSM hooks run with interrupts
//! enabled), so every counter is a relaxed atomic and the latency
//! histograms are *sharded* — each recording thread owns one shard of
//! atomic buckets, and [`Metrics::eval_latency`]/
//! [`Metrics::fetch_latency`] merge the shards into one summary
//! histogram on export. The rarely-touched structures (per-rule counter
//! maps, the TRACE ring) sit behind plain mutexes off the hot path.
//!
//! The detail layer is gated by [`Metrics::set_detailed`]: with
//! recording off (the default) every detail hook is a no-op and no
//! clock is read, which is the baseline the `metrics_overhead` bench
//! compares against. The six legacy counters, `default_allows`, the
//! VCACHE totals (`vcache_hits`/`vcache_misses`/`vcache_uncacheable`),
//! and `jump_depth_exceeded` are always on — they define engine
//! semantics that existing tests assert; the per-operation VCACHE
//! splits ride in the detail layer.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pf_types::LsmOperation;

use crate::chain::ChainName;
use crate::context::CtxField;
use crate::log::esc;

/// Capacity of the TRACE event ring; older events are dropped (and
/// counted) once the ring is full.
pub const TRACE_RING_CAP: usize = 4096;

const NUM_OPS: usize = LsmOperation::ALL.len();
const NUM_FIELDS: usize = CtxField::ALL.len();

/// Number of shards in a [`ShardedHistogram`]. Recording threads are
/// assigned shards round-robin, so up to this many threads record
/// without sharing a cache line of buckets.
pub const HISTOGRAM_SHARDS: usize = 8;

/// The shard this thread records latency samples into.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % HISTOGRAM_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// Escapes a Prometheus label value per the text exposition format:
/// backslash, double quote, and line feed get a backslash escape;
/// everything else passes through. Applied to every label whose value
/// is not a fixed internal string — chain names and rule text are
/// free-form `pftables` tokens and may contain all three.
pub(crate) fn prom_label_esc(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// One structured TRACE event: a rule traversed after a TRACE target
/// fired in the same invocation (mirroring iptables' TRACE semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Chain the rule lives in.
    pub chain: String,
    /// Rule index within the chain (or the entrypoint partition).
    pub rule_index: usize,
    /// Whether the rule's matches all passed.
    pub matched: bool,
    /// The rule's target kind (`DROP`, `ACCEPT`, `TRACE`, …).
    pub target: &'static str,
    /// Nanoseconds since the TRACE target fired.
    pub elapsed_ns: u64,
    /// Whether the invocation was already running degraded (a context
    /// fetch had failed) when this rule was traversed.
    pub degraded: bool,
    /// Decision-event id of the invocation this hop belongs to (the
    /// [`crate::events::DecisionEvent::seq`] the span was claimed
    /// under), or 0 when decision-event sampling did not select the
    /// invocation. Joins TRACE hops to their decision event.
    pub invocation: u64,
    /// Overflow gap marker: `true` on the first event drained after the
    /// ring dropped one or more older events, i.e. "hops are missing
    /// immediately before this one". Stamped by
    /// [`Metrics::drain_trace`], never by the writer.
    pub gap: bool,
}

impl TraceEvent {
    /// Renders the event as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"chain\":\"");
        esc(&mut s, &self.chain);
        let _ = write!(
            s,
            "\",\"rule\":{},\"matched\":{},\"target\":\"{}\",\"elapsed_ns\":{},\"degraded\":{},\
             \"invocation\":{},\"gap\":{}}}",
            self.rule_index,
            self.matched,
            self.target,
            self.elapsed_ns,
            self.degraded,
            self.invocation,
            self.gap
        );
        s
    }
}

/// Per-context-field fetch/hit/miss/failure counters.
#[derive(Debug, Default)]
struct FieldCounters {
    /// Context-module invocations for this field.
    fetches: AtomicU64,
    /// Fetches served from the per-syscall task cache.
    hits: AtomicU64,
    /// Fetches where the field was unavailable for the operation.
    misses: AtomicU64,
    /// Fetches that were attempted and *errored* (not merely absent) —
    /// the degraded case `--ctx-missing` policies govern. Always on:
    /// failures are security signals, not profiling detail.
    failures: AtomicU64,
}

/// Per-rule evaluated/hit tallies for one chain, indexed by rule index.
#[derive(Debug, Default, Clone)]
struct ChainCounters {
    evaluated: Vec<u64>,
    hits: Vec<u64>,
    throttled: Vec<u64>,
}

impl ChainCounters {
    fn ensure(&mut self, index: usize) {
        if self.evaluated.len() <= index {
            self.evaluated.resize(index + 1, 0);
            self.hits.resize(index + 1, 0);
            self.throttled.resize(index + 1, 0);
        }
    }

    /// Element-wise sum of another shard's tallies into this one.
    fn merge(&mut self, other: &ChainCounters) {
        if !other.evaluated.is_empty() {
            self.ensure(other.evaluated.len() - 1);
        }
        for (i, v) in other.evaluated.iter().enumerate() {
            self.evaluated[i] += v;
        }
        for (i, v) in other.hits.iter().enumerate() {
            self.hits[i] += v;
        }
        for (i, v) in other.throttled.iter().enumerate() {
            self.throttled[i] += v;
        }
    }
}

/// The per-rule detail maps, sharded like [`ShardedHistogram`]: each
/// recording thread takes its round-robin shard's lock, so the
/// per-rule-scanned recorders — the hottest detail-layer site — stop
/// convoying a fleet of workers on one global mutex. Exports merge the
/// shards into one `BTreeMap`, keeping the ordering stable.
#[derive(Debug)]
struct ChainShards([Mutex<BTreeMap<ChainName, ChainCounters>>; HISTOGRAM_SHARDS]);

impl Default for ChainShards {
    fn default() -> Self {
        ChainShards(std::array::from_fn(|_| Mutex::new(BTreeMap::new())))
    }
}

/// A snapshot of one chain's per-rule counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSnapshot {
    /// Times each rule's match evaluation started, by rule index.
    pub evaluated: Vec<u64>,
    /// Times each rule matched (target ran), by rule index.
    pub hits: Vec<u64>,
    /// Times each rule's RATELIMIT/QUOTA budget rejected an access,
    /// by rule index (zero for non-throttle rules).
    pub throttled: Vec<u64>,
}

/// A log-linear latency histogram over nanosecond values.
///
/// Values below 8 ns get exact buckets; above that each power-of-two
/// octave is split into four linear sub-buckets, so relative error is
/// bounded by 25 % across the full `u64` range. All cells are relaxed
/// atomics, so `record` takes `&self` and is safe from any thread.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64; Histogram::NUM_BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// 8 exact buckets + 4 sub-buckets for each octave 2^3..2^63.
    pub const NUM_BUCKETS: usize = 8 + 61 * 4;

    fn bucket_index(v: u64) -> usize {
        if v < 8 {
            v as usize
        } else {
            let msb = 63 - v.leading_zeros() as usize;
            let sub = ((v >> (msb - 2)) & 0x3) as usize;
            8 + (msb - 3) * 4 + sub
        }
    }

    /// Inclusive upper bound of bucket `idx`.
    fn bucket_upper(idx: usize) -> u64 {
        if idx < 8 {
            idx as u64
        } else {
            let oct = (idx - 8) / 4 + 3;
            let sub = ((idx - 8) % 4) as u64;
            // The last sub-bucket of octave 63 covers up to u64::MAX.
            (1u64 << oct)
                .checked_add((sub + 1) * (1u64 << (oct - 2)))
                .map_or(u64::MAX, |v| v - 1)
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating sum: a wrapped total would corrupt means silently.
        let mut sum = self.sum.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(v);
            match self
                .sum
                .compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(cur) => sum = cur,
            }
        }
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds every bucket and summary cell of `other` into `self`.
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            let v = src.load(Ordering::Relaxed);
            if v > 0 {
                dst.fetch_add(v, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        let mut sum = self.sum.load(Ordering::Relaxed);
        let add = other.sum.load(Ordering::Relaxed);
        loop {
            let next = sum.saturating_add(add);
            match self
                .sum
                .compare_exchange_weak(sum, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(cur) => sum = cur,
            }
        }
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        match self.count() {
            0 => 0,
            n => self.sum() / n,
        }
    }

    /// Approximate `p`-th percentile (`0.0 ..= 1.0`): the upper bound of
    /// the bucket containing that rank, clamped to the recorded maximum.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper(idx).min(self.max());
            }
        }
        self.max()
    }

    /// Median shorthand.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th-percentile shorthand.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Zeroes the histogram.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Non-empty `(upper_bound, cumulative_count)` pairs, ascending —
    /// the Prometheus `_bucket{le=…}` series.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, b) in self.buckets.iter().enumerate() {
            let v = b.load(Ordering::Relaxed);
            if v > 0 {
                cum += v;
                out.push((Self::bucket_upper(idx), cum));
            }
        }
        out
    }
}

/// A latency histogram split into [`HISTOGRAM_SHARDS`] per-thread
/// shards.
///
/// Each recording thread is assigned one shard round-robin and only
/// ever touches that shard's atomics, so concurrent recorders do not
/// contend on bucket cache lines. Readers call [`ShardedHistogram::merged`]
/// to fold every shard into one summary [`Histogram`] — merge semantics
/// are purely additive (bucket counts, count, saturating sum, max), so
/// a merged view taken while recorders are live is a consistent
/// *at-least* snapshot.
#[derive(Debug, Default)]
pub struct ShardedHistogram {
    shards: [Histogram; HISTOGRAM_SHARDS],
}

impl ShardedHistogram {
    /// Records one value into the calling thread's shard.
    #[inline]
    pub fn record(&self, v: u64) {
        self.shards[shard_index()].record(v);
    }

    /// Folds every shard into one summary histogram.
    pub fn merged(&self) -> Histogram {
        let out = Histogram::default();
        for shard in &self.shards {
            out.merge_from(shard);
        }
        out
    }

    /// Total recorded values across all shards.
    pub fn count(&self) -> u64 {
        self.shards.iter().map(Histogram::count).sum()
    }

    /// Zeroes every shard.
    pub fn reset(&self) {
        for shard in &self.shards {
            shard.reset();
        }
    }
}

/// The engine's metrics registry. See the module docs for the layout.
#[derive(Debug, Default)]
pub struct Metrics {
    // --- legacy counters (always on; semantics asserted by tests) ---
    invocations: AtomicU64,
    rules_evaluated: AtomicU64,
    ctx_fetches: AtomicU64,
    cache_hits: AtomicU64,
    drops: AtomicU64,
    accepts: AtomicU64,
    /// Invocations that fell through every rule to the default-ALLOW
    /// policy (explicit ACCEPTs are counted separately in `accepts`).
    default_allows: AtomicU64,
    /// Denies issued while the invocation was degraded (a context fetch
    /// failed). Always on, like the verdict counters they refine.
    degraded_drops: AtomicU64,
    /// Allows issued while the invocation was degraded — each one is a
    /// place where a failed fetch *could* have masked an invariant.
    degraded_allows: AtomicU64,
    /// Verdicts served from a per-task VCACHE cache without a walk.
    vcache_hits: AtomicU64,
    /// Cache-eligible walks that ran and were inserted.
    vcache_misses: AtomicU64,
    /// Invocations the cache had to stand aside for: a key field failed
    /// to fetch, the walk was degraded, or a traversed rule consulted
    /// context outside the key / carried a side-effecting target.
    vcache_uncacheable: AtomicU64,
    /// Jumps skipped because the traversal hit the depth limit — each
    /// one is a chain that never got its say. Always on: like fetch
    /// failures, a truncated traversal is a security signal.
    jump_depth_exceeded: AtomicU64,
    /// Accesses rejected by a RATELIMIT token bucket. Always on: a
    /// throttled flood is a security signal, not a profiling detail.
    ratelimit_throttled: AtomicU64,
    /// Accesses rejected by a QUOTA windowed counter. Always on.
    quota_exceeded: AtomicU64,
    /// Input-chain walks served through the RULESETC compiled dispatch
    /// tables. Always on: together with `rulesetc_fallback` it proves
    /// (or disproves) that the compiled path is actually taken.
    rulesetc_dispatch: AtomicU64,
    /// RULESETC walks that could not use the index because a dimension
    /// fetch *failed* (entrypoint → full-chain walk, object label →
    /// EPTSPC walk). Always on: a rising rate means the fast path is
    /// being starved by fetch failures — a security *and* perf signal.
    rulesetc_fallback: AtomicU64,
    /// Monotone origin (taint) raises observed on processes — every
    /// time a subject's origin label actually went up. Always on: each
    /// transition is a step toward (or past) the taint threshold.
    origin_transitions: AtomicU64,
    /// Subject labels whose origin crossed the taint threshold,
    /// dynamically widening adversary accessibility (one count per
    /// label, the first time only). Always on: a widening rewrites the
    /// adversary model at runtime — the headline security signal of the
    /// origin layer.
    origin_widened: AtomicU64,
    /// Per-task verdict caches discarded because the adversary-model
    /// generation moved (taint widening or policy edit) while they held
    /// entries. Always on, and exact: an empty cache observing a bump
    /// is not counted.
    origin_vcache_invalidations: AtomicU64,
    // --- detail layer (gated by `detailed`) ---
    detailed: AtomicBool,
    per_op: PerOp,
    vcache_hits_op: PerOp,
    vcache_misses_op: PerOp,
    vcache_uncacheable_op: PerOp,
    ratelimit_throttled_op: PerOp,
    quota_exceeded_op: PerOp,
    fields: PerField,
    chains: ChainShards,
    /// When set, every per-rule recorder uses shard 0 — the pre-shard
    /// single-lock behaviour. A bench/regression knob
    /// ([`Metrics::set_chain_shards_pinned`]), not a production mode.
    chain_shards_pinned: AtomicBool,
    eval_ns: ShardedHistogram,
    fetch_ns: ShardedHistogram,
    // --- TRACE ring (driven by rules, not by `detailed`) ---
    trace: Mutex<VecDeque<TraceEvent>>,
    trace_dropped: AtomicU64,
    /// The `trace_dropped` total the last `drain_trace` observed; the
    /// delta since then decides whether the next drain starts with a
    /// gap marker.
    trace_drop_mark: AtomicU64,
}

#[derive(Debug)]
struct PerOp([AtomicU64; NUM_OPS]);

impl Default for PerOp {
    fn default() -> Self {
        PerOp(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

#[derive(Debug)]
struct PerField([FieldCounters; NUM_FIELDS]);

impl Default for PerField {
    fn default() -> Self {
        PerField(std::array::from_fn(|_| FieldCounters::default()))
    }
}

impl Metrics {
    /// Creates a zeroed registry with detail recording off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets every counter, histogram, and the trace ring. The detail
    /// recording flag is preserved.
    pub fn reset(&self) {
        self.invocations.store(0, Ordering::Relaxed);
        self.rules_evaluated.store(0, Ordering::Relaxed);
        self.ctx_fetches.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.drops.store(0, Ordering::Relaxed);
        self.accepts.store(0, Ordering::Relaxed);
        self.default_allows.store(0, Ordering::Relaxed);
        self.degraded_drops.store(0, Ordering::Relaxed);
        self.degraded_allows.store(0, Ordering::Relaxed);
        self.vcache_hits.store(0, Ordering::Relaxed);
        self.vcache_misses.store(0, Ordering::Relaxed);
        self.vcache_uncacheable.store(0, Ordering::Relaxed);
        self.jump_depth_exceeded.store(0, Ordering::Relaxed);
        self.ratelimit_throttled.store(0, Ordering::Relaxed);
        self.quota_exceeded.store(0, Ordering::Relaxed);
        self.rulesetc_dispatch.store(0, Ordering::Relaxed);
        self.rulesetc_fallback.store(0, Ordering::Relaxed);
        self.origin_transitions.store(0, Ordering::Relaxed);
        self.origin_widened.store(0, Ordering::Relaxed);
        self.origin_vcache_invalidations.store(0, Ordering::Relaxed);
        for per_op in [
            &self.per_op,
            &self.vcache_hits_op,
            &self.vcache_misses_op,
            &self.vcache_uncacheable_op,
            &self.ratelimit_throttled_op,
            &self.quota_exceeded_op,
        ] {
            for c in &per_op.0 {
                c.store(0, Ordering::Relaxed);
            }
        }
        for f in &self.fields.0 {
            f.fetches.store(0, Ordering::Relaxed);
            f.hits.store(0, Ordering::Relaxed);
            f.misses.store(0, Ordering::Relaxed);
            f.failures.store(0, Ordering::Relaxed);
        }
        for shard in &self.chains.0 {
            shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .clear();
        }
        self.eval_ns.reset();
        self.fetch_ns.reset();
        self.lock_trace().clear();
        self.trace_dropped.store(0, Ordering::Relaxed);
        self.trace_drop_mark.store(0, Ordering::Relaxed);
    }

    /// Locks this thread's per-chain counter shard (shard 0 when
    /// pinned), recovering from poisoning: the maps only ever grow
    /// monotonic tallies, so contents left by a panicked recorder are
    /// still valid statistics.
    fn lock_chain_shard(&self) -> std::sync::MutexGuard<'_, BTreeMap<ChainName, ChainCounters>> {
        let shard = if self.chain_shards_pinned.load(Ordering::Relaxed) {
            0
        } else {
            shard_index()
        };
        self.chains.0[shard]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Pins every per-rule recorder to one shard, restoring the
    /// pre-shard single-global-lock behaviour. Benchmarks use this to
    /// measure what the sharding buys; leave it off otherwise.
    pub fn set_chain_shards_pinned(&self, pinned: bool) {
        self.chain_shards_pinned.store(pinned, Ordering::Relaxed);
    }

    /// Whether per-rule recorders are pinned to one shard.
    pub fn chain_shards_pinned(&self) -> bool {
        self.chain_shards_pinned.load(Ordering::Relaxed)
    }

    /// Merges every shard's tallies for one chain, if any recorded.
    fn merged_chain(&self, chain: &ChainName) -> Option<ChainCounters> {
        let mut merged: Option<ChainCounters> = None;
        for shard in &self.chains.0 {
            let guard = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(c) = guard.get(chain) {
                merged.get_or_insert_with(ChainCounters::default).merge(c);
            }
        }
        merged
    }

    /// Locks the TRACE ring, recovering from poisoning: pushes and
    /// drains are single whole-event operations, so the ring is always
    /// structurally consistent.
    fn lock_trace(&self) -> std::sync::MutexGuard<'_, VecDeque<TraceEvent>> {
        self.trace
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Turns the detail layer (per-rule/per-op/per-field counters and
    /// latency histograms) on or off. Off is the no-op recorder: the
    /// detail hooks cost one branch and no clock is read.
    pub fn set_detailed(&self, on: bool) {
        self.detailed.store(on, Ordering::Relaxed);
    }

    /// Whether the detail layer is recording.
    pub fn detailed(&self) -> bool {
        self.detailed.load(Ordering::Relaxed)
    }

    // --- legacy bump API (kept from `PfStats`) ---

    #[inline]
    pub(crate) fn bump_invocations(&self) {
        self.invocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes one walk's rule count; the engine calls it once per
    /// invocation, after the walk returns.
    #[inline]
    pub(crate) fn add_rules(&self, n: u64) {
        self.rules_evaluated.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn bump_ctx_fetches(&self) {
        self.ctx_fetches.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn bump_cache_hits(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn bump_drops(&self) {
        self.drops.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn bump_accepts(&self) {
        self.accepts.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn bump_default_allows(&self) {
        self.default_allows.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn bump_degraded_drops(&self) {
        self.degraded_drops.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn bump_degraded_allows(&self) {
        self.degraded_allows.fetch_add(1, Ordering::Relaxed);
    }

    // --- VCACHE / traversal-truncation counters (always on) ---

    #[inline]
    pub(crate) fn bump_vcache_hit(&self, op: LsmOperation) {
        self.vcache_hits.fetch_add(1, Ordering::Relaxed);
        if self.detailed() {
            self.vcache_hits_op.0[op as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn bump_vcache_miss(&self, op: LsmOperation) {
        self.vcache_misses.fetch_add(1, Ordering::Relaxed);
        if self.detailed() {
            self.vcache_misses_op.0[op as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn bump_vcache_uncacheable(&self, op: LsmOperation) {
        self.vcache_uncacheable.fetch_add(1, Ordering::Relaxed);
        if self.detailed() {
            self.vcache_uncacheable_op.0[op as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn bump_jump_depth_exceeded(&self) {
        self.jump_depth_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn bump_rulesetc_dispatch(&self) {
        self.rulesetc_dispatch.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn bump_rulesetc_fallback(&self) {
        self.rulesetc_fallback.fetch_add(1, Ordering::Relaxed);
    }

    // --- origin (taint) counters (always on) ---

    /// Records one monotone origin raise on a process. Public: the OS
    /// substrate performs propagation (reads, exec, IPC) and reports it
    /// here.
    #[inline]
    pub fn bump_origin_transition(&self) {
        self.origin_transitions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one subject label crossing the taint threshold (first
    /// time only — callers gate on `MacPolicy::taint_subject`'s return).
    #[inline]
    pub fn bump_origin_widened(&self) {
        self.origin_widened.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn bump_origin_vcache_invalidation(&self) {
        self.origin_vcache_invalidations
            .fetch_add(1, Ordering::Relaxed);
    }

    // --- throttle counters (always-on totals, detail splits) ---

    #[inline]
    pub(crate) fn bump_ratelimit_throttled(
        &self,
        op: LsmOperation,
        chain: &ChainName,
        index: usize,
    ) {
        self.ratelimit_throttled.fetch_add(1, Ordering::Relaxed);
        if self.detailed() {
            self.ratelimit_throttled_op.0[op as usize].fetch_add(1, Ordering::Relaxed);
            self.rule_throttled_slow(chain, index);
        }
    }

    #[inline]
    pub(crate) fn bump_quota_exceeded(&self, op: LsmOperation, chain: &ChainName, index: usize) {
        self.quota_exceeded.fetch_add(1, Ordering::Relaxed);
        if self.detailed() {
            self.quota_exceeded_op.0[op as usize].fetch_add(1, Ordering::Relaxed);
            self.rule_throttled_slow(chain, index);
        }
    }

    #[cold]
    fn rule_throttled_slow(&self, chain: &ChainName, index: usize) {
        self.with_chain_counters(chain, index, |c| c.throttled[index] += 1);
    }

    // --- legacy accessors (kept from `PfStats`) ---

    /// Firewall hook invocations.
    pub fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }

    /// Rules whose match evaluation started.
    pub fn rules_evaluated(&self) -> u64 {
        self.rules_evaluated.load(Ordering::Relaxed)
    }

    /// Context-module fetches performed.
    pub fn ctx_fetches(&self) -> u64 {
        self.ctx_fetches.load(Ordering::Relaxed)
    }

    /// Context fetches satisfied from the per-syscall cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// DROP verdicts returned.
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Explicit ACCEPT verdicts returned (default allows not counted).
    pub fn accepts(&self) -> u64 {
        self.accepts.load(Ordering::Relaxed)
    }

    /// Invocations resolved by the implicit default-ALLOW policy.
    ///
    /// Every invocation ends one of three ways, so
    /// `drops + accepts + default_allows == invocations` holds.
    pub fn default_allows(&self) -> u64 {
        self.default_allows.load(Ordering::Relaxed)
    }

    /// DROP (or CTXFAIL) verdicts issued while the invocation was
    /// degraded by a failed context fetch. A subset of
    /// [`Metrics::drops`].
    pub fn degraded_drops(&self) -> u64 {
        self.degraded_drops.load(Ordering::Relaxed)
    }

    /// Allow verdicts (explicit or default) issued while the invocation
    /// was degraded by a failed context fetch.
    pub fn degraded_allows(&self) -> u64 {
        self.degraded_allows.load(Ordering::Relaxed)
    }

    /// Verdicts served from a per-task VCACHE cache without a walk.
    pub fn vcache_hits(&self) -> u64 {
        self.vcache_hits.load(Ordering::Relaxed)
    }

    /// Cache-eligible walks that ran and were inserted for next time.
    pub fn vcache_misses(&self) -> u64 {
        self.vcache_misses.load(Ordering::Relaxed)
    }

    /// Cache-bypassed invocations (failed key fetch, degraded walk, or
    /// a rule outside the cacheable fragment on the path).
    pub fn vcache_uncacheable(&self) -> u64 {
        self.vcache_uncacheable.load(Ordering::Relaxed)
    }

    /// Jumps skipped at the traversal depth limit.
    pub fn jump_depth_exceeded(&self) -> u64 {
        self.jump_depth_exceeded.load(Ordering::Relaxed)
    }

    /// `(hits, misses, uncacheable)` VCACHE counts for one operation
    /// (detail layer).
    pub fn vcache_op_counts(&self, op: LsmOperation) -> (u64, u64, u64) {
        (
            self.vcache_hits_op.0[op as usize].load(Ordering::Relaxed),
            self.vcache_misses_op.0[op as usize].load(Ordering::Relaxed),
            self.vcache_uncacheable_op.0[op as usize].load(Ordering::Relaxed),
        )
    }

    /// Accesses rejected by a RATELIMIT token bucket (regardless of
    /// the rule's `--exceed` policy).
    pub fn ratelimit_throttled(&self) -> u64 {
        self.ratelimit_throttled.load(Ordering::Relaxed)
    }

    /// Accesses rejected by a QUOTA windowed counter.
    pub fn quota_exceeded(&self) -> u64 {
        self.quota_exceeded.load(Ordering::Relaxed)
    }

    /// Input-chain walks served through the RULESETC compiled dispatch
    /// tables.
    pub fn rulesetc_dispatch(&self) -> u64 {
        self.rulesetc_dispatch.load(Ordering::Relaxed)
    }

    /// RULESETC walks that fell back to a full or EPTSPC walk because a
    /// dimension fetch failed.
    pub fn rulesetc_fallback(&self) -> u64 {
        self.rulesetc_fallback.load(Ordering::Relaxed)
    }

    /// Monotone origin (taint) raises observed on processes.
    pub fn origin_transitions(&self) -> u64 {
        self.origin_transitions.load(Ordering::Relaxed)
    }

    /// Subject labels whose origin crossed the taint threshold (one per
    /// label: adversary-accessibility widenings).
    pub fn origin_widened(&self) -> u64 {
        self.origin_widened.load(Ordering::Relaxed)
    }

    /// Per-task verdict caches discarded because the adversary-model
    /// generation moved while they held entries.
    pub fn origin_vcache_invalidations(&self) -> u64 {
        self.origin_vcache_invalidations.load(Ordering::Relaxed)
    }

    /// `(ratelimit_throttled, quota_exceeded)` for one operation
    /// (detail layer).
    pub fn throttle_op_counts(&self, op: LsmOperation) -> (u64, u64) {
        (
            self.ratelimit_throttled_op.0[op as usize].load(Ordering::Relaxed),
            self.quota_exceeded_op.0[op as usize].load(Ordering::Relaxed),
        )
    }

    // --- per-operation counters ---

    #[inline]
    pub(crate) fn op_invoked(&self, op: LsmOperation) {
        if self.detailed() {
            self.per_op.0[op as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Hook invocations for one operation (detail layer).
    pub fn op_invocations(&self, op: LsmOperation) -> u64 {
        self.per_op.0[op as usize].load(Ordering::Relaxed)
    }

    // --- per-rule / per-chain counters ---

    // The per-rule recorders run for each rule the walk loads while
    // the detail layer is on (the engine reads the flag once per
    // invocation). Keep the gate inlined and the map lookup out of
    // line.
    #[inline]
    pub(crate) fn rule_evaluated(&self, chain: &ChainName, index: usize) {
        if self.detailed() {
            self.rule_evaluated_slow(chain, index);
        }
    }

    #[cold]
    fn rule_evaluated_slow(&self, chain: &ChainName, index: usize) {
        self.with_chain_counters(chain, index, |c| c.evaluated[index] += 1);
    }

    #[inline]
    pub(crate) fn rule_hit(&self, chain: &ChainName, index: usize) {
        if self.detailed() {
            self.rule_hit_slow(chain, index);
        }
    }

    #[cold]
    fn rule_hit_slow(&self, chain: &ChainName, index: usize) {
        self.with_chain_counters(chain, index, |c| c.hits[index] += 1);
    }

    /// Runs `f` on this thread's shard of `chain`'s counters, sized to
    /// hold `index`. The chain name is cloned only the first time the
    /// shard sees the chain, so recording never allocates once warm.
    fn with_chain_counters(
        &self,
        chain: &ChainName,
        index: usize,
        f: impl FnOnce(&mut ChainCounters),
    ) {
        let mut chains = self.lock_chain_shard();
        let c = match chains.get_mut(chain) {
            Some(c) => c,
            None => chains.entry(chain.clone()).or_default(),
        };
        c.ensure(index);
        f(c);
    }

    /// Snapshot of one chain's per-rule counters, if any were recorded:
    /// every shard's tallies merged element-wise.
    pub fn chain_snapshot(&self, chain: &ChainName) -> Option<ChainSnapshot> {
        self.merged_chain(chain).map(|c| ChainSnapshot {
            evaluated: c.evaluated,
            hits: c.hits,
            throttled: c.throttled,
        })
    }

    /// Names of chains with recorded per-rule counters, in stable
    /// (`BTreeMap`) order regardless of which shards recorded them.
    pub fn chains_seen(&self) -> Vec<ChainName> {
        let mut seen: std::collections::BTreeSet<ChainName> = std::collections::BTreeSet::new();
        for shard in &self.chains.0 {
            let guard = shard
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            seen.extend(guard.keys().cloned());
        }
        seen.into_iter().collect()
    }

    // --- per-field counters ---

    #[inline]
    pub(crate) fn field_fetch(&self, field: CtxField) {
        if self.detailed() {
            self.fields.0[field.bit() as usize]
                .fetches
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn field_hit(&self, field: CtxField) {
        if self.detailed() {
            self.fields.0[field.bit() as usize]
                .hits
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn field_miss(&self, field: CtxField) {
        if self.detailed() {
            self.fields.0[field.bit() as usize]
                .misses
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a *failed* fetch of one context field. Always on —
    /// unlike the profiling counters, a fetch failure is a security
    /// signal (the condition `--ctx-missing` policies arbitrate).
    #[inline]
    pub(crate) fn field_failure(&self, field: CtxField) {
        self.fields.0[field.bit() as usize]
            .failures
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Failed fetches recorded for one context field.
    pub fn field_failures(&self, field: CtxField) -> u64 {
        self.fields.0[field.bit() as usize]
            .failures
            .load(Ordering::Relaxed)
    }

    /// `(fetches, cache_hits, misses)` for one context field.
    pub fn field_counts(&self, field: CtxField) -> (u64, u64, u64) {
        let f = &self.fields.0[field.bit() as usize];
        (
            f.fetches.load(Ordering::Relaxed),
            f.hits.load(Ordering::Relaxed),
            f.misses.load(Ordering::Relaxed),
        )
    }

    // --- latency histograms ---

    /// Starts a timer when the detail layer records; `None` otherwise.
    #[inline]
    pub(crate) fn timer(&self) -> Option<Instant> {
        if self.detailed() {
            Some(Instant::now())
        } else {
            None
        }
    }

    #[inline]
    pub(crate) fn observe_eval(&self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.eval_ns.record(t0.elapsed().as_nanos() as u64);
        }
    }

    #[inline]
    pub(crate) fn observe_fetch(&self, field: CtxField, t0: Option<Instant>, missed: bool) {
        self.field_fetch(field);
        if missed {
            self.field_miss(field);
        }
        if let Some(t0) = t0 {
            self.fetch_ns.record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Whole-hook evaluation latency (detail layer): every per-thread
    /// shard merged into one summary histogram.
    pub fn eval_latency(&self) -> Histogram {
        self.eval_ns.merged()
    }

    /// Context-fetch latency (detail layer), merged across shards.
    pub fn fetch_latency(&self) -> Histogram {
        self.fetch_ns.merged()
    }

    // --- TRACE ring ---

    pub(crate) fn push_trace(&self, event: TraceEvent) {
        let mut ring = self.lock_trace();
        if ring.len() >= TRACE_RING_CAP {
            ring.pop_front();
            self.trace_dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Drains the TRACE event ring, oldest first.
    ///
    /// If the ring overflowed since the previous drain (see
    /// [`Metrics::trace_dropped`]), the first drained event carries
    /// `gap = true`: hops are missing immediately before it. The marker
    /// is stamped here, on the reader side, so the push path stays one
    /// `pop_front` + counter bump regardless of drain cadence.
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        let mut ring = self.lock_trace();
        let mut events: Vec<TraceEvent> = ring.drain(..).collect();
        // Mark-swap happens under the ring lock so two racing drains
        // cannot both consume the same overflow delta.
        let total = self.trace_dropped.load(Ordering::Relaxed);
        let prior = self.trace_drop_mark.swap(total, Ordering::Relaxed);
        if total > prior {
            if let Some(first) = events.first_mut() {
                first.gap = true;
            }
        }
        events
    }

    /// Buffered TRACE events.
    pub fn trace_len(&self) -> usize {
        self.lock_trace().len()
    }

    /// TRACE events discarded because the ring was full.
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped.load(Ordering::Relaxed)
    }

    // --- exporters ---

    /// Renders the registry in the Prometheus text exposition format.
    ///
    /// Every line is `name value` or `name{label="v",…} value`; no
    /// comment lines are emitted, so the output parses line-by-line.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        let _ = writeln!(out, "pf_invocations_total {}", self.invocations());
        let _ = writeln!(out, "pf_rules_evaluated_total {}", self.rules_evaluated());
        let _ = writeln!(out, "pf_ctx_fetches_total {}", self.ctx_fetches());
        let _ = writeln!(out, "pf_cache_hits_total {}", self.cache_hits());
        let _ = writeln!(out, "pf_drops_total {}", self.drops());
        let _ = writeln!(out, "pf_accepts_total {}", self.accepts());
        let _ = writeln!(out, "pf_default_allows_total {}", self.default_allows());
        let _ = writeln!(out, "pf_degraded_drops_total {}", self.degraded_drops());
        let _ = writeln!(out, "pf_degraded_allows_total {}", self.degraded_allows());
        let _ = writeln!(out, "pf_vcache_hits_total {}", self.vcache_hits());
        let _ = writeln!(out, "pf_vcache_misses_total {}", self.vcache_misses());
        let _ = writeln!(
            out,
            "pf_vcache_uncacheable_total {}",
            self.vcache_uncacheable()
        );
        let _ = writeln!(
            out,
            "pf_jump_depth_exceeded_total {}",
            self.jump_depth_exceeded()
        );
        let _ = writeln!(
            out,
            "pf_ratelimit_throttled_total {}",
            self.ratelimit_throttled()
        );
        let _ = writeln!(out, "pf_quota_exceeded_total {}", self.quota_exceeded());
        let _ = writeln!(
            out,
            "pf_rulesetc_dispatch_total {}",
            self.rulesetc_dispatch()
        );
        let _ = writeln!(
            out,
            "pf_rulesetc_fallback_total {}",
            self.rulesetc_fallback()
        );
        let _ = writeln!(
            out,
            "pf_origin_transitions_total {}",
            self.origin_transitions()
        );
        let _ = writeln!(out, "pf_origin_widened_total {}", self.origin_widened());
        let _ = writeln!(
            out,
            "pf_origin_vcache_invalidations_total {}",
            self.origin_vcache_invalidations()
        );
        let _ = writeln!(
            out,
            "pf_trace_events_dropped_total {}",
            self.trace_dropped()
        );
        for op in LsmOperation::ALL {
            let n = self.op_invocations(op);
            if n > 0 {
                let _ = writeln!(out, "pf_op_invocations_total{{op=\"{}\"}} {n}", op.name());
            }
            let (hits, misses, uncacheable) = self.vcache_op_counts(op);
            if hits > 0 {
                let _ = writeln!(
                    out,
                    "pf_vcache_op_hits_total{{op=\"{}\"}} {hits}",
                    op.name()
                );
            }
            if misses > 0 {
                let _ = writeln!(
                    out,
                    "pf_vcache_op_misses_total{{op=\"{}\"}} {misses}",
                    op.name()
                );
            }
            if uncacheable > 0 {
                let _ = writeln!(
                    out,
                    "pf_vcache_op_uncacheable_total{{op=\"{}\"}} {uncacheable}",
                    op.name()
                );
            }
            let (throttled, quota) = self.throttle_op_counts(op);
            if throttled > 0 {
                let _ = writeln!(
                    out,
                    "pf_ratelimit_op_throttled_total{{op=\"{}\"}} {throttled}",
                    op.name()
                );
            }
            if quota > 0 {
                let _ = writeln!(
                    out,
                    "pf_quota_op_exceeded_total{{op=\"{}\"}} {quota}",
                    op.name()
                );
            }
        }
        for chain in self.chains_seen() {
            let snap = self.chain_snapshot(&chain).unwrap();
            // User chain names are free-form rule-language tokens;
            // escape them like every other label value.
            let mut name = String::new();
            prom_label_esc(&mut name, &chain.name());
            for (i, (&ev, &hit)) in snap.evaluated.iter().zip(&snap.hits).enumerate() {
                let _ = writeln!(
                    out,
                    "pf_rule_evaluated_total{{chain=\"{name}\",rule=\"{i}\"}} {ev}"
                );
                let _ = writeln!(
                    out,
                    "pf_rule_hits_total{{chain=\"{name}\",rule=\"{i}\"}} {hit}"
                );
                let throttled = snap.throttled.get(i).copied().unwrap_or(0);
                if throttled > 0 {
                    let _ = writeln!(
                        out,
                        "pf_rule_throttled_total{{chain=\"{name}\",rule=\"{i}\"}} {throttled}"
                    );
                }
            }
        }
        for field in CtxField::ALL {
            let (fetches, hits, misses) = self.field_counts(field);
            if fetches + hits + misses > 0 {
                let name = field.cname();
                let _ = writeln!(
                    out,
                    "pf_ctx_field_fetches_total{{field=\"{name}\"}} {fetches}"
                );
                let _ = writeln!(out, "pf_ctx_field_hits_total{{field=\"{name}\"}} {hits}");
                let _ = writeln!(
                    out,
                    "pf_ctx_field_misses_total{{field=\"{name}\"}} {misses}"
                );
            }
            // Failure counters are always on (not detail-gated), so
            // they get their own non-zero gate.
            let failures = self.field_failures(field);
            if failures > 0 {
                let _ = writeln!(
                    out,
                    "pf_ctx_field_failures_total{{field=\"{}\"}} {failures}",
                    field.cname()
                );
            }
        }
        for (metric, hist) in [
            ("pf_eval_latency_ns", self.eval_latency()),
            ("pf_fetch_latency_ns", self.fetch_latency()),
        ] {
            for (le, cum) in hist.cumulative_buckets() {
                let _ = writeln!(out, "{metric}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", hist.count());
            let _ = writeln!(out, "{metric}_sum {}", hist.sum());
            let _ = writeln!(out, "{metric}_count {}", hist.count());
        }
        out
    }

    /// Renders a JSON snapshot of every counter and histogram summary.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        let _ = write!(
            s,
            "{{\"counters\":{{\"invocations\":{},\"rules_evaluated\":{},\
             \"ctx_fetches\":{},\"cache_hits\":{},\"drops\":{},\"accepts\":{},\
             \"default_allows\":{},\"degraded_drops\":{},\
             \"degraded_allows\":{},\"vcache_hits\":{},\"vcache_misses\":{},\
             \"vcache_uncacheable\":{},\"jump_depth_exceeded\":{},\
             \"ratelimit_throttled\":{},\"quota_exceeded\":{},\
             \"rulesetc_dispatch\":{},\"rulesetc_fallback\":{},\
             \"origin_transitions\":{},\"origin_widened\":{},\
             \"origin_vcache_invalidations\":{},\
             \"trace_dropped\":{}}}",
            self.invocations(),
            self.rules_evaluated(),
            self.ctx_fetches(),
            self.cache_hits(),
            self.drops(),
            self.accepts(),
            self.default_allows(),
            self.degraded_drops(),
            self.degraded_allows(),
            self.vcache_hits(),
            self.vcache_misses(),
            self.vcache_uncacheable(),
            self.jump_depth_exceeded(),
            self.ratelimit_throttled(),
            self.quota_exceeded(),
            self.rulesetc_dispatch(),
            self.rulesetc_fallback(),
            self.origin_transitions(),
            self.origin_widened(),
            self.origin_vcache_invalidations(),
            self.trace_dropped(),
        );
        s.push_str(",\"ops\":{");
        let mut first = true;
        for op in LsmOperation::ALL {
            let n = self.op_invocations(op);
            if n > 0 {
                if !first {
                    s.push(',');
                }
                first = false;
                let _ = write!(s, "\"{}\":{n}", op.name());
            }
        }
        s.push_str("},\"chains\":{");
        let mut first = true;
        for chain in self.chains_seen() {
            let snap = self.chain_snapshot(&chain).unwrap();
            if !first {
                s.push(',');
            }
            first = false;
            s.push('"');
            esc(&mut s, &chain.name());
            s.push_str("\":[");
            for (i, (&ev, &hit)) in snap.evaluated.iter().zip(&snap.hits).enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let throttled = snap.throttled.get(i).copied().unwrap_or(0);
                let _ = write!(
                    s,
                    "{{\"rule\":{i},\"evaluated\":{ev},\"hits\":{hit},\"throttled\":{throttled}}}"
                );
            }
            s.push(']');
        }
        s.push_str("},\"fields\":{");
        let mut first = true;
        for field in CtxField::ALL {
            let (fetches, hits, misses) = self.field_counts(field);
            let failures = self.field_failures(field);
            if fetches + hits + misses + failures > 0 {
                if !first {
                    s.push(',');
                }
                first = false;
                let _ = write!(
                    s,
                    "\"{}\":{{\"fetches\":{fetches},\"hits\":{hits},\
                     \"misses\":{misses},\"failures\":{failures}}}",
                    field.cname()
                );
            }
        }
        s.push('}');
        for (name, hist) in [
            ("eval_latency_ns", self.eval_latency()),
            ("fetch_latency_ns", self.fetch_latency()),
        ] {
            let _ = write!(
                s,
                ",\"{name}\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                hist.count(),
                hist.mean(),
                hist.p50(),
                hist.p99(),
                hist.max(),
            );
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_counters_bump_and_reset() {
        let m = Metrics::new();
        m.bump_invocations();
        m.add_rules(1);
        m.add_rules(1);
        m.bump_drops();
        assert_eq!(m.invocations(), 1);
        assert_eq!(m.rules_evaluated(), 2);
        assert_eq!(m.drops(), 1);
        m.reset();
        assert_eq!(m.rules_evaluated(), 0);
    }

    #[test]
    fn detail_layer_is_noop_until_enabled() {
        let m = Metrics::new();
        m.op_invoked(LsmOperation::FileOpen);
        m.rule_evaluated(&ChainName::Input, 0);
        m.field_fetch(CtxField::ResourceId);
        assert!(m.timer().is_none());
        assert_eq!(m.op_invocations(LsmOperation::FileOpen), 0);
        assert!(m.chain_snapshot(&ChainName::Input).is_none());
        assert_eq!(m.field_counts(CtxField::ResourceId), (0, 0, 0));

        m.set_detailed(true);
        m.op_invoked(LsmOperation::FileOpen);
        m.rule_evaluated(&ChainName::Input, 2);
        m.rule_hit(&ChainName::Input, 2);
        m.field_fetch(CtxField::ResourceId);
        m.field_miss(CtxField::ResourceId);
        assert!(m.timer().is_some());
        assert_eq!(m.op_invocations(LsmOperation::FileOpen), 1);
        let snap = m.chain_snapshot(&ChainName::Input).unwrap();
        assert_eq!(snap.evaluated, [0, 0, 1]);
        assert_eq!(snap.hits, [0, 0, 1]);
        assert_eq!(m.field_counts(CtxField::ResourceId), (1, 0, 1));
    }

    #[test]
    fn histogram_buckets_are_monotonic_and_exhaustive() {
        // Every value maps to a bucket whose bounds contain it.
        for v in [0u64, 1, 7, 8, 9, 10, 100, 1000, 4095, 1 << 20, u64::MAX] {
            let idx = Histogram::bucket_index(v);
            assert!(idx < Histogram::NUM_BUCKETS, "v={v} idx={idx}");
            assert!(v <= Histogram::bucket_upper(idx), "v={v} idx={idx}");
            if idx > 0 {
                assert!(v > Histogram::bucket_upper(idx - 1), "v={v} idx={idx}");
            }
        }
        // Upper bounds strictly increase.
        for idx in 1..Histogram::NUM_BUCKETS {
            assert!(Histogram::bucket_upper(idx) > Histogram::bucket_upper(idx - 1));
        }
    }

    #[test]
    fn histogram_summary_statistics() {
        let h = Histogram::default();
        assert_eq!(h.p50(), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.mean(), 50);
        assert_eq!(h.max(), 100);
        // Log-linear buckets: p50 lands in the bucket containing 50
        // (bounds 48..=55), p99 in the one containing 99 (96..=111,
        // clamped to the recorded max).
        assert!(h.p50() >= 50 && h.p50() <= 55, "p50={}", h.p50());
        assert!(h.p99() >= 99 && h.p99() <= 100, "p99={}", h.p99());
        let cum = h.cumulative_buckets();
        assert_eq!(cum.last().unwrap().1, 100, "cumulative ends at count");
        h.reset();
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn sharded_histogram_merges_across_threads() {
        let sh = std::sync::Arc::new(ShardedHistogram::default());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let sh = sh.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    sh.record(t * 1000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let merged = sh.merged();
        assert_eq!(merged.count(), 1000);
        assert_eq!(sh.count(), 1000);
        assert_eq!(merged.max(), 3249);
        let expected_sum: u64 = (0..4u64)
            .flat_map(|t| (0..250u64).map(move |i| t * 1000 + i))
            .sum();
        assert_eq!(merged.sum(), expected_sum);
        sh.reset();
        assert_eq!(sh.merged().count(), 0);
    }

    #[test]
    fn concurrent_counter_bumps_do_not_lose_updates() {
        let m = std::sync::Arc::new(Metrics::new());
        m.set_detailed(true);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..5000 {
                    m.bump_invocations();
                    m.bump_default_allows();
                    m.op_invoked(LsmOperation::FileOpen);
                    m.rule_evaluated(&ChainName::Input, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.invocations(), 20_000);
        assert_eq!(m.default_allows(), 20_000);
        assert_eq!(m.op_invocations(LsmOperation::FileOpen), 20_000);
        let snap = m.chain_snapshot(&ChainName::Input).unwrap();
        assert_eq!(snap.evaluated, [0, 20_000]);
    }

    #[test]
    fn sharded_chain_detail_merges_to_exact_totals() {
        // Four threads spread their per-rule bumps across the chain
        // shards; the export-side merge must recover exact totals in
        // stable order, and pinned mode (all recorders on shard 0)
        // must report the same numbers.
        for pinned in [false, true] {
            let m = std::sync::Arc::new(Metrics::new());
            m.set_detailed(true);
            m.set_chain_shards_pinned(pinned);
            let mut handles = Vec::new();
            for _ in 0..4 {
                let m = m.clone();
                handles.push(std::thread::spawn(move || {
                    for _ in 0..2500 {
                        m.rule_evaluated(&ChainName::Input, 0);
                        m.rule_evaluated(&ChainName::Input, 2);
                        m.rule_hit(&ChainName::Input, 2);
                        m.rule_throttled_slow(&ChainName::Output, 1);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(
                m.chains_seen(),
                vec![ChainName::Input, ChainName::Output],
                "pinned={pinned}: export order is stable"
            );
            let input = m.chain_snapshot(&ChainName::Input).unwrap();
            assert_eq!(input.evaluated, [10_000, 0, 10_000]);
            assert_eq!(input.hits, [0, 0, 10_000]);
            let output = m.chain_snapshot(&ChainName::Output).unwrap();
            assert_eq!(output.throttled, [0, 10_000]);
        }
    }

    #[test]
    fn trace_ring_is_bounded() {
        let m = Metrics::new();
        for i in 0..(TRACE_RING_CAP + 10) {
            m.push_trace(TraceEvent {
                chain: "input".into(),
                rule_index: i,
                matched: true,
                target: "DROP",
                elapsed_ns: 0,
                degraded: false,
                invocation: 0,
                gap: false,
            });
        }
        assert_eq!(m.trace_len(), TRACE_RING_CAP);
        assert_eq!(m.trace_dropped(), 10);
        let events = m.drain_trace();
        assert_eq!(events.len(), TRACE_RING_CAP);
        assert_eq!(events[0].rule_index, 10, "oldest events were dropped");
        assert!(events[0].gap, "overflow marks a gap on the first drain");
        assert!(!events[1].gap, "only the first drained event is marked");
        assert_eq!(m.trace_len(), 0);

        // A second overflow-free round drains without a gap marker.
        m.push_trace(TraceEvent {
            chain: "input".into(),
            rule_index: 0,
            matched: true,
            target: "DROP",
            elapsed_ns: 0,
            degraded: false,
            invocation: 7,
            gap: false,
        });
        let events = m.drain_trace();
        assert_eq!(events.len(), 1);
        assert!(!events[0].gap, "no drops since last drain, no gap");
        assert_eq!(events[0].invocation, 7);
    }

    #[test]
    fn trace_event_json() {
        let e = TraceEvent {
            chain: "side\"chain".into(),
            rule_index: 3,
            matched: false,
            target: "ACCEPT",
            elapsed_ns: 42,
            degraded: true,
            invocation: 9001,
            gap: true,
        };
        assert_eq!(
            e.to_json(),
            "{\"chain\":\"side\\\"chain\",\"rule\":3,\"matched\":false,\
             \"target\":\"ACCEPT\",\"elapsed_ns\":42,\"degraded\":true,\
             \"invocation\":9001,\"gap\":true}"
        );
    }

    #[test]
    fn prometheus_lines_parse_as_name_labels_value() {
        let m = Metrics::new();
        m.set_detailed(true);
        m.bump_invocations();
        m.op_invoked(LsmOperation::FileOpen);
        m.rule_evaluated(&ChainName::User("side".into()), 1);
        m.observe_fetch(CtxField::ResourceId, m.timer(), false);
        m.observe_eval(m.timer());
        let text = m.render_prometheus();
        assert!(text.contains("pf_invocations_total 1"));
        assert!(text.contains("pf_op_invocations_total{op=\"FILE_OPEN\"} 1"));
        for line in text.lines() {
            let (name_part, value) = line.rsplit_once(' ').expect("name value");
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "bad value in `{line}`"
            );
            let name = match name_part.split_once('{') {
                Some((n, labels)) => {
                    let labels = labels.strip_suffix('}').expect("closing brace");
                    for pair in labels.split(',') {
                        let (k, v) = pair.split_once('=').expect("label pair");
                        assert!(!k.is_empty() && v.starts_with('"') && v.ends_with('"'));
                    }
                    n
                }
                None => name_part,
            };
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name in `{line}`"
            );
        }
    }

    #[test]
    fn vcache_counters_export_and_reset() {
        let m = Metrics::new();
        m.set_detailed(true);
        m.bump_vcache_hit(LsmOperation::FileOpen);
        m.bump_vcache_hit(LsmOperation::FileOpen);
        m.bump_vcache_miss(LsmOperation::FileOpen);
        m.bump_vcache_uncacheable(LsmOperation::SocketBind);
        m.bump_jump_depth_exceeded();
        assert_eq!(m.vcache_hits(), 2);
        assert_eq!(m.vcache_misses(), 1);
        assert_eq!(m.vcache_uncacheable(), 1);
        assert_eq!(m.jump_depth_exceeded(), 1);
        assert_eq!(m.vcache_op_counts(LsmOperation::FileOpen), (2, 1, 0));
        assert_eq!(m.vcache_op_counts(LsmOperation::SocketBind), (0, 0, 1));
        let text = m.render_prometheus();
        assert!(text.contains("pf_vcache_hits_total 2"));
        assert!(text.contains("pf_vcache_misses_total 1"));
        assert!(text.contains("pf_vcache_uncacheable_total 1"));
        assert!(text.contains("pf_jump_depth_exceeded_total 1"));
        assert!(text.contains("pf_vcache_op_hits_total{op=\"FILE_OPEN\"} 2"));
        assert!(text.contains("pf_vcache_op_uncacheable_total{op=\"SOCKET_BIND\"} 1"));
        let json = m.to_json();
        assert!(json.contains("\"vcache_hits\":2"));
        assert!(json.contains("\"jump_depth_exceeded\":1"));
        m.reset();
        assert_eq!(m.vcache_hits(), 0);
        assert_eq!(m.jump_depth_exceeded(), 0);
        assert_eq!(m.vcache_op_counts(LsmOperation::FileOpen), (0, 0, 0));
    }

    #[test]
    fn throttle_counters_export_and_reset() {
        let m = Metrics::new();
        m.set_detailed(true);
        m.bump_ratelimit_throttled(LsmOperation::ProcessSignalDelivery, &ChainName::Input, 0);
        m.bump_ratelimit_throttled(LsmOperation::ProcessSignalDelivery, &ChainName::Input, 0);
        m.bump_quota_exceeded(LsmOperation::FileCreate, &ChainName::Input, 1);
        assert_eq!(m.ratelimit_throttled(), 2);
        assert_eq!(m.quota_exceeded(), 1);
        assert_eq!(
            m.throttle_op_counts(LsmOperation::ProcessSignalDelivery),
            (2, 0)
        );
        assert_eq!(m.throttle_op_counts(LsmOperation::FileCreate), (0, 1));
        let snap = m.chain_snapshot(&ChainName::Input).unwrap();
        assert_eq!(snap.throttled, vec![2, 1]);
        let text = m.render_prometheus();
        assert!(text.contains("pf_ratelimit_throttled_total 2"));
        assert!(text.contains("pf_quota_exceeded_total 1"));
        assert!(text.contains("pf_ratelimit_op_throttled_total{op=\"PROCESS_SIGNAL_DELIVERY\"} 2"));
        assert!(text.contains("pf_quota_op_exceeded_total{op=\"FILE_CREATE\"} 1"));
        assert!(text.contains("pf_rule_throttled_total{chain=\"input\",rule=\"0\"} 2"));
        let json = m.to_json();
        assert!(json.contains("\"ratelimit_throttled\":2"));
        assert!(json.contains("\"quota_exceeded\":1"));
        m.reset();
        assert_eq!(m.ratelimit_throttled(), 0);
        assert_eq!(m.quota_exceeded(), 0);
        assert_eq!(
            m.throttle_op_counts(LsmOperation::ProcessSignalDelivery),
            (0, 0)
        );
        // The always-on totals record even with the detail layer off.
        m.set_detailed(false);
        m.bump_quota_exceeded(LsmOperation::FileCreate, &ChainName::Input, 0);
        assert_eq!(m.quota_exceeded(), 1);
        assert_eq!(m.throttle_op_counts(LsmOperation::FileCreate), (0, 0));
    }

    #[test]
    fn rulesetc_counters_export_and_reset() {
        let m = Metrics::new();
        m.bump_rulesetc_dispatch();
        m.bump_rulesetc_dispatch();
        m.bump_rulesetc_fallback();
        assert_eq!(m.rulesetc_dispatch(), 2);
        assert_eq!(m.rulesetc_fallback(), 1);
        let text = m.render_prometheus();
        assert!(text.contains("pf_rulesetc_dispatch_total 2"));
        assert!(text.contains("pf_rulesetc_fallback_total 1"));
        let json = m.to_json();
        assert!(json.contains("\"rulesetc_dispatch\":2"));
        assert!(json.contains("\"rulesetc_fallback\":1"));
        m.reset();
        assert_eq!(m.rulesetc_dispatch(), 0);
        assert_eq!(m.rulesetc_fallback(), 0);
    }

    #[test]
    fn origin_counters_export_and_reset() {
        let m = Metrics::new();
        m.bump_origin_transition();
        m.bump_origin_transition();
        m.bump_origin_widened();
        m.bump_origin_vcache_invalidation();
        assert_eq!(m.origin_transitions(), 2);
        assert_eq!(m.origin_widened(), 1);
        assert_eq!(m.origin_vcache_invalidations(), 1);
        let text = m.render_prometheus();
        assert!(text.contains("pf_origin_transitions_total 2"));
        assert!(text.contains("pf_origin_widened_total 1"));
        assert!(text.contains("pf_origin_vcache_invalidations_total 1"));
        let json = m.to_json();
        assert!(json.contains("\"origin_transitions\":2"));
        assert!(json.contains("\"origin_widened\":1"));
        assert!(json.contains("\"origin_vcache_invalidations\":1"));
        m.reset();
        assert_eq!(m.origin_transitions(), 0);
        assert_eq!(m.origin_widened(), 0);
        assert_eq!(m.origin_vcache_invalidations(), 0);
    }

    #[test]
    fn json_snapshot_shape() {
        let m = Metrics::new();
        m.set_detailed(true);
        m.bump_invocations();
        m.bump_default_allows();
        m.op_invoked(LsmOperation::SocketBind);
        m.rule_evaluated(&ChainName::Input, 0);
        let json = m.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"invocations\":1"));
        assert!(json.contains("\"default_allows\":1"));
        assert!(json.contains("\"SOCKET_BIND\":1"));
        assert!(
            json.contains("\"input\":[{\"rule\":0,\"evaluated\":1,\"hits\":0,\"throttled\":0}]")
        );
        assert!(json.contains("\"eval_latency_ns\""));
    }
}

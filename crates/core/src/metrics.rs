//! The metrics-and-tracing registry for the firewall engine.
//!
//! Every exported metric is declared once, as a row of a descriptor
//! table ([`MetricDesc`]). Storage, [`Metrics::reset`], both exporters,
//! the firewall-level rows, and the `pfstat`/`pfsh` reports all read
//! those tables: [`COUNTERS`] (the always-on scalars, one slot each of
//! a fixed atomic array; the `counters!` table also generates their
//! named accessors), [`OP_FAMILIES`] (per-[`LsmOperation`] splits),
//! [`RULE_FAMILIES`] (per-rule tallies behind `pftables -L -v`),
//! [`FIELD_FAMILIES`] (per-[`CtxField`] counters), [`LATENCY`]
//! (log-linear nanosecond histograms), and [`EVENT_ROWS`]/[`LOG_ROWS`]
//! (event-plane and LOG-sink accounting). The registry also owns the
//! TRACE target's bounded event ring.
//!
//! The registry is **thread-safe**: the firewall hook runs re-entrantly
//! from many tasks at once, so every counter is a relaxed atomic and the
//! latency histograms and per-rule maps are *sharded* per recording
//! thread and merged on export.
//!
//! The detail layer (per-op, per-rule, per-field fetch/hit/miss, and
//! latency) is gated by [`Metrics::set_detailed`]: off by default, when
//! every detail hook is a no-op and no clock is read — the baseline the
//! `metrics_overhead` bench compares against. The scalars and per-field
//! failures are always on: they define engine semantics that tests
//! assert (see [`Metrics::check`]) and carry security signals.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
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

/// Locks `m`, recovering from poisoning: the per-rule maps only grow
/// monotonic tallies and the TRACE ring changes one whole event at a
/// time, so a panicked holder leaves either one consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

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

// --- the descriptor tables ---

/// When a labelled row gets a Prometheus line. JSON objects are not
/// elided row by row; each family's JSON shape is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// Always (scalars, and per-rule evaluated/hit counts).
    Always,
    /// Only when the sample is non-zero.
    NonZero,
    /// Whenever any `WithGroup` row of the same label set is non-zero.
    WithGroup,
}

/// One exported metric: the single declaration every exporter reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDesc {
    /// Prometheus family name.
    pub prom: &'static str,
    /// JSON key.
    pub json: &'static str,
    /// Prometheus zero-elision rule.
    pub emit: Emit,
    /// One-line description (accessor docs, `pfstat`).
    pub help: &'static str,
}

/// Declares an enum whose variants index one family's storage, and the
/// family's descriptor table in the same order.
macro_rules! metric_table {
    ($(#[$meta:meta])* enum $Enum:ident, $TABLE:ident refines $Total:ident {
        $($variant:ident => $prom:literal, $json:expr, $emit:ident, $help:literal;)+
    }) => {
        metric_table! {
            $(#[$meta])*
            enum $Enum, $TABLE { $($variant => $prom, $json, $emit, $help;)+ }
        }

        impl $Enum {
            /// The always-on counter of the same name that this split
            /// refines.
            const fn total(self) -> $Total {
                match self {
                    $($Enum::$variant => $Total::$variant,)+
                }
            }
        }
    };
    ($(#[$meta:meta])* enum $Enum:ident, $TABLE:ident {
        $($variant:ident => $prom:literal, $json:expr, $emit:ident, $help:literal;)+
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $Enum {
            $(#[doc = $help] $variant,)+
        }

        impl $Enum {
            /// Every variant, in table order.
            pub const ALL: [$Enum; $TABLE.len()] = [$($Enum::$variant),+];
        }

        /// Descriptor rows, indexed by the matching enum.
        pub const $TABLE: &[MetricDesc] =
            &[$(MetricDesc { prom: $prom, json: $json, emit: Emit::$emit, help: $help }),+];
    };
}

/// The always-on scalars: one row declares the [`Counter`] slot, its
/// [`COUNTERS`] descriptor (JSON key = accessor name), and the accessor.
macro_rules! counters {
    ($($name:ident $variant:ident $prom:literal $help:literal;)+) => {
        metric_table! {
            /// An always-on scalar counter: one slot of the registry's
            /// counter array.
            enum Counter, COUNTERS {
                $($variant => $prom, stringify!($name), Always, $help;)+
            }
        }

        impl Metrics {
            $(
                #[doc = $help]
                pub fn $name(&self) -> u64 {
                    self.get(Counter::$variant)
                }
            )+
        }
    };
}

counters! {
    invocations Invocations "pf_invocations_total" "Firewall hook invocations.";
    rules_evaluated RulesEvaluated "pf_rules_evaluated_total" "Rules visited by walks.";
    ctx_fetches CtxFetches "pf_ctx_fetches_total" "Context-module fetches performed.";
    cache_hits CacheHits "pf_cache_hits_total" "Context fetches served from the syscall cache.";
    drops Drops "pf_drops_total" "DROP verdicts returned.";
    accepts Accepts "pf_accepts_total" "Explicit ACCEPT verdicts returned.";
    default_allows DefaultAllows "pf_default_allows_total" "Invocations ending in default ALLOW.";
    degraded_drops DegradedDrops "pf_degraded_drops_total"
        "DROP verdicts issued while a failed context fetch degraded the invocation.";
    degraded_allows DegradedAllows "pf_degraded_allows_total"
        "Allow verdicts issued while a failed context fetch degraded the invocation.";
    vcache_hits VcacheHits "pf_vcache_hits_total"
        "Verdicts served from a per-task VCACHE cache without a walk.";
    vcache_misses VcacheMisses "pf_vcache_misses_total" "Cache-eligible walks run and cached.";
    vcache_uncacheable VcacheUncacheable "pf_vcache_uncacheable_total"
        "Invocations that bypassed the verdict cache (failed key fetch, degraded or impure walk).";
    jump_depth_exceeded JumpDepthExceeded "pf_jump_depth_exceeded_total"
        "Jumps skipped at the traversal depth limit.";
    ratelimit_throttled RatelimitThrottled "pf_ratelimit_throttled_total" "RATELIMIT rejections.";
    quota_exceeded QuotaExceeded "pf_quota_exceeded_total" "Accesses rejected by a QUOTA counter.";
    rulesetc_dispatch RulesetcDispatch "pf_rulesetc_dispatch_total"
        "Input-chain walks served through the RULESETC compiled dispatch tables.";
    rulesetc_fallback RulesetcFallback "pf_rulesetc_fallback_total"
        "RULESETC walks that fell back to a wider walk because a dimension fetch failed.";
    origin_transitions OriginTransitions "pf_origin_transitions_total"
        "Monotone origin (taint) raises observed on processes.";
    origin_widened OriginWidened "pf_origin_widened_total"
        "Subject labels whose origin crossed the taint threshold (once per label).";
    origin_vcache_invalidations OriginVcacheInvalidations "pf_origin_vcache_invalidations_total"
        "Non-empty verdict caches discarded because the adversary-model generation moved.";
    trace_dropped TraceDropped "pf_trace_events_dropped_total"
        "TRACE events discarded because the ring was full.";
}

metric_table! {
    /// A per-[`LsmOperation`] detail split of the same-named [`Counter`].
    enum OpFamily, OP_FAMILIES refines Counter {
        Invocations => "pf_op_invocations_total", "ops", NonZero, "Hook invocations, by operation.";
        VcacheHits => "pf_vcache_op_hits_total", "vcache_op_hits", NonZero,
            "VCACHE hits, by operation.";
        VcacheMisses => "pf_vcache_op_misses_total", "vcache_op_misses", NonZero,
            "VCACHE misses, by operation.";
        VcacheUncacheable => "pf_vcache_op_uncacheable_total", "vcache_op_uncacheable", NonZero,
            "VCACHE bypasses, by operation.";
        RatelimitThrottled => "pf_ratelimit_op_throttled_total", "ratelimit_op_throttled",
            NonZero, "RATELIMIT rejections, by operation.";
        QuotaExceeded => "pf_quota_op_exceeded_total", "quota_op_exceeded", NonZero,
            "QUOTA rejections, by operation.";
    }
}

metric_table! {
    /// A per-rule tally, keyed by chain name and rule index (detail
    /// layer).
    enum RuleFamily, RULE_FAMILIES {
        Evaluated => "pf_rule_evaluated_total", "evaluated", Always, "Match evaluations started.";
        Hits => "pf_rule_hits_total", "hits", Always, "Times the rule matched (target ran).";
        Throttled => "pf_rule_throttled_total", "throttled", NonZero, "RATELIMIT/QUOTA rejections.";
    }
}

metric_table! {
    /// A per-[`CtxField`] counter: fetch/hit/miss in the detail layer,
    /// failures always on.
    enum FieldFamily, FIELD_FAMILIES {
        Fetches => "pf_ctx_field_fetches_total", "fetches", WithGroup, "Fetches of the field.";
        Hits => "pf_ctx_field_hits_total", "hits", WithGroup, "Served from the per-syscall cache.";
        Misses => "pf_ctx_field_misses_total", "misses", WithGroup, "Fetches of absent context.";
        Failures => "pf_ctx_field_failures_total", "failures", NonZero, "Fetches that errored.";
    }
}

metric_table! {
    /// A latency histogram (detail layer); Prometheus renders it as
    /// `_bucket{le=…}`/`_sum`/`_count`, JSON as a summary object.
    enum Latency, LATENCY {
        Eval => "pf_eval_latency_ns", "eval_latency_ns", Always, "Hook evaluation latency (ns).";
        Fetch => "pf_fetch_latency_ns", "fetch_latency_ns", Always, "Context-fetch latency (ns).";
    }
}

metric_table! {
    /// Decision-event plane accounting, appended by the firewall-level
    /// exporters (JSON object `events`).
    enum EventRow, EVENT_ROWS {
        Emitted => "pf_events_emitted_total", "emitted", Always, "Events emitted.";
        Drained => "pf_events_drained_total", "drained", Always, "Events handed to a drain.";
        Dropped => "pf_events_dropped_total", "dropped", Always, "Events overwritten undrained.";
    }
}

metric_table! {
    /// Bounded LOG sink accounting, appended by the firewall-level
    /// exporters (JSON object `logs`).
    enum LogRow, LOG_ROWS {
        Emitted => "pf_logs_emitted_total", "emitted", Always, "LOG records appended.";
        Drained => "pf_logs_drained_total", "drained", Always, "LOG records collected.";
        Dropped => "pf_logs_dropped_total", "dropped", Always, "LOG records overwritten.";
        Buffered => "pf_logs_buffered", "buffered", Always, "LOG records buffered (gauge).";
        Capacity => "pf_logs_capacity", "capacity", Always, "LOG sink capacity (gauge).";
    }
}

/// Appends one Prometheus line per row its [`Emit`] rule shows:
/// `name{labels} value`, or `name value` when `labels` is empty.
pub(crate) fn prom_rows(out: &mut String, rows: &[MetricDesc], values: &[u64], labels: &str) {
    let group = rows
        .iter()
        .zip(values)
        .any(|(d, &v)| d.emit == Emit::WithGroup && v > 0);
    for (d, &v) in rows.iter().zip(values) {
        let shown = match d.emit {
            Emit::Always => true,
            Emit::NonZero => v > 0,
            Emit::WithGroup => group,
        };
        if shown {
            out.push_str(d.prom);
            if !labels.is_empty() {
                let _ = write!(out, "{{{labels}}}");
            }
            let _ = writeln!(out, " {v}");
        }
    }
}

/// Pushes the `,` that separates JSON members, unless `s` has just
/// opened an object or array.
fn json_sep(s: &mut String) {
    if !s.ends_with(&['{', '['][..]) {
        s.push(',');
    }
}

/// Appends a `"key":value` member for every row.
pub(crate) fn json_rows(s: &mut String, rows: &[MetricDesc], values: &[u64]) {
    for (d, v) in rows.iter().zip(values) {
        json_sep(s);
        let _ = write!(s, "\"{}\":{v}", d.json);
    }
}

/// A fixed array of relaxed atomic counters.
#[derive(Debug)]
struct Cells<const N: usize>([AtomicU64; N]);

impl<const N: usize> Default for Cells<N> {
    fn default() -> Self {
        Cells(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl<const N: usize> Cells<N> {
    #[inline]
    fn add(&self, i: usize, n: u64) {
        self.0[i].fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self, i: usize) -> u64 {
        self.0[i].load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.iter().for_each(|c| c.store(0, Ordering::Relaxed));
    }
}

/// Per-rule tallies for one chain: one vector per [`RuleFamily`],
/// indexed by rule index.
#[derive(Debug, Default, Clone)]
struct ChainCounters([Vec<u64>; RULE_FAMILIES.len()]);

impl ChainCounters {
    fn ensure(&mut self, index: usize) {
        for v in &mut self.0 {
            v.resize(v.len().max(index + 1), 0);
        }
    }

    /// Rule `i`'s tallies, in [`RULE_FAMILIES`] order.
    fn row(&self, i: usize) -> [u64; RULE_FAMILIES.len()] {
        std::array::from_fn(|f| self.0[f][i])
    }

    /// Element-wise sum of another shard's tallies into this one.
    fn merge(&mut self, other: &ChainCounters) {
        for (dst, src) in self.0.iter_mut().zip(&other.0) {
            dst.resize(dst.len().max(src.len()), 0);
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
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
        self.add_sum(v);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Saturating sum: a wrapped total would corrupt means silently.
    fn add_sum(&self, v: u64) {
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
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
        self.add_sum(other.sum());
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
    /// The always-on scalars, indexed by [`Counter`].
    counters: Cells<{ COUNTERS.len() }>,
    // --- detail layer (gated by `detailed`) ---
    detailed: AtomicBool,
    /// Indexed by [`OpFamily`], then by operation.
    per_op: [Cells<NUM_OPS>; OP_FAMILIES.len()],
    /// Indexed by [`FieldFamily`], then by field bit.
    fields: [Cells<NUM_FIELDS>; FIELD_FAMILIES.len()],
    /// The per-rule maps, sharded like [`ShardedHistogram`]: each
    /// recording thread takes its round-robin shard's lock, so the
    /// per-rule recorders stop convoying a fleet of workers on one
    /// global mutex. Exports merge the shards in `BTreeMap` order.
    chains: [Mutex<BTreeMap<ChainName, ChainCounters>>; HISTOGRAM_SHARDS],
    /// When set, every per-rule recorder uses shard 0 — the pre-shard
    /// single-lock behaviour. A bench/regression knob
    /// ([`Metrics::set_chain_shards_pinned`]), not a production mode.
    chain_shards_pinned: AtomicBool,
    /// Indexed by [`Latency`].
    latency: [ShardedHistogram; LATENCY.len()],
    // --- TRACE ring (driven by rules, not by `detailed`) ---
    trace: Mutex<VecDeque<TraceEvent>>,
    /// The `trace_dropped` total the last `drain_trace` observed; the
    /// delta since then decides whether the next drain starts with a
    /// gap marker.
    trace_drop_mark: AtomicU64,
}

impl Metrics {
    /// Creates a zeroed registry with detail recording off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets every counter, histogram, and the trace ring. The detail
    /// recording flag is preserved.
    pub fn reset(&self) {
        self.counters.reset();
        self.per_op.iter().for_each(Cells::reset);
        self.fields.iter().for_each(Cells::reset);
        self.chains.iter().for_each(|shard| lock(shard).clear());
        self.latency.iter().for_each(ShardedHistogram::reset);
        lock(&self.trace).clear();
        self.trace_drop_mark.store(0, Ordering::Relaxed);
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

    // --- always-on scalars ---

    /// Adds `n` to one always-on counter: one relaxed `fetch_add` on a
    /// constant slot.
    #[inline]
    pub(crate) fn add(&self, c: Counter, n: u64) {
        self.counters.add(c as usize, n);
    }

    #[inline]
    pub(crate) fn bump(&self, c: Counter) {
        self.add(c, 1);
    }

    /// One always-on counter's value.
    pub(crate) fn get(&self, c: Counter) -> u64 {
        self.counters.get(c as usize)
    }

    /// Every always-on counter with its descriptor, in table order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static MetricDesc, u64)> + '_ {
        COUNTERS.iter().zip(self.counter_values())
    }

    /// Records one monotone origin raise on a process. Public: the OS
    /// substrate performs propagation (reads, exec, IPC) and reports it
    /// here.
    #[inline]
    pub fn bump_origin_transition(&self) {
        self.bump(Counter::OriginTransitions);
    }

    /// Records one subject label crossing the taint threshold (first
    /// time only — callers gate on `MacPolicy::taint_subject`'s return).
    #[inline]
    pub fn bump_origin_widened(&self) {
        self.bump(Counter::OriginWidened);
    }

    /// The registry's invariants that are violated right now, one
    /// message each; empty when all hold. Exact on a quiescent registry
    /// (a scrape racing live recorders may see one side of a pair).
    pub fn check(&self) -> Vec<String> {
        let (inv, drops) = (self.invocations(), self.drops());
        let allows = self.accepts() + self.default_allows();
        let verdicts = drops + allows;
        let vcache = self.vcache_hits() + self.vcache_misses() + self.vcache_uncacheable();
        let (dd, da) = (self.degraded_drops(), self.degraded_allows());
        [
            (
                "drops + accepts + default_allows == invocations",
                verdicts == inv,
                verdicts,
                inv,
            ),
            ("degraded_drops <= drops", dd <= drops, dd, drops),
            (
                "degraded_allows <= accepts + default_allows",
                da <= allows,
                da,
                allows,
            ),
            (
                "vcache hits + misses + uncacheable <= invocations",
                vcache <= inv,
                vcache,
                inv,
            ),
        ]
        .into_iter()
        .filter(|&(_, holds, _, _)| !holds)
        .map(|(rule, _, lhs, rhs)| format!("{rule} violated: {lhs} vs {rhs}"))
        .collect()
    }

    // --- per-operation splits ---

    /// Bumps `family`'s always-on total and, in the detail layer, its
    /// split for `op`.
    #[inline]
    pub(crate) fn bump_op(&self, family: OpFamily, op: LsmOperation) {
        self.bump(family.total());
        if self.detailed() {
            self.per_op[family as usize].add(op as usize, 1);
        }
    }

    /// [`Metrics::bump_op`] for a RATELIMIT/QUOTA rejection, plus the
    /// rejecting rule's `throttled` tally in the detail layer.
    #[inline]
    pub(crate) fn bump_throttled(
        &self,
        family: OpFamily,
        op: LsmOperation,
        chain: &ChainName,
        index: usize,
    ) {
        self.bump_op(family, op);
        if self.detailed() {
            self.rule_slow(RuleFamily::Throttled, chain, index);
        }
    }

    /// One per-operation split (detail layer).
    pub fn op_count(&self, family: OpFamily, op: LsmOperation) -> u64 {
        self.per_op[family as usize].get(op as usize)
    }

    // --- per-rule / per-chain counters ---

    // The per-rule recorders run for each rule the walk loads while
    // the detail layer is on (the engine reads the flag once per
    // invocation). Keep the gate inlined and the map lookup out of
    // line.
    #[inline]
    pub(crate) fn rule_bump(&self, family: RuleFamily, chain: &ChainName, index: usize) {
        if self.detailed() {
            self.rule_slow(family, chain, index);
        }
    }

    /// Bumps one rule's tally in this thread's shard (shard 0 when
    /// pinned). The chain name is cloned only the first time the shard
    /// sees the chain, so recording never allocates once warm.
    #[cold]
    fn rule_slow(&self, family: RuleFamily, chain: &ChainName, index: usize) {
        let shard = if self.chain_shards_pinned.load(Ordering::Relaxed) {
            0
        } else {
            shard_index()
        };
        let mut chains = lock(&self.chains[shard]);
        let c = match chains.get_mut(chain) {
            Some(c) => c,
            None => chains.entry(chain.clone()).or_default(),
        };
        c.ensure(index);
        c.0[family as usize][index] += 1;
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

    /// Every chain's per-rule tallies, all shards merged, in stable
    /// (`BTreeMap`) order regardless of which shards recorded them.
    fn merged_chains(&self) -> BTreeMap<ChainName, ChainCounters> {
        let mut merged: BTreeMap<ChainName, ChainCounters> = BTreeMap::new();
        for shard in &self.chains {
            for (chain, c) in lock(shard).iter() {
                merged.entry(chain.clone()).or_default().merge(c);
            }
        }
        merged
    }

    /// Snapshot of one chain's per-rule counters, if any were recorded:
    /// every shard's tallies merged element-wise.
    pub fn chain_snapshot(&self, chain: &ChainName) -> Option<ChainSnapshot> {
        let ChainCounters([evaluated, hits, throttled]) = self.merged_chains().remove(chain)?;
        Some(ChainSnapshot {
            evaluated,
            hits,
            throttled,
        })
    }

    /// Names of chains with recorded per-rule counters, in stable
    /// (`BTreeMap`) order regardless of which shards recorded them.
    pub fn chains_seen(&self) -> Vec<ChainName> {
        self.merged_chains().into_keys().collect()
    }

    // --- per-field counters ---

    #[inline]
    fn field_add(&self, family: FieldFamily, field: CtxField) {
        self.fields[family as usize].add(field.bit() as usize, 1);
    }

    #[inline]
    pub(crate) fn field_bump(&self, family: FieldFamily, field: CtxField) {
        if self.detailed() {
            self.field_add(family, field);
        }
    }

    /// Records a *failed* fetch of one context field. Always on —
    /// unlike the profiling counters, a fetch failure is a security
    /// signal (the condition `--ctx-missing` policies arbitrate).
    #[inline]
    pub(crate) fn field_failure(&self, field: CtxField) {
        self.field_add(FieldFamily::Failures, field);
    }

    /// One per-field counter.
    pub fn field_count(&self, family: FieldFamily, field: CtxField) -> u64 {
        self.fields[family as usize].get(field.bit() as usize)
    }

    /// Failed fetches recorded for one context field.
    pub fn field_failures(&self, field: CtxField) -> u64 {
        self.field_count(FieldFamily::Failures, field)
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
            self.latency[Latency::Eval as usize].record(t0.elapsed().as_nanos() as u64);
        }
    }

    #[inline]
    pub(crate) fn observe_fetch(&self, field: CtxField, t0: Option<Instant>, missed: bool) {
        if self.detailed() {
            self.field_add(FieldFamily::Fetches, field);
            if missed {
                self.field_add(FieldFamily::Misses, field);
            }
        }
        if let Some(t0) = t0 {
            self.latency[Latency::Fetch as usize].record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// One latency histogram (detail layer): every per-thread shard
    /// merged into one summary histogram.
    pub fn latency(&self, which: Latency) -> Histogram {
        self.latency[which as usize].merged()
    }

    /// Whole-hook evaluation latency (detail layer), merged.
    pub fn eval_latency(&self) -> Histogram {
        self.latency(Latency::Eval)
    }

    /// Context-fetch latency (detail layer), merged.
    pub fn fetch_latency(&self) -> Histogram {
        self.latency(Latency::Fetch)
    }

    // --- TRACE ring ---

    pub(crate) fn push_trace(&self, event: TraceEvent) {
        let mut ring = lock(&self.trace);
        if ring.len() >= TRACE_RING_CAP {
            ring.pop_front();
            self.bump(Counter::TraceDropped);
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
        let mut ring = lock(&self.trace);
        let mut events: Vec<TraceEvent> = ring.drain(..).collect();
        // Mark-swap happens under the ring lock so two racing drains
        // cannot both consume the same overflow delta.
        let total = self.trace_dropped();
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
        lock(&self.trace).len()
    }

    // --- exporters ---

    /// Renders the registry in the Prometheus text exposition format.
    ///
    /// Every line is `name value` or `name{label="v",…} value`; no
    /// comment lines are emitted, so the output parses line-by-line.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);
        prom_rows(&mut out, COUNTERS, &self.counter_values(), "");
        let mut labels = String::new();
        for op in LsmOperation::ALL {
            let values: [u64; OP_FAMILIES.len()] =
                std::array::from_fn(|f| self.per_op[f].get(op as usize));
            labels.clear();
            let _ = write!(labels, "op=\"{}\"", op.name());
            prom_rows(&mut out, OP_FAMILIES, &values, &labels);
        }
        for (chain, c) in self.merged_chains() {
            // User chain names are free-form rule-language tokens;
            // escape them like every other label value.
            let mut name = String::new();
            prom_label_esc(&mut name, &chain.name());
            for i in 0..c.0[0].len() {
                labels.clear();
                let _ = write!(labels, "chain=\"{name}\",rule=\"{i}\"");
                prom_rows(&mut out, RULE_FAMILIES, &c.row(i), &labels);
            }
        }
        for field in CtxField::ALL {
            labels.clear();
            let _ = write!(labels, "field=\"{}\"", field.cname());
            prom_rows(&mut out, FIELD_FAMILIES, &self.field_values(field), &labels);
        }
        for (d, which) in LATENCY.iter().zip(Latency::ALL) {
            let hist = self.latency(which);
            let metric = d.prom;
            for (le, cum) in hist.cumulative_buckets() {
                let _ = writeln!(out, "{metric}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{metric}_bucket{{le=\"+Inf\"}} {}", hist.count());
            let _ = writeln!(out, "{metric}_sum {}", hist.sum());
            let _ = writeln!(out, "{metric}_count {}", hist.count());
        }
        out
    }

    fn counter_values(&self) -> [u64; COUNTERS.len()] {
        std::array::from_fn(|i| self.counters.get(i))
    }

    fn field_values(&self, field: CtxField) -> [u64; FIELD_FAMILIES.len()] {
        std::array::from_fn(|f| self.fields[f].get(field.bit() as usize))
    }

    /// Renders a JSON snapshot of every counter and histogram summary:
    /// `counters`, one object per [`OP_FAMILIES`] row (non-zero
    /// operations only; the first is `ops`), `chains`, `fields`, and
    /// one summary per [`LATENCY`] row.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2048);
        s.push_str("{\"counters\":{");
        json_rows(&mut s, COUNTERS, &self.counter_values());
        s.push('}');
        for (d, cells) in OP_FAMILIES.iter().zip(&self.per_op) {
            let _ = write!(s, ",\"{}\":{{", d.json);
            for op in LsmOperation::ALL {
                let n = cells.get(op as usize);
                if n > 0 {
                    json_sep(&mut s);
                    let _ = write!(s, "\"{}\":{n}", op.name());
                }
            }
            s.push('}');
        }
        s.push_str(",\"chains\":{");
        for (chain, c) in self.merged_chains() {
            json_sep(&mut s);
            s.push('"');
            esc(&mut s, &chain.name());
            s.push_str("\":[");
            for i in 0..c.0[0].len() {
                json_sep(&mut s);
                let _ = write!(s, "{{\"rule\":{i}");
                json_rows(&mut s, RULE_FAMILIES, &c.row(i));
                s.push('}');
            }
            s.push(']');
        }
        s.push_str("},\"fields\":{");
        for field in CtxField::ALL {
            let values = self.field_values(field);
            if values.iter().any(|&v| v > 0) {
                json_sep(&mut s);
                let _ = write!(s, "\"{}\":{{", field.cname());
                json_rows(&mut s, FIELD_FAMILIES, &values);
                s.push('}');
            }
        }
        s.push('}');
        for (d, which) in LATENCY.iter().zip(Latency::ALL) {
            let hist = self.latency(which);
            let _ = write!(
                s,
                ",\"{}\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                d.json,
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
        m.bump(Counter::Invocations);
        m.add(Counter::RulesEvaluated, 1);
        m.add(Counter::RulesEvaluated, 1);
        m.bump(Counter::Drops);
        assert_eq!(m.invocations(), 1);
        assert_eq!(m.rules_evaluated(), 2);
        assert_eq!(m.drops(), 1);
        m.reset();
        assert_eq!(m.rules_evaluated(), 0);
    }

    #[test]
    fn detail_layer_is_noop_until_enabled() {
        let m = Metrics::new();
        m.bump_op(OpFamily::Invocations, LsmOperation::FileOpen);
        m.rule_bump(RuleFamily::Evaluated, &ChainName::Input, 0);
        m.field_bump(FieldFamily::Fetches, CtxField::ResourceId);
        assert!(m.timer().is_none());
        assert_eq!(m.op_count(OpFamily::Invocations, LsmOperation::FileOpen), 0);
        assert!(m.chain_snapshot(&ChainName::Input).is_none());
        assert_eq!(m.field_values(CtxField::ResourceId), [0; 4]);

        m.set_detailed(true);
        m.bump_op(OpFamily::Invocations, LsmOperation::FileOpen);
        m.rule_bump(RuleFamily::Evaluated, &ChainName::Input, 2);
        m.rule_bump(RuleFamily::Hits, &ChainName::Input, 2);
        m.observe_fetch(CtxField::ResourceId, None, true);
        assert!(m.timer().is_some());
        assert_eq!(m.op_count(OpFamily::Invocations, LsmOperation::FileOpen), 1);
        let snap = m.chain_snapshot(&ChainName::Input).unwrap();
        assert_eq!(snap.evaluated, [0, 0, 1]);
        assert_eq!(snap.hits, [0, 0, 1]);
        assert_eq!(m.field_values(CtxField::ResourceId), [1, 0, 1, 0]);
        // The always-on total counted both invocations.
        assert_eq!(m.invocations(), 2);
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
                    m.bump_op(OpFamily::Invocations, LsmOperation::FileOpen);
                    m.bump(Counter::DefaultAllows);
                    m.rule_bump(RuleFamily::Evaluated, &ChainName::Input, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.invocations(), 20_000);
        assert_eq!(m.default_allows(), 20_000);
        assert_eq!(
            m.op_count(OpFamily::Invocations, LsmOperation::FileOpen),
            20_000
        );
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
                        m.rule_bump(RuleFamily::Evaluated, &ChainName::Input, 0);
                        m.rule_bump(RuleFamily::Evaluated, &ChainName::Input, 2);
                        m.rule_bump(RuleFamily::Hits, &ChainName::Input, 2);
                        m.rule_slow(RuleFamily::Throttled, &ChainName::Output, 1);
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
        m.bump_op(OpFamily::Invocations, LsmOperation::FileOpen);
        m.rule_bump(RuleFamily::Evaluated, &ChainName::User("side".into()), 1);
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

    /// The value of the Prometheus sample `series` (name plus labels).
    fn prom_value(text: &str, series: &str) -> Option<u64> {
        text.lines()
            .find_map(|l| l.strip_prefix(series)?.strip_prefix(' ')?.parse().ok())
    }

    /// The flat `"key":number` pairs of the JSON object whose body
    /// starts right after `open`.
    fn json_pairs(json: &str, open: &str) -> BTreeMap<String, u64> {
        let start = json.find(open).unwrap_or_else(|| panic!("no `{open}`")) + open.len();
        let body = &json[start..start + json[start..].find('}').unwrap()];
        body.split(',')
            .filter(|kv| !kv.is_empty())
            .map(|kv| {
                let (k, v) = kv.split_once(':').unwrap();
                (k.trim_matches('"').to_owned(), v.parse().unwrap())
            })
            .collect()
    }

    #[test]
    fn every_descriptor_row_exports_identically_and_resets() {
        let m = Metrics::new();
        m.set_detailed(true);
        let op = LsmOperation::SocketBind;
        let field = CtxField::ResourceId;
        // Distinct values per row catch a row wired to the wrong slot.
        for (i, c) in Counter::ALL.into_iter().enumerate() {
            m.add(c, i as u64 + 1);
        }
        for (i, f) in OpFamily::ALL.into_iter().enumerate() {
            m.per_op[f as usize].add(op as usize, 100 + i as u64);
        }
        for (i, f) in RuleFamily::ALL.into_iter().enumerate() {
            for _ in 0..200 + i {
                m.rule_slow(f, &ChainName::Input, 0);
            }
        }
        for (i, f) in FieldFamily::ALL.into_iter().enumerate() {
            m.fields[f as usize].add(field.bit() as usize, 300 + i as u64);
        }
        for (i, which) in Latency::ALL.into_iter().enumerate() {
            for v in 0..=i as u64 {
                m.latency[which as usize].record(v);
            }
        }

        let text = m.render_prometheus();
        let json = m.to_json();
        let counters = json_pairs(&json, "\"counters\":{");
        for ((i, d), c) in COUNTERS.iter().enumerate().zip(Counter::ALL) {
            let v = i as u64 + 1;
            assert_eq!(m.get(c), v, "{}", d.json);
            assert_eq!(prom_value(&text, d.prom), Some(v), "{}", d.prom);
            assert_eq!(counters[d.json], v, "{}", d.json);
        }
        assert_eq!(counters.len(), COUNTERS.len());
        for (i, d) in OP_FAMILIES.iter().enumerate() {
            let v = 100 + i as u64;
            let series = format!("{}{{op=\"{}\"}}", d.prom, op.name());
            assert_eq!(prom_value(&text, &series), Some(v), "{series}");
            let ops = json_pairs(&json, &format!("\"{}\":{{", d.json));
            assert_eq!(ops[op.name()], v, "{}", d.json);
        }
        let rule = json_pairs(&json, "\"input\":[{");
        for (i, d) in RULE_FAMILIES.iter().enumerate() {
            let v = 200 + i as u64;
            let series = format!("{}{{chain=\"input\",rule=\"0\"}}", d.prom);
            assert_eq!(prom_value(&text, &series), Some(v), "{series}");
            assert_eq!(rule[d.json], v, "{}", d.json);
        }
        let fields = json_pairs(&json, &format!("\"{}\":{{", field.cname()));
        for (i, d) in FIELD_FAMILIES.iter().enumerate() {
            let v = 300 + i as u64;
            let series = format!("{}{{field=\"{}\"}}", d.prom, field.cname());
            assert_eq!(prom_value(&text, &series), Some(v), "{series}");
            assert_eq!(fields[d.json], v, "{}", d.json);
        }
        for (i, d) in LATENCY.iter().enumerate() {
            let v = i as u64 + 1;
            assert_eq!(prom_value(&text, &format!("{}_count", d.prom)), Some(v));
            let summary = json_pairs(&json, &format!("\"{}\":{{", d.json));
            assert_eq!(summary["count"], v, "{}", d.json);
        }

        m.reset();
        let text = m.render_prometheus();
        let json = m.to_json();
        let counters = json_pairs(&json, "\"counters\":{");
        for (d, c) in COUNTERS.iter().zip(Counter::ALL) {
            assert_eq!(m.get(c), 0, "{}", d.json);
            assert_eq!(prom_value(&text, d.prom), Some(0), "{}", d.prom);
            assert_eq!(counters[d.json], 0, "{}", d.json);
        }
        for d in OP_FAMILIES {
            assert!(!text.contains(d.prom), "{}", d.prom);
            assert!(json_pairs(&json, &format!("\"{}\":{{", d.json)).is_empty());
        }
        for d in RULE_FAMILIES.iter().chain(FIELD_FAMILIES) {
            assert!(!text.contains(d.prom), "{}", d.prom);
        }
        assert!(json.contains("\"chains\":{},\"fields\":{}"));
        for d in LATENCY {
            assert_eq!(prom_value(&text, &format!("{}_count", d.prom)), Some(0));
            assert_eq!(json_pairs(&json, &format!("\"{}\":{{", d.json))["count"], 0);
        }
    }

    #[test]
    fn every_prometheus_family_is_documented() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let tables = [
            COUNTERS,
            OP_FAMILIES,
            RULE_FAMILIES,
            FIELD_FAMILIES,
            LATENCY,
            EVENT_ROWS,
            LOG_ROWS,
        ];
        for d in tables.iter().flat_map(|table| table.iter()) {
            assert!(
                doc.contains(&format!("`{}", d.prom)),
                "docs/OBSERVABILITY.md does not list `{}`",
                d.prom
            );
        }
    }

    #[test]
    fn check_names_each_violated_invariant() {
        let m = Metrics::new();
        assert!(m.check().is_empty());
        m.bump(Counter::Invocations);
        m.bump(Counter::Drops);
        m.bump(Counter::DegradedDrops);
        assert!(m.check().is_empty());
        m.bump(Counter::DegradedDrops);
        m.bump(Counter::DegradedAllows);
        m.add(Counter::VcacheHits, 2);
        let violated = m.check();
        assert_eq!(violated.len(), 3, "{violated:?}");
        assert_eq!(violated[0], "degraded_drops <= drops violated: 2 vs 1");
        assert!(violated[1].starts_with("degraded_allows <= accepts"));
        assert!(violated[2].ends_with("<= invocations violated: 2 vs 1"));
        m.bump(Counter::Accepts);
        let violated = m.check();
        assert_eq!(violated.len(), 3, "{violated:?}");
        assert!(violated[0].ends_with("== invocations violated: 2 vs 1"));
        m.reset();
        assert!(m.check().is_empty());
    }

    #[test]
    fn json_snapshot_shape() {
        let m = Metrics::new();
        m.set_detailed(true);
        m.bump_op(OpFamily::Invocations, LsmOperation::SocketBind);
        m.bump(Counter::DefaultAllows);
        m.rule_bump(RuleFamily::Evaluated, &ChainName::Input, 0);
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

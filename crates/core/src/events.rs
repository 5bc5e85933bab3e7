//! The record plane: every record the engine writes, in bounded
//! lock-free rings of one type, [`RecordRing`].
//!
//! Counters (`metrics.rs`) say *how often*; records say *what happened
//! on one invocation*. There are three streams: **decision events**
//! ([`DecisionEvent`]; sampled by [`SamplingMode`], [`EVENT_SHARDS`]
//! rings of [`EVENT_RING_CAP`] slots), **LOG records**
//! ([`crate::log::LogRecord`], the paper's LOG target of Section 5.2;
//! one ring of [`LOG_RING_CAP`]) and **TRACE hops** ([`TraceHop`]; one
//! ring of [`TRACE_RING_CAP`]). Every record is a fixed-size value of
//! numeric ids, so the hook path never allocates for it; names are
//! resolved only at drain, against the MAC policy and the interner the
//! rules were parsed with. Both only grow, so a record drained after any
//! number of reloads still resolves to the names it was written with.
//!
//! # Design
//!
//! * **Fixed capacity, allocated on the first record,** so a world that
//!   never logs, traces or samples pays nothing for the stream.
//! * **Lock-free writers, overwrite-oldest.** A writer claims a run of
//!   positions with one fetch-add on the ring head and publishes each
//!   record through its slot's seqlock. It waits only when the ring
//!   has lapped onto a slot another writer is still publishing into.
//! * **One accounting rule.** `emitted()` is the ring head. A drain
//!   counts a record *drained* when it returns it and *dropped* when a
//!   later lap overwrote it first, so `drained() + dropped() <=
//!   emitted()` always holds, with equality after a quiescent drain. A
//!   record still being published ends a drain and comes back on the
//!   next one: records are lost only when a ring overflows.
//! * **No torn records.** Slot payloads are relaxed `AtomicU64` words
//!   guarded by the slot's sequence number (acquire/release fences pair
//!   writer and reader); a drain that sees the sequence move under it
//!   counts the record dropped rather than return a half-written one.
//! * **Sampling is runtime state:** changing the decision-event mode
//!   (`pftables -E always|1/N|errors-only|off`) is one atomic store.
//!   With sampling off the hook path pays one relaxed load and a
//!   predicted branch.
//!
//! [`EventPlane::drain`] merges the decision shards into emission order
//! by the globally monotonic `seq` claimed at emit time (see
//! `docs/CONCURRENCY.md`).

use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use pf_types::{InternId, Interner, LsmOperation};

use crate::log::esc;
use crate::rule::TARGET_KINDS;

/// Number of decision-event rings; writers are spread across them
/// round-robin.
pub const EVENT_SHARDS: usize = 8;

/// Slots per decision-event ring. With [`EVENT_SHARDS`] shards the
/// plane holds up to `EVENT_SHARDS * EVENT_RING_CAP` undrained events
/// before the overwrite-oldest policy starts dropping.
pub const EVENT_RING_CAP: usize = 1024;

/// Slots in the LOG ring (about 0.9 MB once allocated).
pub const LOG_RING_CAP: usize = 8192;

/// Slots in the TRACE ring.
pub const TRACE_RING_CAP: usize = 4096;

/// Words of payload per slot: every record kind packs into this many.
pub const RECORD_WORDS: usize = 13;

/// Slot-seqlock sentinel: a writer is mid-publish.
const BUSY: u64 = u64::MAX;

/// How densely decision events are sampled.
///
/// Runtime state on the [`EventPlane`] — settable at any moment with
/// one atomic store (`pftables -E <mode>`), without a ruleset reload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// No decision events at all: the hook path pays one relaxed load.
    Off,
    /// Every invocation emits an event.
    Always,
    /// One invocation in `N` emits an event (ticket-counter sampling).
    OneIn(u32),
    /// Only denials, degraded decisions, and throttle rejections emit.
    ErrorsOnly,
}

impl SamplingMode {
    /// The `pftables -E` spelling of this mode.
    pub fn render(self) -> String {
        match self {
            SamplingMode::Off => "off".to_owned(),
            SamplingMode::Always => "always".to_owned(),
            SamplingMode::OneIn(n) => format!("1/{n}"),
            SamplingMode::ErrorsOnly => "errors-only".to_owned(),
        }
    }

    /// Parses a `pftables -E` mode argument (`off`, `always`,
    /// `errors-only`, or `1/N` with `N >= 1`).
    pub fn parse(tok: &str) -> Option<SamplingMode> {
        match tok {
            "off" => Some(SamplingMode::Off),
            "always" => Some(SamplingMode::Always),
            "errors-only" => Some(SamplingMode::ErrorsOnly),
            _ => {
                let n: u32 = tok.strip_prefix("1/")?.parse().ok()?;
                if n == 0 {
                    None
                } else if n == 1 {
                    Some(SamplingMode::Always)
                } else {
                    Some(SamplingMode::OneIn(n))
                }
            }
        }
    }

    fn pack(self) -> u64 {
        match self {
            SamplingMode::Off => 0,
            SamplingMode::Always => 1,
            SamplingMode::ErrorsOnly => 2,
            SamplingMode::OneIn(n) => 3 | ((n as u64) << 32),
        }
    }

    fn unpack(word: u64) -> SamplingMode {
        match word & 0xffff_ffff {
            1 => SamplingMode::Always,
            2 => SamplingMode::ErrorsOnly,
            3 => SamplingMode::OneIn((word >> 32) as u32),
            _ => SamplingMode::Off,
        }
    }
}

/// Declares a fieldless enum packed into a slot word by its
/// discriminant, with its stable lowercase JSONL names.
macro_rules! packed_enum {
    ($(#[$meta:meta])* enum $Enum:ident {
        $($(#[$vmeta:meta])* $Variant:ident => $name:literal,)+
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $Enum {
            $($(#[$vmeta])* $Variant,)+
        }

        impl $Enum {
            const ALL: &'static [$Enum] = &[$($Enum::$Variant),+];

            /// Stable lowercase name for JSONL export.
            pub fn name(self) -> &'static str {
                match self {
                    $($Enum::$Variant => $name,)+
                }
            }

            /// The variant packed as `v` (the first if `v` is unknown).
            fn from_u8(v: u8) -> $Enum {
                Self::ALL.get(usize::from(v)).copied().unwrap_or(Self::ALL[0])
            }
        }
    };
}

packed_enum! {
    /// What kind of record an event is.
    enum EventKind {
        /// One hook evaluation's outcome.
        Decision => "decision",
        /// A batch control-plane edit (reload / restore) started.
        ReloadBegin => "reload_begin",
        /// A control-plane edit published a new snapshot generation.
        ReloadCommit => "reload_commit",
        /// A control-plane edit aborted; the previous snapshot stayed live.
        ReloadAbort => "reload_abort",
    }
}

packed_enum! {
    /// The verdict an event records (`None` for control-plane events).
    enum EventVerdict {
        /// Not a decision event.
        None => "none",
        /// An explicit ACCEPT.
        Allow => "allow",
        /// A DROP (including fail-closed and throttle denials).
        Deny => "deny",
        /// No terminal rule matched; the default policy allowed.
        DefaultAllow => "default_allow",
    }
}

packed_enum! {
    /// How the verdict cache participated in a decision.
    enum VcacheOutcome {
        /// The cache was not consulted (not at the VCACHE level, or the
        /// ruleset/operation was not cache-eligible).
        None => "none",
        /// The verdict was served from the cache without a walk.
        Hit => "hit",
        /// A cache-eligible walk ran and populated an entry.
        Miss => "miss",
        /// The walk ran but its outcome was not cacheable (degraded,
        /// failed key fetch, or an impure rule on the path).
        Uncacheable => "uncacheable",
    }
}

packed_enum! {
    /// How RATELIMIT/QUOTA targets participated in a decision.
    enum ThrottleOutcome {
        /// No throttle rule fired on the walk.
        None => "none",
        /// A throttle rule fired and granted (budget remained).
        Granted => "granted",
        /// A RATELIMIT bucket rejected the access.
        RateLimited => "ratelimited",
        /// A QUOTA window rejected the access.
        QuotaExceeded => "quota_exceeded",
    }
}

/// A stable 64-bit key naming one rule position (chain + index), used
/// to attribute a decision event to its dropping rule without putting
/// a `String` in the fixed-size record. `0` means "no rule". Consumers
/// resolve keys back to `(chain, index, text)` by hashing the live
/// rule base with this same function (see the `pftop` harness).
pub fn rule_key(chain: &str, index: usize) -> u64 {
    // FNV-1a over the chain name, then the index, nudged off zero so 0
    // can mean "no attributed rule".
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in chain.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^= index as u64;
    h = h.wrapping_mul(0x1000_0000_01b3);
    if h == 0 {
        1
    } else {
        h
    }
}

/// One structured event: a hook decision or a control-plane action.
///
/// The record is a flat, fixed-size value (no heap fields) so it can
/// live in a lock-free ring slot and be emitted without allocating on
/// the hook path. Identifier fields are the raw numeric ids the engine
/// already holds (`SecId`, `ProgramId`); consumers with access to the
/// MAC policy / program interner resolve them to names offline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecisionEvent {
    /// Globally monotonic event id — the invocation id for decision
    /// events. Claimed atomically at emit, so sorting by `seq` yields
    /// the emission order across all shards.
    pub seq: u64,
    /// What kind of record this is.
    pub kind: EventKind,
    /// Virtual-clock timestamp (`EvalEnv::now()`); 0 for control-plane
    /// events, which have no evaluation environment.
    pub ts: u64,
    /// The snapshot generation that decided (or was published).
    pub generation: u64,
    /// The mediated operation (decision events only).
    pub op: LsmOperation,
    /// The calling process id (decision events only).
    pub pid: u32,
    /// The subject's raw MAC label id.
    pub subject: u32,
    /// The main program binary's intern id.
    pub program: u32,
    /// Entrypoint binary intern id (0 when the entrypoint was not
    /// collected this invocation).
    pub ept_prog: u32,
    /// Entrypoint relative program counter (0 when not collected).
    pub ept_pc: u64,
    /// The verdict.
    pub verdict: EventVerdict,
    /// Whether a context-fetch failure degraded the decision.
    pub degraded: bool,
    /// Verdict-cache participation.
    pub vcache: VcacheOutcome,
    /// Throttle-target participation.
    pub throttle: ThrottleOutcome,
    /// Rules traversed by this invocation's walk (0 on a vcache hit).
    pub hops: u32,
    /// Whether a TRACE rule armed per-hop tracing; its hops carry this
    /// `seq` as [`TraceEvent::invocation`].
    pub trace_armed: bool,
    /// [`rule_key`] of the rule a denial is attributed to; 0 otherwise.
    pub rule_key: u64,
    /// Whole-hook latency in nanoseconds (control events: the edit's
    /// duration).
    pub latency_ns: u64,
    /// Control-plane payload: the rule diff size of a commit (rules
    /// added + removed vs the previous snapshot).
    pub aux: u64,
    /// Control-plane payload: total rules after a commit.
    pub aux2: u64,
    /// Control-plane payload: nanoseconds the snapshot compile took
    /// (op columns, dispatch indexes, cacheability analysis)
    /// inside the commit; 0 when the edit touched no rules.
    pub aux3: u64,
}

impl DecisionEvent {
    /// A zeroed placeholder: the record all-zero slot words decode to
    /// (`Decision` kind, `None` outcomes, `FILE_OPEN`, every id 0).
    pub fn empty() -> DecisionEvent {
        Self::decode(&[0; RECORD_WORDS])
    }

    /// `true` for the outcomes `errors-only` sampling keeps: denials,
    /// degraded decisions, and throttle rejections.
    pub fn is_error(&self) -> bool {
        Self::is_error_outcome(self.verdict, self.degraded, self.throttle)
    }

    /// [`Self::is_error`] from the outcome alone, so the engine can
    /// skip building an event `errors-only` sampling would discard.
    pub fn is_error_outcome(
        verdict: EventVerdict,
        degraded: bool,
        throttle: ThrottleOutcome,
    ) -> bool {
        verdict == EventVerdict::Deny
            || degraded
            || matches!(
                throttle,
                ThrottleOutcome::RateLimited | ThrottleOutcome::QuotaExceeded
            )
    }

    /// Renders the event as one JSONL line.
    ///
    /// Every value is numeric, boolean, or a static keyword — there is
    /// no user-controlled string in the record, so the line needs no
    /// escaping and always parses strictly (the label/name escaping
    /// audit for exporters lives with the strings, in `log.rs` and the
    /// engine's occupancy exporter).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"kind\":\"{}\",\"seq\":{},\"ts\":{},\"gen\":{}",
            self.kind.name(),
            self.seq,
            self.ts,
            self.generation
        );
        match self.kind {
            EventKind::Decision => {
                let _ = write!(
                    s,
                    ",\"op\":\"{}\",\"pid\":{},\"subject\":{},\"program\":{},\
                     \"ept_prog\":{},\"ept_pc\":{},\"verdict\":\"{}\",\
                     \"degraded\":{},\"vcache\":\"{}\",\"throttle\":\"{}\",\
                     \"hops\":{},\"trace\":{},\"rule_key\":{},\"latency_ns\":{}}}",
                    self.op.name(),
                    self.pid,
                    self.subject,
                    self.program,
                    self.ept_prog,
                    self.ept_pc,
                    self.verdict.name(),
                    self.degraded,
                    self.vcache.name(),
                    self.throttle.name(),
                    self.hops,
                    self.trace_armed,
                    self.rule_key,
                    self.latency_ns
                );
            }
            _ => {
                let _ = write!(
                    s,
                    ",\"duration_ns\":{},\"rule_diff\":{},\"rule_count\":{},\
                     \"compile_ns\":{}}}",
                    self.latency_ns, self.aux, self.aux2, self.aux3
                );
            }
        }
        s
    }
}

impl Record for DecisionEvent {
    fn encode(&self) -> [u64; RECORD_WORDS] {
        let flags = self.kind as u64
            | ((self.verdict as u64) << 4)
            | ((self.vcache as u64) << 8)
            | ((self.throttle as u64) << 12)
            | ((self.degraded as u64) << 16)
            | ((self.trace_armed as u64) << 17)
            | ((self.op as u64) << 24);
        [
            self.seq,
            self.ts,
            self.generation,
            flags,
            (self.subject as u64) | ((self.program as u64) << 32),
            (self.ept_prog as u64) | ((self.pid as u64) << 32),
            self.ept_pc,
            self.hops as u64,
            self.rule_key,
            self.latency_ns,
            self.aux,
            self.aux2,
            self.aux3,
        ]
    }

    fn decode(w: &[u64; RECORD_WORDS]) -> DecisionEvent {
        let flags = w[3];
        let op_idx = ((flags >> 24) & 0xff) as usize;
        DecisionEvent {
            seq: w[0],
            ts: w[1],
            generation: w[2],
            kind: EventKind::from_u8((flags & 0xf) as u8),
            verdict: EventVerdict::from_u8(((flags >> 4) & 0xf) as u8),
            vcache: VcacheOutcome::from_u8(((flags >> 8) & 0xf) as u8),
            throttle: ThrottleOutcome::from_u8(((flags >> 12) & 0xf) as u8),
            degraded: flags & (1 << 16) != 0,
            trace_armed: flags & (1 << 17) != 0,
            op: op_at(op_idx),
            subject: (w[4] & 0xffff_ffff) as u32,
            program: (w[4] >> 32) as u32,
            ept_prog: (w[5] & 0xffff_ffff) as u32,
            pid: (w[5] >> 32) as u32,
            ept_pc: w[6],
            hops: w[7] as u32,
            rule_key: w[8],
            latency_ns: w[9],
            aux: w[10],
            aux2: w[11],
            aux3: w[12],
        }
    }
}

/// A fixed-size record that packs into one ring slot.
pub trait Record: Copy {
    /// Packs the record into slot words.
    fn encode(&self) -> [u64; RECORD_WORDS];
    /// Unpacks a record [`Record::encode`] produced.
    fn decode(words: &[u64; RECORD_WORDS]) -> Self;
}

/// One ring slot: a seqlock over an array of relaxed atomic words.
///
/// `seq == 0` means never written, `seq == pos + 1` means position
/// `pos`'s record is published, [`BUSY`] means a writer is mid-flight.
/// Outside `BUSY` the sequence only grows: a writer never overwrites a
/// newer lap's record.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; RECORD_WORDS],
}

impl Slot {
    /// Writes position `pos`'s record. Waits out a writer still
    /// publishing an older lap into the slot; gives the record up (the
    /// drain counts it dropped) when a newer lap already owns it.
    fn write(&self, pos: u64, words: &[u64; RECORD_WORDS]) {
        loop {
            let cur = self.seq.load(Ordering::Relaxed);
            if cur == BUSY {
                std::thread::yield_now();
                continue;
            }
            if cur > pos {
                return;
            }
            if self
                .seq
                .compare_exchange_weak(cur, BUSY, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        // The release fence orders the BUSY mark before the payload
        // stores for any reader that observes the payload (fence-to-
        // fence pairing with the drain side's acquire fence).
        fence(Ordering::Release);
        for (w, v) in self.words.iter().zip(words) {
            w.store(*v, Ordering::Relaxed);
        }
        self.seq.store(pos + 1, Ordering::Release);
    }

    /// Position `pos`'s record: `Ok(Some(words))` if published,
    /// `Ok(None)` if a later lap overwrote it, `Err(())` while its
    /// writer has claimed the position but not yet published.
    fn read(&self, pos: u64) -> Result<Option<[u64; RECORD_WORDS]>, ()> {
        let seq = self.seq.load(Ordering::Acquire);
        if seq == BUSY || seq <= pos {
            return Err(());
        }
        let words = std::array::from_fn(|i| self.words[i].load(Ordering::Relaxed));
        // Pairs with the writer's release fence: if the payload loads
        // saw any word of a newer write, the re-check below is
        // guaranteed to see its BUSY mark (or newer seq).
        fence(Ordering::Acquire);
        Ok((seq == pos + 1 && self.seq.load(Ordering::Relaxed) == seq).then_some(words))
    }
}

/// One bounded record stream: lock-free writers, a mutex-serialized
/// (cold-path) drain cursor, and the always-on accounting. See the
/// module docs for the protocol.
pub struct RecordRing<R> {
    capacity: usize,
    /// Positions ever claimed — the `emitted` count.
    head: AtomicU64,
    /// Next position the drain side will look at.
    tail: Mutex<u64>,
    /// Allocated by the first writer.
    slots: OnceLock<Box<[Slot]>>,
    drained: AtomicU64,
    dropped: AtomicU64,
    _record: PhantomData<fn() -> R>,
}

impl<R: Record> RecordRing<R> {
    /// An empty ring of `capacity` slots (minimum 1), allocated on the
    /// first record.
    pub(crate) fn new(capacity: usize) -> Self {
        RecordRing {
            capacity: capacity.max(1),
            head: AtomicU64::new(0),
            tail: Mutex::new(0),
            slots: OnceLock::new(),
            drained: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            _record: PhantomData,
        }
    }

    fn lock_tail(&self) -> MutexGuard<'_, u64> {
        self.tail.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publishes `records` as one contiguous run of positions.
    pub(crate) fn publish(&self, records: &[R]) {
        if records.is_empty() {
            return;
        }
        let cap = self.capacity;
        let slots = self.slots.get_or_init(|| {
            let slot = |_| Slot {
                seq: AtomicU64::new(0),
                words: std::array::from_fn(|_| AtomicU64::new(0)),
            };
            (0..cap).map(slot).collect()
        });
        let first = self.head.fetch_add(records.len() as u64, Ordering::Relaxed);
        for (pos, rec) in (first..).zip(records) {
            slots[(pos % cap as u64) as usize].write(pos, &rec.encode());
        }
    }

    /// Moves every published record past the cursor into `out`, oldest
    /// first, and returns how many records this drain counted dropped
    /// (overwritten before any drain reached them).
    pub(crate) fn drain_into(&self, out: &mut Vec<R>) -> u64 {
        let mut tail = self.lock_tail();
        let head = self.head.load(Ordering::Acquire);
        let Some(slots) = self.slots.get() else {
            return 0;
        };
        let cap = self.capacity as u64;
        let lo = head.saturating_sub(cap).max(*tail);
        let mut lost = lo - *tail;
        let before = out.len();
        let mut pos = lo;
        while pos < head {
            match slots[(pos % cap) as usize].read(pos) {
                Ok(Some(words)) => out.push(R::decode(&words)),
                Ok(None) => lost += 1,
                Err(()) => break,
            }
            pos += 1;
        }
        *tail = pos;
        self.drained
            .fetch_add((out.len() - before) as u64, Ordering::Relaxed);
        self.dropped.fetch_add(lost, Ordering::Relaxed);
        lost
    }

    /// The ring's capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records ever written (including later-overwritten ones).
    pub fn emitted(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records handed to a drain.
    pub fn drained(&self) -> u64 {
        self.drained.load(Ordering::Relaxed)
    }

    /// Records a drain found overwritten before any drain reached them.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records written but not yet drained or counted dropped, capped
    /// at the capacity: what the ring holds for the next drain.
    pub(crate) fn len(&self) -> usize {
        let accounted = self.drained() + self.dropped();
        self.emitted()
            .saturating_sub(accounted)
            .min(self.capacity as u64) as usize
    }

    /// `[emitted, drained, dropped]`, read so that `drained + dropped
    /// <= emitted` holds even while writers and drains run.
    pub(crate) fn accounting(&self) -> [u64; 3] {
        let (drained, dropped) = (self.drained(), self.dropped());
        [self.emitted(), drained, dropped]
    }
}

/// One TRACE hop as the engine writes it: the numeric ids behind a
/// [`TraceEvent`] (see there), which [`TraceHop::resolve`] renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct TraceHop {
    pub invocation: u64,
    pub elapsed_ns: u64,
    /// The rule's chain name, interned at parse time.
    pub chain: InternId,
    pub rule: u32,
    /// The rule's target kind: an index into the target keywords.
    pub target: u8,
    pub matched: bool,
    pub degraded: bool,
}

impl Record for TraceHop {
    fn encode(&self) -> [u64; RECORD_WORDS] {
        let mut w = [0u64; RECORD_WORDS];
        w[0] = self.invocation;
        w[1] = self.elapsed_ns;
        w[2] = u64::from(self.chain.0) | (u64::from(self.rule) << 32);
        w[3] = u64::from(self.target)
            | (u64::from(self.matched) << 8)
            | (u64::from(self.degraded) << 9);
        w
    }

    fn decode(w: &[u64; RECORD_WORDS]) -> Self {
        TraceHop {
            invocation: w[0],
            elapsed_ns: w[1],
            chain: InternId(w[2] as u32),
            rule: (w[2] >> 32) as u32,
            target: w[3] as u8,
            matched: w[3] & (1 << 8) != 0,
            degraded: w[3] & (1 << 9) != 0,
        }
    }
}

/// The operation packed as index `i`; `FILE_OPEN` for an unknown one.
pub(crate) fn op_at(i: usize) -> LsmOperation {
    LsmOperation::ALL
        .get(i)
        .copied()
        .unwrap_or(LsmOperation::FileOpen)
}

/// `names`' string for `id`, or `""` for an id it never issued.
pub(crate) fn name_of(names: &Interner, id: InternId) -> &str {
    if id.index() < names.len() {
        names.resolve(id)
    } else {
        ""
    }
}

impl TraceHop {
    /// Renders the hop against the interner its rule was parsed with.
    pub fn resolve(&self, names: &Interner) -> TraceEvent {
        TraceEvent {
            chain: name_of(names, self.chain).to_owned(),
            rule_index: self.rule as usize,
            matched: self.matched,
            target: TARGET_KINDS.get(usize::from(self.target)).map_or("", |k| k),
            elapsed_ns: self.elapsed_ns,
            degraded: self.degraded,
            invocation: self.invocation,
            gap: false,
        }
    }
}

/// One structured TRACE event: a rule traversed after a TRACE target
/// fired in the same invocation (iptables' TRACE semantics), with its
/// names resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Chain the rule lives in.
    pub chain: String,
    /// Rule index within the chain.
    pub rule_index: usize,
    /// Whether the rule's matches all passed.
    pub matched: bool,
    /// The rule's target kind (`DROP`, `ACCEPT`, `TRACE`, …).
    pub target: &'static str,
    /// Nanoseconds since the TRACE target fired.
    pub elapsed_ns: u64,
    /// Whether a failed context fetch had already degraded the
    /// invocation when this rule was traversed.
    pub degraded: bool,
    /// The invocation's [`DecisionEvent::seq`], or 0 when sampling did
    /// not select it: joins TRACE hops to their decision event.
    pub invocation: u64,
    /// Overflow gap marker: `true` on the first event of a drain that
    /// found older hops overwritten. Stamped by the drain.
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

/// The hot-path sampling decision for one invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gate {
    /// Do nothing (sampling off, or this invocation sampled out).
    Skip,
    /// Emit unconditionally.
    Emit,
    /// Time the invocation; emit only if the outcome is an error.
    ErrorsOnly,
}

impl Gate {
    /// Whether the invocation should be timed and assigned an id.
    #[inline]
    pub(crate) fn armed(self) -> bool {
        !matches!(self, Gate::Skip)
    }
}

/// The decision-event plane: sampling state and the shard rings. One
/// per [`crate::ProcessFirewall`].
pub struct EventPlane {
    shards: Box<[RecordRing<DecisionEvent>]>,
    /// Packed [`SamplingMode`].
    mode: AtomicU64,
    /// Ticket counter driving `1/N` sampling.
    ticket: AtomicU64,
    /// Next event id.
    seq: AtomicU64,
}

impl Default for EventPlane {
    fn default() -> Self {
        Self::new()
    }
}

impl EventPlane {
    /// Creates a plane with sampling off.
    pub fn new() -> EventPlane {
        EventPlane {
            shards: (0..EVENT_SHARDS)
                .map(|_| RecordRing::new(EVENT_RING_CAP))
                .collect(),
            mode: AtomicU64::new(SamplingMode::Off.pack()),
            ticket: AtomicU64::new(0),
            seq: AtomicU64::new(1),
        }
    }

    /// Sets the sampling mode — one atomic store, effective for the
    /// very next invocation on any thread, no reload required.
    pub fn set_sampling(&self, mode: SamplingMode) {
        self.mode.store(mode.pack(), Ordering::Relaxed);
    }

    /// The current sampling mode.
    pub fn sampling(&self) -> SamplingMode {
        SamplingMode::unpack(self.mode.load(Ordering::Relaxed))
    }

    /// The per-invocation sampling decision. With sampling off this is
    /// the entire event-plane cost on the hook path: one relaxed load
    /// and a predicted branch.
    #[inline]
    pub(crate) fn decision_gate(&self) -> Gate {
        let word = self.mode.load(Ordering::Relaxed);
        if word == 0 {
            return Gate::Skip;
        }
        match SamplingMode::unpack(word) {
            SamplingMode::Off => Gate::Skip,
            SamplingMode::Always => Gate::Emit,
            SamplingMode::ErrorsOnly => Gate::ErrorsOnly,
            SamplingMode::OneIn(n) => {
                if self
                    .ticket
                    .fetch_add(1, Ordering::Relaxed)
                    .is_multiple_of(n as u64)
                {
                    Gate::Emit
                } else {
                    Gate::Skip
                }
            }
        }
    }

    /// Claims the next event id (the invocation id stamped into TRACE
    /// records and the event itself).
    #[inline]
    pub(crate) fn claim_id(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Writes one event into `shard`'s ring.
    pub(crate) fn emit(&self, shard: usize, ev: &DecisionEvent) {
        self.shards[shard % EVENT_SHARDS].publish(std::slice::from_ref(ev));
    }

    /// Emits a control-plane self-observability event (reload begin /
    /// commit / abort). Control events bypass the sampling gate except
    /// for `Off` — an admin watching the event stream always sees
    /// configuration churn, but a fully disabled plane stays silent.
    pub(crate) fn emit_control(
        &self,
        kind: EventKind,
        generation: u64,
        duration_ns: u64,
        rule_diff: u64,
        rule_count: u64,
        compile_ns: u64,
    ) {
        if self.mode.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut ev = DecisionEvent::empty();
        ev.seq = self.claim_id();
        ev.kind = kind;
        ev.generation = generation;
        ev.latency_ns = duration_ns;
        ev.aux = rule_diff;
        ev.aux2 = rule_count;
        ev.aux3 = compile_ns;
        self.emit(thread_shard(), &ev);
    }

    /// Drains every shard and merges the records into emission order
    /// (ascending `seq` — see the module docs for why this is the
    /// stream's timestamp order). Never blocks a writer: writers keep
    /// claiming slots while the drain walks; a record the drain loses
    /// the race for is counted dropped, never returned torn.
    pub fn drain(&self) -> Vec<DecisionEvent> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            shard.drain_into(&mut out);
        }
        out.sort_unstable_by_key(|e| e.seq);
        out
    }

    /// `[emitted, drained, dropped]` summed over the shards (see
    /// [`RecordRing::accounting`]).
    pub(crate) fn accounting(&self) -> [u64; 3] {
        let mut sum = [0u64; 3];
        for shard in self.shards.iter() {
            for (s, v) in sum.iter_mut().zip(shard.accounting()) {
                *s += v;
            }
        }
        sum
    }

    /// Total events written (sampled in) since construction.
    pub fn emitted(&self) -> u64 {
        self.shards.iter().map(RecordRing::emitted).sum()
    }

    /// Total events returned by [`EventPlane::drain`].
    pub fn drained(&self) -> u64 {
        self.shards.iter().map(RecordRing::drained).sum()
    }

    /// Total events a drain found overwritten before any drain reached
    /// them. After a quiescent final drain, `emitted() == drained() +
    /// dropped()` holds exactly.
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(RecordRing::dropped).sum()
    }
}

/// Round-robin shard assignment for task sessions ("one writer slot
/// per task session"): each new session gets the next shard.
pub(crate) fn session_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed) % EVENT_SHARDS
}

/// Per-thread shard for the sessionless one-shot `evaluate` path and
/// control-plane events, assigned round-robin at first use.
pub(crate) fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % EVENT_SHARDS;
    }
    SHARD.with(|s| *s)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<R: Record> RecordRing<R> {
        /// Takes the drain cursor's lock without poison recovery, so a
        /// test can poison it by panicking while holding it.
        pub(crate) fn lock_raw(&self) -> MutexGuard<'_, u64> {
            self.tail.lock().unwrap()
        }
    }

    fn ev(seq: u64) -> DecisionEvent {
        let mut e = DecisionEvent::empty();
        e.seq = seq;
        e.ts = seq * 10;
        e.kind = EventKind::Decision;
        e.op = LsmOperation::SocketBind;
        e.verdict = EventVerdict::Deny;
        e.degraded = seq.is_multiple_of(2);
        e.vcache = VcacheOutcome::Miss;
        e.throttle = ThrottleOutcome::RateLimited;
        e.pid = 7;
        e.subject = 3;
        e.program = 4;
        e.ept_prog = 5;
        e.ept_pc = 0x2d637;
        e.hops = 12;
        e.trace_armed = true;
        e.rule_key = rule_key("input", 3);
        e.latency_ns = 480;
        e
    }

    #[test]
    fn encode_decode_round_trips() {
        let z = DecisionEvent::empty();
        assert_eq!(z.encode(), [0; RECORD_WORDS], "the placeholder is all zero");
        assert_eq!(
            (z.kind, z.verdict, z.vcache, z.throttle, z.op),
            (
                EventKind::Decision,
                EventVerdict::None,
                VcacheOutcome::None,
                ThrottleOutcome::None,
                LsmOperation::FileOpen
            )
        );
        for op in LsmOperation::ALL {
            let mut e = ev(42);
            e.op = op;
            assert_eq!(DecisionEvent::decode(&e.encode()), e, "{op:?}");
        }
        let mut c = DecisionEvent::empty();
        c.seq = 9;
        c.kind = EventKind::ReloadCommit;
        c.generation = 17;
        c.latency_ns = 12_000;
        c.aux = 3;
        c.aux2 = 1218;
        c.aux3 = 450_000;
        assert_eq!(DecisionEvent::decode(&c.encode()), c);
    }

    #[test]
    fn sampling_mode_parse_render_round_trips() {
        for m in [
            SamplingMode::Off,
            SamplingMode::Always,
            SamplingMode::ErrorsOnly,
            SamplingMode::OneIn(64),
        ] {
            assert_eq!(SamplingMode::parse(&m.render()), Some(m), "{m:?}");
            assert_eq!(SamplingMode::unpack(m.pack()), m, "{m:?}");
        }
        assert_eq!(SamplingMode::parse("1/1"), Some(SamplingMode::Always));
        assert_eq!(SamplingMode::parse("1/0"), None);
        assert_eq!(SamplingMode::parse("sometimes"), None);
        assert_eq!(SamplingMode::parse("1/"), None);
    }

    #[test]
    fn ring_drains_in_emission_order() {
        let plane = EventPlane::new();
        plane.set_sampling(SamplingMode::Always);
        // Spread across all shards out of order.
        for i in (1..=20u64).rev() {
            let mut e = DecisionEvent::empty();
            e.seq = i;
            plane.emit((i as usize) % EVENT_SHARDS, &e);
        }
        let drained = plane.drain();
        let seqs: Vec<u64> = drained.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (1..=20).collect::<Vec<u64>>());
        assert_eq!(plane.emitted(), 20);
        assert_eq!(plane.drained(), 20);
        assert_eq!(plane.dropped(), 0);
    }

    #[test]
    fn overwrite_oldest_accounts_every_record() {
        let plane = EventPlane::new();
        let extra = 100u64;
        let total = EVENT_RING_CAP as u64 + extra;
        // All into one shard so the ring laps.
        for i in 0..total {
            let mut e = DecisionEvent::empty();
            e.seq = i + 1;
            plane.emit(0, &e);
        }
        let drained = plane.drain();
        assert_eq!(drained.len(), EVENT_RING_CAP);
        // The oldest `extra` records were overwritten.
        assert_eq!(drained[0].seq, extra + 1);
        assert_eq!(plane.dropped(), extra);
        assert_eq!(plane.emitted(), plane.drained() + plane.dropped());
    }

    #[test]
    fn drain_is_incremental() {
        let plane = EventPlane::new();
        let mut e = DecisionEvent::empty();
        e.seq = 1;
        plane.emit(2, &e);
        assert_eq!(plane.drain().len(), 1);
        assert_eq!(plane.drain().len(), 0, "second drain sees nothing new");
        e.seq = 2;
        plane.emit(2, &e);
        assert_eq!(plane.drain().len(), 1);
        assert_eq!(plane.emitted(), plane.drained() + plane.dropped());
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        use std::sync::Arc;
        let plane = Arc::new(EventPlane::new());
        let writers = 8;
        let per = 5_000u64;
        std::thread::scope(|s| {
            for w in 0..writers {
                let plane = Arc::clone(&plane);
                s.spawn(move || {
                    for i in 0..per {
                        let mut e = ev(plane.claim_id());
                        // A recognizable pattern a torn read would break.
                        e.ept_pc = 0x2d637;
                        e.latency_ns = 480;
                        e.pid = w as u32;
                        plane.emit(w, &e);
                        if i.is_multiple_of(64) {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let plane2 = Arc::clone(&plane);
            s.spawn(move || {
                for _ in 0..200 {
                    for got in plane2.drain() {
                        assert_eq!(got.ept_pc, 0x2d637, "torn event");
                        assert_eq!(got.latency_ns, 480, "torn event");
                    }
                    std::thread::yield_now();
                }
            });
        });
        let rest = plane.drain();
        for got in &rest {
            assert_eq!(got.ept_pc, 0x2d637);
        }
        assert_eq!(plane.emitted(), writers as u64 * per);
        assert_eq!(
            plane.emitted(),
            plane.drained() + plane.dropped(),
            "exact accounting after quiescence"
        );
    }

    #[test]
    fn decision_gate_follows_mode() {
        let plane = EventPlane::new();
        assert_eq!(plane.decision_gate(), Gate::Skip);
        plane.set_sampling(SamplingMode::Always);
        assert_eq!(plane.decision_gate(), Gate::Emit);
        plane.set_sampling(SamplingMode::ErrorsOnly);
        assert_eq!(plane.decision_gate(), Gate::ErrorsOnly);
        plane.set_sampling(SamplingMode::OneIn(4));
        let hits = (0..100)
            .filter(|_| plane.decision_gate() == Gate::Emit)
            .count();
        assert_eq!(hits, 25, "1-in-4 ticket sampling");
        plane.set_sampling(SamplingMode::Off);
        assert_eq!(plane.decision_gate(), Gate::Skip);
    }

    #[test]
    fn jsonl_lines_are_single_line_and_tagged() {
        let d = ev(5).to_json();
        assert_eq!(d.lines().count(), 1);
        assert!(d.starts_with("{\"kind\":\"decision\",\"seq\":5,"));
        assert!(d.contains("\"op\":\"SOCKET_BIND\""));
        assert!(d.contains("\"verdict\":\"deny\""));
        assert!(d.contains("\"throttle\":\"ratelimited\""));
        assert!(d.ends_with('}'));

        let mut c = DecisionEvent::empty();
        c.kind = EventKind::ReloadAbort;
        c.seq = 8;
        c.generation = 4;
        c.latency_ns = 99;
        let j = c.to_json();
        assert!(j.contains("\"kind\":\"reload_abort\""));
        assert!(j.contains("\"duration_ns\":99"));
        assert!(!j.contains("\"op\""), "control events omit decision fields");
    }

    #[test]
    fn control_events_respect_off() {
        let plane = EventPlane::new();
        plane.emit_control(EventKind::ReloadCommit, 1, 10, 0, 5, 0);
        assert_eq!(plane.emitted(), 0, "off: control events are silent");
        plane.set_sampling(SamplingMode::ErrorsOnly);
        plane.emit_control(EventKind::ReloadCommit, 2, 10, 1, 6, 800);
        assert_eq!(plane.emitted(), 1);
        let drained = plane.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].kind, EventKind::ReloadCommit);
        assert_eq!(drained[0].generation, 2);
        assert_eq!(drained[0].aux2, 6);
        assert_eq!(drained[0].aux3, 800);
        assert!(drained[0].to_json().contains("\"compile_ns\":800"));
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
    fn trace_hop_encoding_round_trips_and_resolves() {
        let mut names = Interner::new();
        let chain = names.intern("side");
        let hop = TraceHop {
            invocation: 9001,
            elapsed_ns: 42,
            chain,
            rule: 3,
            target: 1,
            matched: false,
            degraded: true,
        };
        assert_eq!(TraceHop::decode(&hop.encode()), hop);
        let e = hop.resolve(&names);
        assert_eq!(
            (e.chain.as_str(), e.rule_index, e.target),
            ("side", 3, "ACCEPT")
        );
        assert!(!e.matched && e.degraded && !e.gap);
        assert_eq!(e.invocation, 9001);
        // An id the interner never issued renders empty, never panics.
        let stray = TraceHop {
            chain: InternId(77),
            target: 200,
            ..hop
        };
        let e = stray.resolve(&names);
        assert_eq!((e.chain.as_str(), e.target), ("", ""));
    }

    #[test]
    fn rings_allocate_on_first_record() {
        let ring: RecordRing<DecisionEvent> = RecordRing::new(16);
        assert!(ring.slots.get().is_none());
        assert_eq!(ring.drain_into(&mut Vec::new()), 0);
        ring.publish(&[ev(1)]);
        assert_eq!(ring.slots.get().map(|s| s.len()), Some(16));
    }

    /// A record whose writer has claimed its position but not yet
    /// published it ends the drain there; it and everything after it
    /// come back on the next drain instead of being counted lost.
    #[test]
    fn pending_record_comes_back_on_the_next_drain() {
        let ring: RecordRing<DecisionEvent> = RecordRing::new(8);
        ring.publish(&[ev(1)]);
        // Claim position 1 by hand, as a writer preempted mid-publish.
        let pos = ring.head.fetch_add(1, Ordering::Relaxed);
        ring.publish(&[ev(3)]);
        let mut out = Vec::new();
        assert_eq!(ring.drain_into(&mut out), 0);
        assert_eq!(out.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1]);
        assert_eq!(ring.accounting(), [3, 1, 0]);
        // The writer finishes; the next drain returns both records.
        let slots = ring.slots.get().unwrap();
        slots[pos as usize].write(pos, &ev(2).encode());
        out.clear();
        assert_eq!(ring.drain_into(&mut out), 0);
        assert_eq!(out.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(ring.accounting(), [3, 3, 0]);
    }

    /// Eight writers publishing fewer records than the ring holds, with
    /// drains racing them, lose nothing: a drain never counts a record
    /// that is still being published as dropped.
    #[test]
    fn racing_drains_lose_nothing_below_capacity() {
        let ring: RecordRing<DecisionEvent> = RecordRing::new(LOG_RING_CAP);
        let per = (LOG_RING_CAP / 8 - 1) as u64;
        let mut seen = Vec::new();
        std::thread::scope(|s| {
            for w in 0..8u64 {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..per {
                        ring.publish(&[ev(w * per + i + 1)]);
                    }
                });
            }
            while ring.emitted() < 8 * per {
                ring.drain_into(&mut seen);
                std::thread::yield_now();
            }
        });
        ring.drain_into(&mut seen);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.accounting(), [8 * per, 8 * per, 0]);
        seen.sort_unstable_by_key(|e| e.seq);
        assert!(
            seen.iter().map(|e| e.seq).eq(1..=8 * per),
            "every record, once"
        );
    }

    #[test]
    fn rule_key_is_stable_and_nonzero() {
        let a = rule_key("input", 0);
        assert_eq!(a, rule_key("input", 0));
        assert_ne!(a, 0);
        assert_ne!(a, rule_key("input", 1));
        assert_ne!(a, rule_key("side", 0));
    }
}

//! The VCACHE verdict cache: per-task memoization of whole verdicts.
//!
//! The Table 6 ladder caches *context* (CONCACHE) and prunes the rule
//! scan (EPTSPC); the VCACHE rung goes one step further and caches the
//! *outcome* of a traversal, the way precomputed-transition syscall
//! filters turn repeated policy checks into O(1) lookups. A cached
//! entry maps a [`VerdictKey`] — the operation plus every context field
//! rules can depend on without consulting per-process mutable state —
//! to the [`EvalDecision`] a full walk produced.
//!
//! Soundness rests on three gates, enforced in `engine.rs`:
//!
//! * **key completeness** — a walk is inserted only when the static
//!   per-rule cacheability analysis (`rule.rs`, summarized per base in
//!   `chain.rs`) confirms no rule consulted on the walk read context
//!   outside the key or carried a side-effecting target;
//! * **no degraded entries** — walks that saw a failed context fetch
//!   (or an exhausted jump depth) are never inserted, and a key that
//!   cannot even be built (a key-field fetch *failed*) bypasses the
//!   cache entirely;
//! * **generation isolation** — the cache lives inside a
//!   [`crate::session::TaskSession`] and is cleared whenever the
//!   session re-pins (hot reload, firewall swap), so no verdict
//!   survives a generation bump.
//!
//! Denied cached walks carry the DROP log record the original walk
//! emitted, so repeated denials stay visible in the audit stream.

use std::collections::HashMap;

use pf_types::{LsmOperation, ProgramId, SecId};

use crate::context::Packet;
use crate::engine::EvalDecision;
use crate::env::Fetched;
use crate::log::LogRecord;
use crate::metrics::Metrics;

/// The context a cached verdict is keyed by.
///
/// `None` in an optional field records that the field was benignly
/// *missing* (distinct from any present value); a *failed* fetch never
/// produces a key at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerdictKey {
    /// The LSM operation being mediated.
    pub op: LsmOperation,
    /// The subject (process) MAC label.
    pub subject: SecId,
    /// The main program binary.
    pub program: ProgramId,
    /// The entrypoint (program, relative pc), if the unwind found one.
    pub entrypoint: Option<(ProgramId, u64)>,
    /// The folded resource identifier, if the operation has an object.
    pub resource: Option<u64>,
    /// The object's MAC label.
    pub label: Option<SecId>,
    /// Adversary write accessibility of the object.
    pub adv_write: Option<bool>,
    /// Adversary read accessibility of the object.
    pub adv_read: Option<bool>,
    /// The subject's monotone origin (taint) level. Keying on origin
    /// keeps `--origin` selectors cacheable: a taint transition changes
    /// the key, so pre-taint verdicts can never be replayed for the
    /// post-taint subject.
    pub origin: Option<u64>,
}

impl VerdictKey {
    /// Builds the key by fetching every key field through the packet
    /// (fetches are memoized, so a miss's subsequent walk reuses them).
    /// Returns `None` — cache bypass — if any key-field fetch *failed*.
    pub(crate) fn build(
        pkt: &mut Packet<'_>,
        op: LsmOperation,
        metrics: &Metrics,
    ) -> Option<VerdictKey> {
        fn field<T>(f: Fetched<T>) -> Result<Option<T>, ()> {
            match f {
                Fetched::Value(v) => Ok(Some(v)),
                Fetched::Missing => Ok(None),
                Fetched::Failed(_) => Err(()),
            }
        }
        let entrypoint = field(pkt.entrypoint_value(metrics)).ok()?;
        let resource = field(pkt.resource_id_value(metrics)).ok()?;
        let label = field(pkt.object_sid_value(metrics)).ok()?;
        let adv_write = field(pkt.adv_write_value(metrics)).ok()?;
        let adv_read = field(pkt.adv_read_value(metrics)).ok()?;
        let origin = field(pkt.subject_origin_value(metrics)).ok()?;
        Some(VerdictKey {
            op,
            subject: pkt.env_ref().subject_sid(),
            program: pkt.env_ref().program(),
            entrypoint,
            resource,
            label,
            adv_write,
            adv_read,
            origin,
        })
    }
}

/// How a cached walk ended — drives the verdict counters on a hit so
/// `drops + accepts + default_allows == invocations` keeps holding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerdictKind {
    /// A DROP target fired.
    Drop,
    /// An ACCEPT target fired.
    Accept,
    /// No terminal rule matched: the default-allow policy applied.
    DefaultAllow,
}

/// One memoized traversal outcome.
#[derive(Debug, Clone)]
pub(crate) struct CacheEntry {
    pub(crate) decision: EvalDecision,
    pub(crate) kind: VerdictKind,
    /// The DROP log record the original walk emitted, replayed (with a
    /// fresh timestamp) on every hit so cached denials stay audited.
    pub(crate) log: Option<LogRecord>,
}

/// Entries beyond this bound trigger a wholesale clear: a task touching
/// this many distinct (op, context) shapes is churning, not looping.
const CACHE_CAP: usize = 4096;

/// The per-task verdict cache. Owned by a
/// [`crate::session::TaskSession`]; never shared across tasks, so
/// lookups and inserts are lock-free by construction.
#[derive(Debug, Default)]
pub struct VerdictCache {
    map: HashMap<VerdictKey, CacheEntry>,
    /// The adversary-model generation (policy edits + taint widenings,
    /// see `MacPolicy::adversary_generation`) the entries were computed
    /// under. Entries also key on the *subject's own* origin, but a
    /// widening changes the `C_ADV_WRITE`/`C_ADV_READ` answers for
    /// *other* subjects' cached walks — those keys don't change, so the
    /// whole cache must go.
    adv_generation: u64,
}

/// Cloning a session (fork) starts the child with an *empty* cache:
/// entries are cheap to rebuild and carry task-specific log records
/// (pid) a forked child must not replay.
impl Clone for VerdictCache {
    fn clone(&self) -> Self {
        VerdictCache::default()
    }
}

impl VerdictCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized verdicts.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every entry (generation bump, firewall swap, fork).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Validates the cache against the current adversary-model
    /// generation. On a stale stamp the whole cache is discarded —
    /// returns `true` iff entries were actually dropped (the exact
    /// invalidation accounting the `origin_vcache_invalidations`
    /// counter wants; an empty cache revalidating is not an
    /// invalidation).
    pub(crate) fn validate_adv_generation(&mut self, generation: u64) -> bool {
        if self.adv_generation == generation {
            return false;
        }
        let dropped = !self.map.is_empty();
        self.map.clear();
        self.adv_generation = generation;
        dropped
    }

    pub(crate) fn lookup(&self, key: &VerdictKey) -> Option<&CacheEntry> {
        self.map.get(key)
    }

    pub(crate) fn insert(&mut self, key: VerdictKey, entry: CacheEntry) {
        if self.map.len() >= CACHE_CAP {
            self.map.clear();
        }
        self.map.insert(key, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_types::{InternId, Verdict};

    fn entry(kind: VerdictKind) -> CacheEntry {
        CacheEntry {
            decision: EvalDecision {
                verdict: match kind {
                    VerdictKind::Drop => Verdict::Deny,
                    _ => Verdict::Allow,
                },
                dropped_by: None,
                generation: 7,
                degraded: false,
                adv_generation: 0,
            },
            kind,
            log: None,
        }
    }

    fn key(op: LsmOperation, resource: Option<u64>) -> VerdictKey {
        VerdictKey {
            op,
            subject: InternId(1),
            program: InternId(2),
            entrypoint: Some((InternId(2), 0x100)),
            resource,
            label: Some(InternId(3)),
            adv_write: Some(false),
            adv_read: Some(true),
            origin: Some(0),
        }
    }

    #[test]
    fn lookup_distinguishes_every_key_field() {
        let mut vc = VerdictCache::new();
        vc.insert(
            key(LsmOperation::FileOpen, Some(5)),
            entry(VerdictKind::Drop),
        );
        assert_eq!(vc.len(), 1);
        assert!(vc.lookup(&key(LsmOperation::FileOpen, Some(5))).is_some());
        assert!(vc.lookup(&key(LsmOperation::FileWrite, Some(5))).is_none());
        assert!(vc.lookup(&key(LsmOperation::FileOpen, Some(6))).is_none());
        assert!(vc.lookup(&key(LsmOperation::FileOpen, None)).is_none());
    }

    #[test]
    fn origin_is_part_of_the_key_and_generation_invalidates() {
        let mut vc = VerdictCache::new();
        let mut k = key(LsmOperation::FileOpen, Some(5));
        vc.insert(k, entry(VerdictKind::DefaultAllow));
        k.origin = Some(2);
        assert!(vc.lookup(&k).is_none(), "tainted subject must miss");
        k.origin = Some(0);
        assert!(vc.lookup(&k).is_some());

        // A generation move with live entries is an invalidation…
        assert!(vc.validate_adv_generation(9));
        assert!(vc.is_empty());
        // …revalidating the same generation is not…
        assert!(!vc.validate_adv_generation(9));
        // …and neither is a move observed by an already-empty cache.
        assert!(!vc.validate_adv_generation(10));
    }

    #[test]
    fn overflow_clears_wholesale_and_clone_is_empty() {
        let mut vc = VerdictCache::new();
        for i in 0..(CACHE_CAP as u64 + 1) {
            vc.insert(
                key(LsmOperation::FileOpen, Some(i)),
                entry(VerdictKind::DefaultAllow),
            );
        }
        assert!(vc.len() <= CACHE_CAP, "cap enforced: {}", vc.len());
        assert!(!vc.is_empty());
        assert!(vc.clone().is_empty(), "fork starts cold");
        vc.clear();
        assert!(vc.is_empty());
    }
}

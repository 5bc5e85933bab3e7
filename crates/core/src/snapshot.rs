//! Immutable ruleset snapshots and the shared swap cell.
//!
//! The Process Firewall is re-entrant: its hooks run from many tasks at
//! once (the paper's LSM hooks execute with interrupts enabled and keep
//! only *per-process* traversal state, Section 5.1). The scalable shape
//! for that workload is the read-mostly snapshot discipline of network
//! firewalls: the compiled rule base is an **immutable** value shared
//! behind an [`Arc`], evaluation never locks or writes it, and rule
//! edits build a *new* snapshot and publish it with one pointer swap.
//!
//! [`SharedRuleset`] is the swap cell — a hand-rolled arc-swap built
//! from `Mutex<Arc<RulesetSnapshot>>` plus an atomic generation mirror:
//!
//! * **Writers** (`pftables` commands, level changes, hot reloads) take
//!   the mutex, clone the current snapshot's contents, apply their edit
//!   to the clone, and store a fresh `Arc` with the generation bumped.
//!   Holding the mutex across clone-edit-swap serializes writers, so
//!   edits are never lost and generations are strictly ordered.
//! * **Readers** call [`SharedRuleset::load`], which locks only long
//!   enough to clone the `Arc` (two atomic ops; no allocation, no
//!   contention with evaluation). Sessions avoid even that in the
//!   steady state: [`SharedRuleset::generation`] is a lock-free load of
//!   the mirror, and a session re-`load`s only when the generation it
//!   has pinned is stale (see `session.rs`).
//!
//! Because a snapshot is never mutated after publication, every
//! in-flight invocation sees exactly one consistent ruleset — the one
//! it started with — and a reload is **linearizable**: invocations
//! before the swap see the old rules, invocations after see the new
//! ones, and nothing ever observes a mix. The snapshot's generation
//! number is carried into every [`crate::engine::EvalDecision`] so
//! tests (and auditors) can attribute each verdict to the exact ruleset
//! that produced it.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pf_types::PfResult;

use crate::chain::RuleBase;
use crate::config::PfConfig;

/// One immutable published state of the firewall: the configuration,
/// the compiled rule base (chains + dispatch indexes), and the
/// generation number under which it was published.
///
/// Snapshots are frozen at publication; all mutation happens on a
/// private clone inside [`SharedRuleset::update`]. The rule hit
/// counters inside are relaxed atomics and remain live — they are
/// statistics, not semantics.
#[derive(Debug, Clone)]
pub struct RulesetSnapshot {
    config: PfConfig,
    base: RuleBase,
    generation: u64,
    /// Wall-clock nanoseconds the deferred snapshot compile took inside
    /// the [`SharedRuleset::update`] that published this snapshot; 0
    /// when the edit touched no rules (e.g. a level change).
    compile_ns: u64,
}

impl RulesetSnapshot {
    /// The configuration this snapshot was published with.
    pub fn config(&self) -> PfConfig {
        self.config
    }

    /// The compiled rule base.
    pub fn base(&self) -> &RuleBase {
        &self.base
    }

    /// The publication generation: 0 for a fresh firewall, +1 per swap.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Nanoseconds spent compiling this snapshot's rule base (op
    /// columns, both dispatch indexes, cacheability analysis).
    pub fn compile_ns(&self) -> u64 {
        self.compile_ns
    }

    /// The original text of the rule at `index` in `chain`, if any.
    /// Used to resolve a deny attribution against the snapshot that
    /// actually produced it (see `ProcessFirewall::attribute`).
    pub fn rule_text(&self, chain: &crate::chain::ChainName, index: usize) -> Option<&str> {
        self.base.chain(chain).get(index).map(|r| r.text.as_str())
    }

    /// Every installed rule's original text, sorted — the multiset the
    /// reload self-observability events diff to report how big an edit
    /// was.
    pub fn rule_texts_sorted(&self) -> Vec<&str> {
        let mut texts: Vec<&str> = self
            .base
            .iter()
            .flat_map(|(_, rules)| rules.iter().map(|r| r.text.as_str()))
            .collect();
        texts.sort_unstable();
        texts
    }

    /// The rule-diff size against `other`: rules present in one
    /// snapshot's text multiset but not the other's (added + removed).
    /// Text-level, order-insensitive — the same measure the throttle
    /// carryover uses to decide which rules "survived" a reload.
    pub fn rule_diff(&self, other: &RulesetSnapshot) -> u64 {
        let a = self.rule_texts_sorted();
        let b = other.rule_texts_sorted();
        let (mut i, mut j, mut diff) = (0usize, 0usize, 0u64);
        while i < a.len() && j < b.len() {
            match a[i].cmp(b[j]) {
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    diff += 1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    diff += 1;
                    j += 1;
                }
            }
        }
        diff + (a.len() - i) as u64 + (b.len() - j) as u64
    }
}

impl Deref for RulesetSnapshot {
    type Target = RuleBase;

    fn deref(&self) -> &RuleBase {
        &self.base
    }
}

/// The mutable draft a [`SharedRuleset::update`] closure edits before
/// it is frozen into the next snapshot.
#[derive(Debug)]
pub struct RulesetDraft {
    /// The configuration to publish.
    pub config: PfConfig,
    /// The rule base to publish.
    pub base: RuleBase,
}

impl RulesetDraft {
    /// Replaces the draft's rule base with an empty one — the
    /// `pftables-restore` wipe — keeping the batch-compile deferral
    /// active so the rebuilt base still compiles exactly once at
    /// publication. (Assigning `draft.base` a fresh `RuleBase` directly
    /// also works, but recompiles per mutation.)
    pub fn reset_base(&mut self) {
        self.base = RuleBase::new();
        self.base.set_deferred();
    }
}

/// The shared swap cell holding the currently published snapshot.
pub struct SharedRuleset {
    current: Mutex<Arc<RulesetSnapshot>>,
    /// Lock-free mirror of `current`'s generation, written inside the
    /// writer lock with `Release` so a reader that observes generation
    /// `g` via `Acquire` can only `load()` a snapshot with generation
    /// `>= g`.
    generation: AtomicU64,
}

impl std::fmt::Debug for SharedRuleset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.load();
        f.debug_struct("SharedRuleset")
            .field("generation", &snap.generation())
            .field("rules", &snap.len())
            .finish()
    }
}

impl SharedRuleset {
    /// Publishes generation 0: the given configuration, no rules.
    pub fn new(config: PfConfig) -> Self {
        SharedRuleset {
            current: Mutex::new(Arc::new(RulesetSnapshot {
                config,
                base: RuleBase::new(),
                generation: 0,
                compile_ns: 0,
            })),
            generation: AtomicU64::new(0),
        }
    }

    /// Locks the swap cell, recovering from poisoning. The invariant
    /// the lock protects (`current` always holds a fully published
    /// snapshot) cannot be broken mid-critical-section: the `Arc` store
    /// is the last step of `update` and is itself atomic. A writer that
    /// panicked inside its *edit closure* never reached the store, so
    /// the previous snapshot is still live and readers must keep going.
    fn lock_current(&self) -> MutexGuard<'_, Arc<RulesetSnapshot>> {
        self.current.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the currently published snapshot.
    ///
    /// Locks only to clone the `Arc`; the snapshot itself is immutable
    /// and valid for as long as the caller holds it, across any number
    /// of subsequent swaps.
    pub fn load(&self) -> Arc<RulesetSnapshot> {
        self.lock_current().clone()
    }

    /// The current generation, without taking the writer lock.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Edits the ruleset through `edit` and publishes the result as the
    /// next generation. Returns the error (publishing **nothing**) if
    /// `edit` fails — the all-or-nothing contract every rule command
    /// and the hot-reload path rely on.
    ///
    /// The writer lock is held across clone → edit → swap, so
    /// concurrent updates serialize and none is lost.
    pub fn update<T>(
        &self,
        edit: impl FnOnce(&mut RulesetDraft) -> PfResult<T>,
    ) -> PfResult<(T, u64)> {
        let mut current = self.lock_current();
        let mut draft = RulesetDraft {
            config: current.config,
            base: current.base.clone(),
        };
        // Batch-compile: a restore-style edit adds thousands of rules,
        // and recompiling the dispatch indexes per mutation is
        // quadratic. Defer, then compile once (timed) below.
        draft.base.set_deferred();
        let value = edit(&mut draft)?;
        // Throttle-state carryover: RATELIMIT/QUOTA rules re-submitted
        // verbatim (a hot `reload()` re-parses every line into fresh
        // `Rule`s) keep their in-flight token buckets; changed rules
        // start fresh. Clone-path edits already share cells through
        // `Rule::clone`, for which this is a no-op re-adoption.
        draft.base.carry_throttle_state(&current.base);
        let t0 = std::time::Instant::now();
        let recompiled = draft.base.finish_deferred();
        let compile_ns = if recompiled {
            t0.elapsed().as_nanos() as u64
        } else {
            0
        };
        let generation = current.generation + 1;
        *current = Arc::new(RulesetSnapshot {
            config: draft.config,
            base: draft.base,
            generation,
            compile_ns,
        });
        self.generation.store(generation, Ordering::Release);
        Ok((value, generation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainName;
    use crate::rule::{DefaultMatches, Rule, Target};
    use pf_types::PfError;

    fn rule(text: &str) -> Rule {
        Rule::new(DefaultMatches::default(), vec![], Target::Drop, text.into())
    }

    #[test]
    fn update_publishes_new_generation() {
        let shared = SharedRuleset::new(PfConfig::default());
        assert_eq!(shared.generation(), 0);
        let ((), gen) = shared
            .update(|d| {
                d.base.add(ChainName::Input, rule("a"), false);
                Ok(())
            })
            .unwrap();
        assert_eq!(gen, 1);
        assert_eq!(shared.generation(), 1);
        assert_eq!(shared.load().len(), 1);
    }

    #[test]
    fn failed_update_publishes_nothing() {
        let shared = SharedRuleset::new(PfConfig::default());
        shared
            .update(|d| {
                d.base.add(ChainName::Input, rule("a"), false);
                Ok(())
            })
            .unwrap();
        let err = shared.update(|d| -> PfResult<()> {
            d.base.clear(); // draft mutation that must be discarded
            Err(PfError::RuleError("nope".into()))
        });
        assert!(err.is_err());
        assert_eq!(shared.generation(), 1, "generation unchanged");
        assert_eq!(shared.load().len(), 1, "rules unchanged");
    }

    #[test]
    fn old_snapshots_survive_swaps() {
        let shared = SharedRuleset::new(PfConfig::default());
        shared
            .update(|d| {
                d.base.add(ChainName::Input, rule("old"), false);
                Ok(())
            })
            .unwrap();
        let pinned = shared.load();
        shared
            .update(|d| {
                d.base.clear();
                d.base.add(ChainName::Input, rule("new"), false);
                Ok(())
            })
            .unwrap();
        assert_eq!(pinned.chain(&ChainName::Input)[0].text, "old");
        assert_eq!(shared.load().chain(&ChainName::Input)[0].text, "new");
        assert_eq!(pinned.generation() + 1, shared.load().generation());
    }

    #[test]
    fn rule_diff_counts_added_and_removed() {
        let shared = SharedRuleset::new(PfConfig::default());
        shared
            .update(|d| {
                d.base.add(ChainName::Input, rule("a"), false);
                d.base.add(ChainName::Input, rule("b"), false);
                Ok(())
            })
            .unwrap();
        let old = shared.load();
        assert_eq!(old.rule_diff(&old), 0);
        shared
            .update(|d| {
                d.base.delete(&ChainName::Input, "a")?;
                d.base.add(ChainName::Input, rule("c"), false);
                Ok(())
            })
            .unwrap();
        let new = shared.load();
        assert_eq!(old.rule_diff(&new), 2, "one removed plus one added");
        assert_eq!(new.rule_diff(&old), 2, "diff is symmetric");
    }

    #[test]
    fn generation_mirror_matches_snapshot() {
        let shared = SharedRuleset::new(PfConfig::default());
        for _ in 0..5 {
            shared.update(|_| Ok(())).unwrap();
            assert_eq!(shared.generation(), shared.load().generation());
        }
    }
}

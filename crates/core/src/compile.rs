//! Snapshot-time compilation of the input chain into indexed dispatch
//! tables: the one artifact behind both EPTSPC and RULESETC.
//!
//! Every input rule is indexed along the [`Dimensions`] the compile is
//! asked for: the entrypoint (`-p`/`-i`) alone for EPTSPC's automatic
//! per-entrypoint chains (Section 4.3), plus the LSM operation (`-o`)
//! and object label (`-d`) for RULESETC. A rule whose selector along a
//! dimension is absent (or too broad to index) lands in that
//! dimension's *wildcard* bucket; a lookup ([`CompiledDispatch::select`])
//! merges the exact and wildcard buckets of every dimension. The layout
//! is entrypoint first — one probe on `(program, pc)`, with the bucket
//! that is wildcard on the other dimensions stored inline — so the
//! entrypoint-only view costs one probe and two slices.
//!
//! The soundness argument is the paper's for EPTSPC: a rule excluded
//! from a lookup is one whose indexed selector is *known not to match*
//! the fetched context value, so skipping it cannot change the verdict
//! — provided install order is preserved across the merged buckets,
//! which [`MergeDispatch`] guarantees. Fetch *failures* never narrow a
//! lookup (see `engine.rs`), so `--ctx-missing` policies keep their say.

use std::collections::HashMap;

use pf_types::{LsmOperation, ProgramId, SecId};

use crate::rule::Rule;

/// Label sets with more members than this are not fanned out into
/// per-label buckets; the rule goes to the label-wildcard bucket
/// instead. Keeps pathological `-d a,b,c,...` rules from multiplying
/// the artifact size.
pub const MAX_LABEL_FANOUT: usize = 16;

/// The most slices one lookup selects: two entrypoint halves, each with
/// its (op, label), (op, *), (*, label) and (*, *) buckets.
const MAX_SLICES: usize = 8;

/// Which selector dimensions a [`CompiledDispatch`] indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dimensions {
    /// The entrypoint alone: EPTSPC's automatic per-entrypoint chains.
    Entrypoint,
    /// Entrypoint, operation and object label: RULESETC.
    All,
}

/// A bucket key inside one entrypoint half: `None` along a dimension
/// means its wildcard.
type BucketKey = (Option<LsmOperation>, Option<SecId>);

/// A `start..end` range into one of [`CompiledDispatch`]'s flat tables.
type Span = (u32, u32);

/// The rules of one entrypoint (or of no entrypoint), bucketed by the
/// remaining dimensions. Eight bytes of spans, so an entrypoint probe
/// stays within one map slot.
#[derive(Debug, Clone, Copy, Default)]
struct Half {
    /// `indices[any]`: the `(None, None)` bucket, inline. In the
    /// entrypoint-only view it holds every rule of the half.
    any: Span,
    /// `buckets[keyed]`: the other buckets, sorted by key. Empty in the
    /// entrypoint-only view.
    keyed: Span,
}

/// The compiled artifact for one chain: rule indices bucketed along
/// the compiled [`Dimensions`]. Built once per snapshot compile;
/// immutable and shared read-only afterwards.
#[derive(Debug, Clone, Default)]
pub struct CompiledDispatch {
    /// Every bucket's rule indices, bucket after bucket, each ascending.
    indices: Vec<u32>,
    /// Every keyed bucket: its key and its span of `indices`.
    buckets: Vec<(BucketKey, Span)>,
    /// Rules with no entrypoint selector.
    generic: Half,
    /// Entrypoint → the rules bound to it.
    by_ept: HashMap<(ProgramId, u64), Half>,
    /// How many rules `generic` holds.
    generic_rules: usize,
    /// `true` when at least one rule is bucketed under a concrete
    /// object label — the gate for fetching the label on lookup. When
    /// `false` the fetch (with its failure modes) is skipped entirely.
    has_label_buckets: bool,
}

impl CompiledDispatch {
    /// Compiles a chain's rules into the index over `dims`.
    ///
    /// * **entrypoint** — `-p BIN -i PC` (both halves) → that
    ///   `(program, pc)` half, else the generic half (EPTSPC's criterion).
    /// * **operation** (`All` only) — `-o OP` → the `Some(op)` bucket,
    ///   else wildcard. Infallible at lookup: it is the hook argument.
    /// * **label** (`All` only) — a *positive* `-d` set with
    ///   1..=[`MAX_LABEL_FANOUT`] members fans out into one bucket per
    ///   member. Negated, oversize and empty sets go to the wildcard:
    ///   exclusion must be provable, not probable.
    pub fn compile(rules: &[Rule], dims: Dimensions) -> Self {
        let all = dims == Dimensions::All;
        let mut this = CompiledDispatch::default();
        // Half ids: 0 is the generic half, entrypoints count from 1.
        let mut ids: HashMap<(ProgramId, u64), u32> = HashMap::new();
        let mut entries: Vec<(u32, BucketKey, u32)> = Vec::with_capacity(rules.len());
        for (i, rule) in rules.iter().enumerate() {
            let half = match rule.def.entrypoint() {
                Some(ept) => {
                    let next = ids.len() as u32 + 1;
                    *ids.entry(ept).or_insert(next)
                }
                None => {
                    this.generic_rules += 1;
                    0
                }
            };
            let op = rule.def.op.filter(|_| all);
            match &rule.def.object {
                Some(set)
                    if all
                        && !set.is_negated()
                        && !set.raw_members().is_empty()
                        && set.raw_members().len() <= MAX_LABEL_FANOUT =>
                {
                    // Fan-out: the member list is sorted and deduplicated
                    // (a LabelSet invariant), so the index lands in each
                    // member bucket exactly once.
                    this.has_label_buckets = true;
                    for &sid in set.raw_members() {
                        entries.push((half, (op, Some(sid)), i as u32));
                    }
                }
                _ => entries.push((half, (op, None), i as u32)),
            }
        }
        // Stable: each bucket's indices stay ascending. Within a half
        // the `(None, None)` bucket sorts first, then the keyed ones.
        entries.sort_by_key(|&(half, key, _)| (half, key));
        let mut halves = vec![Half::default(); ids.len() + 1];
        for run in entries.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (half, key, _) = run[0];
            let start = this.indices.len() as u32;
            this.indices.extend(run.iter().map(|&(_, _, i)| i));
            let span = (start, this.indices.len() as u32);
            let half = &mut halves[half as usize];
            if key == (None, None) {
                half.any = span;
            } else {
                if half.keyed.0 == half.keyed.1 {
                    half.keyed.0 = this.buckets.len() as u32;
                }
                this.buckets.push((key, span));
                half.keyed.1 = this.buckets.len() as u32;
            }
        }
        this.generic = halves[0];
        this.by_ept = ids
            .into_iter()
            .map(|(ept, id)| (ept, halves[id as usize]))
            .collect();
        this
    }

    /// Whether any rule is bucketed under a concrete object label.
    pub fn has_label_buckets(&self) -> bool {
        self.has_label_buckets
    }

    /// Whether any rule is bucketed under a concrete entrypoint.
    pub fn has_ept_buckets(&self) -> bool {
        !self.by_ept.is_empty()
    }

    /// Number of distinct entrypoints with bound rules: EPTSPC's
    /// entrypoint-specific chains.
    pub fn entrypoint_count(&self) -> usize {
        self.by_ept.len()
    }

    /// Number of rules with no entrypoint selector.
    pub fn generic_rule_count(&self) -> usize {
        self.generic_rules
    }

    /// The ascending walk over the rules applicable to an invocation
    /// whose fetched context is (`op`, `label`, `ept`).
    ///
    /// `label`/`ept` are `None` when the field was *benignly absent*
    /// (`Fetched::Missing`) or was not fetched; then only that
    /// dimension's wildcard buckets are consulted — exactly the
    /// Missing → NoMatch semantics of the indexed selectors. The
    /// selected buckets are pairwise disjoint by construction (each rule
    /// lives in exactly one entrypoint half, one op bucket, and — for
    /// any single label — at most one label bucket), so the merge never
    /// sees a duplicate index.
    #[inline]
    pub fn select(
        &self,
        op: LsmOperation,
        label: Option<SecId>,
        ept: Option<(ProgramId, u64)>,
    ) -> MergeDispatch<'_> {
        let mut merge = MergeDispatch {
            active: &[],
            limit: u32::MAX,
            parked: [&[]; MAX_SLICES - 1],
            n: 0,
        };
        self.select_into(self.generic, op, label, &mut merge);
        if let Some(&half) = ept.and_then(|ept| self.by_ept.get(&ept)) {
            self.select_into(half, op, label, &mut merge);
        }
        merge
    }

    /// Adds `half`'s buckets applicable to (`op`, `label`) to `merge`.
    #[inline]
    fn select_into<'s>(
        &'s self,
        half: Half,
        op: LsmOperation,
        label: Option<SecId>,
        merge: &mut MergeDispatch<'s>,
    ) {
        let span = |(start, end): Span| &self.indices[start as usize..end as usize];
        merge.push(span(half.any));
        if half.keyed.0 == half.keyed.1 {
            return; // always, in the entrypoint-only view
        }
        let keyed = &self.buckets[half.keyed.0 as usize..half.keyed.1 as usize];
        // An absent label makes its exact and wildcard buckets the
        // same, so only the (op, *) one is added to the inline (*, *).
        let keys = [(Some(op), None), (Some(op), label), (None, label)];
        for key in &keys[..if label.is_some() { 3 } else { 1 }] {
            if let Ok(b) = keyed.binary_search_by_key(key, |&(k, _)| k) {
                merge.push(span(keyed[b].1));
            }
        }
    }
}

/// Ascending k-way merge over the sorted, pairwise-disjoint index
/// slices one [`CompiledDispatch::select`] picked: the walk over the
/// selected buckets in install order. Zero allocations.
///
/// It drains one *active* slice while that slice's head is below every
/// parked slice's head, so a run of indices from one bucket costs one
/// comparison each; only crossing to another bucket takes the cold
/// re-selection.
#[derive(Debug)]
pub struct MergeDispatch<'s> {
    active: &'s [u32],
    /// The smallest head among `parked` (`u32::MAX` when none).
    limit: u32,
    parked: [&'s [u32]; MAX_SLICES - 1],
    n: usize,
}

impl<'s> MergeDispatch<'s> {
    /// Adds one slice; empty slices are dropped.
    #[inline]
    fn push(&mut self, slice: &'s [u32]) {
        let Some(&head) = slice.first() else { return };
        if self.active.is_empty() {
            self.active = slice;
        } else {
            self.parked[self.n] = slice;
            self.n += 1;
            self.limit = self.limit.min(head);
        }
    }

    /// The active slice ran out or passed `limit`: activate the parked
    /// slice with the smallest head, parking the active rest in its
    /// place.
    #[cold]
    #[inline(never)]
    fn reselect(&mut self) -> Option<usize> {
        let parked = &mut self.parked[..self.n];
        let (min, _) = parked.iter().enumerate().min_by_key(|(_, s)| s[0])?;
        if self.active.is_empty() {
            self.n -= 1;
            parked.swap(min, self.n);
            self.active = parked[self.n];
        } else {
            std::mem::swap(&mut self.active, &mut parked[min]);
        }
        self.limit = self.parked[..self.n]
            .iter()
            .map(|s| s[0])
            .min()
            .unwrap_or(u32::MAX);
        let (&head, rest) = self.active.split_first()?;
        self.active = rest;
        Some(head as usize)
    }
}

impl Iterator for MergeDispatch<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if let Some((&head, rest)) = self.active.split_first() {
            if head < self.limit {
                self.active = rest;
                return Some(head as usize);
            }
        } else if self.n == 0 {
            return None;
        }
        self.reselect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{DefaultMatches, Rule, Target};
    use pf_types::{InternId, LabelSet};

    fn rule(op: Option<LsmOperation>, object: Option<LabelSet>, ept: Option<(u32, u64)>) -> Rule {
        Rule::new(
            DefaultMatches {
                op,
                object,
                program: ept.map(|(p, _)| InternId(p)),
                entrypoint_pc: ept.map(|(_, pc)| pc),
                ..Default::default()
            },
            vec![],
            Target::Drop,
            String::new(),
        )
    }

    fn labels(members: &[u32]) -> LabelSet {
        LabelSet::of(members.iter().map(|&m| InternId(m)))
    }

    fn lookup(
        d: &CompiledDispatch,
        op: LsmOperation,
        label: Option<u32>,
        ept: Option<(u32, u64)>,
    ) -> Vec<usize> {
        d.select(
            op,
            label.map(InternId),
            ept.map(|(p, pc)| (InternId(p), pc)),
        )
        .collect()
    }

    fn bucket_count(d: &CompiledDispatch) -> usize {
        std::iter::once(&d.generic)
            .chain(d.by_ept.values())
            .map(|h| usize::from(h.any.0 != h.any.1) + (h.keyed.1 - h.keyed.0) as usize)
            .sum()
    }

    fn merge(slices: &[&[u32]]) -> Vec<usize> {
        // An empty lookup is an empty merge.
        let d = CompiledDispatch::default();
        let mut m = d.select(LsmOperation::FileOpen, None, None);
        for &s in slices {
            m.push(s);
        }
        m.collect()
    }

    #[test]
    fn empty_chain_compiles_to_nothing() {
        for dims in [Dimensions::Entrypoint, Dimensions::All] {
            let d = CompiledDispatch::compile(&[], dims);
            assert_eq!(d.generic_rule_count(), 0);
            assert_eq!(bucket_count(&d), 0);
            assert!(!d.has_label_buckets() && !d.has_ept_buckets());
            assert!(lookup(&d, LsmOperation::FileOpen, None, None).is_empty());
        }
    }

    #[test]
    fn merge_preserves_install_order_across_buckets() {
        let rules = vec![
            rule(Some(LsmOperation::FileOpen), None, None), // 0: op bucket
            rule(None, Some(labels(&[7])), None),           // 1: label bucket
            rule(None, None, Some((3, 0x10))),              // 2: ept bucket
            rule(None, None, None),                         // 3: triple wildcard
            rule(
                Some(LsmOperation::FileOpen),
                Some(labels(&[7])),
                Some((3, 0x10)),
            ), // 4: exact
        ];
        let d = CompiledDispatch::compile(&rules, Dimensions::All);
        assert!(d.has_label_buckets() && d.has_ept_buckets());
        // Everything applicable, merged back into install order.
        assert_eq!(
            lookup(&d, LsmOperation::FileOpen, Some(7), Some((3, 0x10))),
            vec![0, 1, 2, 3, 4]
        );
        // A different label/entrypoint excludes the bound rules.
        assert_eq!(
            lookup(&d, LsmOperation::FileOpen, Some(9), Some((9, 0x90))),
            vec![0, 3]
        );
        // A different op excludes the op-bound rules (1 needs label 7).
        assert_eq!(
            lookup(&d, LsmOperation::FileUnlink, Some(7), None),
            vec![1, 3]
        );
    }

    #[test]
    fn entrypoint_view_indexes_the_entrypoint_alone() {
        let rules = vec![
            rule(Some(LsmOperation::FileOpen), Some(labels(&[7])), None), // 0
            rule(None, None, Some((3, 0x10))),                            // 1
            rule(Some(LsmOperation::FileWrite), None, Some((3, 0x10))),   // 2
            rule(None, None, Some((4, 0x20))),                            // 3
            rule(None, None, None),                                       // 4
        ];
        let d = CompiledDispatch::compile(&rules, Dimensions::Entrypoint);
        assert!(!d.has_label_buckets() && d.has_ept_buckets());
        assert_eq!((d.entrypoint_count(), d.generic_rule_count()), (2, 2));
        // Operation and label never narrow the walk: the caller's
        // entrypoint chain merged with the generic rules.
        for (op, label) in [
            (LsmOperation::FileUnlink, None),
            (LsmOperation::FileOpen, Some(9)),
        ] {
            assert_eq!(lookup(&d, op, label, Some((3, 0x10))), vec![0, 1, 2, 4]);
            assert_eq!(lookup(&d, op, label, Some((5, 0x50))), vec![0, 4]);
            assert_eq!(lookup(&d, op, label, None), vec![0, 4]);
        }
    }

    #[test]
    fn missing_dimensions_walk_wildcard_buckets_only() {
        let rules = vec![
            rule(None, Some(labels(&[7])), None),
            rule(None, None, Some((3, 0x10))),
            rule(None, None, None),
        ];
        let d = CompiledDispatch::compile(&rules, Dimensions::All);
        // Benign absence along both fetched dimensions: only the
        // wildcard rule can match, and only it is walked.
        assert_eq!(lookup(&d, LsmOperation::FileOpen, None, None), vec![2]);
    }

    #[test]
    fn multi_label_sets_fan_out_to_each_member() {
        let rules = vec![rule(None, Some(labels(&[3, 5])), None)];
        let d = CompiledDispatch::compile(&rules, Dimensions::All);
        assert_eq!(bucket_count(&d), 2);
        assert_eq!(lookup(&d, LsmOperation::FileOpen, Some(3), None), vec![0]);
        assert_eq!(lookup(&d, LsmOperation::FileOpen, Some(5), None), vec![0]);
        assert!(lookup(&d, LsmOperation::FileOpen, Some(4), None).is_empty());
    }

    #[test]
    fn negated_and_oversize_sets_stay_wildcard() {
        let negated = labels(&[7]).negated();
        let oversize = labels(&(0..=MAX_LABEL_FANOUT as u32).collect::<Vec<_>>());
        let empty = labels(&[]);
        let rules = vec![
            rule(None, Some(negated), None),
            rule(None, Some(oversize), None),
            rule(None, Some(empty), None),
        ];
        let d = CompiledDispatch::compile(&rules, Dimensions::All);
        assert!(!d.has_label_buckets(), "no provable exclusion → no fan-out");
        // Every lookup walks all three: none can be excluded by label.
        assert_eq!(
            lookup(&d, LsmOperation::FileOpen, Some(7), None),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn merge_handles_adjacent_and_interleaved_runs() {
        let a = [0, 2, 4];
        let b = [1, 3, 5];
        let c = [6, 7];
        assert_eq!(merge(&[&a, &b, &c]), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(merge(&[&c, &b, &a]), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(merge(&[&c]), vec![6, 7]);
        assert_eq!(merge(&[&[], &c, &[]]), vec![6, 7]);
        assert!(merge(&[]).is_empty());
    }

    /// Splits `0..len` into `k` pairwise-disjoint ascending slices by a
    /// seeded assignment; `long` sends most indices to slice 0.
    fn split(seed: u64, len: u32, k: usize, long: bool) -> Vec<Vec<u32>> {
        let mut state = seed | 1;
        let mut slices = vec![Vec::new(); k];
        for i in 0..len {
            // xorshift64: deterministic, dependency-free.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let pick = if long && !state.is_multiple_of(4) {
                0
            } else {
                (state >> 8) as usize % k
            };
            // Drop some indices so slices don't tile the range.
            if !state.is_multiple_of(7) {
                slices[pick].push(i);
            }
        }
        slices
    }

    #[test]
    fn merge_equals_sorted_concatenation() {
        for seed in 1..200u64 {
            for k in 0..=MAX_SLICES {
                for long in [false, true] {
                    let len = (seed as u32 * 7) % 90;
                    let owned = if k == 0 {
                        Vec::new()
                    } else {
                        split(seed, len, k, long)
                    };
                    let slices: Vec<&[u32]> = owned.iter().map(Vec::as_slice).collect();
                    let mut want: Vec<usize> =
                        owned.concat().into_iter().map(|i| i as usize).collect();
                    want.sort_unstable();
                    assert_eq!(merge(&slices), want, "seed {seed} k {k} long {long}");
                }
            }
        }
    }
}

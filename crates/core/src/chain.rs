//! Chains and the rule base, including automatic entrypoint chains.
//!
//! Network firewalls let administrators organize rules into chains by
//! hand; the Process Firewall builds chains *automatically* from rule
//! entrypoints (Section 4.3). Partitioning preserves verdicts **only
//! if install order is preserved**: ACCEPT, RETURN, LOG, and STATE
//! rules make outcomes order-dependent, so the engine walks the
//! generic and entrypoint-bound partitions as a merge over the index
//! vectors below (ascending install indices), never one partition
//! after the other. The partition changes how many rules the engine
//! must look at, not the order in which the surviving ones run.
//!
//! Every chain also carries a compiled **op column**: one byte per rule
//! holding its `-o` selector (or `OP_ANY`). The engine rejects a rule
//! whose operation differs straight from the column, without loading
//! the rule itself, so a walk over hundreds of op-specific rules stays
//! in a few cache lines.
//!
//! Rule compilation also performs the **static cacheability analysis**
//! backing the VCACHE verdict cache: each rule carries purity flags
//! (computed in `rule.rs` from its modules and target), and
//! [`RuleBase::statically_cacheable`] summarizes whether every rule
//! reachable from the built-in chains is key-determined and
//! side-effect free.

use std::collections::{BTreeMap, HashMap};
use std::ops::Deref;
use std::sync::Arc;

use pf_types::{LsmOperation, PfError, PfResult, ProgramId};

use crate::compile::CompiledDispatch;
use crate::rule::{CtxPolicy, Rule, Target};

/// A chain designator.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChainName {
    /// Built-in: resource deliveries into the process (the default).
    Input,
    /// Built-in: data leaving the process (reserved; parsed, unused).
    Output,
    /// Built-in: evaluated at the start of every system call (rule R12).
    SyscallBegin,
    /// A user-defined chain reachable via `-j NAME`.
    User(String),
}

impl ChainName {
    /// Parses a chain name; unknown names become user chains.
    pub fn parse(s: &str) -> ChainName {
        match s.to_ascii_lowercase().as_str() {
            "input" => ChainName::Input,
            "output" => ChainName::Output,
            "syscallbegin" => ChainName::SyscallBegin,
            other => ChainName::User(other.to_owned()),
        }
    }

    /// The canonical printed name.
    pub fn name(&self) -> String {
        self.as_str().to_owned()
    }

    /// The canonical name without allocating — used on metrics paths.
    pub fn as_str(&self) -> &str {
        match self {
            ChainName::Input => "input",
            ChainName::Output => "output",
            ChainName::SyscallBegin => "syscallbegin",
            ChainName::User(s) => s,
        }
    }
}

/// Op-column byte of a rule without a `-o` selector: it applies to every
/// operation.
const OP_ANY: u8 = u8::MAX;

/// The op-column byte for one rule's `-o` selector.
pub(crate) fn op_byte(op: Option<LsmOperation>) -> u8 {
    op.map_or(OP_ANY, |op| op as u8)
}

/// One chain: its rules in evaluation order, and the op column the
/// rule base's compile step builds from them (`ops[i]` is the `-o`
/// selector of `rules[i]` as a byte, or `OP_ANY`). Derefs to the rule
/// slice.
#[derive(Debug, Clone, Default)]
pub struct Chain {
    rules: Vec<Rule>,
    ops: Vec<u8>,
}

/// The chain a missing name resolves to.
static EMPTY_CHAIN: Chain = Chain {
    rules: Vec::new(),
    ops: Vec::new(),
};

impl Chain {
    /// Whether rule `index`'s `-o` selector admits `op`, answered from
    /// the op column alone (the rule itself is not loaded).
    #[inline]
    pub(crate) fn op_admits(&self, index: usize, op: LsmOperation) -> bool {
        debug_assert_eq!(self.ops.len(), self.rules.len(), "op column out of date");
        let sel = self.ops[index];
        sel == OP_ANY || sel == op as u8
    }

    /// The op column, parallel to the rules.
    #[cfg(test)]
    pub(crate) fn ops(&self) -> &[u8] {
        &self.ops
    }

    fn compile_ops(&mut self) {
        self.ops.clear();
        self.ops
            .extend(self.rules.iter().map(|r| op_byte(r.def.op)));
    }
}

impl Deref for Chain {
    type Target = [Rule];

    fn deref(&self) -> &[Rule] {
        &self.rules
    }
}

/// The installed rules, per chain, in evaluation order, plus the compiled
/// entrypoint index used by the EPTSPC optimization.
///
/// `Clone` supports the engine's copy-on-write reload path: rule edits
/// clone the current base, mutate the copy, and publish it as a fresh
/// immutable snapshot (see `snapshot.rs`).
#[derive(Debug, Clone)]
pub struct RuleBase {
    chains: BTreeMap<ChainName, Chain>,
    /// Indices (into the input chain) of rules without an entrypoint.
    input_generic: Vec<usize>,
    /// Entrypoint → indices of input-chain rules bound to it.
    input_by_ept: HashMap<(ProgramId, u64), Vec<usize>>,
    /// Static cacheability summary: `true` when every rule reachable
    /// from the built-in chains (following `-j` jumps) is pure for the
    /// verdict cache. Conservative and advisory — the engine also
    /// tracks purity per walk, so a mixed base still caches the walks
    /// that avoid its impure rules.
    statically_cacheable: bool,
    /// Chain-level `--ctx-missing` defaults (`pftables -P chain
    /// --ctx-missing ...`), consulted when a rule has no override.
    ctx_defaults: BTreeMap<ChainName, CtxPolicy>,
    /// RULESETC artifact: the input chain compiled into per-(op, label,
    /// entrypoint) dispatch buckets (see `compile.rs`). Rebuilt by
    /// [`RuleBase::recompile`] alongside the EPTSPC partition.
    input_dispatch: CompiledDispatch,
    /// Batch-compile mode: while set, mutators only mark [`Self::dirty`]
    /// instead of recompiling, so an N-rule reload compiles once instead
    /// of N times (quadratic at 10k+ rules). Entered by
    /// [`SharedRuleset::update`]; never set on a published snapshot.
    ///
    /// [`SharedRuleset::update`]: crate::snapshot::SharedRuleset::update
    deferred: bool,
    /// Whether a mutation happened while `deferred` was set.
    dirty: bool,
}

impl Default for RuleBase {
    fn default() -> Self {
        RuleBase {
            chains: BTreeMap::new(),
            input_generic: Vec::new(),
            input_by_ept: HashMap::new(),
            statically_cacheable: true,
            ctx_defaults: BTreeMap::new(),
            input_dispatch: CompiledDispatch::default(),
            deferred: false,
            dirty: false,
        }
    }
}

impl RuleBase {
    /// Creates an empty rule base.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends (or with `insert_head`, prepends) a rule to a chain.
    pub fn add(&mut self, chain: ChainName, rule: Rule, insert_head: bool) {
        let rules = &mut self.chains.entry(chain).or_default().rules;
        if insert_head {
            rules.insert(0, rule);
        } else {
            rules.push(rule);
        }
        self.mark_changed();
    }

    /// Deletes the first rule in `chain` whose spec (its text without
    /// the `-A`/`-I`/`-D` chain command) equals `text`'s.
    pub fn delete(&mut self, chain: &ChainName, text: &str) -> PfResult<()> {
        let spec = crate::lang::rule_spec(text);
        let rules = &mut self
            .chains
            .get_mut(chain)
            .ok_or_else(|| PfError::RuleError(format!("no such chain {chain:?}")))?
            .rules;
        let pos = rules
            .iter()
            .position(|r| crate::lang::rule_spec(&r.text) == spec)
            .ok_or_else(|| PfError::RuleError(format!("no matching rule in {chain:?}")))?;
        rules.remove(pos);
        self.mark_changed();
        Ok(())
    }

    /// Removes every rule from every chain.
    pub fn clear(&mut self) {
        self.chains.clear();
        self.mark_changed();
    }

    /// Declares an empty user chain (`pftables -N name`).
    pub fn new_chain(&mut self, chain: ChainName) -> PfResult<()> {
        if self.chains.contains_key(&chain) {
            return Err(PfError::RuleError(format!(
                "chain `{}` already exists",
                chain.name()
            )));
        }
        self.chains.insert(chain, Chain::default());
        self.mark_changed();
        Ok(())
    }

    /// Empties one chain (`pftables -F chain`), keeping it declared.
    pub fn flush(&mut self, chain: &ChainName) -> PfResult<()> {
        match self.chains.get_mut(chain) {
            Some(c) => {
                c.rules.clear();
                self.mark_changed();
                Ok(())
            }
            None => Err(PfError::RuleError(format!(
                "no such chain `{}`",
                chain.name()
            ))),
        }
    }

    /// Deletes an *empty user* chain (`pftables -X name`). Built-in
    /// chains cannot be deleted, and non-empty chains must be flushed
    /// first — `iptables` semantics.
    pub fn delete_chain(&mut self, chain: &ChainName) -> PfResult<()> {
        if !matches!(chain, ChainName::User(_)) {
            return Err(PfError::RuleError(format!(
                "cannot delete built-in chain `{}`",
                chain.name()
            )));
        }
        match self.chains.get(chain) {
            Some(rules) if rules.is_empty() => {
                self.chains.remove(chain);
                self.mark_changed();
                Ok(())
            }
            Some(_) => Err(PfError::RuleError(format!(
                "chain `{}` is not empty (flush it first)",
                chain.name()
            ))),
            None => Err(PfError::RuleError(format!(
                "no such chain `{}`",
                chain.name()
            ))),
        }
    }

    /// One chain's rules in order, with its op column; an undeclared
    /// chain is empty.
    pub fn chain(&self, chain: &ChainName) -> &Chain {
        self.chains.get(chain).unwrap_or(&EMPTY_CHAIN)
    }

    /// Total rules across all chains.
    pub fn len(&self) -> usize {
        self.chains.values().map(|c| c.rules.len()).sum()
    }

    /// Returns `true` when no rules are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over `(chain, rules)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&ChainName, &[Rule])> {
        self.chains
            .iter()
            .map(|(name, c)| (name, c.rules.as_slice()))
    }

    /// Hot-reload carryover for throttle state: every RATELIMIT/QUOTA
    /// rule in `self` whose text matches a throttle rule in the same
    /// chain of `old` adopts the old rule's live [`ThrottleCell`], so
    /// in-flight token buckets survive a reload that re-submits the
    /// same rule (even at a different position). Matching is by full
    /// rule text, first-come within a chain (duplicates pair up in
    /// order); a *changed* rule matches nothing and keeps the fresh
    /// cell `Rule::new` built — changing a rule resets its buckets.
    ///
    /// [`ThrottleCell`]: crate::ratelimit::ThrottleCell
    pub(crate) fn carry_throttle_state(&mut self, old: &RuleBase) {
        for (chain, c) in self.chains.iter_mut() {
            let old_rules = match old.chains.get(chain) {
                Some(r) => r,
                None => continue,
            };
            // Queue the old chain's live cells by rule text, in chain
            // order, so duplicates pair up first-come — the same
            // pairing the former linear re-scan produced, but O(n)
            // instead of O(new × old) (quadratic reloads were visible
            // at the 10k-rule scale RULESETC targets).
            let mut cells: HashMap<&str, std::collections::VecDeque<&Arc<_>>> = HashMap::new();
            for o in old_rules.iter().filter(|o| o.target.is_throttle()) {
                if let Some(cell) = o.throttle_cell() {
                    cells.entry(o.text.as_str()).or_default().push_back(cell);
                }
            }
            for rule in c.rules.iter_mut().filter(|r| r.target.is_throttle()) {
                if let Some(cell) = cells
                    .get_mut(rule.text.as_str())
                    .and_then(|q| q.pop_front())
                {
                    rule.adopt_throttle(Arc::clone(cell));
                }
            }
        }
    }

    /// Called by every mutator: recompile immediately, or — in the
    /// deferred mode a batch edit enters via [`Self::set_deferred`] —
    /// just remember that a recompile is owed.
    fn mark_changed(&mut self) {
        if self.deferred {
            self.dirty = true;
        } else {
            self.recompile();
        }
    }

    /// Enters batch-compile mode: subsequent mutations skip the
    /// per-mutation [`Self::recompile`] until [`Self::finish_deferred`].
    pub(crate) fn set_deferred(&mut self) {
        self.deferred = true;
    }

    /// Leaves batch-compile mode, recompiling once if any mutation
    /// happened while it was on. Returns `true` if a recompile ran (the
    /// caller times it for the reload-commit event).
    pub(crate) fn finish_deferred(&mut self) -> bool {
        let owed = self.dirty;
        self.deferred = false;
        self.dirty = false;
        if owed {
            self.recompile();
        }
        owed
    }

    /// Snapshot compile step, run on every rule-base mutation: rebuilds
    /// every chain's op column, the entrypoint partition of the input
    /// chain, the RULESETC dispatch tables, and the static cacheability
    /// summary.
    fn recompile(&mut self) {
        for c in self.chains.values_mut() {
            c.compile_ops();
        }
        self.input_generic.clear();
        self.input_by_ept.clear();
        self.statically_cacheable = self.compute_statically_cacheable();
        let Some(input) = self.chains.get(&ChainName::Input) else {
            self.input_dispatch = CompiledDispatch::default();
            return;
        };
        self.input_dispatch = CompiledDispatch::compile(input);
        for (i, rule) in input.iter().enumerate() {
            match rule.def.entrypoint() {
                Some(key) => self.input_by_ept.entry(key).or_default().push(i),
                None => self.input_generic.push(i),
            }
        }
    }

    /// Walks the jump graph from the built-in chains and reports whether
    /// every reachable rule is pure for the verdict cache.
    fn compute_statically_cacheable(&self) -> bool {
        let mut pending = vec![ChainName::Input, ChainName::SyscallBegin];
        let mut visited: Vec<ChainName> = Vec::new();
        while let Some(chain) = pending.pop() {
            if visited.contains(&chain) {
                continue;
            }
            for rule in self.chain(&chain).iter() {
                if !rule.vc_pure() {
                    return false;
                }
                if let Target::Jump(name) = &rule.target {
                    pending.push(name.clone());
                }
            }
            visited.push(chain);
        }
        true
    }

    /// Whether every rule reachable from the built-in chains is pure for
    /// the verdict cache (no STATE/signal/syscall-arg/owner/interpreter
    /// matchers, no STATE/LOG/TRACE targets). When `true`, every
    /// non-degraded traversal outcome is cache-eligible; when `false`,
    /// the engine's per-walk tracking still caches the traversals that
    /// avoid the impure rules.
    pub fn statically_cacheable(&self) -> bool {
        self.statically_cacheable
    }

    /// Indices of input-chain rules with no entrypoint (always scanned).
    pub fn input_generic(&self) -> &[usize] {
        &self.input_generic
    }

    /// Indices of input-chain rules bound to `ept`, if any.
    pub fn input_for_entrypoint(&self, ept: (ProgramId, u64)) -> Option<&[usize]> {
        self.input_by_ept.get(&ept).map(Vec::as_slice)
    }

    /// Number of distinct entrypoint-specific chains.
    pub fn entrypoint_chain_count(&self) -> usize {
        self.input_by_ept.len()
    }

    /// The compiled RULESETC dispatch tables for the input chain.
    pub fn input_dispatch(&self) -> &CompiledDispatch {
        &self.input_dispatch
    }

    /// Sets (or with `None`, clears) a chain's `--ctx-missing` default.
    pub fn set_ctx_default(&mut self, chain: ChainName, policy: Option<CtxPolicy>) {
        match policy {
            Some(p) => {
                self.ctx_defaults.insert(chain, p);
            }
            None => {
                self.ctx_defaults.remove(&chain);
            }
        }
    }

    /// The chain's `--ctx-missing` default, if one was configured.
    pub fn ctx_default(&self, chain: &ChainName) -> Option<CtxPolicy> {
        self.ctx_defaults.get(chain).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{DefaultMatches, Target};
    use pf_types::InternId;

    fn rule(text: &str, ept: Option<(u32, u64)>) -> Rule {
        Rule::new(
            DefaultMatches {
                program: ept.map(|(p, _)| InternId(p)),
                entrypoint_pc: ept.map(|(_, pc)| pc),
                ..Default::default()
            },
            vec![],
            Target::Drop,
            text.to_owned(),
        )
    }

    #[test]
    fn chain_name_parsing() {
        assert_eq!(ChainName::parse("input"), ChainName::Input);
        assert_eq!(ChainName::parse("INPUT"), ChainName::Input);
        assert_eq!(
            ChainName::parse("signal_chain"),
            ChainName::User("signal_chain".into())
        );
    }

    #[test]
    fn add_and_head_insert_ordering() {
        let mut rb = RuleBase::new();
        rb.add(ChainName::Input, rule("a", None), false);
        rb.add(ChainName::Input, rule("b", None), true);
        let texts: Vec<_> = rb
            .chain(&ChainName::Input)
            .iter()
            .map(|r| r.text.as_str())
            .collect();
        assert_eq!(texts, ["b", "a"]);
    }

    #[test]
    fn entrypoint_partition() {
        let mut rb = RuleBase::new();
        rb.add(ChainName::Input, rule("gen", None), false);
        rb.add(ChainName::Input, rule("e1", Some((1, 0x10))), false);
        rb.add(ChainName::Input, rule("e1b", Some((1, 0x10))), false);
        rb.add(ChainName::Input, rule("e2", Some((2, 0x20))), false);
        assert_eq!(rb.input_generic(), &[0]);
        assert_eq!(
            rb.input_for_entrypoint((InternId(1), 0x10)).unwrap(),
            &[1, 2]
        );
        assert_eq!(rb.entrypoint_chain_count(), 2);
        assert!(rb.input_for_entrypoint((InternId(9), 0x9)).is_none());
    }

    #[test]
    fn delete_by_text() {
        let mut rb = RuleBase::new();
        rb.add(ChainName::Input, rule("a", None), false);
        rb.add(ChainName::Input, rule("b", Some((1, 2))), false);
        rb.delete(&ChainName::Input, "b").unwrap();
        assert_eq!(rb.len(), 1);
        assert!(rb.input_for_entrypoint((InternId(1), 2)).is_none());
        assert!(rb.delete(&ChainName::Input, "zzz").is_err());
    }

    #[test]
    fn static_cacheability_follows_jump_reachability() {
        use crate::rule::MatchModule;
        use crate::value::ValueExpr;

        let mut rb = RuleBase::new();
        assert!(rb.statically_cacheable(), "empty base is trivially pure");
        rb.add(ChainName::Input, rule("pure", Some((1, 0x10))), false);
        assert!(rb.statically_cacheable());

        // An impure rule in an unreachable user chain does not count…
        let state_rule = Rule::new(
            DefaultMatches::default(),
            vec![MatchModule::State {
                key: 1,
                cmp: ValueExpr::Lit(1),
                negate: false,
            }],
            Target::Drop,
            "state".to_owned(),
        );
        rb.add(ChainName::User("island".into()), state_rule, false);
        assert!(rb.statically_cacheable());

        // …until a jump from input makes it reachable.
        let jump = Rule::new(
            DefaultMatches::default(),
            vec![],
            Target::Jump(ChainName::User("island".into())),
            "jump".to_owned(),
        );
        rb.add(ChainName::Input, jump, false);
        assert!(!rb.statically_cacheable());

        // Deleting the jump restores the summary.
        rb.delete(&ChainName::Input, "jump").unwrap();
        assert!(rb.statically_cacheable());
    }

    #[test]
    fn user_chains_are_separate() {
        let mut rb = RuleBase::new();
        rb.add(
            ChainName::User("signal_chain".into()),
            rule("s", None),
            false,
        );
        assert_eq!(rb.chain(&ChainName::Input).len(), 0);
        assert_eq!(rb.chain(&ChainName::User("signal_chain".into())).len(), 1);
    }

    /// Asserts every chain's op column matches its rules.
    fn assert_columns_fresh(rb: &RuleBase) {
        for (name, rules) in rb.iter() {
            let want: Vec<u8> = rules.iter().map(|r| op_byte(r.def.op)).collect();
            assert_eq!(rb.chain(name).ops(), want, "{name:?}");
        }
    }

    fn op_rule(text: &str, op: Option<LsmOperation>) -> Rule {
        let mut r = rule(text, None);
        r.def.op = op;
        r
    }

    #[test]
    fn op_column_tracks_every_rule_base_mutation() {
        use LsmOperation::{FileOpen, FileRead, FileWrite};
        let side = ChainName::User("side".into());
        let mut rb = RuleBase::new();
        rb.add(ChainName::Input, op_rule("a", Some(FileOpen)), false);
        rb.add(ChainName::Input, op_rule("b", None), false);
        rb.add(ChainName::Input, op_rule("c", Some(FileWrite)), true);
        assert_eq!(
            rb.chain(&ChainName::Input).ops(),
            [FileWrite as u8, FileOpen as u8, OP_ANY]
        );
        rb.delete(&ChainName::Input, "a").unwrap();
        assert_eq!(rb.chain(&ChainName::Input).ops(), [FileWrite as u8, OP_ANY]);
        rb.new_chain(side.clone()).unwrap();
        assert!(rb.chain(&side).ops().is_empty());
        rb.add(side.clone(), op_rule("s", Some(FileRead)), false);
        assert_eq!(rb.chain(&side).ops(), [FileRead as u8]);
        assert_columns_fresh(&rb);
        rb.flush(&side).unwrap();
        assert!(rb.chain(&side).ops().is_empty());
        rb.delete_chain(&side).unwrap();
        assert_columns_fresh(&rb);

        // A deferred batch owes the column until it finishes.
        rb.set_deferred();
        rb.add(side.clone(), op_rule("t", Some(FileOpen)), false);
        rb.add(ChainName::Input, op_rule("d", Some(FileRead)), true);
        assert!(rb.finish_deferred());
        assert_eq!(rb.chain(&side).ops(), [FileOpen as u8]);
        assert_eq!(
            rb.chain(&ChainName::Input).ops(),
            [FileRead as u8, FileWrite as u8, OP_ANY]
        );
        rb.clear();
        assert!(rb.chain(&ChainName::Input).ops().is_empty());
        assert_columns_fresh(&rb);
    }
}

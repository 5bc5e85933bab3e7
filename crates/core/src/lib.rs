#![warn(missing_docs)]

//! The Process Firewall — the paper's primary contribution.
//!
//! A network firewall mediates a host's access to network resources; the
//! Process Firewall mediates a *process's* access to system resources at
//! the system-call interface. It is invoked after ordinary access control
//! authorizes an operation (Figure 2 of the paper) and evaluates
//! `iptables`-style rules whose matches combine:
//!
//! * **process context** — the entrypoint (call-site program counter on
//!   the user stack, binary-relative), per-process STATE dictionary
//!   entries recording earlier system calls, and signal-handler state;
//! * **resource context** — the object's MAC label, resource identifier
//!   (device + inode, or signal number), DAC owner, symlink-target owner,
//!   and adversary accessibility computed from the MAC policy.
//!
//! Because the firewall *protects* processes rather than confining them,
//! it may trust process state: a malicious process that forges its stack
//! only forfeits its own protection (Section 3 of the paper).
//!
//! # Architecture
//!
//! * [`lang`] parses the `pftables` rule language (Table 3) into
//!   [`rule::Rule`]s;
//! * [`chain`] organizes rules into built-in, user, and automatic
//!   *entrypoint-specific* chains;
//! * [`engine`] is the Figure 3 processing loop: build the operation
//!   "packet", match rules, run targets, yield a [`pf_types::Verdict`];
//! * [`context`] implements lazy context retrieval with a bitmask of
//!   collected fields and per-syscall caching (Section 4.2);
//! * [`mod@env`] defines the [`env::EvalEnv`] trait the OS substrate
//!   implements to expose process and resource state;
//! * [`config`] holds the optimization toggles that form the columns of
//!   Table 6 (DISABLED / BASE / FULL / CONCACHE / LAZYCON / EPTSPC),
//!   plus the VCACHE and RULESETC extensions;
//! * [`vcache`] is the per-task verdict cache behind VCACHE: whole
//!   traversal outcomes memoized by key context, guarded by the static
//!   cacheability analysis in [`chain`]/[`rule`];
//! * [`compile`] is the RULESETC dispatch compiler: per-(op, label,
//!   entrypoint) bucket tables built at snapshot compile time, walked
//!   as an order-preserving k-way merge on the verdict-cache miss path;
//! * [`log`] is the LOG target's JSON record, consumed by `pf-rulegen`;
//! * [`metrics`] is the observability registry: one descriptor table
//!   per metric family (always-on counters, per-rule/per-operation/
//!   per-field detail, latency histograms) drives storage and the
//!   Prometheus/JSON exporters (see `docs/OBSERVABILITY.md`); it also
//!   holds the TRACE event ring — all thread-safe, with sharded
//!   latency histograms merged on export;
//! * [`events`] is the decision-event tracing plane: per-shard
//!   lock-free rings of compact [`events::DecisionEvent`]s (verdict,
//!   generation, vcache/throttle outcome, latency) sampled at a
//!   runtime-settable rate, drained in emission order by `pftop` and
//!   JSONL exports;
//! * [`snapshot`] holds the immutable [`snapshot::RulesetSnapshot`]
//!   and the [`snapshot::SharedRuleset`] swap cell that make rule
//!   loads atomic and evaluation lock-free (see `docs/CONCURRENCY.md`);
//! * [`session`] is the per-task [`session::TaskSession`]: the pinned
//!   snapshot plus reusable per-invocation scratch each simulated
//!   process owns.
//!
//! # Examples
//!
//! ```
//! use pf_core::{OptLevel, ProcessFirewall};
//! use pf_mac::ubuntu_mini;
//! use pf_types::Interner;
//!
//! let mut mac = ubuntu_mini();
//! let mut programs = Interner::new();
//! let mut pf = ProcessFirewall::new(OptLevel::EptSpc);
//! pf.install(
//!     "pftables -t filter -o LNK_FILE_READ -d tmp_t -j DROP",
//!     &mut mac,
//!     &mut programs,
//! )
//! .unwrap();
//! assert_eq!(pf.rule_count(), 1);
//! ```

pub mod chain;
pub mod compile;
pub mod config;
pub mod context;
pub mod engine;
pub mod env;
pub mod events;
pub mod fault;
pub mod lang;
pub mod log;
pub mod metrics;
pub mod ratelimit;
pub mod render;
pub mod rule;
pub mod session;
pub mod snapshot;
pub mod value;
pub mod vcache;

pub use chain::{ChainName, RuleBase};
pub use compile::{CompiledDispatch, MergeDispatch};
pub use config::{OptLevel, PfConfig};
pub use context::CtxField;
pub use engine::{EvalDecision, ProcessFirewall, ThrottleOccupancy};
pub use env::{CtxError, EvalEnv, Fetched, ObjectInfo, SignalInfo};
pub use events::{
    DecisionEvent, EventKind, EventPlane, EventVerdict, SamplingMode, ThrottleOutcome,
    VcacheOutcome,
};
pub use fault::{FaultConfig, FaultInjector, FaultStats, FaultyEnv};
pub use lang::render_rule;
pub use log::{LogDrain, LogEntry, LogSink, DEFAULT_LOG_CAPACITY};
pub use metrics::{ChainSnapshot, Histogram, MetricDesc, Metrics, ShardedHistogram, TraceEvent};
pub use ratelimit::{ExceedPolicy, PerKey, ThrottleCell, ThrottleSlotState};
pub use render::render_rules;
pub use rule::{CtxPolicy, MatchModule, Rule, Target};
pub use session::TaskSession;
pub use snapshot::{RulesetSnapshot, SharedRuleset};
pub use value::{state_key, ValueExpr};
pub use vcache::{VerdictCache, VerdictKey, VerdictKind};

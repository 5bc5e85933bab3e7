//! Fleet-scale soak: sharded kernels, one shared firewall, racing
//! reloads — and the bounded-log-sink invariants that make the fleet
//! observable without leaking.
//!
//! Three properties, each a regression guard for a bug the fleet
//! harness (`table7_fleet`) originally exposed:
//!
//! 1. **Exact log/event accounting under churn.** With N kernel shards
//!    hammering one firewall while a reloader hot-swaps the rule base
//!    and a collector drains concurrently, every record is accounted
//!    for at quiescence: `emitted == drained + dropped`, every drain's
//!    gap marker agrees with its `dropped_since_last`, and the sum of
//!    those deltas is exactly the global drop counter. Decisions are
//!    never torn: `/etc/shadow` is denied and `/etc/passwd` allowed
//!    under *every* snapshot both reload variants publish, and a raw
//!    session's observed generations never go backwards.
//! 2. **Memory bounded under flood.** A producer that outruns its
//!    collector loses the oldest records to overwrite — the buffered
//!    count never exceeds the configured capacity, no matter how many
//!    records are emitted (the old sink grew without bound).
//! 3. **Sharded chain-detail parity.** The per-rule counter maps are
//!    sharded per recording thread and merged on export; the merged
//!    view from a multi-threaded run is identical to the pinned
//!    (single-lock) view of the same traffic.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use process_firewall::firewall::{
    ChainSnapshot, EvalEnv, ObjectInfo, SamplingMode, SignalInfo, TaskSession,
};
use process_firewall::prelude::*;
use process_firewall::types::{
    DeviceId, Gid, InodeNum, Interner, Mode, ProgramId, ResourceId, SecId, Uid,
};

const SHARDS: usize = 4;
const TASKS_PER_SHARD: usize = 16;
const ROUNDS: usize = 60;
const LOG_CAP: usize = 256;
const MIN_RELOADS: u64 = 10;

/// The two rule bases the reloader alternates between. Both variants
/// carry the LOG rule (so emission never pauses) and the shadow DROP
/// (so the no-torn-decision probe is valid under every generation);
/// the variant adds one rule so each reload genuinely changes the base.
fn soak_rules(variant: bool) -> Vec<String> {
    let mut lines = vec![
        "pftables -o FILE_OPEN -j LOG --tag soak".to_owned(),
        "pftables -o FILE_OPEN -d shadow_t -j DROP".to_owned(),
    ];
    if variant {
        lines.push("pftables -o DIR_SEARCH -d shadow_t -j DROP".to_owned());
    }
    lines
}

/// N kernel shards sharing shard 0's firewall, each with its own
/// resident tasks. Every shard installs the same lines through its own
/// interners first (deterministic interning keeps all worlds aligned),
/// exactly as the `pf_bench::fleet` harness builds its worlds.
fn build_shards() -> (Vec<Kernel>, Arc<ProcessFirewall>, Vec<Vec<Pid>>) {
    let mut shards = Vec::with_capacity(SHARDS);
    let mut residents = Vec::with_capacity(SHARDS);
    for s in 0..SHARDS {
        let mut k = standard_world();
        let lines = soak_rules(false);
        k.install_rules(lines.iter().map(String::as_str)).unwrap();
        let pids: Vec<Pid> = (0..TASKS_PER_SHARD)
            .map(|t| {
                k.spawn(
                    "init_t",
                    &format!("/usr/bin/fleetd-{s}-{t}"),
                    Uid::ROOT,
                    Gid::ROOT,
                )
            })
            .collect();
        shards.push(k);
        residents.push(pids);
    }
    let shared = Arc::clone(&shards[0].firewall);
    for k in shards.iter_mut().skip(1) {
        k.set_firewall(Arc::clone(&shared));
    }
    (shards, shared, residents)
}

/// Minimal raw-session environment for the generation-monotonicity
/// probe (same shape as the concurrent_engine stress env).
struct ProbeEnv {
    mac: process_firewall::mac::MacPolicy,
    programs: Interner,
    subject: SecId,
    program: ProgramId,
    object: ObjectInfo,
}

impl ProbeEnv {
    fn new() -> Self {
        let mac = ubuntu_mini();
        let mut programs = Interner::new();
        let subject = mac.lookup_label("init_t").unwrap();
        let program = programs.intern("/usr/bin/probe");
        let object = ObjectInfo {
            sid: mac.lookup_label("etc_t").unwrap(),
            resource: ResourceId::File {
                dev: DeviceId(0),
                ino: InodeNum(7),
            },
            owner: Uid(0),
            group: Gid(0),
            mode: Mode::FILE_DEFAULT,
        };
        ProbeEnv {
            mac,
            programs,
            subject,
            program,
            object,
        }
    }
}

impl EvalEnv for ProbeEnv {
    fn subject_sid(&self) -> SecId {
        self.subject
    }
    fn program(&self) -> ProgramId {
        self.program
    }
    fn pid(&self) -> Pid {
        Pid(1)
    }
    fn unwind_entrypoint(&mut self) -> Option<(ProgramId, u64)> {
        Some((self.program, 0x100))
    }
    fn object(&self) -> Option<ObjectInfo> {
        Some(self.object)
    }
    fn link_target_owner(&mut self) -> Option<Uid> {
        None
    }
    fn syscall_arg(&self, _idx: usize) -> u64 {
        0
    }
    fn signal(&self) -> Option<SignalInfo> {
        None
    }
    fn mac(&self) -> &process_firewall::mac::MacPolicy {
        &self.mac
    }
    fn program_name(&self, id: ProgramId) -> String {
        self.programs.resolve(id).to_owned()
    }
    fn state_get(&self, _key: u64) -> Option<u64> {
        None
    }
    fn state_set(&mut self, _key: u64, _value: u64) {}
    fn state_unset(&mut self, _key: u64) {}
    fn cache_get(&self, _slot: u8) -> Option<u64> {
        None
    }
    fn cache_put(&mut self, _slot: u8, _value: u64) {}
    fn now(&self) -> u64 {
        0
    }
}

/// One shard's traffic round: every resident opens `/etc/passwd`
/// (always allowed — a torn snapshot that denied it would panic here)
/// and probes `/etc/shadow` (always a firewall denial — a torn
/// snapshot that lost the DROP rule would let root's DAC through).
fn drive_shard(k: &mut Kernel, pids: &[Pid]) {
    for &pid in pids {
        let fd = k
            .open(pid, "/etc/passwd", OpenFlags::rdonly())
            .expect("passwd open allowed under every generation");
        k.read(pid, fd).unwrap();
        k.close(pid, fd).unwrap();

        let err = k
            .open(pid, "/etc/shadow", OpenFlags::rdonly())
            .expect_err("shadow open denied under every generation");
        assert!(
            err.is_firewall_denial(),
            "shadow denial must come from the firewall, not DAC: {err:?}"
        );
    }
}

#[test]
fn fleet_soak_exact_accounting_under_racing_reloads() {
    let (mut shards, shared, residents) = build_shards();
    shared.set_log_capacity(LOG_CAP);
    shared.events().set_sampling(SamplingMode::OneIn(4));
    let gen0 = shared.generation();

    let stop = AtomicBool::new(false);
    let reloads = AtomicU64::new(0);
    let buffered_max = AtomicU64::new(0);
    let drained_records = AtomicU64::new(0);
    let dropped_deltas = AtomicU64::new(0);
    let events_seen = AtomicU64::new(0);
    // Workers + reloader + collector + probe + main.
    let start = Barrier::new(SHARDS + 4);

    std::thread::scope(|s| {
        // The reloader: alternate the two variants until the workers
        // finish, but at least MIN_RELOADS times. A private world
        // supplies aligned interners for the parse.
        {
            let shared = Arc::clone(&shared);
            let (stop, reloads, start) = (&stop, &reloads, &start);
            s.spawn(move || {
                let mut rk = standard_world();
                start.wait();
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) || n < MIN_RELOADS {
                    let lines = soak_rules(n.is_multiple_of(2));
                    shared
                        .reload(
                            lines.iter().map(String::as_str),
                            &mut rk.mac,
                            &mut rk.programs,
                        )
                        .expect("hot reload");
                    n += 1;
                    reloads.store(n, Ordering::Relaxed);
                    std::thread::yield_now();
                }
            });
        }

        // The collector: drain logs and events concurrently, keeping
        // the per-drain books (gap marker agrees with the delta; the
        // deltas sum to the global drop counter — checked at the end).
        {
            let shared = Arc::clone(&shared);
            let (stop, start) = (&stop, &start);
            let (buffered_max, drained_records) = (&buffered_max, &drained_records);
            let (dropped_deltas, events_seen) = (&dropped_deltas, &events_seen);
            s.spawn(move || {
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    buffered_max.fetch_max(shared.log_count() as u64, Ordering::Relaxed);
                    let d = shared.drain_logs();
                    assert_eq!(
                        d.gap,
                        d.dropped_since_last > 0,
                        "gap marker must agree with the drop delta"
                    );
                    drained_records.fetch_add(d.entries.len() as u64, Ordering::Relaxed);
                    dropped_deltas.fetch_add(d.dropped_since_last, Ordering::Relaxed);
                    events_seen.fetch_add(shared.events().drain().len() as u64, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            });
        }

        // The raw-session probe: generations observed by one task's
        // session never go backwards across the reload churn.
        {
            let shared = Arc::clone(&shared);
            let (stop, start) = (&stop, &start);
            s.spawn(move || {
                let mut env = ProbeEnv::new();
                let mut session = TaskSession::new();
                let mut last = 0u64;
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    let d = session.evaluate(&shared, &mut env, LsmOperation::FileOpen);
                    assert!(
                        d.generation >= last,
                        "session generation went backwards: {} after {}",
                        d.generation,
                        last
                    );
                    last = d.generation;
                    std::thread::yield_now();
                }
            });
        }

        // The fleet: one worker per shard.
        let workers: Vec<_> = shards
            .iter_mut()
            .zip(&residents)
            .map(|(k, pids)| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for _ in 0..ROUNDS {
                        drive_shard(k, pids);
                    }
                })
            })
            .collect();

        start.wait();
        for w in workers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    // Tail drain: whatever the collector had not picked up yet.
    let tail = shared.drain_logs();
    assert_eq!(tail.gap, tail.dropped_since_last > 0);
    drained_records.fetch_add(tail.entries.len() as u64, Ordering::Relaxed);
    dropped_deltas.fetch_add(tail.dropped_since_last, Ordering::Relaxed);
    events_seen.fetch_add(shared.events().drain().len() as u64, Ordering::Relaxed);

    let sink = shared.log_sink();
    let opens = (SHARDS * TASKS_PER_SHARD * ROUNDS * 2) as u64; // passwd + shadow
    assert!(
        sink.emitted() >= opens,
        "every open traverses the LOG rule: {} emitted < {} opens",
        sink.emitted(),
        opens
    );
    assert_eq!(
        sink.emitted(),
        sink.drained() + sink.dropped(),
        "exact log accounting at quiescence"
    );
    assert_eq!(
        drained_records.load(Ordering::Relaxed),
        sink.drained(),
        "collector saw every drained record"
    );
    assert_eq!(
        dropped_deltas.load(Ordering::Relaxed),
        sink.dropped(),
        "per-drain drop deltas sum to the global drop counter"
    );
    assert_eq!(shared.log_count(), 0, "tail drain emptied the sink");
    assert!(
        buffered_max.load(Ordering::Relaxed) <= LOG_CAP as u64,
        "buffered records never exceed the configured capacity"
    );

    let plane = shared.events();
    assert_eq!(
        plane.emitted(),
        plane.drained() + plane.dropped(),
        "exact event accounting at quiescence"
    );
    assert_eq!(events_seen.load(Ordering::Relaxed), plane.drained());

    let n = reloads.load(Ordering::Relaxed);
    assert!(n >= MIN_RELOADS, "only {n} reloads raced the fleet");
    assert_eq!(
        shared.generation() - gen0,
        n,
        "each reload publishes exactly one generation"
    );
    assert_eq!(
        shared.metrics().check(),
        Vec::<String>::new(),
        "counter invariants"
    );
}

/// The regression the bounded sink exists for: a producer that is never
/// drained must plateau at the configured capacity — overwriting the
/// oldest records and counting every loss — not grow without bound.
#[test]
fn log_sink_memory_bounded_under_sustained_flood() {
    const CAP: usize = 512;
    const OPENS: usize = 6_000;

    let mut k = standard_world();
    k.install_rules(["pftables -o FILE_OPEN -j LOG --tag flood"])
        .unwrap();
    k.firewall.set_log_capacity(CAP);
    let pid = k.spawn("init_t", "/sbin/init", Uid::ROOT, Gid::ROOT);

    for i in 0..OPENS {
        let fd = k.open(pid, "/etc/passwd", OpenFlags::rdonly()).unwrap();
        k.close(pid, fd).unwrap();
        if i % 250 == 0 {
            assert!(
                k.firewall.log_count() <= CAP,
                "sink grew past capacity mid-flood: {} > {CAP}",
                k.firewall.log_count()
            );
        }
    }

    let sink = k.firewall.log_sink();
    let emitted = sink.emitted();
    assert!(emitted >= OPENS as u64);
    assert_eq!(k.firewall.log_count(), CAP, "flooded sink sits at capacity");
    assert_eq!(
        sink.dropped(),
        emitted - CAP as u64,
        "overwrite-oldest: everything not buffered was counted as dropped"
    );

    let d = k.firewall.drain_logs();
    assert_eq!(d.entries.len(), CAP);
    assert!(d.gap, "a lapped ring must hand the collector a gap marker");
    assert_eq!(d.dropped_since_last, emitted - CAP as u64);
    assert_eq!(sink.emitted(), sink.drained() + sink.dropped());
    assert_eq!(k.firewall.log_count(), 0);

    // Quiet after the drain: the next drain reports no gap.
    let d2 = k.firewall.drain_logs();
    assert!(d2.entries.is_empty());
    assert!(!d2.gap);
}

/// Identical traffic recorded through pinned (single-lock) and sharded
/// per-rule counter maps must export identically: same chains, same
/// per-rule tallies, stable order.
#[test]
fn sharded_chain_detail_export_matches_pinned() {
    fn run(pinned: bool) -> Vec<(String, ChainSnapshot)> {
        let (mut shards, shared, residents) = build_shards();
        shared.metrics().set_detailed(true);
        shared.metrics().set_chain_shards_pinned(pinned);

        let start = Barrier::new(SHARDS);
        std::thread::scope(|s| {
            for (k, pids) in shards.iter_mut().zip(&residents) {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for _ in 0..20 {
                        drive_shard(k, pids);
                    }
                });
            }
        });

        let m = shared.metrics();
        m.chains_seen()
            .into_iter()
            .map(|c| {
                let snap = m.chain_snapshot(&c).expect("seen chain has a snapshot");
                (c.name(), snap)
            })
            .collect()
    }

    let sharded = run(false);
    let pinned = run(true);
    assert!(!sharded.is_empty(), "the traffic recorded per-rule detail");
    assert_eq!(
        sharded, pinned,
        "merged sharded export must equal the single-lock export"
    );
}

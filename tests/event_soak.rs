//! Contention soak for the decision-event tracing plane.
//!
//! Eight worker threads (distinct pids) evaluate through one shared
//! [`ProcessFirewall`] at `always` sampling while a reloader thread
//! hot-swaps the ruleset and a dedicated drainer consumes the per-shard
//! event rings live. The assertions are the plane's whole contract:
//!
//! 1. **Exact accounting.** At quiescence
//!    `emitted == drained + dropped`, and `emitted` equals exactly one
//!    decision event per invocation plus two control events per reload
//!    (begin + commit) — nothing lost, nothing double-counted.
//! 2. **No torn events.** Every drained record is internally
//!    consistent: the pid belongs to a worker, the verdict matches what
//!    that operation must produce under the installed rules, and
//!    control events carry the expected rule-diff/rule-count payloads.
//! 3. **Snapshot ordering.** Per worker (events sorted by their claim
//!    sequence), the recorded snapshot generation never decreases: a
//!    task may lag the newest ruleset but never travels back in time.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use process_firewall::firewall::{
    EvalEnv, EventKind, EventVerdict, ObjectInfo, OptLevel, ProcessFirewall, SamplingMode,
    SignalInfo, TaskSession,
};
use process_firewall::mac::{ubuntu_mini, MacPolicy};
use process_firewall::types::{
    DeviceId, Gid, InodeNum, Interner, LsmOperation, Mode, Pid, ProgramId, ResourceId, SecId, Uid,
};

const WORKERS: usize = 8;
const INVOCATIONS_PER_WORKER: usize = 5_000;
const MIN_RELOADS: u64 = 20;
const BASE_PID: u32 = 100;

/// The base ruleset: FILE_OPEN on the bench inode denies, FILE_READ
/// accepts, anything else falls through to the default allow.
const BASE: [&str; 2] = [
    "pftables -o FILE_OPEN -r 0x5 -j DROP",
    "pftables -o FILE_READ -j ACCEPT",
];
/// The extended ruleset the reloader alternates to: one extra rule no
/// worker operation can match, so verdicts are identical either way.
const EXTRA: &str = "pftables -o FILE_WRITE -d shadow_t -j DROP";

/// The operations each worker cycles through, with the verdict each one
/// must produce under both rulesets.
const OPS: [(LsmOperation, EventVerdict); 3] = [
    (LsmOperation::FileOpen, EventVerdict::Deny),
    (LsmOperation::FileRead, EventVerdict::Allow),
    (LsmOperation::FileGetattr, EventVerdict::DefaultAllow),
];

struct Env {
    mac: MacPolicy,
    programs: Interner,
    subject: SecId,
    program: ProgramId,
    object: ObjectInfo,
    pid: Pid,
}

impl Env {
    fn new(pid: Pid) -> Self {
        let mac = ubuntu_mini();
        let mut programs = Interner::new();
        let subject = mac.lookup_label("httpd_t").unwrap();
        let program = programs.intern("/usr/bin/apache2");
        let sid = mac.lookup_label("etc_t").unwrap();
        Env {
            mac,
            programs,
            subject,
            program,
            object: ObjectInfo {
                sid,
                resource: ResourceId::File {
                    dev: DeviceId(0),
                    ino: InodeNum(5),
                },
                owner: Uid(0),
                group: Gid(0),
                mode: Mode::FILE_DEFAULT,
            },
            pid,
        }
    }
}

impl EvalEnv for Env {
    fn subject_sid(&self) -> SecId {
        self.subject
    }
    fn program(&self) -> ProgramId {
        self.program
    }
    fn pid(&self) -> Pid {
        self.pid
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
    fn mac(&self) -> &MacPolicy {
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

#[test]
fn event_plane_exact_accounting_under_8_thread_soak() {
    let fw = Arc::new(ProcessFirewall::new(OptLevel::EptSpc));
    {
        let mut env = Env::new(Pid(1));
        fw.install_all(BASE, &mut env.mac, &mut env.programs)
            .unwrap();
    }
    // Armed after the install, so the batch above is not recorded and
    // the control-event ledger starts at zero.
    fw.set_sampling(SamplingMode::Always);

    let start = Barrier::new(WORKERS + 2); // workers + reloader + main
    let workers_done = AtomicBool::new(false);
    let all_done = AtomicBool::new(false);

    let (events, reloads) = std::thread::scope(|s| {
        let reloader = {
            let fw = Arc::clone(&fw);
            let (workers_done, start) = (&workers_done, &start);
            s.spawn(move || {
                let mut env = Env::new(Pid(2));
                let mut extended: Vec<&str> = BASE.to_vec();
                extended.push(EXTRA);
                start.wait();
                let mut n = 0u64;
                while !workers_done.load(Ordering::Relaxed) || n < MIN_RELOADS {
                    let lines: &[&str] = if n.is_multiple_of(2) {
                        &extended
                    } else {
                        &BASE
                    };
                    fw.reload(lines.iter().copied(), &mut env.mac, &mut env.programs)
                        .expect("hot reload");
                    n += 1;
                    std::thread::yield_now();
                }
                n
            })
        };

        let drainer = {
            let fw = Arc::clone(&fw);
            let all_done = &all_done;
            s.spawn(move || {
                let mut all = Vec::new();
                while !all_done.load(Ordering::Relaxed) {
                    all.extend(fw.events().drain());
                    std::thread::yield_now();
                }
                all.extend(fw.events().drain());
                all
            })
        };

        let workers: Vec<_> = (0..WORKERS)
            .map(|i| {
                let fw = Arc::clone(&fw);
                let start = &start;
                s.spawn(move || {
                    let mut env = Env::new(Pid(BASE_PID + i as u32));
                    let mut session = TaskSession::new();
                    start.wait();
                    for j in 0..INVOCATIONS_PER_WORKER {
                        let (op, _) = OPS[j % OPS.len()];
                        session.evaluate(&fw, &mut env, op);
                    }
                })
            })
            .collect();

        start.wait();
        for w in workers {
            w.join().unwrap();
        }
        workers_done.store(true, Ordering::Relaxed);
        let reloads = reloader.join().unwrap();
        all_done.store(true, Ordering::Relaxed);
        (drainer.join().unwrap(), reloads)
    });

    // 1. Exact accounting at quiescence.
    let (emitted, drained, dropped) = (
        fw.events().emitted(),
        fw.events().drained(),
        fw.events().dropped(),
    );
    let decisions_expected = (WORKERS * INVOCATIONS_PER_WORKER) as u64;
    assert!(reloads >= MIN_RELOADS);
    assert_eq!(
        emitted,
        decisions_expected + 2 * reloads,
        "one decision event per invocation plus begin+commit per reload"
    );
    assert_eq!(
        emitted,
        drained + dropped,
        "accounting must balance exactly at quiescence"
    );
    assert_eq!(events.len() as u64, drained);

    // 2. No torn events. Claim sequences are unique; every field
    // combination is one a real invocation could have produced.
    let final_generation = fw.generation();
    let verdict_of: HashMap<&'static str, EventVerdict> =
        OPS.iter().map(|&(op, v)| (op.name(), v)).collect();
    let mut seqs = HashSet::with_capacity(events.len());
    let mut decisions = 0u64;
    let mut begins = 0u64;
    let mut commits = 0u64;
    let mut by_pid: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for ev in &events {
        assert!(seqs.insert(ev.seq), "duplicate claim sequence {}", ev.seq);
        assert!(ev.generation <= final_generation);
        match ev.kind {
            EventKind::Decision => {
                decisions += 1;
                let worker = ev.pid.checked_sub(BASE_PID);
                assert!(
                    worker.is_some_and(|w| (w as usize) < WORKERS),
                    "decision event carries a non-worker pid {}",
                    ev.pid
                );
                let expected = verdict_of
                    .get(ev.op.name())
                    .unwrap_or_else(|| panic!("unexpected op {}", ev.op.name()));
                assert_eq!(
                    ev.verdict,
                    *expected,
                    "op {} must always produce {:?}",
                    ev.op.name(),
                    expected
                );
                by_pid
                    .entry(ev.pid)
                    .or_default()
                    .push((ev.seq, ev.generation));
            }
            EventKind::ReloadBegin => {
                begins += 1;
                assert_eq!(ev.verdict, EventVerdict::None);
                assert!(
                    ev.aux2 == 2 || ev.aux2 == 3,
                    "reload begins from a 2- or 3-rule snapshot, saw {}",
                    ev.aux2
                );
            }
            EventKind::ReloadCommit => {
                commits += 1;
                assert!(
                    ev.aux <= 1,
                    "alternating reloads differ by at most one rule, saw diff {}",
                    ev.aux
                );
                assert!(ev.aux2 == 2 || ev.aux2 == 3);
            }
            EventKind::ReloadAbort => panic!("no reload in this soak may abort"),
        }
    }
    assert_eq!(decisions + begins + commits, drained);
    assert!(
        begins >= 1 && commits >= 1,
        "the drainer must observe reload self-observability events"
    );

    // 3. Per-task generation monotonicity in claim order. Ring
    // overwrites may thin each worker's sequence, but a subsequence of
    // a non-decreasing series is still non-decreasing.
    for (pid, mut row) in by_pid {
        row.sort_unstable();
        let mut last = 0u64;
        for (seq, generation) in row {
            assert!(
                generation >= last,
                "pid {pid}: generation went backwards at seq {seq} ({generation} < {last})"
            );
            last = generation;
        }
    }
    assert_eq!(
        fw.metrics().check(),
        Vec::<String>::new(),
        "counter invariants"
    );
}

/// Single-threaded control-event semantics: a successful batch emits
/// begin+commit with the rule diff; a failed batch emits begin+abort
/// and publishes nothing.
#[test]
fn reload_control_events_record_commit_and_abort() {
    let fw = ProcessFirewall::new(OptLevel::EptSpc);
    let mut env = Env::new(Pid(1));
    fw.install_all(BASE, &mut env.mac, &mut env.programs)
        .unwrap();
    fw.set_sampling(SamplingMode::Always);

    let mut extended: Vec<&str> = BASE.to_vec();
    extended.push(EXTRA);
    fw.reload(extended.iter().copied(), &mut env.mac, &mut env.programs)
        .unwrap();
    // Parses fine but fails in apply (built-in chains cannot be
    // deleted), so the batch reaches its begin event and then aborts.
    let err = fw.reload(["pftables -X input"], &mut env.mac, &mut env.programs);
    assert!(err.is_err(), "deleting a built-in chain must fail");

    let events = fw.events().drain();
    let kinds: Vec<EventKind> = events.iter().map(|e| e.kind).collect();
    assert_eq!(
        kinds,
        vec![
            EventKind::ReloadBegin,
            EventKind::ReloadCommit,
            EventKind::ReloadBegin,
            EventKind::ReloadAbort,
        ]
    );
    let commit = &events[1];
    assert_eq!(commit.aux, 1, "one rule added");
    assert_eq!(commit.aux2, 3, "three rules after the commit");
    assert_eq!(commit.generation, fw.generation());
    let abort = &events[3];
    assert_eq!(
        abort.generation,
        fw.generation(),
        "an abort leaves the pre-reload generation live"
    );
    assert_eq!(abort.aux2, 3, "the surviving snapshot still has 3 rules");
    assert_eq!(fw.rule_count(), 3);
}

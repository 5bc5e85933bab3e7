//! Eight-thread origin-churn soak with racing reloads.
//!
//! Eight evaluator threads share one VCACHE-level firewall and one
//! thread-safe `MacPolicy` while a ninth thread hammers hot reloads.
//! Each evaluator mutates its subject's origin mid-soak (external, then
//! tainted — the latter also widening the shared adversary model via
//! `taint_subject`), so verdict-cache entries keep going stale under
//! every combination of taint transition and reload churn.
//!
//! Two properties are asserted exactly:
//!
//! * **zero stale verdicts** — every decision matches the verdict the
//!   subject's *current* origin demands, computed thread-locally; a
//!   replay of a pre-taint Allow would trip the assertion immediately;
//! * **exact invalidation accounting** — each thread predicts, from
//!   observables only (`vcache_len` before the call, the decision's
//!   ruleset and adversary generations), precisely when the engine must
//!   count an origin-driven cache invalidation. The per-thread
//!   predictions summed must equal `origin_vcache_invalidations()` to
//!   the unit — no double counts, no missed flushes, no counts for
//!   reload-cleared (already empty) caches.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use process_firewall::firewall::{EvalEnv, ObjectInfo, OptLevel, ProcessFirewall, TaskSession};
use process_firewall::mac::{ubuntu_mini, MacPolicy, TAINT_THRESHOLD};
use process_firewall::types::{
    DeviceId, Gid, InodeNum, Interner, LsmOperation, Mode, Pid, ProgramId, ResourceId, SecId, Uid,
    Verdict,
};

const WORKERS: usize = 8;
const ITERS: usize = 600;
const RELOADS: usize = 40;

/// System-high subjects of `ubuntu_mini`, one per worker (workers past
/// the sixth share a label, so some taints race on the same subject).
const SYSHIGH: [&str; 6] = [
    "kernel_t",
    "init_t",
    "sshd_t",
    "httpd_t",
    "system_dbusd_t",
    "staff_t",
];

fn rules() -> [&'static str; 2] {
    [
        "pftables -o FILE_OPEN -d etc_t --origin tainted -j DROP",
        "pftables -o FILE_OPEN -d tmp_t -j DROP",
    ]
}

/// An evaluator environment sharing the sweep's `MacPolicy`; the
/// subject's origin is plain thread-local data the test mutates.
struct SoakEnv {
    mac: Arc<MacPolicy>,
    programs: Interner,
    subject: SecId,
    program: ProgramId,
    origin: u64,
    object: ObjectInfo,
}

impl SoakEnv {
    fn new(mac: Arc<MacPolicy>, programs: Interner, subject: &str) -> Self {
        let mut programs = programs;
        let subject = mac.lookup_label(subject).unwrap();
        let program = programs.intern("/usr/sbin/daemon");
        let sid = mac.lookup_label("etc_t").unwrap();
        SoakEnv {
            mac,
            programs,
            subject,
            program,
            origin: 0,
            object: ObjectInfo {
                sid,
                resource: ResourceId::File {
                    dev: DeviceId(0),
                    ino: InodeNum(77),
                },
                owner: Uid(0),
                group: Gid(0),
                mode: Mode::FILE_DEFAULT,
            },
        }
    }
}

impl EvalEnv for SoakEnv {
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
    fn signal(&self) -> Option<process_firewall::firewall::SignalInfo> {
        None
    }
    fn subject_origin(&self) -> Option<u64> {
        Some(self.origin)
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
fn eight_thread_origin_churn_with_racing_reloads() {
    // The shared policy the evaluators read (and taint); the firewall's
    // rules are parsed against a private twin — `ubuntu_mini` label ids
    // are deterministic, so SecIds line up across instances.
    let shared_mac = Arc::new(ubuntu_mini());
    let mut parse_mac = ubuntu_mini();
    let mut programs = Interner::new();
    let pf = Arc::new(ProcessFirewall::new(OptLevel::Vcache));
    pf.install_all(rules(), &mut parse_mac, &mut programs)
        .unwrap();

    let barrier = Arc::new(Barrier::new(WORKERS + 1));
    let stop = Arc::new(AtomicBool::new(false));
    let widenings = Arc::new(AtomicU64::new(0));

    // The reloader: replaces the (identical) rule base over and over,
    // forcing evaluator sessions to re-pin with cleared caches at
    // unpredictable points.
    let reloader = {
        let pf = Arc::clone(&pf);
        let barrier = Arc::clone(&barrier);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut mac = ubuntu_mini();
            let mut programs = Interner::new();
            barrier.wait();
            for _ in 0..RELOADS {
                pf.reload(rules(), &mut mac, &mut programs).unwrap();
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::yield_now();
            }
        })
    };

    let handles: Vec<_> = (0..WORKERS)
        .map(|w| {
            let pf = Arc::clone(&pf);
            let mac = Arc::clone(&shared_mac);
            let barrier = Arc::clone(&barrier);
            let widenings = Arc::clone(&widenings);
            let programs = programs.clone();
            std::thread::spawn(move || -> u64 {
                let mut env = SoakEnv::new(mac, programs, SYSHIGH[w % SYSHIGH.len()]);
                let mut session = TaskSession::new();
                let mut predicted_invalidations = 0u64;
                let mut prev_adv_gen: Option<u64> = None;
                barrier.wait();
                for i in 0..ITERS {
                    // The churn schedule: one below-threshold raise, one
                    // threshold crossing, staggered per worker so taints
                    // land while other workers' caches are warm.
                    if i == 150 + 7 * w {
                        env.origin = 1;
                    }
                    if i == 350 + 7 * w {
                        env.origin = TAINT_THRESHOLD;
                        if env.mac.taint_subject(env.subject) {
                            widenings.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let len_before = session.vcache_len();
                    let gen_before = session.generation();
                    let d = session.evaluate(&pf, &mut env, LsmOperation::FileOpen);

                    // Zero stale verdicts: the decision must reflect the
                    // subject's current origin, cached or not.
                    let want_deny = env.origin >= TAINT_THRESHOLD;
                    assert_eq!(
                        d.verdict == Verdict::Deny,
                        want_deny,
                        "stale verdict: worker {w} iteration {i} origin {}",
                        env.origin
                    );

                    // Exact accounting: the engine counts an origin
                    // invalidation iff the cache held entries, the call
                    // did not re-pin (a re-pin clears the cache first),
                    // and the adversary generation moved since the stamp
                    // (= the previous decision's generation).
                    let repinned = gen_before != Some(d.generation);
                    if len_before > 0
                        && !repinned
                        && prev_adv_gen.is_some_and(|g| g != d.adv_generation)
                    {
                        predicted_invalidations += 1;
                    }
                    prev_adv_gen = Some(d.adv_generation);
                }
                predicted_invalidations
            })
        })
        .collect();

    let predicted: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    stop.store(true, Ordering::Relaxed);
    reloader.join().unwrap();

    // Every system-high label was widened exactly once, no matter how
    // many workers raced on it.
    assert_eq!(
        widenings.load(Ordering::Relaxed),
        SYSHIGH.len() as u64,
        "taint_subject must report each label's first taint exactly once"
    );
    assert!(shared_mac.adversary_generation() >= SYSHIGH.len() as u64);

    let m = pf.metrics();
    assert_eq!(
        m.origin_vcache_invalidations(),
        predicted,
        "origin-driven cache invalidations must match the per-thread \
         predictions to the unit"
    );
    assert!(
        m.origin_vcache_invalidations() > 0,
        "the soak never actually flushed a warm cache"
    );
    assert!(m.vcache_hits() > 0, "the soak never served cached verdicts");
    assert_eq!(
        m.drops() + m.accepts() + m.default_allows(),
        m.invocations(),
        "counter conservation broke under origin churn"
    );
    assert_eq!(m.check(), Vec::<String>::new(), "counter invariants");
}

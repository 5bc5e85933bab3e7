//! Allocation gate for the LOG/TRACE record path.
//!
//! LOG records and TRACE hops are fixed-size records of numeric ids,
//! written into preallocated rings; names are resolved only when a
//! collector drains them. So after warm-up (the session's LOG scratch
//! has grown, each ring has allocated its slots on its first record):
//!
//! * an allowing invocation that writes a LOG record allocates nothing;
//! * a TRACE-armed walk allocates nothing;
//! * a walked DROP and a VCACHE-replayed DROP allocate exactly one block
//!   per deny — the chain name in `EvalDecision::dropped_by`, which
//!   stays a `String` because callers match on it — and their DROP LOG
//!   record adds none.
//!
//! Every case runs `CALLS` `TaskSession::evaluate` calls under the
//! counting allocator, all in one test so no other test thread
//! allocates concurrently.

use pf_core::{EvalEnv, ObjectInfo, OptLevel, ProcessFirewall, SignalInfo, TaskSession};
use pf_mac::{ubuntu_mini, MacPolicy};
use pf_types::{
    DeviceId, Gid, InodeNum, Interner, LsmOperation, Mode, Pid, ProgramId, ResourceId, SecId, Uid,
    Verdict,
};

#[global_allocator]
static GLOBAL: pf_bench::CountingAlloc = pf_bench::CountingAlloc;

const WARMUP: usize = 64;
const CALLS: u64 = 2_000;

/// An allocation-free environment: fixed context, array-backed
/// per-syscall cache.
struct Env {
    mac: MacPolicy,
    programs: Interner,
    subject: SecId,
    program: ProgramId,
    object: ObjectInfo,
    cache: [Option<u64>; 256],
    now: u64,
}

impl Env {
    fn new() -> Self {
        let mac = ubuntu_mini();
        let mut programs = Interner::new();
        let subject = mac.lookup_label("httpd_t").unwrap();
        let program = programs.intern("/usr/bin/apache2");
        let sid = mac.lookup_label("tmp_t").unwrap();
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
                owner: Uid(1000),
                group: Gid(1000),
                mode: Mode::FILE_DEFAULT,
            },
            cache: [None; 256],
            now: 0,
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
    fn cache_get(&self, slot: u8) -> Option<u64> {
        self.cache[usize::from(slot)]
    }
    fn cache_put(&mut self, slot: u8, value: u64) {
        self.cache[usize::from(slot)] = Some(value);
    }
    fn now(&self) -> u64 {
        self.now
    }
}

/// Runs `op` `WARMUP` times, then `CALLS` times under the counter;
/// returns the allocations per call and checks the verdict and that
/// every call wrote `logs_per_call` LOG records and `hops_per_call`
/// TRACE hops.
fn allocs_per_call(
    level: OptLevel,
    rules: &[&str],
    op: LsmOperation,
    want: Verdict,
    logs_per_call: u64,
    hops_per_call: u64,
) -> f64 {
    let fw = ProcessFirewall::new(level);
    let mut env = Env::new();
    fw.install_all(rules.iter().copied(), &mut env.mac, &mut env.programs)
        .unwrap();
    let mut session = TaskSession::new();
    for _ in 0..WARMUP {
        assert_eq!(session.evaluate(&fw, &mut env, op).verdict, want);
    }
    let (logs0, hops0) = (fw.log_sink().emitted(), fw.trace_ring().emitted());
    let before = pf_bench::allocations();
    for i in 0..CALLS {
        env.now = i;
        let d = session.evaluate(&fw, &mut env, op);
        assert!(d.verdict == want);
    }
    let allocs = pf_bench::allocations() - before;
    assert_eq!(fw.log_sink().emitted() - logs0, CALLS * logs_per_call);
    assert_eq!(fw.trace_ring().emitted() - hops0, CALLS * hops_per_call);
    // The rings held the newest records throughout; a drain still
    // resolves them.
    let logs = fw.take_logs(&env.mac, &env.programs);
    assert!(logs.iter().all(|l| l.program == "/usr/bin/apache2"));
    assert!(fw.check().is_empty(), "{:?}", fw.check());
    allocs as f64 / CALLS as f64
}

#[test]
fn record_path_allocations() {
    let log_hit = allocs_per_call(
        OptLevel::EptSpc,
        &["pftables -o FILE_OPEN -d tmp_t -j LOG --tag audit"],
        LsmOperation::FileOpen,
        Verdict::Allow,
        1,
        0,
    );
    assert_eq!(log_hit, 0.0, "an allowing LOG hit allocates nothing");

    let traced = allocs_per_call(
        OptLevel::EptSpc,
        &[
            "pftables -o FILE_GETATTR -j TRACE",
            "pftables -o FILE_GETATTR -d tmp_t -j CONTINUE",
            "pftables -o FILE_GETATTR -d tmp_t -j ACCEPT",
        ],
        LsmOperation::FileGetattr,
        Verdict::Allow,
        0,
        3,
    );
    assert_eq!(traced, 0.0, "a TRACE-armed walk allocates nothing");

    let walked_drop = allocs_per_call(
        OptLevel::EptSpc,
        &["pftables -o FILE_READ -d tmp_t -j DROP"],
        LsmOperation::FileRead,
        Verdict::Deny,
        1,
        0,
    );
    assert_eq!(
        walked_drop, 1.0,
        "a walked DROP allocates its `dropped_by` chain name only"
    );

    let replayed_drop = allocs_per_call(
        OptLevel::Vcache,
        &["pftables -o FILE_READ -d tmp_t -j DROP"],
        LsmOperation::FileRead,
        Verdict::Deny,
        1,
        0,
    );
    assert_eq!(
        replayed_drop, 1.0,
        "a VCACHE-replayed DROP allocates its `dropped_by` chain name only"
    );
}

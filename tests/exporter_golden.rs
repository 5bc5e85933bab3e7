//! Golden snapshot of both firewall-level exporters.
//!
//! One deterministic scenario drives every metric family non-zero: the
//! always-on scalars, the per-op / per-field / per-rule detail families,
//! both latency histograms, the event plane, the LOG sink, and live
//! throttle occupancy. Its `render_prometheus()` and `to_json()` output
//! is compared against files under `tests/golden/`, with the
//! wall-clock-dependent histogram values masked. Prometheus output must
//! match byte for byte; the JSON document must match once the per-op
//! family objects (which the golden file predates) are stripped.

use std::collections::HashMap;

use process_firewall::firewall::{
    EvalEnv, FaultConfig, FaultInjector, FaultyEnv, ObjectInfo, OptLevel, ProcessFirewall,
    SamplingMode, SignalInfo, TaskSession,
};
use process_firewall::mac::{ubuntu_mini, MacPolicy, ORIGIN_TRUSTED};
use process_firewall::types::{
    DeviceId, Gid, InodeNum, Interner, LsmOperation, Mode, Pid, ProgramId, ResourceId, SecId, Uid,
};

/// A user chain name carrying every character the exporters escape.
const EVIL: &str = "ev\"il\\cha\nin";

const GOLDEN_PROM: &str = include_str!("golden/exporter.prom");
const GOLDEN_JSON: &str = include_str!("golden/exporter.json");

/// JSON keys of the per-op families the JSON exporter carries next to
/// `ops`; absent from the golden file, so stripped before comparing.
const PER_OP_JSON_KEYS: [&str; 5] = [
    "vcache_op_hits",
    "vcache_op_misses",
    "vcache_op_uncacheable",
    "ratelimit_op_throttled",
    "quota_op_exceeded",
];

struct Env {
    mac: MacPolicy,
    programs: Interner,
    subject: SecId,
    program: ProgramId,
    object: Option<ObjectInfo>,
    cache: HashMap<u8, u64>,
    origin: u64,
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
            object: Some(ObjectInfo {
                sid,
                resource: ResourceId::File {
                    dev: DeviceId(0),
                    ino: InodeNum(5),
                },
                owner: Uid(1000),
                group: Gid(1000),
                mode: Mode::FILE_DEFAULT,
            }),
            cache: HashMap::new(),
            origin: ORIGIN_TRUSTED,
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
        self.object
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
        self.cache.get(&slot).copied()
    }
    fn cache_put(&mut self, slot: u8, value: u64) {
        self.cache.insert(slot, value);
    }
    fn now(&self) -> u64 {
        0
    }
    fn subject_origin(&self) -> Option<u64> {
        Some(self.origin)
    }
}

/// Drives one RULESETC firewall through every metric family and
/// returns it with its counters, rings, and buckets populated.
fn scenario() -> ProcessFirewall {
    let fw = ProcessFirewall::new(OptLevel::RulesetC);
    let mut env = Env::new();
    fw.metrics().set_detailed(true);
    fw.set_sampling(SamplingMode::Always);
    fw.set_log_capacity(64);
    let mut session = TaskSession::new();

    // Phase 1: a cacheable base — VCACHE misses and hits, RULESETC
    // dispatch, a taint widening that invalidates the warm cache, and
    // a failed unwind that forces the RULESETC fallback.
    fw.install_all(
        [
            "pftables -p /usr/bin/apache2 -i 0x100 -o FILE_READ -j DROP",
            "pftables -o FILE_OPEN -d tmp_t -j DROP",
            "pftables -o FILE_GETATTR -d tmp_t -j ACCEPT",
        ],
        &mut env.mac,
        &mut env.programs,
    )
    .unwrap();
    for op in [
        LsmOperation::FileOpen,
        LsmOperation::FileOpen,
        LsmOperation::FileGetattr,
        LsmOperation::FileGetattr,
        LsmOperation::FileWrite,
        LsmOperation::FileWrite,
        LsmOperation::FileRead,
    ] {
        session.evaluate(&fw, &mut env, op);
    }
    // The substrate reports origin movement; the widening bumps the
    // adversary generation under the warm cache.
    fw.metrics().bump_origin_transition();
    fw.metrics().bump_origin_transition();
    assert!(env.mac.taint_subject(env.subject));
    fw.metrics().bump_origin_widened();
    session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
    // No object: the label fetch is a benign miss.
    let object = env.object.take();
    session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
    env.object = object;
    // Every unwind fails: RULESETC falls back and the bound DROP rule
    // fails closed (a degraded drop). A new syscall starts with an
    // empty per-syscall cache, so the unwind is really attempted.
    env.cache.clear();
    let injector = FaultInjector::new(FaultConfig {
        unwind_fail: 1.0,
        ..FaultConfig::off(7)
    });
    {
        let mut faulty = FaultyEnv::new(&mut env, &injector);
        fw.evaluate(&mut faulty, LsmOperation::FileRead);
    }

    // Phase 2: side-effecting rules — a RATELIMIT in a hostile user
    // chain, a QUOTA, a jump loop that exhausts the depth limit, and a
    // TRACE + LOG pair that overflows the TRACE ring, the event ring,
    // and the LOG sink.
    let lines = [
        format!("pftables -N '{EVIL}'"),
        format!(
            "pftables -A '{EVIL}' -o FILE_OPEN -j RATELIMIT --rate 1 --burst 2 \
             --per subject --exceed drop"
        ),
        format!("pftables -o FILE_OPEN -j '{EVIL}'"),
        "pftables -o FILE_CREATE -j QUOTA --limit 2 --window 1000 --per subject --exceed drop"
            .to_owned(),
        "pftables -o FILE_WRITE -j LOOPY".to_owned(),
        "pftables -A loopy -o FILE_WRITE -j LOOPY".to_owned(),
        "pftables -o SOCKET_BIND -j TRACE".to_owned(),
        "pftables -o SOCKET_BIND -j LOG --tag golden".to_owned(),
    ];
    fw.reload(
        lines.iter().map(String::as_str),
        &mut env.mac,
        &mut env.programs,
    )
    .unwrap();
    for _ in 0..5 {
        session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
    }
    for _ in 0..4 {
        session.evaluate(&fw, &mut env, LsmOperation::FileCreate);
    }
    session.evaluate(&fw, &mut env, LsmOperation::FileWrite);
    for i in 0..2100 {
        session.evaluate(&fw, &mut env, LsmOperation::SocketBind);
        if i == 1000 {
            let _ = fw.drain_logs();
            let _ = fw.events().drain();
        }
    }
    fw
}

/// Drops the finite histogram bucket lines and masks `_sum`: both
/// depend on wall-clock latencies. `+Inf` and `_count` stay.
fn mask_prometheus(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let hist =
            line.starts_with("pf_eval_latency_ns") || line.starts_with("pf_fetch_latency_ns");
        if hist && line.contains("_bucket{") && !line.contains("le=\"+Inf\"") {
            continue;
        }
        if hist && line.contains("_sum ") {
            let (name, _) = line.rsplit_once(' ').unwrap();
            out.push_str(name);
            out.push_str(" <masked>\n");
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Masks the latency summaries' `mean`/`p50`/`p99`/`max`, keeping
/// `count`.
fn mask_json(json: &str) -> String {
    let mut s = json.to_owned();
    for key in ["\"eval_latency_ns\":{", "\"fetch_latency_ns\":{"] {
        let start = s.find(key).expect("latency object") + key.len();
        let end = start + s[start..].find('}').unwrap();
        let count = s[start..end]
            .split(',')
            .find(|kv| kv.starts_with("\"count\":"))
            .unwrap()
            .to_owned();
        s.replace_range(start..end, &format!("{count},<masked>"));
    }
    s
}

/// Removes the per-op family objects (`,"key":{…}`) from the JSON.
fn strip_per_op_families(json: &str) -> String {
    let mut s = json.to_owned();
    for key in PER_OP_JSON_KEYS {
        let needle = format!(",\"{key}\":{{");
        if let Some(start) = s.find(&needle) {
            let end = start + s[start..].find('}').unwrap() + 1;
            s.replace_range(start..end, "");
        }
    }
    s
}

#[test]
fn prometheus_export_matches_golden() {
    let fw = scenario();
    assert_eq!(mask_prometheus(&fw.render_prometheus()), GOLDEN_PROM);
}

#[test]
fn json_export_matches_golden_apart_from_per_op_families() {
    let fw = scenario();
    let json = mask_json(&fw.to_json());
    assert_eq!(format!("{}\n", strip_per_op_families(&json)), GOLDEN_JSON);
}

#[test]
fn scenario_drives_every_scalar_and_family_non_zero() {
    let fw = scenario();
    let text = fw.render_prometheus();
    let non_zero = |prefix: &str| {
        text.lines()
            .filter(|l| l.starts_with(prefix))
            .any(|l| !l.ends_with(" 0"))
    };
    for line in text.lines().filter(|l| !l.contains('{')) {
        // The buffered-log gauge reads whatever the last drain left.
        if !line.starts_with("pf_logs_buffered") {
            assert!(!line.ends_with(" 0"), "`{line}` stayed zero");
        }
    }
    for family in [
        "pf_op_invocations_total{",
        "pf_vcache_op_hits_total{",
        "pf_vcache_op_misses_total{",
        "pf_vcache_op_uncacheable_total{",
        "pf_ratelimit_op_throttled_total{",
        "pf_quota_op_exceeded_total{",
        "pf_rule_evaluated_total{",
        "pf_rule_hits_total{",
        "pf_rule_throttled_total{",
        "pf_ctx_field_fetches_total{",
        "pf_ctx_field_hits_total{",
        "pf_ctx_field_misses_total{",
        "pf_ctx_field_failures_total{",
        "pf_eval_latency_ns_bucket{",
        "pf_fetch_latency_ns_bucket{",
        "pf_throttle_occupancy{",
    ] {
        assert!(non_zero(family), "`{family}` has no non-zero sample");
    }
}

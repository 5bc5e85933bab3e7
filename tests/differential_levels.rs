//! Differential equivalence across the Table 6 optimization ladder.
//!
//! The optimization levels are *transparent*: FULL, EPTSPC, and VCACHE
//! must produce identical verdict sequences for any ruleset and access
//! trace, and the non-caching levels must additionally produce
//! identical LOG streams and STATE dictionaries (VCACHE never caches a
//! walk that touches either, so its side effects match too — but only
//! the non-cached levels are held to byte-identical log records here,
//! since a cached DROP replay refreshes the timestamp).
//!
//! The rulesets interleave ACCEPT / RETURN / LOG / STATE / DROP rules,
//! some bound to entrypoints, which is exactly the shape that used to
//! expose the EPTSPC partition-ordering bug: the generic and
//! entrypoint-bound partitions were walked back-to-back instead of in
//! install order.

use proptest::prelude::*;

use process_firewall::firewall::OptLevel;
use process_firewall::prelude::*;

fn label_pool() -> [&'static str; 5] {
    ["tmp_t", "etc_t", "lib_t", "usr_t", "user_home_t"]
}

fn label_path(lbl: usize) -> &'static str {
    match label_pool()[lbl] {
        "tmp_t" => "/tmp",
        "etc_t" => "/etc/passwd",
        "lib_t" => "/lib/libc-2.15.so",
        "usr_t" => "/usr/share/pyshared/dstat_helpers.py",
        _ => "/home/user",
    }
}

/// One randomized rule line. `kind` selects the target; every target
/// the engine knows how to order-sensitively interleave is represented.
fn rule_line(kind: usize, lbl: usize, bound: bool, pc: u64) -> String {
    let l = label_pool()[lbl];
    let ept = if bound {
        format!("-p /bin/victim -i {:#x} ", 0x100 + pc)
    } else {
        String::new()
    };
    match kind % 7 {
        0 => format!("pftables {ept}-o FILE_OPEN -d {l} -j DROP"),
        1 => format!("pftables {ept}-o FILE_OPEN -d {l} -j ACCEPT"),
        2 => format!("pftables {ept}-o FILE_OPEN -d {l} -j RETURN"),
        3 => format!("pftables {ept}-o FILE_OPEN -d {l} -j LOG --tag t{kind}{lbl}"),
        4 => format!(
            "pftables {ept}-o FILE_OPEN -d {l} -j STATE --set --key {} --value {}",
            40 + lbl as u64,
            pc
        ),
        // Throttle targets are impure (bucket state advances per walk),
        // so VCACHE must classify them uncacheable and re-walk — the
        // differential below proves the verdict stream still agrees,
        // because each level's kernel replays the identical clock.
        5 => format!(
            "pftables {ept}-o FILE_OPEN -d {l} -j RATELIMIT --rate 300 --burst 2 --exceed drop"
        ),
        6 => format!(
            "pftables {ept}-o FILE_OPEN -d {l} -j QUOTA --limit 3 --window 512 --exceed drop"
        ),
        _ => unreachable!(),
    }
}

/// Runs one ruleset + access trace at `level` and returns everything
/// observable: the per-access outcome, the log stream, and the victim's
/// final STATE dictionary (sorted for comparison).
fn run_trace(
    level: OptLevel,
    rules: &[(usize, usize, bool, u64)],
    trace: &[(usize, u64)],
) -> (Vec<bool>, Vec<LogEntry>, Vec<(u64, u64)>) {
    let mut k = standard_world();
    let lines: Vec<String> = rules
        .iter()
        .map(|&(kind, lbl, bound, pc)| rule_line(kind, lbl, bound, pc))
        .collect();
    k.install_rules(lines.iter().map(String::as_str)).unwrap();
    k.firewall.set_level(level).unwrap();
    let pid = k.spawn("user_t", "/bin/victim", Uid(1000), Gid(1000));
    let mut outcomes = Vec::new();
    for &(lbl, pc) in trace {
        let ok = k.with_frame(pid, "/bin/victim", 0x100 + pc, |k| {
            k.open(pid, label_path(lbl), OpenFlags::rdonly())
                .map(|fd| k.close(pid, fd).unwrap())
                .is_ok()
        });
        outcomes.push(ok);
    }
    let logs = k.firewall.take_logs(&k.mac, &k.programs);
    assert_eq!(k.firewall.check(), Vec::<String>::new(), "{level:?}");
    let mut state: Vec<(u64, u64)> = k
        .task(pid)
        .unwrap()
        .pf_state
        .iter()
        .map(|(&k, &v)| (k, v))
        .collect();
    state.sort_unstable();
    (outcomes, logs, state)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The headline differential: FULL ≡ EPTSPC ≡ VCACHE verdicts over
    // interleaved-target rulesets, with repeated accesses so VCACHE
    // actually serves hits mid-trace. FULL and EPTSPC must also agree
    // on every LOG record and STATE entry.
    #[test]
    fn full_eptspc_vcache_verdicts_and_side_effects_agree(
        rules in prop::collection::vec(
            (0usize..7, 0usize..5, any::<bool>(), 0u64..3),
            1..14
        ),
        trace in prop::collection::vec((0usize..5, 0u64..3), 1..10),
    ) {
        // Repeat the trace so the second half runs against a warm
        // verdict cache at VCACHE.
        let doubled: Vec<(usize, u64)> =
            trace.iter().chain(trace.iter()).copied().collect();
        let (v_full, logs_full, state_full) =
            run_trace(OptLevel::Full, &rules, &doubled);
        let (v_ept, logs_ept, state_ept) =
            run_trace(OptLevel::EptSpc, &rules, &doubled);
        let (v_vc, _, state_vc) = run_trace(OptLevel::Vcache, &rules, &doubled);

        prop_assert_eq!(&v_full, &v_ept, "FULL vs EPTSPC verdicts");
        prop_assert_eq!(&v_full, &v_vc, "FULL vs VCACHE verdicts");
        prop_assert_eq!(logs_full, logs_ept, "FULL vs EPTSPC log streams");
        prop_assert_eq!(&state_full, &state_ept, "FULL vs EPTSPC state");
        prop_assert_eq!(&state_full, &state_vc, "FULL vs VCACHE state");
    }
}

// ---------------------------------------------------------------------
// Origin-mutating traces: taint mid-trace, fork inheritance, reload
// churn. A stale cached verdict would break the parity below, because
// an origin transition flips what the `--origin` rules match.
// ---------------------------------------------------------------------

/// A rule line that may carry an `--origin` selector: `origin % 3`
/// picks none / `tainted` / `external`.
fn origin_rule_line(kind: usize, lbl: usize, origin: usize) -> String {
    let l = label_pool()[lbl];
    let og = match origin % 3 {
        1 => "--origin tainted ",
        2 => "--origin external ",
        _ => "",
    };
    match kind % 4 {
        0 => format!("pftables -s sshd_t -o FILE_OPEN -d {l} {og}-j DROP"),
        1 => format!("pftables -o FILE_OPEN -d {l} {og}-j ACCEPT"),
        2 => format!("pftables -o FILE_OPEN -d {l} {og}-j LOG --tag og{kind}{lbl}"),
        3 => format!("pftables -o FILE_OPEN -d {l} {og}-j RETURN"),
        _ => unreachable!(),
    }
}

/// Replays an origin-mutating trace at `level`. Steps `0..5` open the
/// corresponding label; `5` taints the victim (it reads a file an
/// adversary wrote); `6` forks (the child, inheriting the origin,
/// continues the trace); `7` hot-reloads the same ruleset.
fn run_origin_trace(
    level: OptLevel,
    rules: &[(usize, usize, usize)],
    trace: &[usize],
) -> (Vec<bool>, u64) {
    let mut k = standard_world();
    let lines: Vec<String> = rules
        .iter()
        .map(|&(kind, lbl, origin)| origin_rule_line(kind, lbl, origin))
        .collect();
    k.install_rules(lines.iter().map(String::as_str)).unwrap();
    k.firewall.set_level(level).unwrap();

    // Adversary bait: content written by a tainted subject.
    let adversary = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
    let fd = k
        .open(adversary, "/tmp/evil", OpenFlags::creat(0o644))
        .unwrap();
    k.write(adversary, fd, b"payload").unwrap();
    k.close(adversary, fd).unwrap();

    let mut victim = k.spawn("sshd_t", "/bin/victim", Uid::ROOT, Gid::ROOT);
    let mut outcomes = Vec::new();
    for &step in trace {
        let ok = match step {
            0..=4 => k
                .open(victim, label_path(step), OpenFlags::rdonly())
                .map(|fd| k.close(victim, fd).unwrap())
                .is_ok(),
            5 => k
                .open(victim, "/tmp/evil", OpenFlags::rdonly())
                .and_then(|fd| {
                    k.read(victim, fd)?;
                    k.close(victim, fd)
                })
                .is_ok(),
            6 => {
                victim = k.fork(victim).unwrap();
                true
            }
            7 => {
                let fw = k.firewall.clone();
                fw.reload(
                    lines.iter().map(String::as_str),
                    &mut k.mac,
                    &mut k.programs,
                )
                .unwrap();
                true
            }
            _ => unreachable!(),
        };
        outcomes.push(ok);
    }
    assert_eq!(k.firewall.check(), Vec::<String>::new(), "{level:?}");
    (outcomes, k.task_origin(victim).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // FULL ≡ EPTSPC ≡ VCACHE while the subject's origin mutates
    // mid-trace (taints, forks, reload churn). The trace is doubled so
    // the second half runs against a cache warmed *before* any
    // second-round transitions — precisely where a stale hit would
    // surface as a verdict divergence.
    #[test]
    fn origin_mutating_traces_agree_across_levels(
        rules in prop::collection::vec(
            (0usize..4, 0usize..5, 0usize..3),
            1..10
        ),
        trace in prop::collection::vec(0usize..8, 1..12),
    ) {
        let doubled: Vec<usize> =
            trace.iter().chain(trace.iter()).copied().collect();
        let (v_full, o_full) = run_origin_trace(OptLevel::Full, &rules, &doubled);
        let (v_ept, o_ept) = run_origin_trace(OptLevel::EptSpc, &rules, &doubled);
        let (v_vc, o_vc) = run_origin_trace(OptLevel::Vcache, &rules, &doubled);

        prop_assert_eq!(&v_full, &v_ept, "FULL vs EPTSPC verdicts");
        prop_assert_eq!(&v_full, &v_vc, "FULL vs VCACHE verdicts");
        prop_assert_eq!(o_full, o_ept, "final origin FULL vs EPTSPC");
        prop_assert_eq!(o_full, o_vc, "final origin FULL vs VCACHE");
    }
}

#[test]
fn origin_transition_invalidates_warm_verdict_cache() {
    // The stale-cache bug this PR fixes: warm the verdict cache while
    // the subject is trusted, taint it, and re-issue the same access.
    // A stale hit would replay the cached Allow; the origin transition
    // must miss (new origin keys the entry) and the generation bump
    // must flush the stale entries — observable in the counter.
    let mut k = standard_world();
    k.install_rules(["pftables -s sshd_t --origin tainted -o FILE_OPEN -d etc_t -j DROP"])
        .unwrap();
    k.firewall.set_level(OptLevel::Vcache).unwrap();

    let adversary = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
    let fd = k
        .open(adversary, "/tmp/evil", OpenFlags::creat(0o644))
        .unwrap();
    k.write(adversary, fd, b"payload").unwrap();
    k.close(adversary, fd).unwrap();

    let victim = k.spawn("sshd_t", "/bin/victim", Uid::ROOT, Gid::ROOT);
    for _ in 0..3 {
        let fd = k.open(victim, "/etc/passwd", OpenFlags::rdonly()).unwrap();
        k.close(victim, fd).unwrap();
    }
    assert!(k.firewall.metrics().vcache_hits() > 0, "cache is warm");

    // Taint: the victim consumes adversary-written content.
    let fd = k.open(victim, "/tmp/evil", OpenFlags::rdonly()).unwrap();
    k.read(victim, fd).unwrap();
    k.close(victim, fd).unwrap();

    // The very same access must now flip to Deny — no stale replay.
    let e = k
        .open(victim, "/etc/passwd", OpenFlags::rdonly())
        .unwrap_err();
    assert!(e.is_firewall_denial(), "tainted open must be denied");
    let m = k.firewall.metrics();
    assert!(m.origin_transitions() > 0);
    assert!(m.origin_widened() > 0, "sshd_t crossed the threshold");
    assert!(
        m.origin_vcache_invalidations() > 0,
        "the widening flushed the warm cache"
    );
    assert_eq!(k.firewall.check(), Vec::<String>::new());
}

// ---------------------------------------------------------------------
// Directed VCACHE behaviour through the whole kernel stack.
// ---------------------------------------------------------------------

#[test]
fn vcache_serves_hits_for_repeated_denials() {
    let mut k = standard_world();
    k.install_rules(["pftables -o FILE_OPEN -d etc_t -j DROP"])
        .unwrap();
    k.firewall.set_level(OptLevel::Vcache).unwrap();
    let pid = k.spawn("user_t", "/bin/victim", Uid(1000), Gid(1000));
    for _ in 0..5 {
        let e = k.open(pid, "/etc/passwd", OpenFlags::rdonly()).unwrap_err();
        assert!(e.is_firewall_denial());
    }
    // Each open fires several hooks (one per resolved component plus
    // the FILE_OPEN itself); the first open populates one entry per
    // hook and every later hook is a pure cache hit.
    let m = k.firewall.metrics();
    let per_open = m.invocations() / 5;
    assert!(per_open >= 2, "open should fire several hooks");
    assert_eq!(
        m.vcache_misses(),
        per_open,
        "first open populates the cache"
    );
    assert_eq!(m.vcache_hits(), 4 * per_open, "repeats are served from it");
    assert_eq!(m.vcache_uncacheable(), 0);
    assert_eq!(m.drops(), 5, "hits still count as drops");
    // Every cached denial is still audited.
    assert_eq!(k.firewall.take_logs(&k.mac, &k.programs).len(), 5);
    assert_eq!(k.firewall.check(), Vec::<String>::new());
}

#[test]
fn reload_invalidates_cached_verdicts_mid_task() {
    let mut k = standard_world();
    k.install_rules(["pftables -o FILE_OPEN -d etc_t -j DROP"])
        .unwrap();
    k.firewall.set_level(OptLevel::Vcache).unwrap();
    let pid = k.spawn("user_t", "/bin/victim", Uid(1000), Gid(1000));
    for _ in 0..2 {
        assert!(k
            .open(pid, "/etc/passwd", OpenFlags::rdonly())
            .unwrap_err()
            .is_firewall_denial());
    }
    assert!(k.firewall.metrics().vcache_hits() > 0);

    // Hot-reload to a ruleset that permits the open; the cached Deny
    // must not survive the generation bump.
    let fw = k.firewall.clone();
    fw.reload(
        ["pftables -o FILE_OPEN -d tmp_t -j DROP"],
        &mut k.mac,
        &mut k.programs,
    )
    .unwrap();
    let fd = k.open(pid, "/etc/passwd", OpenFlags::rdonly()).unwrap();
    k.close(pid, fd).unwrap();
    assert_eq!(k.firewall.check(), Vec::<String>::new());
}

//! `pfstat`: the observability report tool.
//!
//! Runs one pf-attacks workload under the full rule base (EPTSPC) with
//! detailed metrics enabled and decision-event sampling at `always`,
//! then prints the counter/histogram report: every always-on counter
//! with a health line from `ProcessFirewall::check`, the per-operation splits,
//! per-rule evaluated/hit counters,
//! per-context-field fetch statistics, the evaluation / context-fetch
//! latency histograms, the decision-event plane tallies, and live
//! RATELIMIT/QUOTA bucket occupancy.
//!
//! ```text
//! usage: pfstat [apache|boot|web] [--json|--prometheus]
//! ```
//!
//! `--json` and `--prometheus` switch the output to the corresponding
//! firewall-level exporter format — metrics plus event-plane counters
//! plus throttle occupancy (see docs/OBSERVABILITY.md).

use std::collections::HashMap;

use pf_attacks::workloads::{apache_build, boot, setup_build_tree, web_serve};
use pf_bench::{world_at, RuleSet};
use pf_core::events::EventKind;
use pf_core::metrics::{
    FieldFamily, Histogram, Latency, OpFamily, FIELD_FAMILIES, LATENCY, OP_FAMILIES,
};
use pf_core::{CtxField, OptLevel, SamplingMode};
use pf_types::LsmOperation;

fn usage() -> ! {
    eprintln!("usage: pfstat [apache|boot|web] [--json|--prometheus]");
    std::process::exit(2);
}

enum Mode {
    Report,
    Json,
    Prometheus,
}

fn main() {
    let mut workload = "apache".to_owned();
    let mut mode = Mode::Report;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => mode = Mode::Json,
            "--prometheus" => mode = Mode::Prometheus,
            "apache" | "boot" | "web" => workload = arg,
            _ => usage(),
        }
    }

    let (mut k, _) = world_at(OptLevel::EptSpc, RuleSet::Full);
    k.firewall.metrics().set_detailed(true);
    k.firewall.set_sampling(SamplingMode::Always);
    match workload.as_str() {
        "apache" => {
            setup_build_tree(&mut k);
            apache_build(&mut k).expect("apache build workload");
        }
        "boot" => {
            boot(&mut k).expect("boot workload");
        }
        "web" => {
            web_serve(&mut k, 10, 50).expect("web workload");
        }
        _ => unreachable!(),
    }

    match mode {
        Mode::Json => println!("{}", k.firewall.to_json()),
        Mode::Prometheus => print!("{}", k.firewall.render_prometheus()),
        Mode::Report => report(&k, &workload),
    }
}

fn report(k: &pf_os::Kernel, workload: &str) {
    let m = k.firewall.metrics();
    println!("pfstat: workload `{workload}` under the full rule base (EPTSPC)");
    println!();

    // Every always-on counter, straight from the descriptor table.
    println!("== summary counters ==");
    for (d, v) in m.counters() {
        println!("{:<28} {v:>12}  {}", d.json, d.help);
    }
    let violated = k.firewall.check();
    if violated.is_empty() {
        println!("health: ok (every accounting invariant holds)");
    } else {
        for v in &violated {
            println!("health: VIOLATED {v}");
        }
    }
    println!();

    // Per-operation splits, one column per OP_FAMILIES row (detail
    // layer), busiest operation first.
    let mut ops: Vec<(LsmOperation, [u64; OP_FAMILIES.len()])> = LsmOperation::ALL
        .iter()
        .map(|&op| (op, OpFamily::ALL.map(|f| m.op_count(f, op))))
        .filter(|(_, row)| row.iter().any(|&n| n > 0))
        .collect();
    ops.sort_by(|a, b| b.1[0].cmp(&a.1[0]).then(a.0.name().cmp(b.0.name())));
    println!("== per-operation splits ==");
    print!("{:<28}", "operation");
    for d in OP_FAMILIES {
        print!(" {:>w$}", d.json, w = d.json.len().max(8));
    }
    println!();
    for (op, row) in &ops {
        print!("{:<28}", op.name());
        for (n, d) in row.iter().zip(OP_FAMILIES) {
            print!(" {n:>w$}", w = d.json.len().max(8));
        }
        println!();
    }
    println!();

    // Per-rule counters, hottest first. The full base has ~1218 rules,
    // almost all never evaluated under EPTSPC — show the active ones.
    const TOP: usize = 20;
    let mut rows: Vec<(u64, u64, u64, String, usize, String)> = Vec::new();
    let base = k.firewall.base();
    for chain in m.chains_seen() {
        let Some(snap) = m.chain_snapshot(&chain) else {
            continue;
        };
        let rules = base.chain(&chain);
        for (i, rule) in rules.iter().enumerate() {
            let evals = snap.evaluated.get(i).copied().unwrap_or(0);
            let hits = snap.hits.get(i).copied().unwrap_or(0);
            let throttled = snap.throttled.get(i).copied().unwrap_or(0);
            if evals > 0 || hits > 0 || throttled > 0 {
                rows.push((evals, hits, throttled, chain.name(), i, rule.text.clone()));
            }
        }
    }
    rows.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)));
    println!(
        "== per-rule counters ({} of {} rules evaluated; top {}) ==",
        rows.len(),
        k.firewall.rule_count(),
        TOP.min(rows.len())
    );
    println!(
        "{:>10} {:>8} {:>9}  {:<14} {:>4}  text",
        "evals", "hits", "throttled", "chain", "rule"
    );
    for (evals, hits, throttled, chain, index, text) in rows.iter().take(TOP) {
        println!("{evals:>10} {hits:>8} {throttled:>9}  {chain:<14} {index:>4}  {text}");
    }
    println!();

    println!("== context fields ==");
    print!("{:<16}", "field");
    for d in FIELD_FAMILIES {
        print!(" {:>10}", d.json);
    }
    println!();
    for field in CtxField::ALL {
        let row = FieldFamily::ALL.map(|f| m.field_count(f, field));
        if row.iter().any(|&n| n > 0) {
            print!("{:<16}", field.cname());
            for n in row {
                print!(" {n:>10}");
            }
            println!();
        }
    }
    println!();

    for (d, which) in LATENCY.iter().zip(Latency::ALL) {
        print_histogram(d.json, m.latency(which));
        println!();
    }

    // Decision-event plane: drain what the workload emitted and tally
    // kinds, verdicts, and sampled-decision latency.
    let plane = k.firewall.events();
    println!(
        "== event plane (sampling `{}`) ==",
        plane.sampling().render()
    );
    let events = plane.drain();
    println!(
        "emitted {} / drained {} / overwritten {}",
        plane.emitted(),
        plane.drained(),
        plane.dropped()
    );
    if events.is_empty() {
        println!("(no events drained)");
    } else {
        let mut kinds: HashMap<&'static str, u64> = HashMap::new();
        let mut verdicts: HashMap<&'static str, u64> = HashMap::new();
        let lat = Histogram::default();
        for ev in &events {
            *kinds.entry(ev.kind.name()).or_default() += 1;
            if ev.kind == EventKind::Decision {
                *verdicts.entry(ev.verdict.name()).or_default() += 1;
                lat.record(ev.latency_ns);
            }
        }
        let mut kinds: Vec<_> = kinds.into_iter().collect();
        kinds.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        for (kind, n) in kinds {
            println!("{kind:<28} {n}");
        }
        let mut verdicts: Vec<_> = verdicts.into_iter().collect();
        verdicts.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        for (verdict, n) in verdicts {
            println!("  verdict {verdict:<20} {n}");
        }
        if lat.count() > 0 {
            println!(
                "sampled decision latency: p50 {} ns, p99 {} ns, p99.9 {} ns",
                lat.p50(),
                lat.p99(),
                lat.percentile(99.9)
            );
        }
    }
    println!();

    // The LOG ring: drop accounting is always-on, so a fleet that
    // outruns its collector shows up here as `overwritten`, never as
    // unbounded memory.
    let sink = k.firewall.log_sink();
    println!("== LOG ring (capacity {}) ==", sink.capacity());
    println!(
        "emitted {} / drained {} / overwritten {} / buffered {}",
        sink.emitted(),
        sink.drained(),
        sink.dropped(),
        k.firewall.log_count()
    );
    println!();

    // Live per-key throttle bucket occupancy, straight off the packed
    // atomic words — no locks taken, buckets keep moving underneath.
    let occupancy = k.firewall.throttle_occupancy();
    println!("== throttle occupancy ==");
    if occupancy.is_empty() {
        println!("(no RATELIMIT/QUOTA rules installed)");
    } else {
        for occ in &occupancy {
            println!("{}[{}] {} — {}", occ.chain, occ.index, occ.kind, occ.text);
            if occ.slots.is_empty() {
                println!("  (no active buckets)");
            }
            for slot in &occ.slots {
                println!(
                    "  key {:#018x}  tick {:>8}  {} {:>8}{}",
                    slot.key,
                    slot.tick,
                    if occ.kind == "RATELIMIT" {
                        "tokens"
                    } else {
                        "count "
                    },
                    occ.value(slot),
                    if slot.spill { "  [spill]" } else { "" }
                );
            }
        }
    }
}

fn print_histogram(title: &str, h: Histogram) {
    println!("== {title} ==");
    if h.count() == 0 {
        println!("(no samples)");
        return;
    }
    println!(
        "count={} mean={} p50={} p99={} max={}",
        h.count(),
        h.mean(),
        h.p50(),
        h.p99(),
        h.max()
    );
    let total = h.count();
    for (upper, cum) in h.cumulative_buckets() {
        let pct = cum as f64 / total as f64 * 100.0;
        let bar = "#".repeat((pct / 2.5).round() as usize);
        println!("  <= {upper:>12}  {cum:>10} ({pct:>5.1}%) {bar}");
    }
}

//! Data model and JSON rendering for the `table7_parallel` harness.
//!
//! Pulled out of the binary so the emitted schema is unit-testable: a
//! regression here used to null out `hooks_per_cpu_s` (and with it the
//! whole trajectory series) whenever a thread's CPU-time delta came in
//! under an arbitrary 100 ms floor. The rules now are:
//!
//! * `hooks_per_cpu_s` is computed **unconditionally** from thread CPU
//!   time whenever `/proc` CPU accounting is readable at all, as total
//!   hooks over total CPU time (Σhooks / Σcpu), so it measures per-hook
//!   CPU cost and stays flat when threads scale perfectly — a sum of
//!   per-thread rates would instead grow with the thread count by
//!   construction;
//! * only `cpu_speedup_4_vs_1` may be `null`, and only when the
//!   4-thread configuration oversubscribes the host (fewer than 4
//!   CPUs), where CPU-time accounting is polluted by contention and a
//!   speedup claim would be noise dressed as data.

/// One worker thread's timed-pass measurements.
#[derive(Debug, Clone)]
pub struct ThreadStats {
    /// Wall-clock duration of the timed pass.
    pub wall_ns: u64,
    /// CPU time (utime+stime) consumed during the pass; `None` only
    /// when the platform offers no per-thread CPU accounting.
    pub cpu_ns: Option<u64>,
    /// Syscalls the thread issued.
    pub syscalls: u64,
}

/// One thread-count configuration, aggregated.
#[derive(Debug, Clone)]
pub struct ConfigResult {
    /// Worker thread count.
    pub threads: usize,
    /// Shared-firewall hook invocations across all threads.
    pub hooks: u64,
    /// Total syscalls across all threads.
    pub syscalls: u64,
    /// Slowest thread's wall time, seconds.
    pub wall_max_s: f64,
    /// Total CPU seconds across threads (`None` off Linux).
    pub cpu_total_s: Option<f64>,
    /// hooks / wall_max_s.
    pub hooks_per_wall_s: f64,
    /// Σhooks / Σcpu — the lock-freedom scaling metric.
    pub hooks_per_cpu_s: Option<f64>,
    /// Median hook-evaluation latency (instrumented pass).
    pub eval_p50_ns: u64,
    /// Tail hook-evaluation latency (instrumented pass).
    pub eval_p99_ns: u64,
    /// The raw per-thread stats.
    pub per_thread: Vec<ThreadStats>,
}

/// Soak-phase summary (reloader thread + workers).
#[derive(Debug, Clone)]
pub struct SoakResult {
    /// Requested soak duration, seconds.
    pub secs: f64,
    /// Worker thread count.
    pub workers: usize,
    /// Hot reloads performed.
    pub reloads: u64,
    /// Worker syscalls completed.
    pub syscalls: u64,
    /// Published-generation delta (must equal `reloads`).
    pub generations_delta: u64,
}

/// Aggregates per-thread stats into a [`ConfigResult`].
///
/// CPU-derived figures are produced whenever **every** thread reported
/// a CPU reading. The rate divides by at least 1 ns, so a zero reading
/// yields a finite figure rather than a division by zero.
pub fn aggregate(
    threads: usize,
    hooks: u64,
    per_thread: Vec<ThreadStats>,
    eval_p50_ns: u64,
    eval_p99_ns: u64,
) -> ConfigResult {
    let syscalls: u64 = per_thread.iter().map(|t| t.syscalls).sum();
    let wall_max_s = per_thread.iter().map(|t| t.wall_ns).max().unwrap_or(0) as f64 / 1e9;
    let hooks_per_wall_s = hooks as f64 / wall_max_s.max(1e-9);
    let cpu_total_ns: Option<u64> = per_thread.iter().map(|t| t.cpu_ns).sum();
    let cpu_total_s = cpu_total_ns.map(|ns| ns as f64 / 1e9);
    let hooks_per_cpu_s = cpu_total_ns.map(|ns| hooks as f64 / (ns.max(1) as f64 / 1e9));
    ConfigResult {
        threads,
        hooks,
        syscalls,
        wall_max_s,
        cpu_total_s,
        hooks_per_wall_s,
        hooks_per_cpu_s,
        eval_p50_ns,
        eval_p99_ns,
        per_thread,
    }
}

/// The 4-thread-vs-1-thread CPU-time throughput ratio, or `None` when
/// either configuration is missing CPU data **or** the host has fewer
/// than 4 CPUs (oversubscribed CPU accounting measures contention, not
/// scaling).
pub fn cpu_speedup_4_vs_1(results: &[ConfigResult], host_cpus: usize) -> Option<f64> {
    if host_cpus < 4 {
        return None;
    }
    let r4 = results.iter().find(|r| r.threads == 4)?;
    let r1 = results.iter().find(|r| r.threads == 1)?;
    match (r4.hooks_per_cpu_s, r1.hooks_per_cpu_s) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / b),
        _ => None,
    }
}

fn opt(v: Option<f64>) -> String {
    v.map(|x| format!("{x:.1}"))
        .unwrap_or_else(|| "null".into())
}

/// Renders the full `results/table7_parallel.json` document.
pub fn render_full_json(
    rules: usize,
    clients: usize,
    requests: usize,
    host_cpus: usize,
    results: &[ConfigResult],
    speedup_cpu: Option<f64>,
    soak: Option<&SoakResult>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"workload\": \"web_serve\",\n  \"rules\": {rules},\n  \"level\": \"EPTSPC\",\n  \"clients\": {clients},\n  \"requests_per_client\": {requests},\n  \"host_cpus\": {host_cpus},\n"
    ));
    out.push_str(
        "  \"note\": \"wall-clock throughput cannot scale past the host CPU count; hooks_per_cpu_s is total hooks over total worker CPU seconds (/proc/thread-self/schedstat run time, ns resolution) and is the lock-freedom scaling metric: it stays flat as threads are added while per-hook CPU cost stays flat; cpu_speedup_4_vs_1 is null only when the host has fewer than 4 CPUs\",\n",
    );
    out.push_str("  \"configs\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"hooks\": {}, \"syscalls\": {}, \"wall_max_s\": {:.3}, \"cpu_total_s\": {}, \"hooks_per_wall_s\": {:.1}, \"hooks_per_cpu_s\": {}, \"eval_p50_ns\": {}, \"eval_p99_ns\": {}, \"per_thread_cpu_s\": [{}]}}{}\n",
            r.threads,
            r.hooks,
            r.syscalls,
            r.wall_max_s,
            opt(r.cpu_total_s),
            r.hooks_per_wall_s,
            opt(r.hooks_per_cpu_s),
            r.eval_p50_ns,
            r.eval_p99_ns,
            r.per_thread
                .iter()
                .map(|t| t
                    .cpu_ns
                    .map(|n| format!("{:.3}", n as f64 / 1e9))
                    .unwrap_or_else(|| "null".into()))
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"cpu_speedup_4_vs_1\": {},\n",
        opt(speedup_cpu)
    ));
    match soak {
        Some(s) => out.push_str(&format!(
            "  \"soak\": {{\"secs\": {:.0}, \"workers\": {}, \"reloads\": {}, \"generations\": {}, \"syscalls\": {}, \"failures\": 0}}\n",
            s.secs, s.workers, s.reloads, s.generations_delta, s.syscalls
        )),
        None => out.push_str("  \"soak\": null\n"),
    }
    out.push('}');
    out.push('\n');
    out
}

/// Renders the compact run object appended to `BENCH_table7.json`.
pub fn render_trajectory_run(
    requests: usize,
    host_cpus: usize,
    results: &[ConfigResult],
    speedup_cpu: Option<f64>,
    soak: Option<&SoakResult>,
) -> String {
    let mut run = String::from("{\"bench\":\"table7_parallel\"");
    run.push_str(&format!(
        ",\"requests_per_client\":{requests},\"host_cpus\":{host_cpus}"
    ));
    for r in results {
        run.push_str(&format!(
            ",\"t{}_hooks_per_cpu_s\":{},\"t{}_eval_p50_ns\":{},\"t{}_eval_p99_ns\":{}",
            r.threads,
            opt(r.hooks_per_cpu_s),
            r.threads,
            r.eval_p50_ns,
            r.threads,
            r.eval_p99_ns
        ));
    }
    run.push_str(&format!(",\"cpu_speedup_4_vs_1\":{}", opt(speedup_cpu)));
    if let Some(s) = soak {
        run.push_str(&format!(
            ",\"soak_reloads\":{},\"soak_syscalls\":{}",
            s.reloads, s.syscalls
        ));
    }
    run.push('}');
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_config(threads: usize, cpu_ns: Option<u64>) -> ConfigResult {
        let per_thread = (0..threads)
            .map(|_| ThreadStats {
                wall_ns: 50_000_000,
                cpu_ns,
                syscalls: 1_000,
            })
            .collect();
        aggregate(threads, 10_000 * threads as u64, per_thread, 500, 2_000)
    }

    #[test]
    fn cpu_rate_is_computed_even_for_sub_tick_runs() {
        // A run so short the CPU-time delta reads zero ticks must still
        // yield a finite hooks_per_cpu_s, not null.
        let r = fake_config(4, Some(0));
        let rate = r.hooks_per_cpu_s.expect("cpu rate must be present");
        assert!(rate.is_finite() && rate > 0.0);
        assert_eq!(r.cpu_total_s, Some(0.0));
        // Only a platform without CPU accounting at all loses the field.
        assert_eq!(fake_config(2, None).hooks_per_cpu_s, None);
    }

    /// Σhooks / Σcpu, not a sum of per-thread rates: four threads each
    /// doing 1,000 hooks in 1 ms of CPU are 1e6 hooks per CPU-second,
    /// the same rate as one such thread.
    #[test]
    fn cpu_rate_is_total_hooks_over_total_cpu() {
        let per_thread = |threads: usize| {
            (0..threads)
                .map(|_| ThreadStats {
                    wall_ns: 1_000_000,
                    cpu_ns: Some(1_000_000),
                    syscalls: 1_000,
                })
                .collect()
        };
        let four = aggregate(4, 4_000, per_thread(4), 0, 0);
        assert_eq!(four.hooks_per_cpu_s, Some(1e6));
        assert_eq!(four.cpu_total_s, Some(0.004));
        let one = aggregate(1, 1_000, per_thread(1), 0, 0);
        assert_eq!(one.hooks_per_cpu_s, four.hooks_per_cpu_s);
    }

    #[test]
    fn trajectory_run_never_nulls_cpu_series_on_linux() {
        let results = [
            fake_config(1, Some(40_000_000)),
            fake_config(4, Some(40_000_000)),
        ];
        let speedup = cpu_speedup_4_vs_1(&results, 8);
        let run = render_trajectory_run(100, 8, &results, speedup, None);
        assert!(run.contains("\"bench\":\"table7_parallel\""));
        for key in [
            "\"t1_hooks_per_cpu_s\":",
            "\"t4_hooks_per_cpu_s\":",
            "\"t1_eval_p50_ns\":500",
            "\"t4_eval_p99_ns\":2000",
            "\"cpu_speedup_4_vs_1\":",
        ] {
            assert!(run.contains(key), "missing `{key}` in {run}");
        }
        assert!(
            !run.contains("null"),
            "no field may be null with CPU data present and >=4 host CPUs: {run}"
        );
    }

    #[test]
    fn speedup_is_null_exactly_when_oversubscribed() {
        let results = [
            fake_config(1, Some(40_000_000)),
            fake_config(4, Some(40_000_000)),
        ];
        assert!(cpu_speedup_4_vs_1(&results, 4).is_some());
        assert!(cpu_speedup_4_vs_1(&results, 2).is_none());
        let run = render_trajectory_run(100, 2, &results, cpu_speedup_4_vs_1(&results, 2), None);
        assert!(run.contains("\"cpu_speedup_4_vs_1\":null"));
        // ...but the per-config CPU series stays numeric regardless.
        assert!(!run.contains("hooks_per_cpu_s\":null"));
    }

    #[test]
    fn full_json_schema_round_trips_the_expected_fields() {
        let results = [
            fake_config(1, Some(40_000_000)),
            fake_config(4, Some(40_000_000)),
        ];
        let soak = SoakResult {
            secs: 5.0,
            workers: 4,
            reloads: 120,
            syscalls: 9_000,
            generations_delta: 120,
        };
        let doc = render_full_json(1218, 10, 100, 8, &results, Some(3.9), Some(&soak));
        for key in [
            "\"workload\": \"web_serve\"",
            "\"host_cpus\": 8",
            "\"configs\": [",
            "\"per_thread_cpu_s\": [",
            "\"cpu_speedup_4_vs_1\": 3.9",
            "\"soak\": {\"secs\": 5",
        ] {
            assert!(doc.contains(key), "missing `{key}`");
        }
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "unbalanced braces"
        );
        assert!(!doc.contains(": null"), "no nulls expected here: {doc}");
    }
}

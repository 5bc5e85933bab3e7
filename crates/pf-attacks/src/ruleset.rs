//! The Table 5 rule base, transcribed for the simulated world.
//!
//! Rules R1–R12 are the paper's, with entrypoint program counters kept
//! verbatim (the victim models in [`crate::exploits`] issue their
//! resource accesses from exactly these call sites). `SAFE_OPEN` is the
//! generic link-following defense applied system-wide (the rule family
//! that caught E9), and [`full_rule_base`] synthesizes the ~1218-rule
//! configuration used by the Table 6/7 performance measurements.

/// R1 — only the dynamic linker's library-open entrypoint may open
/// trusted library labels (blocks E1, E8).
pub const R1: &str = "pftables -p /lib/ld-2.15.so -i 0x596b -s SYSHIGH \
                      -d ~{lib_t|textrel_shlib_t|httpd_modules_t} -o FILE_OPEN -j DROP";

/// R2 — Python module loads come only from `lib_t`/`usr_t` (blocks E2).
pub const R2: &str = "pftables -p /usr/bin/python2.7 -i 0x34f05 -s SYSHIGH \
                      -d ~{lib_t|usr_t} -o FILE_OPEN -j DROP";

/// R3 — libdbus connects only to the trusted system bus socket (blocks E3).
pub const R3: &str = "pftables -p /lib/libdbus-1.so.3 -i 0x39231 -s SYSHIGH \
                      -d ~{system_dbusd_var_run_t} -o UNIX_STREAM_SOCKET_CONNECT -j DROP";

/// R4 — the PHP include entrypoint opens only properly-labeled PHP files
/// (blocks E4 and all Joomla!-component LFI variants).
pub const R4: &str = "pftables -p /usr/bin/php5 -i 0x27ad2c -s SYSHIGH \
                      -d ~{httpd_user_script_exec_t} -o FILE_OPEN -j DROP";

/// R5 — D-Bus: record the inode bound at the bind entrypoint (E6, check).
pub const R5: &str = "pftables -i 0x3c750 -p /bin/dbus-daemon -o SOCKET_BIND \
                      -j STATE --set --key 0xbeef --value C_INO";

/// R6 — D-Bus: drop the chmod if it reaches a different inode (E6, use).
pub const R6: &str = "pftables -i 0x3c786 -p /bin/dbus-daemon -o SOCKET_SETATTR \
                      -m STATE --key 0xbeef --cmp C_INO --nequal -j DROP";

/// R7 — java's configuration entrypoint opens only TCB files (blocks E7).
pub const R7: &str = "pftables -i 0x5d7e -p /usr/bin/java -d ~{SYSHIGH} -o FILE_OPEN -j DROP";

/// R8 — the `SymLinksIfOwnerMatch` equivalent: drop Apache's symlink
/// traversals when the link owner differs from the target owner.
pub const R8: &str = "pftables -i 0x2d637 -p /usr/bin/apache2 -o LINK_READ \
                      -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER --nequal -j DROP";

/// R9 — route signal deliveries through the signal chain.
pub const R9: &str = "pftables -I input -o PROCESS_SIGNAL_DELIVERY -j SIGNAL_CHAIN";

/// R10 — drop a handled, blockable signal while a handler is running
/// (the non-reentrant-handler race, blocks E5).
pub const R10: &str =
    "pftables -A signal_chain -m SIGNAL_MATCH -m STATE --key 'sig' --cmp 1 -j DROP";

/// R11 — otherwise record that a handler is now running.
pub const R11: &str =
    "pftables -A signal_chain -m SIGNAL_MATCH -j STATE --set --key 'sig' --value 1";

/// R12 — on `sigreturn`, record that the handler finished.
pub const R12: &str = "pftables -I syscallbegin -m SYSCALL_ARGS --arg 0 --equal NR_sigreturn \
                       -j STATE --set --key 'sig' --value 0";

/// The system-wide `safe_open` equivalent (Section 6.2 / Figure 4):
/// refuse to follow a symlink that lives in adversary-writable territory
/// and points at somebody else's file. One rule replaces four extra
/// system calls per path component — and found E9.
pub const SAFE_OPEN: &str = "pftables -o LINK_READ -m ADV_ACCESS --write --accessible \
                             -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER --nequal -j DROP";

/// All hand-written rules, in Table 5 order.
pub fn table5_rules() -> Vec<&'static str> {
    vec![R1, R2, R3, R4, R5, R6, R7, R8, R9, R10, R11, R12, SAFE_OPEN]
}

/// Synthesizes the FULL rule base of the performance experiments.
///
/// The paper's deployment generated 1218 rules by running the rule
/// suggester with a low threshold (Section 6.2); almost all are T1-style
/// entrypoint-bound deny rules. We reproduce the *shape*: the Table 5
/// rules plus enough generated entrypoint rules (each for a distinct
/// synthetic call site) to reach `total`.
pub fn full_rule_base(total: usize) -> Vec<String> {
    let mut rules: Vec<String> = table5_rules().iter().map(|s| (*s).to_owned()).collect();
    let programs = [
        "/usr/bin/gcc",
        "/usr/bin/ld",
        "/usr/bin/make",
        "/bin/cp",
        "/bin/mv",
        "/usr/bin/perl",
        "/usr/bin/ssh",
        "/usr/bin/gpg",
        "/usr/sbin/cron",
        "/usr/bin/nautilus",
    ];
    let ops = ["FILE_OPEN", "FILE_READ", "FILE_WRITE", "DIR_SEARCH"];
    let mut i = 0usize;
    while rules.len() < total {
        let prog = programs[i % programs.len()];
        let op = ops[(i / programs.len()) % ops.len()];
        let pc = 0x1000 + (i as u64) * 0x40;
        rules.push(format!(
            "pftables -p {prog} -i {pc:#x} -s SYSHIGH -d ~{{SYSHIGH}} -o {op} -j DROP"
        ));
        i += 1;
    }
    rules
}

/// The paper's FULL rule-base size (Table 7: "a set of 1218 rules").
pub const FULL_RULE_COUNT: usize = 1218;

#[cfg(test)]
mod tests {
    use super::*;
    use pf_os::standard_world;

    #[test]
    fn every_table5_rule_parses_and_installs() {
        let mut k = standard_world();
        let n = k.install_rules(table5_rules()).unwrap();
        assert_eq!(n, 13);
        assert_eq!(k.firewall.rule_count(), 13);
    }

    #[test]
    fn full_rule_base_reaches_paper_size() {
        let rules = full_rule_base(FULL_RULE_COUNT);
        assert_eq!(rules.len(), FULL_RULE_COUNT);
        let mut k = standard_world();
        let refs: Vec<&str> = rules.iter().map(String::as_str).collect();
        k.install_rules(refs).unwrap();
        assert_eq!(k.firewall.rule_count(), FULL_RULE_COUNT);
        // Nearly all rules are entrypoint-bound, so the EPTSPC partition
        // leaves only a small generic prefix.
        let snap = k.firewall.base();
        assert!(snap.input_by_entrypoint().entrypoint_count() > 1000);
        assert!(snap.input_by_entrypoint().generic_rule_count() < 10);
    }

    #[test]
    fn full_rule_base_never_blocks_benign_traffic() {
        use pf_os::OpenFlags;
        use pf_types::{Gid, Uid};
        let mut k = standard_world();
        let rules = full_rule_base(FULL_RULE_COUNT);
        let refs: Vec<&str> = rules.iter().map(String::as_str).collect();
        k.install_rules(refs).unwrap();
        let pid = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        let fd = k.open(pid, "/etc/passwd", OpenFlags::rdonly()).unwrap();
        assert!(k.read(pid, fd).is_ok());
        let fd2 = k.open(pid, "/tmp/w", OpenFlags::creat(0o644)).unwrap();
        assert!(k.write(pid, fd2, b"x").is_ok());
    }
}

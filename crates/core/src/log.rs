//! The LOG target's records and their JSON rendering.
//!
//! The paper's LOG target "logs a variety of information about the current
//! resource access in JSON format" (Section 5.2); OS distributors feed
//! these records to the rule-generation scripts of Section 6.3. The engine
//! writes [`LogRecord`]s of numeric ids into the LOG ring (`crate::events`);
//! drains resolve them into [`LogEntry`] values, whose JSON codec is
//! hand-rolled (flat objects, string/number/bool values).

use std::fmt::Write as _;

use pf_mac::MacPolicy;
use pf_types::{
    DeviceId, InodeNum, InternId, Interner, LsmOperation, PfError, PfResult, ProgramId, ResourceId,
    SecId, SignalNum,
};

use crate::events::{name_of, op_at, Record, RECORD_WORDS};

/// One resource-access log record.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Logical timestamp.
    pub ts: u64,
    /// Calling process.
    pub pid: u32,
    /// Subject MAC label name.
    pub subject: String,
    /// Main program binary path.
    pub program: String,
    /// Entrypoint binary path (may differ from `program`, e.g. a library).
    pub ept_prog: String,
    /// Entrypoint relative program counter.
    pub ept_pc: u64,
    /// The mediated operation.
    pub op: LsmOperation,
    /// Object MAC label name (empty when the operation has no object).
    pub object: String,
    /// Resource identifier rendering (`dev:D/ino:N` or `sig:N`).
    pub resource: String,
    /// Adversary-writable (low integrity)?
    pub adv_write: bool,
    /// Adversary-readable (low secrecy)?
    pub adv_read: bool,
    /// Free-form rule tag.
    pub tag: String,
    /// Verdict rendering at log time (LOG rules run before the verdict,
    /// so this is `"ALLOW"` unless a later DROP is recorded).
    pub verdict: String,
}

pub(crate) fn esc(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl LogEntry {
    /// Renders the record as a single-line JSON object.
    ///
    /// # Examples
    ///
    /// ```
    /// use pf_core::LogEntry;
    /// use pf_types::LsmOperation;
    ///
    /// let e = LogEntry {
    ///     ts: 1, pid: 2, subject: "httpd_t".into(),
    ///     program: "/usr/bin/apache2".into(),
    ///     ept_prog: "/usr/bin/apache2".into(), ept_pc: 0x2d637,
    ///     op: LsmOperation::FileOpen, object: "tmp_t".into(),
    ///     resource: "dev:0/ino:9".into(), adv_write: true,
    ///     adv_read: true, tag: "".into(), verdict: "ALLOW".into(),
    /// };
    /// let json = e.to_json();
    /// assert_eq!(LogEntry::parse_json(&json).unwrap(), e);
    /// ```
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        let field_str = |s: &mut String, k: &str, v: &str, first: bool| {
            if !first {
                s.push(',');
            }
            let _ = write!(s, "\"{k}\":\"");
            esc(s, v);
            s.push('"');
        };
        field_str(&mut s, "subject", &self.subject, true);
        field_str(&mut s, "program", &self.program, false);
        field_str(&mut s, "ept_prog", &self.ept_prog, false);
        field_str(&mut s, "op", self.op.name(), false);
        field_str(&mut s, "object", &self.object, false);
        field_str(&mut s, "resource", &self.resource, false);
        field_str(&mut s, "tag", &self.tag, false);
        field_str(&mut s, "verdict", &self.verdict, false);
        let _ = write!(
            s,
            ",\"ts\":{},\"pid\":{},\"ept_pc\":{},\"adv_write\":{},\"adv_read\":{}",
            self.ts, self.pid, self.ept_pc, self.adv_write, self.adv_read
        );
        s.push('}');
        s
    }

    /// Parses a record produced by [`LogEntry::to_json`].
    pub fn parse_json(json: &str) -> PfResult<LogEntry> {
        let fields = parse_flat_object(json)?;
        let get_s = |k: &str| -> PfResult<String> {
            match fields.iter().find(|(key, _)| key == k) {
                Some((_, JsonVal::Str(s))) => Ok(s.clone()),
                _ => Err(PfError::RuleError(format!("log field `{k}` missing"))),
            }
        };
        let get_n = |k: &str| -> PfResult<u64> {
            match fields.iter().find(|(key, _)| key == k) {
                Some((_, JsonVal::Num(n))) => Ok(*n),
                _ => Err(PfError::RuleError(format!("log field `{k}` missing"))),
            }
        };
        let get_b = |k: &str| -> PfResult<bool> {
            match fields.iter().find(|(key, _)| key == k) {
                Some((_, JsonVal::Bool(b))) => Ok(*b),
                _ => Err(PfError::RuleError(format!("log field `{k}` missing"))),
            }
        };
        Ok(LogEntry {
            ts: get_n("ts")?,
            pid: get_n("pid")? as u32,
            subject: get_s("subject")?,
            program: get_s("program")?,
            ept_prog: get_s("ept_prog")?,
            ept_pc: get_n("ept_pc")?,
            op: get_s("op")?
                .parse::<LsmOperation>()
                .map_err(PfError::RuleError)?,
            object: get_s("object")?,
            resource: get_s("resource")?,
            adv_write: get_b("adv_write")?,
            adv_read: get_b("adv_read")?,
            tag: get_s("tag")?,
            verdict: get_s("verdict")?,
        })
    }
}

/// A LOG record's tag: a `-j LOG --tag T` rule's `T`, or one of the
/// engine's fixed tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogTag {
    /// A LOG rule's tag, interned at parse time.
    Rule(InternId),
    /// A fixed engine tag: an index into [`LogTag::FIXED`].
    Fixed(u8),
}

impl LogTag {
    /// The fixed tags: a DROP rule denied, a failed context fetch was
    /// decided by `--ctx-missing`, a jump hit the depth limit, a
    /// RATELIMIT bucket or a QUOTA window rejected.
    pub const FIXED: [&'static str; 5] = ["DROP", "CTXFAIL", "JUMPDEPTH", "RATELIMIT", "QUOTA"];
    pub(crate) const DROP: LogTag = LogTag::Fixed(0);
    pub(crate) const CTXFAIL: LogTag = LogTag::Fixed(1);
    pub(crate) const JUMPDEPTH: LogTag = LogTag::Fixed(2);
    pub(crate) const RATELIMIT: LogTag = LogTag::Fixed(3);
    pub(crate) const QUOTA: LogTag = LogTag::Fixed(4);
}

/// One LOG record as the engine writes it: the numeric ids behind a
/// [`LogEntry`], which [`LogRecord::resolve`] renders at drain time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecord {
    /// Logical timestamp.
    pub ts: u64,
    /// Calling process.
    pub pid: u32,
    /// Subject MAC label.
    pub subject: SecId,
    /// Main program binary.
    pub program: ProgramId,
    /// Entrypoint binary and relative program counter, if unwound.
    pub ept: Option<(ProgramId, u64)>,
    /// The mediated operation.
    pub op: LsmOperation,
    /// Object MAC label and resource, when the operation has an object.
    pub object: Option<(SecId, ResourceId)>,
    /// Adversary-writable (low integrity)?
    pub adv_write: bool,
    /// Adversary-readable (low secrecy)?
    pub adv_read: bool,
    /// The tag.
    pub tag: LogTag,
    /// Whether the invocation was denied (renders `"DENY"`).
    pub deny: bool,
    /// The writing rule's chain name, interned at parse time.
    pub chain: InternId,
    /// The writing rule's index within its chain.
    pub rule: u32,
    /// The invocation's decision-event id (0 when not sampled).
    pub invocation: u64,
}

impl Record for LogRecord {
    fn encode(&self) -> [u64; RECORD_WORDS] {
        let (ept_prog, ept_pc) = self.ept.map_or((0, 0), |(p, pc)| (p.0, pc));
        let (object, res_kind, res_a, res_b) = match self.object {
            None => (0, 0u64, 0u64, 0u64),
            Some((sid, ResourceId::File { dev, ino })) => (sid.0, 1, ino.0, u64::from(dev.0)),
            Some((sid, ResourceId::Signal(s))) => (sid.0, 2, u64::from(s.0), 0),
        };
        let (tag_fixed, tag) = match self.tag {
            LogTag::Rule(id) => (0u64, id.0),
            LogTag::Fixed(i) => (1, u32::from(i)),
        };
        let flags = u64::from(self.ept.is_some())
            | (res_kind << 1)
            | (u64::from(self.adv_write) << 3)
            | (u64::from(self.adv_read) << 4)
            | (u64::from(self.deny) << 5)
            | (tag_fixed << 6)
            | ((self.op as u64) << 8);
        let mut w = [0u64; RECORD_WORDS];
        w[0] = self.ts;
        w[1] = self.invocation;
        w[2] = u64::from(self.pid) | (u64::from(self.subject.0) << 32);
        w[3] = u64::from(self.program.0) | (u64::from(ept_prog) << 32);
        w[4] = ept_pc;
        w[5] = u64::from(object) | (u64::from(tag) << 32);
        w[6] = res_a;
        w[7] = res_b | (u64::from(self.chain.0) << 32);
        w[8] = u64::from(self.rule) | (flags << 32);
        w
    }

    fn decode(w: &[u64; RECORD_WORDS]) -> Self {
        let flags = w[8] >> 32;
        let lo = |x: u64| InternId(x as u32);
        let hi = |x: u64| InternId((x >> 32) as u32);
        let resource = match (flags >> 1) & 3 {
            1 => Some(ResourceId::File {
                dev: DeviceId(w[7] as u32),
                ino: InodeNum(w[6]),
            }),
            2 => Some(ResourceId::Signal(SignalNum(w[6] as u8))),
            _ => None,
        };
        let tag = (w[5] >> 32) as u32;
        LogRecord {
            ts: w[0],
            invocation: w[1],
            pid: w[2] as u32,
            subject: hi(w[2]),
            program: lo(w[3]),
            ept: (flags & 1 != 0).then(|| (hi(w[3]), w[4])),
            object: resource.map(|r| (lo(w[5]), r)),
            adv_write: flags & (1 << 3) != 0,
            adv_read: flags & (1 << 4) != 0,
            deny: flags & (1 << 5) != 0,
            tag: if flags & (1 << 6) != 0 {
                LogTag::Fixed(tag as u8)
            } else {
                LogTag::Rule(InternId(tag))
            },
            op: op_at(((flags >> 8) & 0xff) as usize),
            chain: hi(w[7]),
            rule: w[8] as u32,
        }
    }
}

impl LogRecord {
    /// Renders the record against the MAC policy and interner the rules
    /// were parsed with. Both only grow, so a record drained after any
    /// number of reloads renders the names it was written with.
    pub fn resolve(&self, mac: &MacPolicy, names: &Interner) -> LogEntry {
        LogEntry {
            ts: self.ts,
            pid: self.pid,
            subject: mac.label_name(self.subject).to_owned(),
            program: name_of(names, self.program).to_owned(),
            ept_prog: self
                .ept
                .map(|(p, _)| name_of(names, p).to_owned())
                .unwrap_or_default(),
            ept_pc: self.ept.map_or(0, |(_, pc)| pc),
            op: self.op,
            object: self
                .object
                .map(|(sid, _)| mac.label_name(sid).to_owned())
                .unwrap_or_default(),
            resource: self.object.map(|(_, r)| r.to_string()).unwrap_or_default(),
            adv_write: self.adv_write,
            adv_read: self.adv_read,
            tag: match self.tag {
                LogTag::Rule(id) => name_of(names, id).to_owned(),
                LogTag::Fixed(i) => LogTag::FIXED
                    .get(usize::from(i))
                    .map_or("", |t| t)
                    .to_owned(),
            },
            verdict: if self.deny { "DENY" } else { "ALLOW" }.to_owned(),
        }
    }
}

/// One gap-marked drain of the LOG ring.
#[derive(Debug, Default)]
pub struct LogDrain {
    /// The drained records, oldest first.
    pub entries: Vec<LogRecord>,
    /// Overflow gap marker: `true` when this drain found records
    /// overwritten, i.e. some are missing before the first entry.
    pub gap: bool,
    /// How many records this drain found overwritten.
    pub dropped_since_last: u64,
}

#[derive(Debug, Clone, PartialEq)]
enum JsonVal {
    Str(String),
    Num(u64),
    Bool(bool),
}

/// Parses a flat JSON object with string/number/bool values.
fn parse_flat_object(json: &str) -> PfResult<Vec<(String, JsonVal)>> {
    let bytes: Vec<char> = json.trim().chars().collect();
    let e = |m: &str| PfError::RuleError(format!("bad log JSON: {m}"));
    let mut i = 0usize;
    let mut out = Vec::new();
    if bytes.first() != Some(&'{') {
        return Err(e("expected `{`"));
    }
    i += 1;
    loop {
        while i < bytes.len() && bytes[i].is_whitespace() {
            i += 1;
        }
        if i < bytes.len() && bytes[i] == '}' {
            return Ok(out);
        }
        // Key.
        if bytes.get(i) != Some(&'"') {
            return Err(e("expected key"));
        }
        i += 1;
        let mut key = String::new();
        while i < bytes.len() && bytes[i] != '"' {
            key.push(bytes[i]);
            i += 1;
        }
        i += 1; // Closing quote.
        while i < bytes.len() && bytes[i].is_whitespace() {
            i += 1;
        }
        if bytes.get(i) != Some(&':') {
            return Err(e("expected `:`"));
        }
        i += 1;
        while i < bytes.len() && bytes[i].is_whitespace() {
            i += 1;
        }
        // Value.
        let val = match bytes.get(i) {
            Some('"') => {
                i += 1;
                let mut v = String::new();
                while i < bytes.len() && bytes[i] != '"' {
                    if bytes[i] == '\\' {
                        i += 1;
                        match bytes.get(i) {
                            Some('n') => v.push('\n'),
                            Some('u') => {
                                let hex: String = bytes
                                    .get(i + 1..i + 5)
                                    .ok_or_else(|| e("truncated \\u"))?
                                    .iter()
                                    .collect();
                                let cp = u32::from_str_radix(&hex, 16).map_err(|_| e("bad \\u"))?;
                                v.push(char::from_u32(cp).ok_or_else(|| e("bad codepoint"))?);
                                i += 4;
                            }
                            Some(&c) => v.push(c),
                            None => return Err(e("dangling escape")),
                        }
                    } else {
                        v.push(bytes[i]);
                    }
                    i += 1;
                }
                i += 1;
                JsonVal::Str(v)
            }
            Some('t') | Some('f') => {
                let (word, val) = if bytes[i] == 't' {
                    ("true", true)
                } else {
                    ("false", false)
                };
                if !bytes[i..].iter().copied().take(word.len()).eq(word.chars()) {
                    return Err(e("unexpected value"));
                }
                i += word.len();
                JsonVal::Bool(val)
            }
            Some(c) if c.is_ascii_digit() => {
                let mut v = 0u64;
                while let Some(d) = bytes.get(i).and_then(|c| c.to_digit(10)) {
                    v = v
                        .checked_mul(10)
                        .and_then(|v| v.checked_add(u64::from(d)))
                        .ok_or_else(|| e("number out of range"))?;
                    i += 1;
                }
                JsonVal::Num(v)
            }
            _ => return Err(e("unexpected value")),
        };
        out.push((key, val));
        while i < bytes.len() && bytes[i].is_whitespace() {
            i += 1;
        }
        match bytes.get(i) {
            Some(',') => i += 1,
            Some('}') => return Ok(out),
            _ => return Err(e("expected `,` or `}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RecordRing;

    fn entry() -> LogEntry {
        LogEntry {
            ts: 42,
            pid: 7,
            subject: "user_t".into(),
            program: "/usr/bin/python2.7".into(),
            ept_prog: "/usr/bin/python2.7".into(),
            ept_pc: 0x34f05,
            op: LsmOperation::FileOpen,
            object: "tmp_t".into(),
            resource: "dev:1/ino:99".into(),
            adv_write: true,
            adv_read: false,
            tag: "trace".into(),
            verdict: "ALLOW".into(),
        }
    }

    #[test]
    fn json_round_trip() {
        let e = entry();
        assert_eq!(LogEntry::parse_json(&e.to_json()).unwrap(), e);
    }

    #[test]
    fn escaping_round_trips() {
        let mut e = entry();
        e.tag = "with \"quotes\" and \\slashes\\ and\nnewline".into();
        assert_eq!(LogEntry::parse_json(&e.to_json()).unwrap(), e);
    }

    /// Adversarial payloads in every string field: quotes, backslashes,
    /// control characters, JSON-structure characters, and multi-byte
    /// UTF-8 must all survive a render → parse round trip, and the
    /// rendered record must stay a single line.
    #[test]
    fn adversarial_strings_round_trip() {
        let payloads = [
            "\"},\"verdict\":\"DENY\"", // attempts to inject a field
            "\\\" \\\\ \\u0000",        // pre-escaped sequences
            "\u{0}\u{1}\u{1f}",         // raw control characters
            "line1\nline2\r\ttabbed",   // newline, CR, tab
            "{}[]:,",                   // JSON structure characters
            "ünïcødé ☂ 家",             // multi-byte UTF-8
            "ends with backslash \\",
            "",
        ];
        for p in payloads {
            let mut e = entry();
            e.tag = p.into();
            e.subject = format!("s{p}");
            e.program = format!("p{p}");
            e.object = format!("o{p}");
            e.resource = format!("r{p}");
            let json = e.to_json();
            assert_eq!(
                json.lines().count(),
                1,
                "record must stay one line for {p:?}"
            );
            assert_eq!(LogEntry::parse_json(&json).unwrap(), e, "payload {p:?}");
        }
    }

    #[test]
    fn rejects_truncated_json() {
        assert!(LogEntry::parse_json("{\"ts\":1").is_err());
        assert!(LogEntry::parse_json("not json").is_err());
    }

    #[test]
    fn missing_field_is_an_error() {
        assert!(LogEntry::parse_json("{\"ts\":1}").is_err());
    }

    /// Regression inputs from distributor files that used to panic (a
    /// truncated `\u` escape, an overflowing number) or parse a
    /// non-literal as a boolean.
    #[test]
    fn malformed_values_are_errors_not_panics() {
        for bad in [
            r#"{"a":"\u"}"#,
            r#"{"ts":99999999999999999999999}"#,
            r#"{"b":tXYZ}"#,
        ] {
            assert!(
                matches!(parse_flat_object(bad), Err(PfError::RuleError(_))),
                "{bad}"
            );
        }
        assert_eq!(
            parse_flat_object(r#"{"a":true,"b":false,"n":18446744073709551615}"#).unwrap(),
            vec![
                ("a".to_owned(), JsonVal::Bool(true)),
                ("b".to_owned(), JsonVal::Bool(false)),
                ("n".to_owned(), JsonVal::Num(u64::MAX)),
            ]
        );
    }

    fn stamped(ts: u64) -> LogRecord {
        LogRecord {
            ts,
            pid: 7,
            subject: InternId(1),
            program: InternId(2),
            ept: Some((InternId(3), 0x34f05)),
            op: LsmOperation::FileOpen,
            object: Some((
                InternId(4),
                ResourceId::File {
                    dev: DeviceId(1),
                    ino: InodeNum(99),
                },
            )),
            adv_write: true,
            adv_read: false,
            tag: LogTag::Rule(InternId(5)),
            deny: false,
            chain: InternId(6),
            rule: 3,
            invocation: 0,
        }
    }

    #[test]
    fn record_encoding_round_trips() {
        let mut r = stamped(42);
        assert_eq!(LogRecord::decode(&r.encode()), r);
        r.ept = None;
        r.object = Some((InternId(9), ResourceId::Signal(SignalNum(15))));
        r.tag = LogTag::JUMPDEPTH;
        r.deny = true;
        r.adv_read = true;
        r.invocation = u64::MAX;
        for op in LsmOperation::ALL {
            r.op = op;
            assert_eq!(LogRecord::decode(&r.encode()), r, "{op:?}");
        }
        r.object = None;
        assert_eq!(LogRecord::decode(&r.encode()), r);
    }

    #[test]
    fn records_resolve_to_the_entry_they_describe() {
        let mut mac = MacPolicy::new();
        let subject = mac.intern_label("user_t");
        let object = mac.intern_label("tmp_t");
        let mut names = Interner::new();
        let program = names.intern("/usr/bin/python2.7");
        let tag = names.intern("trace");
        let mut r = stamped(42);
        r.subject = subject;
        r.program = program;
        r.ept = Some((program, 0x34f05));
        r.object = Some((
            object,
            ResourceId::File {
                dev: DeviceId(1),
                ino: InodeNum(99),
            },
        ));
        r.tag = LogTag::Rule(tag);
        assert_eq!(r.resolve(&mac, &names), entry());
        r.deny = true;
        r.tag = LogTag::DROP;
        r.ept = None;
        r.object = None;
        let e = r.resolve(&mac, &names);
        assert_eq!((e.verdict.as_str(), e.tag.as_str()), ("DENY", "DROP"));
        assert_eq!((e.ept_prog.as_str(), e.ept_pc), ("", 0));
        assert_eq!((e.object.as_str(), e.resource.as_str()), ("", ""));
    }

    fn ring(capacity: usize) -> RecordRing<LogRecord> {
        RecordRing::new(capacity)
    }

    fn drain(sink: &RecordRing<LogRecord>) -> (Vec<u64>, u64) {
        let mut out = Vec::new();
        let dropped = sink.drain_into(&mut out);
        (out.iter().map(|r| r.ts).collect(), dropped)
    }

    #[test]
    fn sink_overwrites_oldest_and_accounts_exactly() {
        let sink = ring(4);
        for ts in 0..10 {
            sink.publish(&[stamped(ts)]);
        }
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.emitted(), 10);
        let (kept, dropped) = drain(&sink);
        assert_eq!(dropped, 6, "overwrites are counted by the drain");
        assert_eq!(kept, vec![6, 7, 8, 9], "newest records survive");
        assert_eq!(sink.dropped(), 6);
        assert_eq!(sink.emitted(), sink.drained() + sink.dropped());
        // A second drain with no traffic in between finds nothing lost.
        assert_eq!(drain(&sink), (vec![], 0));
    }

    #[test]
    fn sink_batch_append_preserves_order_and_allocation() {
        let sink = ring(8);
        let batch: Vec<LogRecord> = (0..5).map(stamped).collect();
        sink.publish(&batch);
        assert_eq!(batch.len(), 5, "the scratch is the caller's to reuse");
        assert_eq!(drain(&sink), (vec![0, 1, 2, 3, 4], 0));
        assert_eq!(sink.emitted(), 5);
        assert_eq!(sink.drained(), 5);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn sink_capacity_floor_is_one() {
        let sink = ring(0);
        assert_eq!(sink.capacity(), 1);
        sink.publish(&[stamped(1)]);
        sink.publish(&[stamped(2)]);
        assert_eq!(sink.len(), 1);
        assert_eq!(drain(&sink), (vec![2], 1));
    }

    #[test]
    fn sink_accounting_is_exact_under_concurrent_writers() {
        use std::sync::Arc;
        let sink = Arc::new(ring(64));
        let mut total_drained = 0u64;
        std::thread::scope(|s| {
            for _ in 0..4 {
                let sink = Arc::clone(&sink);
                s.spawn(move || {
                    let mut batch = Vec::new();
                    for round in 0..200u64 {
                        batch.clear();
                        for ts in 0..5 {
                            batch.push(stamped(round * 5 + ts));
                        }
                        sink.publish(&batch);
                    }
                });
            }
            // A racing drainer, like pftop's loop.
            for _ in 0..50 {
                total_drained += drain(&sink).0.len() as u64;
                std::thread::yield_now();
            }
        });
        total_drained += drain(&sink).0.len() as u64;
        assert_eq!(sink.emitted(), 4 * 200 * 5);
        assert_eq!(sink.drained(), total_drained);
        assert_eq!(sink.emitted(), sink.drained() + sink.dropped());
    }
}

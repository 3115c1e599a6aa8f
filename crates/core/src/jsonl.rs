//! The JSONL text form of a [`TraceEvent`]: one hand-written writer and
//! one hand-written reader, so tracing never builds a `serde` `Value`
//! tree.
//!
//! The layout is the externally tagged one the `serde` derive on
//! [`TraceEvent`] produces, byte for byte what `serde_json::to_string`
//! writes: `{"Variant":{"cycle":1,"field":value,...}}`, fields in
//! declaration order, integers in decimal, unit enums as their quoted
//! variant name and `None` as `null`. The derive stays on the type only
//! as the oracle the tests pin this codec to.
//!
//! The reader takes each line down one of two paths. A line exactly as
//! [`encode`] writes it (no whitespace, fields in declaration order,
//! integers as digit runs with no leading zero, the newline already
//! cut) is read by a fast path generated from the same `codec!` table,
//! which gives up at its first byte that the writer would not have
//! written there. Every other line, and every line the fast path gives
//! up on, goes to the general reader unchanged, so both paths accept the
//! same lines, read the same events and report the same errors. Under
//! `ff-core/audit` every line the fast path reads is read again by the
//! general reader and the two events are asserted equal.
//!
//! The general reader accepts the writer's output in any key order and
//! with any insignificant whitespace. Elsewhere it is stricter than
//! `serde_json`: it rejects unknown and repeated fields, string escapes,
//! and numbers written with a sign, a fraction or an exponent. Narrow
//! fields are range-checked (`u32` for `depth`, `mshr` and `len`;
//! `usize` for `pc`).

use crate::accounting::{CycleClass, StallCause};
use crate::report::Pipe;
use crate::trace::{FlushKind, TraceEvent};
use ff_mem::MemLevel;

/// A field value as scanned from a line, before it is typed.
#[derive(Debug, Clone, Copy)]
enum Val<'a> {
    /// A run of decimal digits that fits a `u64`.
    Int(u64),
    Bool(bool),
    Null,
    /// A string without escapes (a unit enum variant name).
    Str(&'a str),
    /// Any other bare token (too-large, signed or fractional numbers).
    Other,
}

/// One field type of a [`TraceEvent`] variant: how it is written and
/// how it is read back, from the writer's own text or from a scanned
/// value.
trait Field: Sized {
    /// The type as named in error messages.
    const WHAT: &'static str;
    /// Writes the value at `line[pos..]`; returns the position after it.
    fn put(self, line: &mut Line, pos: usize) -> usize;
    /// Reads the value at `line[pos..]` as `put` writes it; returns it
    /// and the position after it, or `None` if `put` would not have
    /// written these bytes.
    fn get(line: &[u8], pos: usize) -> Option<(Self, usize)>;
    fn take(v: Val<'_>) -> Option<Self>;
}

/// Room for the longest line [`encode`] writes, newline included:
/// `CqDequeue` with its four integers at `u64::MAX` takes 130 bytes.
pub(crate) const LINE_MAX: usize = 160;

/// Room for one encoded line.
pub(crate) type Line = [u8; LINE_MAX];

/// Copies `lit` to `line[pos..]`; returns the position after it. Every
/// caller passes a literal or a fixed-size array, so once inlined the
/// copy has a constant length.
#[inline(always)]
fn put_lit(line: &mut Line, pos: usize, lit: &[u8]) -> usize {
    let end = pos + lit.len();
    line[pos..end].copy_from_slice(lit);
    end
}

/// `"00"`, `"01"`, ..., `"99"`: the decimal digits of every value below
/// 100, two bytes each.
const PAIRS: [u8; 200] = {
    let mut t = [0; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Decimal digits of `n`.
#[inline]
fn digit_count(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Writes `n` in decimal at `line[pos..]`, two digits per step from the
/// end of its known digit count; returns the position after it.
#[inline]
fn put_u64(line: &mut Line, pos: usize, mut n: u64) -> usize {
    let end = pos + digit_count(n);
    let out = &mut line[pos..end];
    let mut i = out.len();
    while n >= 100 {
        let r = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        out[i..i + 2].copy_from_slice(&PAIRS[r..r + 2]);
    }
    if n >= 10 {
        let r = n as usize * 2;
        out[..2].copy_from_slice(&PAIRS[r..r + 2]);
    } else {
        out[0] = b'0' + n as u8;
    }
    end
}

/// `Some(pos + lit.len())` if `line[pos..]` starts with `lit`.
#[inline(always)]
fn get_lit(line: &[u8], pos: usize, lit: &[u8]) -> Option<usize> {
    let end = pos + lit.len();
    (line.get(pos..end)? == lit).then_some(end)
}

/// Reads a digit run at `line[pos..]` as [`put_u64`] writes it: at
/// least one digit, a leading zero only in `0` itself, and a value that
/// fits a `u64`. Returns the value and the position after it.
#[inline]
fn get_u64(line: &[u8], mut pos: usize) -> Option<(u64, usize)> {
    let start = pos;
    let mut n = 0u64;
    while let Some(d) = line.get(pos).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
        n = n.checked_mul(10)?.checked_add(u64::from(d))?;
        pos += 1;
    }
    match line[start..pos] {
        [] | [b'0', _, ..] => None,
        _ => Some((n, pos)),
    }
}

impl Field for u64 {
    const WHAT: &'static str = "u64";
    fn put(self, line: &mut Line, pos: usize) -> usize {
        put_u64(line, pos, self)
    }
    #[inline]
    fn get(line: &[u8], pos: usize) -> Option<(Self, usize)> {
        get_u64(line, pos)
    }
    fn take(v: Val<'_>) -> Option<Self> {
        match v {
            Val::Int(n) => Some(n),
            _ => None,
        }
    }
}

macro_rules! narrow_int {
    ($($t:ident),*) => {$(
        impl Field for $t {
            const WHAT: &'static str = stringify!($t);
            fn put(self, line: &mut Line, pos: usize) -> usize {
                put_u64(line, pos, self as u64)
            }
            #[inline]
            fn get(line: &[u8], pos: usize) -> Option<(Self, usize)> {
                let (n, end) = get_u64(line, pos)?;
                Some(($t::try_from(n).ok()?, end))
            }
            fn take(v: Val<'_>) -> Option<Self> {
                u64::take(v).and_then(|n| $t::try_from(n).ok())
            }
        }
    )*};
}
narrow_int!(u32, usize);

impl Field for bool {
    const WHAT: &'static str = "bool";
    fn put(self, line: &mut Line, pos: usize) -> usize {
        if self {
            put_lit(line, pos, b"true")
        } else {
            put_lit(line, pos, b"false")
        }
    }
    #[inline]
    fn get(line: &[u8], pos: usize) -> Option<(Self, usize)> {
        match get_lit(line, pos, b"true") {
            Some(end) => Some((true, end)),
            None => Some((false, get_lit(line, pos, b"false")?)),
        }
    }
    fn take(v: Val<'_>) -> Option<Self> {
        match v {
            Val::Bool(b) => Some(b),
            _ => None,
        }
    }
}

impl Field for Option<u64> {
    const WHAT: &'static str = "u64 or null";
    fn put(self, line: &mut Line, pos: usize) -> usize {
        match self {
            Some(n) => put_u64(line, pos, n),
            None => put_lit(line, pos, b"null"),
        }
    }
    #[inline]
    fn get(line: &[u8], pos: usize) -> Option<(Self, usize)> {
        match get_lit(line, pos, b"null") {
            Some(end) => Some((None, end)),
            None => get_u64(line, pos).map(|(n, end)| (Some(n), end)),
        }
    }
    fn take(v: Val<'_>) -> Option<Self> {
        match v {
            Val::Null => Some(None),
            v => u64::take(v).map(Some),
        }
    }
}

/// Unit enums travel as their quoted variant name.
macro_rules! unit_enum {
    ($($t:ident { $($v:ident),* $(,)? })*) => {$(
        impl Field for $t {
            const WHAT: &'static str = stringify!($t);
            fn put(self, line: &mut Line, pos: usize) -> usize {
                match self {
                    $($t::$v => put_lit(line, pos, concat!("\"", stringify!($v), "\"").as_bytes()),)*
                }
            }
            #[inline]
            fn get(line: &[u8], pos: usize) -> Option<(Self, usize)> {
                $(if let Some(end) = get_lit(line, pos, concat!("\"", stringify!($v), "\"").as_bytes()) {
                    return Some(($t::$v, end));
                })*
                None
            }
            fn take(v: Val<'_>) -> Option<Self> {
                let Val::Str(s) = v else { return None };
                $(if s == stringify!($v) {
                    return Some($t::$v);
                })*
                None
            }
        }
    )*};
}
unit_enum! {
    CycleClass {
        Unstalled, LoadStall, NonLoadDepStall, ResourceStall, FrontEndStall, APipeStall,
    }
    StallCause {
        Issue, LoadL1, LoadL2, LoadL3, LoadMem, DepFp, DepIntMul, DepOther, ResMshr,
        ResStoreBuffer, ResCouplingQueue, ResFuSlot, FeRefill, FeEmpty, APipe,
    }
    MemLevel { L1, L2, L3, Mem }
    Pipe { A, B }
    FlushKind { BdetMispredict, StoreConflict }
}

/// Most fields any variant has.
const MAX_FIELDS: usize = 5;

/// The fields of one scanned line, in line order.
struct Fields<'a> {
    tag: &'a str,
    items: [(&'a str, &'a str, Val<'a>); MAX_FIELDS],
    len: usize,
    /// Bit `i` is set once `items[i]` has been taken.
    taken: u32,
}

impl<'a> Fields<'a> {
    fn push(&mut self, key: &'a str, raw: &'a str, v: Val<'a>) -> Result<(), String> {
        let slot = self
            .items
            .get_mut(self.len)
            .ok_or_else(|| format!("too many fields in {}", self.tag))?;
        *slot = (key, raw, v);
        self.len += 1;
        Ok(())
    }

    /// The typed value of field `key`.
    fn take<T: Field>(&mut self, key: &str) -> Result<T, String> {
        let tag = self.tag;
        // In a line the writer wrote, the n-th field taken is the n-th
        // in the line.
        let next = self.taken.count_ones() as usize;
        let i = if next < self.len && self.items[next].0 == key {
            next
        } else {
            self.items[..self.len]
                .iter()
                .position(|&(k, _, _)| k == key)
                .ok_or_else(|| format!("missing field `{key}` in {tag}"))?
        };
        self.taken |= 1 << i;
        let (_, raw, v) = self.items[i];
        T::take(v)
            .ok_or_else(|| format!("field `{key}` in {tag}: expected {}, found {raw}", T::WHAT))
    }

    /// Fails on a field that no `take` asked for: a repeated key (the
    /// first one was taken) or one the variant does not have.
    fn finish(&self, e: TraceEvent) -> Result<TraceEvent, String> {
        let Some(i) = (0..self.len).find(|i| self.taken & (1 << i) == 0) else { return Ok(e) };
        let (key, tag) = (self.items[i].0, self.tag);
        if self.items[..self.len].iter().filter(|&&(k, _, _)| k == key).count() > 1 {
            Err(format!("field `{key}` appears twice in {tag}"))
        } else {
            Err(format!("unknown field `{key}` in {tag}"))
        }
    }
}

/// The one table of variants and their fields, in declaration order
/// (the order the writer emits). Every variant's first field is
/// `cycle`.
macro_rules! codec {
    ($($v:ident { cycle $(, $f:ident)* })*) => {
        /// Writes `e` as one JSON line, newline included, at the start
        /// of `line`; returns its length.
        pub(crate) fn encode(e: &TraceEvent, line: &mut Line) -> usize {
            let pos = match *e {
                $(TraceEvent::$v { cycle $(, $f)* } => {
                    let pos = put_lit(
                        line,
                        0,
                        concat!("{\"", stringify!($v), "\":{\"cycle\":").as_bytes(),
                    );
                    let mut pos = put_u64(line, pos, cycle);
                    $(
                        pos = put_lit(line, pos, concat!(",\"", stringify!($f), "\":").as_bytes());
                        pos = Field::put($f, line, pos);
                    )*
                    pos
                })*
            };
            put_lit(line, pos, b"}}\n")
        }

        /// Reads `line` if it is exactly as [`encode`] writes it, without
        /// its newline; `None` at the first byte that `encode` would not
        /// have written there.
        #[inline]
        fn decode_canonical(line: &str) -> Option<TraceEvent> {
            let bytes = line.as_bytes();
            let rest = bytes.strip_prefix(b"{\"")?;
            let tag_end = 2 + rest.iter().position(|&b| b == b'"')?;
            let (e, pos) = match &line[2..tag_end] {
                $(stringify!($v) => {
                    let pos = get_lit(bytes, tag_end, b"\":{\"cycle\":")?;
                    let (cycle, pos) = get_u64(bytes, pos)?;
                    $(
                        let pos = get_lit(bytes, pos, concat!(",\"", stringify!($f), "\":").as_bytes())?;
                        let ($f, pos) = Field::get(bytes, pos)?;
                    )*
                    (TraceEvent::$v { cycle $(, $f)* }, pos)
                })*
                _ => return None,
            };
            (get_lit(bytes, pos, b"}}")? == bytes.len()).then_some(e)
        }

        /// Builds the event named by `fields.tag`.
        fn build(fields: &mut Fields<'_>) -> Result<TraceEvent, String> {
            let e = match fields.tag {
                $(stringify!($v) => TraceEvent::$v {
                    cycle: fields.take("cycle")?,
                    $($f: fields.take(stringify!($f))?,)*
                },)*
                other => return Err(format!("unknown event `{other}`")),
            };
            fields.finish(e)
        }
    };
}

codec! {
    Fetch { cycle, seq, pc }
    AExec { cycle, seq, pc, ready_at }
    Defer { cycle, seq, pc }
    CqEnqueue { cycle, seq, pc, depth }
    CqDequeue { cycle, seq, pc, resident }
    BExec { cycle, seq, pc }
    Squash { cycle, seq, pc }
    ADispatch { cycle, seq, pc, deferred }
    BRetire { cycle, seq, pc, was_deferred }
    Flush { cycle, kind, boundary_seq }
    ARedirect { cycle, pc }
    GroupDispatch { cycle, pipe, head_seq, len }
    ClassTransition { cycle, from, to }
    CauseTransition { cycle, cause, pc }
    MissBegin { cycle, pipe, level, addr, fill_at }
    MissEnd { cycle, addr, level }
    QueueSample { cycle, depth, mshr }
    RunaheadEnter { cycle, pc }
    RunaheadExit { cycle, pc, discarded }
}

/// What every `QueueSample` line has before its cycle.
const SAMPLE_HEAD: &[u8] = b"{\"QueueSample\":{\"cycle\":";

/// Longest text after a `QueueSample`'s cycle: both counts at
/// `u32::MAX`.
const SAMPLE_TAIL_MAX: usize = r#","depth":4294967295,"mshr":4294967295}}"#.len() + 1;

/// The `QueueSample` lines of one occupancy: every line is the same
/// but for its cycle, so the text after the cycle is encoded once.
pub(crate) struct SampleLines {
    tail: [u8; SAMPLE_TAIL_MAX],
    tail_len: usize,
}

impl SampleLines {
    pub(crate) fn new(depth: u32, mshr: u32) -> Self {
        let mut line = [0; LINE_MAX];
        let len = encode(&TraceEvent::QueueSample { cycle: 0, depth, mshr }, &mut line);
        let tail_at = SAMPLE_HEAD.len() + 1;
        debug_assert_eq!(&line[..tail_at], [SAMPLE_HEAD, b"0"].concat().as_slice());
        let mut tail = [0; SAMPLE_TAIL_MAX];
        tail[..len - tail_at].copy_from_slice(&line[tail_at..len]);
        Self { tail, tail_len: len - tail_at }
    }

    /// Writes the line for `cycle` at the start of `line`, exactly as
    /// [`encode`] would; returns its length. The tail is copied at its
    /// longest, a constant-length copy whose excess bytes lie past the
    /// returned length.
    #[inline]
    pub(crate) fn encode(&self, cycle: u64, line: &mut Line) -> usize {
        let pos = put_lit(line, 0, SAMPLE_HEAD);
        let pos = put_u64(line, pos, cycle);
        put_lit(line, pos, &self.tail);
        pos + self.tail_len
    }
}

/// A byte cursor over one line.
struct Scanner<'a> {
    line: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    /// Skips the whitespace JSON allows between tokens.
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[cold]
    fn unexpected(&self, wanted: &str) -> String {
        match self.line[self.pos..].chars().next() {
            Some(c) => format!("expected {wanted} at byte {}, found `{c}`", self.pos),
            None => format!("expected {wanted} at byte {}, found end of line", self.pos),
        }
    }

    #[cold]
    fn unexpected_byte(&self, b: u8) -> String {
        self.unexpected(&format!("`{}`", b as char))
    }

    /// Consumes `b` after optional whitespace.
    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected_byte(b))
        }
    }

    /// A string without escapes, after optional whitespace.
    fn string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let start = self.pos;
        let rest = &self.line.as_bytes()[start..];
        match rest.iter().position(|&b| b == b'"' || b == b'\\') {
            Some(n) if rest[n] == b'"' => {
                self.pos = start + n + 1;
                Ok(&self.line[start..start + n])
            }
            Some(n) => Err(format!("unsupported escape sequence at byte {}", start + n)),
            None => {
                self.pos = self.line.len();
                Err(self.unexpected("`\"`"))
            }
        }
    }

    /// A field value after optional whitespace, with its source text.
    fn value(&mut self) -> Result<(&'a str, Val<'a>), String> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'"') {
            let s = self.string()?;
            return Ok((&self.line[start..self.pos], Val::Str(s)));
        }
        // A bare token: digits are accumulated as they are scanned, and
        // `n` stays `Some` only for an all-digit token that fits a u64.
        let bytes = self.line.as_bytes();
        let mut n = Some(0u64);
        while let Some(d) = bytes.get(self.pos).map(|b| b.wrapping_sub(b'0')).filter(|&d| d < 10) {
            n = n.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(d)));
            self.pos += 1;
        }
        while !matches!(self.peek(), None | Some(b',' | b'}' | b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
            n = None;
        }
        let v = match (&bytes[start..self.pos], n) {
            ([], _) => return Err(self.unexpected("a value")),
            (_, Some(n)) => Val::Int(n),
            (b"true", _) => Val::Bool(true),
            (b"false", _) => Val::Bool(false),
            (b"null", _) => Val::Null,
            _ => Val::Other,
        };
        Ok((&self.line[start..self.pos], v))
    }
}

/// Parses one line written by [`encode`]; whitespace around it is
/// ignored. The writer's own lines take the fast path, every other line
/// the general reader.
pub(crate) fn decode(line: &str) -> Result<TraceEvent, String> {
    match decode_canonical(line) {
        Some(e) => {
            #[cfg(feature = "audit")]
            audit_canonical(line, e);
            Ok(e)
        }
        None => decode_general(line),
    }
}

/// Audit probe: the general reader reads every line the fast path read
/// as the same event.
#[cfg(feature = "audit")]
fn audit_canonical(line: &str, e: TraceEvent) {
    assert_eq!(
        decode_general(line),
        Ok(e),
        "audit: the fast and the general JSONL readers disagree on {line:?}"
    );
}

/// The general reader: any key order, any insignificant whitespace.
fn decode_general(line: &str) -> Result<TraceEvent, String> {
    let mut s = Scanner { line, pos: 0 };
    s.expect(b'{')?;
    let tag = s.string()?;
    s.expect(b':')?;
    s.expect(b'{')?;
    let mut fields = Fields { tag, items: [("", "", Val::Null); MAX_FIELDS], len: 0, taken: 0 };
    s.skip_ws();
    if s.peek() == Some(b'}') {
        s.pos += 1;
    } else {
        loop {
            let key = s.string()?;
            s.expect(b':')?;
            let (raw, v) = s.value()?;
            fields.push(key, raw, v)?;
            s.skip_ws();
            match s.peek() {
                Some(b',') => s.pos += 1,
                Some(b'}') => {
                    s.pos += 1;
                    break;
                }
                _ => return Err(s.unexpected("`,` or `}`")),
            }
        }
    }
    s.expect(b'}')?;
    s.skip_ws();
    if s.pos != line.len() {
        return Err(format!("trailing characters at byte {}", s.pos));
    }
    build(&mut fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(e: &TraceEvent) -> String {
        let mut line = [0; LINE_MAX];
        let len = encode(e, &mut line);
        String::from_utf8(line[..len].to_vec()).unwrap()
    }

    /// Every variant, with each field at its edge values and every
    /// value of each enum it carries.
    fn edge_events() -> Vec<TraceEvent> {
        let mut v = Vec::new();
        for n in [0, 1, 9, 10, 12_345, u64::from(u32::MAX), u64::MAX] {
            let pc = n as usize;
            let narrow = u32::try_from(n).unwrap_or(u32::MAX);
            v.extend([
                TraceEvent::Fetch { cycle: n, seq: n, pc },
                TraceEvent::AExec { cycle: n, seq: n, pc, ready_at: n },
                TraceEvent::Defer { cycle: n, seq: n, pc },
                TraceEvent::CqEnqueue { cycle: n, seq: n, pc, depth: narrow },
                TraceEvent::CqDequeue { cycle: n, seq: n, pc, resident: n },
                TraceEvent::BExec { cycle: n, seq: n, pc },
                TraceEvent::Squash { cycle: n, seq: n, pc },
                TraceEvent::ARedirect { cycle: n, pc },
                TraceEvent::CauseTransition { cycle: n, cause: StallCause::Issue, pc: Some(n) },
                TraceEvent::QueueSample { cycle: n, depth: narrow, mshr: narrow },
                TraceEvent::RunaheadEnter { cycle: n, pc },
                TraceEvent::RunaheadExit { cycle: n, pc, discarded: n },
            ]);
            for b in [false, true] {
                v.push(TraceEvent::ADispatch { cycle: n, seq: n, pc, deferred: b });
                v.push(TraceEvent::BRetire { cycle: n, seq: n, pc, was_deferred: b });
            }
            for kind in [FlushKind::BdetMispredict, FlushKind::StoreConflict] {
                v.push(TraceEvent::Flush { cycle: n, kind, boundary_seq: n });
            }
            for pipe in [Pipe::A, Pipe::B] {
                v.push(TraceEvent::GroupDispatch { cycle: n, pipe, head_seq: n, len: narrow });
                for level in MemLevel::ALL {
                    v.push(TraceEvent::MissBegin { cycle: n, pipe, level, addr: n, fill_at: n });
                    v.push(TraceEvent::MissEnd { cycle: n, addr: n, level });
                }
            }
        }
        for from in CycleClass::ALL {
            for to in CycleClass::ALL {
                v.push(TraceEvent::ClassTransition { cycle: 3, from, to });
            }
        }
        for cause in StallCause::ALL {
            for pc in [None, Some(0), Some(u64::MAX)] {
                v.push(TraceEvent::CauseTransition { cycle: 4, cause, pc });
            }
        }
        v
    }

    #[test]
    fn writer_matches_serde_and_reader_inverts_it_on_every_variant() {
        let events = edge_events();
        for e in &events {
            let line = encoded(e);
            assert_eq!(line, serde_json::to_string(e).unwrap() + "\n", "{e:?}");
            assert_eq!(decode_canonical(line.trim_end()), Some(*e), "{line}");
            assert_eq!(decode_general(line.trim_end()), Ok(*e), "{line}");
        }
        let kinds: std::collections::HashSet<_> =
            events.iter().map(std::mem::discriminant).collect();
        assert_eq!(kinds.len(), 19, "every TraceEvent variant is covered");
    }

    #[test]
    fn digit_writer_matches_to_string_at_every_digit_count_edge() {
        let mut cases = vec![0, 9, 10, 99, 100, u64::MAX];
        for k in 1..=19 {
            let p = 10u64.pow(k);
            cases.extend([p - 1, p, p + 1]);
        }
        for n in cases {
            let mut line = [b'#'; LINE_MAX];
            let end = put_u64(&mut line, 3, n);
            let want = n.to_string();
            assert_eq!(end, 3 + want.len(), "{n}");
            assert_eq!(&line[3..end], want.as_bytes(), "{n}");
            assert!(line[..3].iter().chain(&line[end..]).all(|&b| b == b'#'), "{n}: stray bytes");
        }
    }

    #[test]
    fn the_longest_line_fits_line_max() {
        let miss = TraceEvent::MissBegin {
            cycle: u64::MAX,
            pipe: Pipe::A,
            level: MemLevel::Mem,
            addr: u64::MAX,
            fill_at: u64::MAX,
        };
        assert_eq!(encoded(&miss).len(), 129);
        // Four full-width integers make `CqDequeue` a byte wider still.
        let widest = edge_events().iter().map(|e| encoded(e).len()).max().unwrap();
        assert_eq!(widest, 130);
        assert!(widest <= LINE_MAX);
        assert!(SAMPLE_HEAD.len() + 20 + SAMPLE_TAIL_MAX <= LINE_MAX);
    }

    #[test]
    fn sample_lines_match_encode() {
        for (depth, mshr) in [(0, 0), (7, 16), (u32::MAX, 9), (10, u32::MAX), (u32::MAX, u32::MAX)]
        {
            let lines = SampleLines::new(depth, mshr);
            for cycle in [0, 9, 10, 12_345, u64::MAX] {
                let mut line = [0; LINE_MAX];
                let len = lines.encode(cycle, &mut line);
                let want = encoded(&TraceEvent::QueueSample { cycle, depth, mshr });
                assert_eq!(&line[..len], want.as_bytes());
            }
        }
    }

    #[test]
    fn reader_takes_any_key_order_and_whitespace() {
        let line = " {\t\"CqEnqueue\" : { \"depth\":2 ,\"pc\" :6,\"cycle\":13, \"seq\": 22 } }\r";
        let e = TraceEvent::CqEnqueue { cycle: 13, seq: 22, pc: 6, depth: 2 };
        assert_eq!(decode(line), Ok(e));
        assert_eq!(serde_json::from_str::<TraceEvent>(line).unwrap(), e);
    }

    #[test]
    fn reader_errors_name_the_field() {
        let cases = [
            (r#"{"Fetch":{"cycle":1,"pc":3}}"#, "missing field `seq` in Fetch"),
            (
                r#"{"QueueSample":{"cycle":1,"depth":4294967296,"mshr":0}}"#,
                "field `depth` in QueueSample: expected u32, found 4294967296",
            ),
            (
                r#"{"Fetch":{"cycle":-1,"seq":2,"pc":3}}"#,
                "field `cycle` in Fetch: expected u64, found -1",
            ),
            (
                r#"{"MissEnd":{"cycle":1,"addr":2,"level":"L4"}}"#,
                "field `level` in MissEnd: expected MemLevel, found \"L4\"",
            ),
            (r#"{"Fetched":{"cycle":1}}"#, "unknown event `Fetched`"),
            (r#"{"Fetch":{"cycle":1,"seq":2"#, "expected `,` or `}` at byte 27, found end of line"),
            ("not json", "expected `{` at byte 0, found `n`"),
        ];
        for (line, want) in cases {
            assert_eq!(decode(line), Err(want.to_string()), "{line}");
            assert!(serde_json::from_str::<TraceEvent>(line).is_err(), "{line}");
        }
        // Stricter than serde, which ignores unknown fields, keeps the
        // first of two, and reads 1.0 as 1.
        let cases = [
            (r#"{"Fetch":{"cycle":1,"seq":2,"pc":3,"x":0}}"#, "unknown field `x` in Fetch"),
            (
                r#"{"Fetch":{"cycle":1,"seq":2,"pc":3,"cycle":2}}"#,
                "field `cycle` appears twice in Fetch",
            ),
            (
                r#"{"Fetch":{"cycle":1.0,"seq":2,"pc":3}}"#,
                "field `cycle` in Fetch: expected u64, found 1.0",
            ),
        ];
        for (line, want) in cases {
            assert_eq!(decode(line), Err(want.to_string()), "{line}");
        }
    }

    /// One event of variant `variant % 19`, its fields drawn from `vals`
    /// and its enums and flag from `pick`.
    fn any_event(variant: u8, vals: [u64; 4], pick: usize) -> TraceEvent {
        let [a, b, c, d] = vals;
        let (pc, narrow, flag) = (b as usize, c as u32, pick % 2 == 1);
        let pipe = if flag { Pipe::A } else { Pipe::B };
        let level = MemLevel::ALL[pick % MemLevel::ALL.len()];
        let class = |x: usize| CycleClass::ALL[x % CycleClass::ALL.len()];
        match variant % 19 {
            0 => TraceEvent::Fetch { cycle: a, seq: d, pc },
            1 => TraceEvent::AExec { cycle: a, seq: d, pc, ready_at: c },
            2 => TraceEvent::Defer { cycle: a, seq: d, pc },
            3 => TraceEvent::CqEnqueue { cycle: a, seq: d, pc, depth: narrow },
            4 => TraceEvent::CqDequeue { cycle: a, seq: d, pc, resident: c },
            5 => TraceEvent::BExec { cycle: a, seq: d, pc },
            6 => TraceEvent::Squash { cycle: a, seq: d, pc },
            7 => TraceEvent::ADispatch { cycle: a, seq: d, pc, deferred: flag },
            8 => TraceEvent::BRetire { cycle: a, seq: d, pc, was_deferred: flag },
            9 => TraceEvent::Flush {
                cycle: a,
                kind: if flag { FlushKind::StoreConflict } else { FlushKind::BdetMispredict },
                boundary_seq: d,
            },
            10 => TraceEvent::ARedirect { cycle: a, pc },
            11 => TraceEvent::GroupDispatch { cycle: a, pipe, head_seq: d, len: narrow },
            12 => TraceEvent::ClassTransition { cycle: a, from: class(pick), to: class(pick / 7) },
            13 => TraceEvent::CauseTransition {
                cycle: a,
                cause: StallCause::ALL[pick % StallCause::ALL.len()],
                pc: flag.then_some(d),
            },
            14 => TraceEvent::MissBegin { cycle: a, pipe, level, addr: b, fill_at: c },
            15 => TraceEvent::MissEnd { cycle: a, addr: b, level },
            16 => TraceEvent::QueueSample { cycle: a, depth: narrow, mshr: d as u32 },
            17 => TraceEvent::RunaheadEnter { cycle: a, pc },
            _ => TraceEvent::RunaheadExit { cycle: a, pc, discarded: c },
        }
    }

    /// Spreads a random draw over every magnitude: zero, the `u32` and
    /// `u64` edges, and every digit count between.
    fn magnitude(raw: u64) -> u64 {
        match raw % 8 {
            0 => 0,
            1 => u64::MAX,
            2 => u64::from(u32::MAX),
            _ => raw >> (raw % 64),
        }
    }

    /// Each way of changing the canonical `line` of `e` that the general
    /// reader must judge, paired with the event it must read, if the
    /// change keeps the line's meaning.
    fn mutations(line: &str, e: TraceEvent) -> Vec<(String, Option<TraceEvent>)> {
        let splice = |at: usize, text: &str| format!("{}{text}{}", &line[..at], &line[at..]);
        let mut out = Vec::new();
        // Whitespace at every token boundary.
        let punct = |b: Option<&u8>| matches!(b, Some(b'{' | b'}' | b':' | b','));
        let bytes = line.as_bytes();
        for at in 0..=line.len() {
            if at == 0 || at == line.len() || punct(bytes.get(at - 1)) || punct(bytes.get(at)) {
                for ws in [" ", "\t", "\n", "\r"] {
                    out.push((splice(at, ws), Some(e)));
                }
            }
        }
        // Every rotation of the fields, and their reverse.
        let open = line[1..].find('{').unwrap() + 2;
        let (head, inner) = (&line[..open], &line[open..line.len() - 2]);
        let fields: Vec<&str> = inner.split(',').collect();
        for k in 0..fields.len() {
            let rotated = [&fields[k..], &fields[..k]].concat();
            out.push((format!("{head}{}}}}}", rotated.join(",")), Some(e)));
        }
        let reversed: Vec<&str> = fields.iter().rev().copied().collect();
        out.push((format!("{head}{}}}}}", reversed.join(",")), Some(e)));
        // A leading zero on, or an edge value for, every integer.
        let runs = (1..line.len())
            .filter(|&i| bytes[i].is_ascii_digit() && bytes[i - 1] == b':')
            .map(|i| (i, i + bytes[i..].iter().take_while(|b| b.is_ascii_digit()).count()));
        for (start, end) in runs {
            out.push((splice(start, "0"), Some(e)));
            out.push((splice(start, "00"), Some(e)));
            for edge in ["0", "00", "4294967295", "4294967296", "18446744073709551615"]
                .into_iter()
                .chain(["18446744073709551616", "99999999999999999999", "184467440737095516150"])
            {
                out.push((format!("{}{edge}{}", &line[..start], &line[end..]), None));
            }
        }
        // Truncation at every byte.
        out.extend((0..line.len()).map(|at| (line[..at].to_string(), None)));
        // Another tag, known or not.
        let tag_end = line[2..].find('"').unwrap() + 2;
        for tag in ["Fetch", "QueueSample", "MissBegin", "Fetched", "fetch", "", "Fetch\\u0041"] {
            out.push((format!("{{\"{tag}{}", &line[tag_end..]), None));
        }
        // A repeated field, and an extra one at either end.
        let close = line.len() - 2;
        for field in &fields {
            out.push((splice(close, &format!(",{field}")), None));
        }
        out.push((splice(close, ",\"x\":0"), None));
        out.push((splice(open, "\"x\":0,"), None));
        // Trailing bytes.
        for tail in ["\n", " ", "\r\n", "}", ",", "x", "\u{e9}", "{}", "0"] {
            out.push((format!("{line}{tail}"), None));
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1500))]

        /// Every line the writer writes takes the fast path and reads
        /// back as its event. Of its mutations, the fast path reads only
        /// those that are themselves the writer's line for what it read,
        /// and on each `decode` returns exactly what the general reader
        /// alone returns, error text included.
        #[test]
        fn fast_path_reads_the_writer_and_agrees_with_the_general_reader(
            pick in (0u8..19, proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>(),
                proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            enums in 0usize..10_000,
        ) {
            let (variant, a, b, c, d) = pick;
            let e = any_event(variant, [a, b, c, d].map(magnitude), enums);
            let line = encoded(&e);
            let line = line.trim_end();
            proptest::prop_assert_eq!(decode_canonical(line), Some(e), "{}", line);
            proptest::prop_assert_eq!(decode(line), Ok(e));
            for (mutant, keeps) in mutations(line, e) {
                if let Some(read) = decode_canonical(&mutant) {
                    let written = encoded(&read);
                    proptest::prop_assert_eq!(written.trim_end(), mutant.as_str(), "not canonical");
                }
                let general = decode_general(&mutant);
                proptest::prop_assert_eq!(decode(&mutant), general.clone(), "{:?}", mutant);
                if let Some(e) = keeps {
                    proptest::prop_assert_eq!(general, Ok(e), "{:?}", mutant);
                }
            }
        }
    }
}

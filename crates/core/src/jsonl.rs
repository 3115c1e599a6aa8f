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
//! The reader accepts that output in any key order and with any
//! insignificant whitespace. Elsewhere it is stricter than `serde_json`:
//! it rejects unknown and repeated fields, string escapes, and numbers
//! written with a sign, a fraction or an exponent. Narrow fields are
//! range-checked (`u32` for `depth`, `mshr` and `len`; `usize` for `pc`).

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
/// how it is read back from a scanned value.
trait Field: Sized {
    /// The type as named in error messages.
    const WHAT: &'static str;
    /// Writes the value at `line[pos..]`; returns the position after it.
    fn put(self, line: &mut Line, pos: usize) -> usize;
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

impl Field for u64 {
    const WHAT: &'static str = "u64";
    fn put(self, line: &mut Line, pos: usize) -> usize {
        put_u64(line, pos, self)
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
/// ignored.
pub(crate) fn decode(line: &str) -> Result<TraceEvent, String> {
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
            assert_eq!(decode(line.trim_end()), Ok(*e), "{line}");
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
}

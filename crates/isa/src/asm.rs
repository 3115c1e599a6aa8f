//! A textual assembler for the EPIC-style ISA.
//!
//! [`parse_program`] accepts the same syntax [`crate::Program`] prints
//! (`Display`), plus labels, comments, and symbolic branch targets:
//!
//! ```text
//! // r1 = counter, r2 = bound
//!         movi r1 = 0
//!         movi r2 = 10 ;;
//! loop:
//!         addi r1 = r1, 1 ;;
//!         cmp.lt p1, p2 = r1, r2 ;;
//!    (p1) br loop ;;
//!         halt
//! ```
//!
//! * `;;` after an instruction sets the stop bit (issue-group boundary);
//! * `(pN)` before a mnemonic sets the qualifying predicate;
//! * `name:` on its own line (or before an instruction) binds a label;
//!   labels force a group boundary, as branch targets must start groups.
//!   A name may not be all digits: `br 3` means instruction 3;
//! * `//` and `#` start comments;
//! * an immediate is decimal, or hex (`0x..`, optionally negated) read
//!   as a 64-bit pattern, so `0xffffffffffffffff` is `-1`.
//!
//! The opcode table in [`crate::op`] both prints an instruction and
//! reads it back (all but a branch to a label), so an opcode's text form
//! is declared once. Round-trip property: parsing the `Display` output of
//! any valid program (with targets printed numerically) reproduces it
//! exactly — checked by proptest and a golden listing of every opcode
//! at its operand extremes in the test suite.

use crate::builder::Label;
use crate::op::Opcode;
use crate::program::{Program, ValidateProgramError};
use crate::{BuildProgramError, ProgramBuilder};
use std::collections::HashMap;
use std::fmt;

/// Error produced by [`parse_program`], with a 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseAsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseAsmError {}

fn err(line: usize, message: impl Into<String>) -> ParseAsmError {
    ParseAsmError { line, message: message.into() }
}

/// The operand tokens of one instruction line.
pub(crate) struct Cursor<'a> {
    toks: std::slice::Iter<'a, &'a str>,
    line: usize,
}

impl Cursor<'_> {
    /// Reads the next operand token as a `T`.
    pub(crate) fn operand<T: Operand>(&mut self) -> Result<T, ParseAsmError> {
        let tok = self.toks.next().ok_or_else(|| self.error("unexpected end of line"))?;
        operand(tok, self.line)
    }

    /// An error on this cursor's line.
    pub(crate) fn error(&self, message: impl Into<String>) -> ParseAsmError {
        err(self.line, message)
    }
}

/// A register or immediate as the assembler reads it from one token;
/// it prints through its `Display`.
pub(crate) trait Operand: Sized {
    /// What a token of this kind is, for error messages.
    const WHAT: &'static str;
    /// Reads a whole token, or `None` if it is not one of these.
    fn parse(tok: &str) -> Option<Self>;
}

fn operand<T: Operand>(tok: &str, line: usize) -> Result<T, ParseAsmError> {
    T::parse(tok).ok_or_else(|| err(line, format!("expected {}, found `{tok}`", T::WHAT)))
}

/// Decimal, or hex read as a 64-bit pattern, so the `{:#x}` text of a
/// negative mask (`0xffffffffffffffff`) reads back.
impl Operand for i64 {
    const WHAT: &'static str = "immediate";
    fn parse(tok: &str) -> Option<Self> {
        let (neg, digits) = tok.strip_prefix('-').map_or((false, tok), |t| (true, t));
        match digits.strip_prefix("0x") {
            Some(hex) => {
                let bits = u64::from_str_radix(hex, 16).ok()? as i64;
                Some(if neg { bits.wrapping_neg() } else { bits })
            }
            None => tok.parse().ok(),
        }
    }
}

/// A shift amount: any immediate that fits in a byte.
impl Operand for u8 {
    const WHAT: &'static str = "shift amount";
    fn parse(tok: &str) -> Option<Self> {
        u8::try_from(i64::parse(tok)?).ok()
    }
}

impl Operand for f64 {
    const WHAT: &'static str = "FP immediate";
    fn parse(tok: &str) -> Option<Self> {
        tok.parse().ok()
    }
}

/// A numeric branch target.
impl Operand for usize {
    const WHAT: &'static str = "branch target";
    fn parse(tok: &str) -> Option<Self> {
        tok.parse().ok()
    }
}

/// Splits an instruction line into tokens, treating `,`, `=`, `[`, `]`,
/// `+` as separators (they are syntax sugar only).
fn tokenize(text: &str) -> Vec<&str> {
    text.split(|c: char| c.is_whitespace() || ",=[]+".contains(c))
        .filter(|t| !t.is_empty())
        .collect()
}

/// Parses assembly text into a validated [`Program`].
///
/// # Errors
///
/// Returns [`ParseAsmError`] for syntax problems (with the offending
/// line), for a label that is never bound (with the line that first
/// names it), or with the underlying [`BuildProgramError`] message for
/// an invalid program structure.
pub fn parse_program(text: &str) -> Result<Program, ParseAsmError> {
    let mut b = ProgramBuilder::new();
    // Each label name with the line it is first referenced on, for the
    // error when it is never bound.
    let mut labels: HashMap<String, (Label, usize)> = HashMap::new();
    // The source line of each instruction, by pc, for the whole-program
    // validation errors.
    let mut pc_lines: Vec<usize> = Vec::new();
    // Branches that used symbolic targets: fixed up through the builder.
    let get_label = |b: &mut ProgramBuilder,
                     labels: &mut HashMap<String, (Label, usize)>,
                     name: &str,
                     line: usize|
     -> Label {
        labels.entry(name.to_string()).or_insert_with(|| (b.new_label(), line)).0
    };
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let code = raw.split("//").next().unwrap_or("").split('#').next().unwrap_or("");
        let mut rest = code.trim();
        if rest.is_empty() {
            continue;
        }

        // Labels (possibly several) at the start of the line.
        while let Some(colon) = rest.find(':') {
            let (name, tail) = rest.split_at(colon);
            let name = name.trim();
            if name.is_empty()
                || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                break;
            }
            // `br 3` means instruction 3, so a label named `3` could
            // never be branched to by name; the likely source is a
            // listing pasted with its `pc:` prefixes.
            if name.bytes().all(|c| c.is_ascii_digit()) {
                return Err(err(
                    line,
                    format!("label `{name}` is all digits (`br {name}` names instruction {name})"),
                ));
            }
            let label = get_label(&mut b, &mut labels, name, line);
            // `bind` panics on double-binding; surface it as an error.
            if b.is_bound(label) {
                return Err(err(line, format!("label `{name}` bound twice")));
            }
            b.bind(label);
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }

        // Stop bit.
        let stop = rest.ends_with(";;");
        if stop {
            rest = rest[..rest.len() - 2].trim();
        }

        // Qualifying predicate.
        let mut qp = None;
        if let Some(tail) = rest.strip_prefix('(') {
            let close =
                tail.find(')').ok_or_else(|| err(line, "unterminated qualifying predicate"))?;
            qp = Some(operand(tail[..close].trim(), line)?);
            rest = tail[close + 1..].trim();
        }

        let toks = tokenize(rest);
        let Some((&mnemonic, operands)) = toks.split_first() else {
            return Err(err(line, "expected an instruction"));
        };
        if let Some(qp) = qp {
            b.with_pred(qp);
        }
        match (mnemonic, operands) {
            // A branch to a label is fixed up by the builder; `br 12`
            // reads like any other instruction.
            ("br", &[target]) if target.parse::<usize>().is_err() => {
                let label = get_label(&mut b, &mut labels, target, line);
                b.br(label);
            }
            _ => {
                let mut ops = Cursor { toks: operands.iter(), line };
                let op = Opcode::parse_text(mnemonic, &mut ops)?;
                if ops.toks.len() > 0 {
                    return Err(err(line, format!("trailing tokens after `{mnemonic}`")));
                }
                b.push(op);
            }
        }
        pc_lines.push(line);
        if stop {
            b.stop();
        }
    }

    b.build().map_err(|e| match &e {
        BuildProgramError::UnboundLabel(unbound) => {
            let (name, &(_, line)) = labels
                .iter()
                .find(|(_, (label, _))| label == unbound)
                .expect("every label the builder hands out is named in the source");
            err(line, format!("label `{name}` was never bound"))
        }
        // A bad branch target is the branch's fault; a missing
        // terminator (or an empty program) is the end's.
        BuildProgramError::Invalid(
            ValidateProgramError::TargetOutOfRange { pc, .. }
            | ValidateProgramError::TargetNotGroupStart { pc, .. },
        ) => err(pc_lines[*pc], e.to_string()),
        BuildProgramError::Invalid(_) => err(pc_lines.last().copied().unwrap_or(1), e.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{FpReg, IntReg, PredReg};
    use crate::{ArchState, MemoryImage};

    #[test]
    fn parses_the_doc_example() {
        let program = parse_program(
            "
            // r1 = counter, r2 = bound
                    movi r1 = 0
                    movi r2 = 10 ;;
            loop:
                    addi r1 = r1, 1 ;;
                    cmp.lt p1, p2 = r1, r2 ;;
               (p1) br loop ;;
                    halt
            ",
        )
        .expect("parses");
        let mut st = ArchState::new(&program, MemoryImage::new());
        st.run(1_000);
        assert!(st.is_halted());
        assert_eq!(st.int(IntReg::n(1)), 10);
    }

    #[test]
    fn memory_and_fp_syntax() {
        let program = parse_program(
            "
                movi r1 = 0x100 ;;
                movi r2 = -5 ;;
                st8 [r1 + 0] = r2 ;;
                ld4s r3 = [r1 + 0] ;;
                ld4 r4 = [r1 + 0] ;;
                fmovi f1 = 1.5 ;;
                fadd f2 = f1, f1 ;;
                stf [r1 + 8] = f2 ;;
                ldf f3 = [r1 + 8] ;;
                halt
            ",
        )
        .expect("parses");
        let mut st = ArchState::new(&program, MemoryImage::new());
        st.run(100);
        assert_eq!(st.int(IntReg::n(3)) as i64, -5);
        assert_eq!(st.int(IntReg::n(4)), 0xFFFF_FFFB);
        assert_eq!(st.fp(FpReg::n(3)), 3.0);
    }

    #[test]
    fn display_round_trips() {
        let src = "
            movi r1 = 7 ;;
            cmpi.lt p1, p2 = r1, 9 ;;
            (p1) br 4 ;;
            nop ;;
            halt
        ";
        let program = parse_program(src).expect("parses");
        let printed = program.to_string();
        // Strip the `pc:` prefixes Display adds.
        let reparsed_src: String = printed
            .lines()
            .map(|l| l.split_once(':').map_or("", |x| x.1))
            .collect::<Vec<_>>()
            .join("\n");
        let reparsed = parse_program(&reparsed_src).expect("round-trips");
        assert_eq!(program, reparsed);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse_program("movi r1 = 1 ;;\nbogus r2\nhalt").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));

        let e = parse_program("movi r99 = 1 ;;\nhalt").unwrap_err();
        assert_eq!(e.line, 1);

        let e = parse_program("br nowhere ;;\nhalt").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.to_string().contains("label `nowhere` was never bound"), "{e}");
        let e = parse_program("nop ;;\n\nloop:\n(p1) br done ;;\nbr loop ;;\nhalt").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (4, "label `done` was never bound"));
    }

    #[test]
    fn program_validation_errors_name_their_line() {
        let e = parse_program("br 99 ;;\nhalt").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("out-of-range index 99"), "{e}");

        // pc 2 is the second member of the group {1, 2}.
        let e =
            parse_program("movi r1 = 1 ;;\n// comment\nnop\n\nnop ;;\nbr 2 ;;\nhalt").unwrap_err();
        assert_eq!(e.line, 6, "{e}");
        assert!(e.message.contains("branch at 3"), "{e}");

        let e = parse_program("nop ;;\n\nnop ;;\n// no halt").unwrap_err();
        assert_eq!(e.line, 3, "{e}");

        let e = parse_program("// nothing here\n").unwrap_err();
        assert_eq!(e.line, 1, "{e}");
    }

    #[test]
    fn hex_immediates_read_as_64_bit_patterns() {
        for (text, want) in [
            ("0xffffffffffffffff", -1),
            ("0x8000000000000000", i64::MIN),
            ("-0x8000000000000000", i64::MIN),
            ("-0x1", -1),
            ("0x7fffffffffffffff", i64::MAX),
        ] {
            let program = parse_program(&format!("andi r1 = r2, {text} ;;\nhalt")).expect(text);
            assert_eq!(
                program.fetch(0).op,
                Opcode::AndI { d: IntReg::n(1), a: IntReg::n(2), imm: want }
            );
        }
        assert!(parse_program("movi r1 = 0x10000000000000000 ;;\nhalt").is_err());
    }

    #[test]
    fn malformed_instructions_name_the_offending_token() {
        for (text, token) in [
            ("ld3 r1 = [r2 + 0]", "`ld3`"),
            ("cmp.lx p1, p2 = r1, r2", "`cmp.lx`"),
            ("shli r1 = r2, 256", "`256`"),
            ("add r1 = r2, f3", "`f3`"),
            ("fmovi f1 = x", "`x`"),
            ("movi r1 = 1, 2", "`movi`"),
            ("br top extra", "`top`"),
        ] {
            let e = parse_program(&format!("nop ;;\n{text} ;;\nhalt")).unwrap_err();
            assert_eq!(e.line, 2, "{text}");
            assert!(e.message.contains(token), "{text}: {e}");
        }
    }

    #[test]
    fn all_digit_label_is_rejected() {
        let e = parse_program("nop ;;\n12: nop ;;\nhalt").unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (2, "label `12` is all digits (`br 12` names instruction 12)")
        );
        parse_program("l2: nop ;;\n_1: halt").expect("a label may hold digits");
    }

    #[test]
    fn double_label_is_rejected() {
        let e = parse_program("a:\nnop ;;\na:\nhalt").unwrap_err();
        assert!(e.to_string().contains("bound twice"), "{e}");
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let program = parse_program("# leading comment\n\n   // another\nnop ;; // trailing\nhalt")
            .expect("parses");
        assert_eq!(program.len(), 2);
    }

    #[test]
    fn predicated_non_branch_ops_parse() {
        let program = parse_program(
            "
            cmpi.eq p1, p2 = r1, 0 ;;
            (p2) addi r2 = r2, 5 ;;
            halt
            ",
        )
        .expect("parses");
        assert_eq!(program.fetch(1).qp, Some(PredReg::n(2)));
    }
}

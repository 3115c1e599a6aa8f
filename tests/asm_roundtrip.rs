//! Property test: the assembler parses the `Display` output of any
//! generated program back to an identical program — disassembly and
//! assembly are exact inverses.
//!
//! `golden/isa_listing.txt` pins the text form and the static facts
//! (`InsnFacts`) of every instruction of the ten paper kernels at tiny
//! scale and of every opcode at its operand extremes.

use fleaflicker::isa::{
    parse_program, CmpKind, FpReg, InsnFacts, Instruction, IntReg, MemSize, Opcode, PredReg,
    Program, RegList,
};
use fleaflicker::workloads::random::{random_program, GeneratorConfig};
use fleaflicker::workloads::{paper_benchmarks, Scale};
use proptest::prelude::*;
use std::sync::OnceLock;

fn strip_pc_prefixes(printed: &str) -> String {
    printed.lines().map(|l| l.split_once(':').map_or("", |x| x.1)).collect::<Vec<_>>().join("\n")
}

fn check_roundtrip(program: &Program) {
    let text = strip_pc_prefixes(&program.to_string());
    let reparsed = parse_program(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
    assert_eq!(program, &reparsed, "round-trip mismatch");
}

#[test]
fn fixed_seeds_round_trip() {
    let cfg = GeneratorConfig::default();
    for seed in 0..64 {
        let (program, _) = random_program(seed, &cfg);
        check_roundtrip(&program);
    }
}

#[test]
fn paper_kernels_round_trip() {
    for w in paper_benchmarks(Scale::Tiny) {
        check_roundtrip(&w.program);
    }
}

/// A listing pasted with its `pc:` prefixes is refused at its first
/// line: read as labels, the prefixes would silently add a group
/// boundary before every instruction and change the program's timing.
#[test]
fn listings_with_pc_prefixes_are_refused() {
    for w in paper_benchmarks(Scale::Tiny) {
        let e = parse_program(&w.program.to_string()).unwrap_err();
        assert_eq!(e.line, 1, "{}: {e}", w.name);
        assert!(e.message.starts_with("label `0` is all digits"), "{}: {e}", w.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_programs_round_trip(seed in 64u64..1_000_000) {
        let (program, _) = random_program(seed, &GeneratorConfig::default());
        check_roundtrip(&program);
    }
}

/// The printed listing of each paper kernel at tiny scale.
fn kernel_listings() -> &'static [String] {
    static LISTINGS: OnceLock<Vec<String>> = OnceLock::new();
    LISTINGS.get_or_init(|| {
        paper_benchmarks(Scale::Tiny)
            .iter()
            .map(|w| strip_pc_prefixes(&w.program.to_string()))
            .collect()
    })
}

/// Text a mutation splices in: assembler punctuation, a stop bit,
/// predicate, label and comment, mnemonic pieces, registers at and past
/// the edge, an immediate past `u64`, and a multi-byte character.
const SPLICES: [&str; 24] = [
    ";;",
    "(",
    ")",
    ":",
    ",",
    "=",
    "[",
    "]",
    "+",
    "-",
    ".",
    " ",
    "\n",
    "#",
    "0x",
    "s",
    "ld",
    "cmp.",
    "br",
    "top:",
    "p63",
    "r64",
    "18446744073709551616",
    "é",
];

/// Applies one mutation to `text` at char boundaries, so it stays a
/// `&str`: truncate, delete a char, insert a splice or replace a char.
fn mutate(text: &mut String, op: u8, at: u64, pick: usize) {
    let bounds: Vec<usize> = (0..=text.len()).filter(|&i| text.is_char_boundary(i)).collect();
    let i = bounds[at as usize % bounds.len()];
    let next = bounds.iter().copied().find(|&j| j > i).unwrap_or(i);
    let splice = SPLICES[pick % SPLICES.len()];
    match op % 4 {
        0 => text.truncate(i),
        1 => text.replace_range(i..next, ""),
        2 => text.insert_str(i, splice),
        _ => text.replace_range(i..next, splice),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5000))]

    /// A mutated kernel listing parses to `Ok` or `Err`, never a panic,
    /// and whatever it parses to prints and parses back to itself.
    #[test]
    fn mutated_listings_parse_or_fail_cleanly(
        kernel in 0usize..10,
        muts in prop::collection::vec((0u8..4, any::<u64>(), 0usize..64), 1..3),
    ) {
        let mut text = kernel_listings()[kernel].clone();
        for (op, at, pick) in muts {
            mutate(&mut text, op, at, pick);
        }
        if let Ok(program) = parse_program(&text) {
            let printed = strip_pc_prefixes(&program.to_string());
            let reparsed = parse_program(&printed)
                .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}\nfrom\n{text}"));
            // Compared as text, which a NaN immediate cannot break.
            prop_assert_eq!(strip_pc_prefixes(&reparsed.to_string()), printed);
        }
    }
}

/// Every opcode at its operand extremes: the lowest and highest register
/// of each file in every slot, the edge immediates, every compare
/// condition, every access width and signedness, and edge FP immediates.
/// Each one is listed twice: bare, then with a qualifying predicate and
/// a stop bit.
fn extremes() -> Vec<Instruction> {
    use CmpKind::*;
    use Opcode::*;
    const IMMS: [i64; 5] = [0, 1, -1, i64::MIN, i64::MAX];
    const KINDS: [CmpKind; 8] = [Eq, Ne, Lt, Le, Gt, Ge, Ltu, Geu];
    const SIZES: [MemSize; 4] = [MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8];
    let mut ops = Vec::new();
    for (x, y) in [(0, 63), (63, 0)] {
        let (rx, ry, fx, fy) = (IntReg::n(x), IntReg::n(y), FpReg::n(x), FpReg::n(y));
        let (px, py) = (PredReg::n(x), PredReg::n(y));
        ops.extend([
            Add { d: rx, a: ry, b: rx },
            Sub { d: rx, a: ry, b: rx },
            And { d: rx, a: ry, b: rx },
            Or { d: rx, a: ry, b: rx },
            Xor { d: rx, a: ry, b: rx },
            Shl { d: rx, a: ry, b: rx },
            Shr { d: rx, a: ry, b: rx },
            Mul { d: rx, a: ry, b: rx },
            Mov { d: rx, a: ry },
            FAdd { d: fx, a: fy, b: fx },
            FSub { d: fx, a: fy, b: fx },
            FMul { d: fx, a: fy, b: fx },
            FDiv { d: fx, a: fy, b: fx },
            FMov { d: fx, a: fy },
            ICvtF { d: fx, a: ry },
            FCvtI { d: rx, a: fy },
            Br { target: 0 },
            Nop,
            Halt,
        ]);
        for imm in IMMS {
            ops.extend([
                AddI { d: rx, a: ry, imm },
                AndI { d: rx, a: ry, imm },
                XorI { d: rx, a: ry, imm },
                MovI { d: rx, imm },
                LdF { d: fx, base: ry, off: imm },
                StF { src: fx, base: ry, off: imm },
            ]);
        }
        for sh in [0, 1, 63, u8::MAX] {
            ops.extend([ShlI { d: rx, a: ry, sh }, ShrI { d: rx, a: ry, sh }]);
        }
        for (i, kind) in KINDS.into_iter().enumerate() {
            ops.extend([
                Cmp { kind, pt: px, pf: py, a: ry, b: rx },
                CmpI { kind, pt: px, pf: py, a: ry, imm: IMMS[i % IMMS.len()] },
                FCmp { kind, pt: px, pf: py, a: fy, b: fx },
            ]);
        }
        for (i, size) in SIZES.into_iter().enumerate() {
            let off = IMMS[i];
            ops.push(St { src: rx, base: ry, off, size });
            for signed in [false, true] {
                ops.push(Ld { d: rx, base: ry, off, size, signed });
            }
        }
        for imm in [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1e-300] {
            ops.push(FMovI { d: fx, imm });
        }
    }
    let bare = ops.iter().map(|&op| Instruction::new(op));
    let guarded = ops.iter().zip(0u8..).map(|(&op, i)| {
        Instruction::new(op).predicated(PredReg::n(if i % 2 == 0 { 63 } else { 0 })).with_stop()
    });
    bare.chain(guarded).collect()
}

#[test]
fn operand_extremes_round_trip() {
    let mut insns = extremes();
    insns.push(Instruction::new(Opcode::Halt));
    check_roundtrip(&Program::new(insns).expect("a valid program"));
}

fn regs(list: RegList) -> String {
    if list.is_empty() {
        return "-".to_string();
    }
    list.iter().map(|r| r.to_string()).collect::<Vec<_>>().join(" ")
}

/// One line per instruction: its text, then its `InsnFacts`.
fn listing_line(insn: &Instruction) -> String {
    let InsnFacts { srcs, op_srcs, dests, fu, lc, is_load, is_store, is_branch, is_fp, is_halt } =
        insn.facts();
    let flags: String =
        [(is_load, 'L'), (is_store, 'S'), (is_branch, 'B'), (is_fp, 'F'), (is_halt, 'H')]
            .into_iter()
            .map(|(set, c)| if set { c } else { '.' })
            .collect();
    format!("{insn} | {} | {} | {} | {fu:?} {lc:?} {flags}", regs(srcs), regs(op_srcs), regs(dests))
}

fn golden_listing() -> String {
    let mut out = String::new();
    for w in paper_benchmarks(Scale::Tiny) {
        out.push_str(&format!("# {}\n", w.name));
        for insn in w.program.iter() {
            out.push_str(&listing_line(insn));
            out.push('\n');
        }
    }
    out.push_str("# operand extremes\n");
    for insn in extremes() {
        out.push_str(&listing_line(&insn));
        out.push('\n');
    }
    out
}

#[test]
fn isa_listing_matches_the_golden_file() {
    let golden = include_str!("golden/isa_listing.txt");
    let listing = golden_listing();
    for (i, (got, want)) in listing.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "tests/golden/isa_listing.txt line {} drifted", i + 1);
    }
    assert_eq!(listing.lines().count(), golden.lines().count(), "listing length drifted");
}

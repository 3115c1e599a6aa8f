//! One declarative command-line parser for every binary of the
//! workspace (`ff_exp`, `ff_report`, `ff_trace`, `ff_verify`).
//!
//! A binary declares each command as a [`Command`]: a synopsis that is
//! also its spec, and a one-line description. The synopsis names the
//! command, then its positional arguments (`<required>`, then
//! `[optional]`), then its flags: `[--flag VALUE]` takes one value and
//! `[--flag]` none. [`Cli::parse`] (or [`Command::parse`] for a binary
//! without subcommands) reads argv against those specs into a
//! [`Parsed`], and the usage text is rendered from the same specs.
//! Every *structural* error is an `Err` before any command runs, and
//! [`Cli::run`] exits 2 with the usage on it:
//!
//! * an unknown flag, or a flag that belongs to another command;
//! * a missing value, or `=value` on a boolean flag;
//! * the wrong number of positional arguments.
//!
//! `--flag value` and `--flag=value` are the same, and the last repeat
//! of a flag wins. Values are converted where a command reads them
//! ([`Parsed::get`]), so a value that fails to convert is the command's
//! own error, with the command's own exit status.

use std::fmt::{Display, Write};
use std::process::ExitCode;
use std::str::FromStr;

/// One command: its synopsis (which is its spec) and what it does.
#[derive(Debug)]
pub struct Command {
    /// `name <required> [optional] [--flag VALUE] [--flag]`.
    pub spec: &'static str,
    /// One line for the usage text.
    pub about: &'static str,
}

impl Command {
    /// The spec's words: the name, then each `<arg>`, `[arg]`,
    /// `[--flag VALUE]` or `[--flag]`.
    fn words(&self) -> Vec<&'static str> {
        let mut words = Vec::new();
        let mut rest = self.spec.trim();
        while !rest.is_empty() {
            let end = if rest.starts_with('[') {
                rest.find(']').map_or(rest.len(), |i| i + 1)
            } else {
                rest.find(' ').unwrap_or(rest.len())
            };
            words.push(&rest[..end]);
            rest = rest[end..].trim_start();
        }
        words
    }

    /// The word that selects the command.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.words()[0]
    }

    /// `Some(true)` if the spec declares `[flag VALUE]`, `Some(false)`
    /// for a boolean `[flag]`, `None` if it does not declare `flag`.
    fn takes_value(&self, flag: &str) -> Option<bool> {
        self.words().iter().find_map(|w| {
            let inner = w.strip_prefix('[')?.strip_suffix(']')?;
            match inner.split_once(' ') {
                Some((name, _)) => (name == flag).then_some(true),
                None => (inner == flag).then_some(false),
            }
        })
    }

    /// Parses the arguments that follow the command word.
    ///
    /// # Errors
    ///
    /// Returns the message of the first structural error.
    pub fn parse(&'static self, args: impl IntoIterator<Item = String>) -> Result<Parsed, String> {
        parse(self, &[], args)
    }

    /// `bin` followed by the spec, wrapped under the first argument
    /// before 80 columns.
    #[must_use]
    pub fn synopsis(&self, bin: &str) -> String {
        let words = self.words();
        let mut out = format!("{bin} {}", words[0]);
        let indent = out.len() + 1;
        let mut col = out.len();
        for word in &words[1..] {
            if col > indent && col + 1 + word.len() > 78 {
                let _ = write!(out, "\n{:indent$}", "");
                col = indent;
            } else {
                out.push(' ');
                col += 1;
            }
            col += word.len();
            out.push_str(word);
        }
        out
    }
}

/// A binary with subcommands: `bin <command> [args] [flags]`.
#[derive(Debug)]
pub struct Cli {
    /// The binary's name.
    pub bin: &'static str,
    /// Its commands, in usage order.
    pub commands: &'static [Command],
}

impl Cli {
    /// The usage text: every command's synopsis and description.
    #[must_use]
    pub fn usage(&self) -> String {
        let mut out = format!("usage: {} <command> [args] [flags]\n", self.bin);
        for cmd in self.commands {
            let synopsis = cmd.synopsis(self.bin).replace('\n', "\n  ");
            let _ = write!(out, "\n  {synopsis}\n      {}", cmd.about);
        }
        out
    }

    /// Parses argv (without the binary's own name): the first word
    /// picks the command, the rest is parsed against it.
    ///
    /// # Errors
    ///
    /// Returns the message of the first structural error, including a
    /// missing or unknown command.
    pub fn parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Parsed, String> {
        let mut argv = argv.into_iter();
        let name = argv.next().ok_or("missing command")?;
        let cmd = self
            .commands
            .iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| format!("unknown command `{name}`"))?;
        parse(cmd, self.commands, argv)
    }

    /// Parses the process arguments and runs `run` on them. A
    /// structural error exits 2 with the usage on stderr, before `run`
    /// is called; an `Err` from `run` exits 1 with its message.
    pub fn run(&self, run: impl FnOnce(&Parsed) -> Result<ExitCode, String>) -> ExitCode {
        match self.parse(std::env::args().skip(1)) {
            Err(e) => {
                eprintln!("error: {e}\n{}", self.usage());
                ExitCode::from(2)
            }
            Ok(args) => run(&args).unwrap_or_else(|e| {
                eprintln!("{e}");
                ExitCode::FAILURE
            }),
        }
    }
}

/// Parsed arguments of one command.
#[derive(Debug)]
pub struct Parsed {
    command: &'static Command,
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Parsed {
    /// The name of the command that was parsed.
    #[must_use]
    pub fn command(&self) -> &'static str {
        self.command.name()
    }

    /// The positional arguments; their count is within the command's
    /// declared range.
    #[must_use]
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Whether `flag` was given.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.declared(flag);
        self.flags.iter().any(|(n, _)| n == flag)
    }

    /// The last value given for `flag`, if any.
    #[must_use]
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.declared(flag);
        self.flags.iter().rev().find(|(n, _)| n == flag).and_then(|(_, v)| v.as_deref())
    }

    /// The last value given for `flag`, converted.
    ///
    /// # Errors
    ///
    /// Returns `bad FLAG: REASON` when the value does not convert.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.value(flag).map(|v| v.parse().map_err(|e| format!("bad {flag}: {e}"))).transpose()
    }

    /// Reading a flag the command does not declare is a bug in the
    /// binary, not bad input.
    fn declared(&self, flag: &str) {
        debug_assert!(
            self.command.takes_value(flag).is_some(),
            "`{}` does not declare `{flag}`",
            self.command.spec
        );
    }
}

/// Parses `args` against `cmd`; `siblings` only name the error for a
/// flag that belongs to another command.
fn parse(
    cmd: &'static Command,
    siblings: &[Command],
    args: impl IntoIterator<Item = String>,
) -> Result<Parsed, String> {
    let mut parsed = Parsed { command: cmd, positional: Vec::new(), flags: Vec::new() };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            parsed.positional.push(arg);
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, v)) => (name.to_string(), Some(v.to_string())),
            None => (arg, None),
        };
        let Some(takes_value) = cmd.takes_value(&name) else {
            return Err(if siblings.iter().any(|c| c.takes_value(&name).is_some()) {
                format!("`{name}` is not a flag of `{}`", cmd.name())
            } else {
                format!("unknown flag `{name}`")
            });
        };
        let value = match (takes_value, inline) {
            (false, Some(_)) => return Err(format!("`{name}` takes no value")),
            (false, None) => None,
            (true, Some(v)) => Some(v),
            (true, None) => Some(args.next().ok_or_else(|| format!("`{name}` needs a value"))?),
        };
        parsed.flags.push((name, value));
    }
    let args: Vec<&str> =
        cmd.words()[1..].iter().copied().filter(|w| !w.starts_with("[--")).collect();
    let required = args.iter().filter(|a| !a.starts_with('[')).count();
    let n = parsed.positional.len();
    if n < required || n > args.len() {
        let want = match (required, args.len()) {
            (_, 0) => "no arguments".to_string(),
            (lo, hi) if lo == hi => format!("{lo} argument(s)"),
            (lo, hi) => format!("{lo} to {hi} arguments"),
        };
        return Err(format!("`{}` takes {want}, got {n}", cmd.name()));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_workloads::Scale;

    static CLI: Cli = Cli {
        bin: "t",
        commands: &[
            Command { spec: "record <out.jsonl> [--scale S] [--max N] [--json]", about: "record" },
            Command { spec: "konata <trace> [out]", about: "export" },
        ],
    };

    fn parse(words: &[&str]) -> Result<Parsed, String> {
        CLI.parse(words.iter().map(ToString::to_string))
    }

    #[test]
    fn equals_and_space_forms_are_the_same() {
        for words in [
            &["record", "t.jsonl", "--scale=tiny"][..],
            &["record", "--scale", "tiny", "t.jsonl"][..],
        ] {
            let p = parse(words).unwrap();
            assert_eq!(p.command(), "record");
            assert_eq!(p.positional(), ["t.jsonl"]);
            assert_eq!(p.value("--scale"), Some("tiny"));
            assert_eq!(p.get::<Scale>("--scale"), Ok(Some(Scale::Tiny)));
        }
    }

    #[test]
    fn the_last_repeat_wins() {
        let p = parse(&["record", "t", "--max", "1", "--max=2", "--json", "--json"]).unwrap();
        assert_eq!(p.get::<u64>("--max"), Ok(Some(2)));
        assert!(p.has("--json"));
        assert_eq!(p.get::<Scale>("--scale"), Ok(None));
    }

    #[test]
    fn a_value_that_does_not_convert_is_the_callers_error() {
        let p = parse(&["record", "t", "--max", "many", "--scale", "huge"]).unwrap();
        assert!(p.get::<u64>("--max").unwrap_err().starts_with("bad --max:"));
        let e = p.get::<Scale>("--scale").unwrap_err();
        assert!(e.contains("unknown scale `huge`"), "{e}");
    }

    #[test]
    fn structural_errors_are_rejected() {
        for (words, want) in [
            (&["record", "t", "--bogus"][..], "unknown flag `--bogus`"),
            (&["record", "t", "--max"][..], "`--max` needs a value"),
            (&["record", "t", "--json=no"][..], "`--json` takes no value"),
            (&["record", "t", "--jso"][..], "unknown flag `--jso`"),
            (&["record", "t", "--"][..], "unknown flag `--`"),
            (&["record"][..], "`record` takes 1 argument(s), got 0"),
            (&["record", "a", "b"][..], "got 2"),
            (&["konata", "a", "b", "c"][..], "`konata` takes 1 to 2 arguments, got 3"),
            (&["konata", "a", "--json"][..], "`--json` is not a flag of `konata`"),
            (&["frobnicate"][..], "unknown command `frobnicate`"),
            (&[][..], "missing command"),
        ] {
            let e = parse(words).unwrap_err();
            assert!(e.contains(want), "{words:?}: {e}");
        }
    }

    #[test]
    fn usage_renders_every_command() {
        let usage = CLI.usage();
        assert!(usage.starts_with("usage: t <command>"), "{usage}");
        assert!(usage.contains("\n  t record <out.jsonl> [--scale S] [--max N] [--json]\n"));
        assert!(usage.contains("\n  t konata <trace> [out]\n      export"), "{usage}");
    }

    #[test]
    fn long_synopses_wrap_under_the_first_argument() {
        let cmd = Command {
            spec: "long <x> [--aaaaaaaaaaaaaaaaaaaaaaaaaaaaa VALUE] \
                   [--bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb VALUE] [--d]",
            about: "",
        };
        let text = cmd.synopsis("bin");
        assert_eq!(
            text,
            "bin long <x> [--aaaaaaaaaaaaaaaaaaaaaaaaaaaaa VALUE]\n         \
             [--bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb VALUE] [--d]"
        );
    }
}

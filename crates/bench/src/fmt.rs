//! Minimal fixed-width table formatting for harness output.
//!
//! A [`Table`] declares each column once — its name, width, alignment
//! and a cell formatter from row to text — and renders the header, the
//! dash rule under it and every row from that one declaration.

use std::fmt::Display;

/// Where a column puts its text within its width.
#[derive(Clone, Copy)]
enum Align {
    Left,
    Right,
    /// A trailing free-text column: the header is right-aligned to the
    /// width, the cells are written as they are.
    Ragged,
}

struct Col<'a, R> {
    name: &'a str,
    width: usize,
    align: Align,
    /// Written before the column (not before the first).
    sep: &'static str,
    cell: Box<dyn Fn(&R) -> String + 'a>,
}

/// Rows of `R` and the columns that render them.
pub struct Table<'a, R> {
    rows: &'a [R],
    cols: Vec<Col<'a, R>>,
    sep: &'static str,
    rule: Option<usize>,
    #[allow(clippy::type_complexity)]
    gap_after: Box<dyn Fn(&R, Option<&R>) -> bool + 'a>,
}

impl<'a, R> Table<'a, R> {
    /// A table of `rows` with no columns yet.
    #[must_use]
    pub fn new(rows: &'a [R]) -> Self {
        Table { rows, cols: Vec::new(), sep: "  ", rule: None, gap_after: Box::new(|_, _| false) }
    }

    /// Adds a right-aligned column.
    #[must_use]
    pub fn col<D: Display>(self, name: &'a str, width: usize, cell: impl Fn(&R) -> D + 'a) -> Self {
        self.push(name, width, Align::Right, cell)
    }

    /// Adds a left-aligned column.
    #[must_use]
    pub fn left<D: Display>(
        self,
        name: &'a str,
        width: usize,
        cell: impl Fn(&R) -> D + 'a,
    ) -> Self {
        self.push(name, width, Align::Left, cell)
    }

    /// Adds a trailing free-text column: its header is right-aligned to
    /// `width`, its cells are not padded.
    #[must_use]
    pub fn ragged<D: Display>(
        self,
        name: &'a str,
        width: usize,
        cell: impl Fn(&R) -> D + 'a,
    ) -> Self {
        self.push(name, width, Align::Ragged, cell)
    }

    fn push<D: Display>(
        mut self,
        name: &'a str,
        width: usize,
        align: Align,
        cell: impl Fn(&R) -> D + 'a,
    ) -> Self {
        let cell = Box::new(move |r: &R| cell(r).to_string());
        self.cols.push(Col { name, width, align, sep: self.sep, cell });
        self
    }

    /// Sets the separator written before each column added after this
    /// call (two spaces until then).
    #[must_use]
    pub fn sep(mut self, sep: &'static str) -> Self {
        self.sep = sep;
        self
    }

    /// Draws the rule under the header `len` dashes long instead of as
    /// long as the header; 0 draws none.
    #[must_use]
    pub fn rule(mut self, len: usize) -> Self {
        self.rule = Some(len);
        self
    }

    /// Writes a blank line after each row for which `ends_group(row,
    /// next row)` holds.
    #[must_use]
    pub fn gap_after(mut self, ends_group: impl Fn(&R, Option<&R>) -> bool + 'a) -> Self {
        self.gap_after = Box::new(ends_group);
        self
    }

    /// The header (trailing blanks trimmed), the rule, and one line per
    /// row, each newline-terminated.
    #[must_use]
    pub fn render(&self) -> String {
        let head = self.line(None);
        let head = head.trim_end();
        let mut out = format!("{head}\n");
        let rule = self.rule.unwrap_or(head.len());
        if rule > 0 {
            out.push_str(&"-".repeat(rule));
            out.push('\n');
        }
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&self.line(Some(r)));
            out.push('\n');
            if (self.gap_after)(r, self.rows.get(i + 1)) {
                out.push('\n');
            }
        }
        out
    }

    /// The header line (`None`) or a row's line, each column's text
    /// placed within its width.
    fn line(&self, row: Option<&R>) -> String {
        let mut line = String::new();
        for (i, c) in self.cols.iter().enumerate() {
            if i > 0 {
                line.push_str(c.sep);
            }
            let (text, w) = (row.map_or_else(|| c.name.to_string(), |r| (c.cell)(r)), c.width);
            line.push_str(&match (c.align, row) {
                (Align::Left, _) => format!("{text:<w$}"),
                (Align::Right, _) | (Align::Ragged, None) => format!("{text:>w$}"),
                (Align::Ragged, Some(_)) => text,
            });
        }
        line
    }
}

/// Formats a fraction as a percentage cell.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a ratio with three decimals.
#[must_use]
pub fn ratio(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_table_renders_every_layout_from_one_column_list() {
        let rows = [("a", 1, true), ("bb", 22, false), ("ccc", 3, false)];
        let flagged = Table::new(&rows)
            .gap_after(|r, next| next.is_some_and(|n| n.2 != r.2))
            .left("name", 5, |r| r.0)
            .col("n", 3, |r| r.1)
            .sep("")
            .ragged("", 0, |r| if r.2 { "  *" } else { "" });
        let expect = "name     n\n----------\na        1  *\n\nbb      22\nccc      3\n";
        assert_eq!(flagged.render(), expect);
        let keyed =
            Table::new(&rows[..2]).sep(" ").rule(0).col("n", 2, |r| r.1).ragged("key", 5, |r| r.0);
        assert_eq!(keyed.render(), " n   key\n 1 a\n22 bb\n");
        assert_eq!(Table::new(&rows[..0]).col("n", 4, |r| r.1).render(), "   n\n----\n");
    }

    #[test]
    fn pct_and_ratio_format() {
        assert_eq!(pct(0.125), "12.5%");
        assert_eq!(ratio(1.0 / 3.0), "0.333");
    }
}

//! Minimal aligned plain-text tables for figure output.

/// A simple left-aligned text table: header row plus data rows.
///
/// # Examples
///
/// ```
/// use didt_bench::TextTable;
///
/// let mut t = TextTable::new(&["bench", "ipc"]);
/// t.row(&["gzip", "0.58"]);
/// let s = t.render();
/// assert!(s.contains("gzip"));
/// assert!(s.lines().count() >= 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a data row; extra/missing cells are tolerated.
    pub fn row(&mut self, cells: &[&str]) {
        self.rows
            .push(cells.iter().map(ToString::to_string).collect());
    }

    /// Append a data row of owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns and a separator under the header.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.header.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let all = std::iter::once(&self.header).chain(self.rows.iter());
        for row in all {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |row: &[String]| -> String {
            let mut out = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                out.push_str(&format!("{cell:<w$}"));
                if i + 1 < widths.len() {
                    out.push_str("  ");
                }
            }
            out.trim_end().to_string()
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["name", "value"]);
        t.row(&["a", "1"]);
        t.row(&["longer-name", "2.5"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // "value" column starts at the same offset in all rows.
        let off = lines[0].find("value").unwrap();
        assert_eq!(&lines[2][off..off + 1], "1");
    }

    #[test]
    fn tolerates_ragged_rows() {
        let mut t = TextTable::new(&["a", "b", "c"]);
        t.row(&["1"]);
        t.row(&["1", "2", "3", "4"]);
        let s = t.render();
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn len_and_empty() {
        let mut t = TextTable::new(&["x"]);
        assert!(t.is_empty());
        t.row_owned(vec!["1".into()]);
        assert_eq!(t.len(), 1);
    }
}

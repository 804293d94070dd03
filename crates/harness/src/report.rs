//! Plain-text table rendering and ordered JSON objects for experiment
//! output, and the one place that writes an artifact file.

use std::fmt::Write as _;
use std::path::Path;

use serde::ser::{Serialize, SerializeMap, Serializer};
use serde_json::Value;

/// Writes `contents` to `dir/file` (creating `dir` first) and says so on
/// stdout; the error names the path that failed.
pub fn write_artifact(dir: &Path, file: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, contents).map_err(|e| format!("write {} failed: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// A JSON object whose keys are data and whose entries keep their
/// insertion order.
#[derive(Debug, Clone, Default)]
pub struct JsonObject(pub Vec<(String, Value)>);

impl Serialize for JsonObject {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.0.len()))?;
        for (key, value) in &self.0 {
            map.serialize_entry(key, value)?;
        }
        map.end()
    }
}

/// A simple fixed-column text table, rendered in the style of the paper's
/// tables (header row, aligned columns).
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics when the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.header.len(),
            "row width {} != header width {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
        self
    }

    /// The paper's layout of a two-coordinate grid. `self` lists an outer
    /// and an inner coordinate in its first two columns, its rows grouped by
    /// outer value and every group covering the same inner values; the
    /// result has one column per inner value and one line per (outer
    /// value, remaining column).
    pub fn pivoted(&self) -> TextTable {
        let outer = |row: &Vec<String>| row[0] == self.rows[0][0];
        let inner = self.rows.iter().take_while(|row| outer(row)).count();
        let columns = self.rows[..inner].iter().map(|row| &row[1]);
        let mut table = TextTable::new(std::iter::once(&self.header[1]).chain(columns));
        for group in self.rows.chunks(inner) {
            for (i, head) in self.header.iter().enumerate().skip(2) {
                let label = format!("{head} ({}={})", self.header[0], group[0][0]);
                let cells = group.iter().map(|row| row[i].clone());
                table.row(std::iter::once(label).chain(cells));
            }
        }
        table
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            for (i, cell) in cells.iter().enumerate() {
                let sep = if i + 1 == cols { "\n" } else { "  " };
                let _ = write!(out, "{cell:>width$}{sep}", width = widths[i]);
            }
        };
        line(&self.header, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }
}

/// Formats a float with a sensible number of digits for table cells.
pub fn fmt_f(value: f64) -> String {
    if value.is_nan() {
        "n/a".to_string()
    } else if value == 0.0 {
        "0".to_string()
    } else if value.abs() >= 100.0 {
        format!("{value:.1}")
    } else if value.abs() >= 1.0 {
        format!("{value:.3}")
    } else {
        format!("{value:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new(["x", "value"]);
        t.row(["1", "10.5"]);
        t.row(["100", "2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("value"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[2].ends_with("10.5"));
    }

    #[test]
    fn pivots_a_grid() {
        let mut t = TextTable::new(["lambda", "c", "cost"]);
        for (lambda, c, cost) in [
            ("0.1", "2", "a"),
            ("0.1", "4", "b"),
            ("1", "2", "x"),
            ("1", "4", "y"),
        ] {
            t.row([lambda, c, cost]);
        }
        let pivoted = t.pivoted();
        assert_eq!(pivoted.header, ["c", "2", "4"]);
        assert_eq!(
            pivoted.rows,
            [
                ["cost (lambda=0.1)", "a", "b"],
                ["cost (lambda=1)", "x", "y"]
            ]
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f(0.0), "0");
        assert_eq!(fmt_f(0.12345), "0.1235");
        assert_eq!(fmt_f(2.34567), "2.346");
        assert_eq!(fmt_f(123.456), "123.5");
        assert_eq!(fmt_f(f64::NAN), "n/a");
    }
}

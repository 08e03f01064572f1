//! Plain-text tables for the experiment harness.

/// A simple aligned text table with a title and caption, rendered in a
/// Markdown-friendly way so experiment output can be pasted into a
/// Markdown document.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    caption: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            caption: String::new(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Sets an explanatory caption printed under the title.
    pub fn caption(mut self, caption: &str) -> Self {
        self.caption = caption.to_string();
        self
    }

    /// Adds a row (must match the number of headers).
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table as aligned text with a Markdown-style separator.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("### {}\n", self.title));
        if !self.caption.is_empty() {
            out.push_str(&format!("{}\n", self.caption));
        }
        out.push('\n');
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (i, cell) in cells.iter().enumerate() {
                line.push_str(&format!(" {:>width$} |", cell, width = widths[i]));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats an integer-valued count.
pub fn int(x: u64) -> String {
    format!("{x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("demo", &["n", "value"]).caption("a caption");
        t.add_row(vec!["4".into(), "1.25".into()]);
        t.add_row(vec!["1024".into(), "17.50".into()]);
        let s = t.render();
        assert!(s.contains("### demo"));
        assert!(s.contains("a caption"));
        assert!(s.contains("| 1024 |"));
        assert_eq!(t.num_rows(), 2);
        // Header separator present.
        assert!(s
            .lines()
            .any(|l| l.starts_with("|---") || l.starts_with("|--")));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.add_row(vec!["1".into()]);
    }

    #[test]
    fn float_formatters() {
        assert_eq!(f2(1.004), "1.00");
        assert_eq!(f3(2.0), "2.000");
        assert_eq!(int(7), "7");
    }
}

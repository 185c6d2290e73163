//! Workload inputs: the `financial` database at a scale, rendered to CSV
//! text with the last fifth of the base rows held out.

use leva_embedding::json;
use leva_relational::{csv, Table, Value};

/// Share of base rows held out of the fit; they are the test set, the
/// external rows of the serving mix and the rows appended while serving.
const HOLDOUT: f64 = 0.2;

/// Everything a run needs that the seed determines.
pub struct Inputs {
    /// Base table name.
    pub base_table: String,
    /// Target column, hidden from the embedding.
    pub target: String,
    /// `(table, CSV text)` for every table; the base table without the
    /// held-out rows.
    pub csv: Vec<(String, String)>,
    /// Base rows in the fit.
    pub fitted_rows: usize,
    /// Held-out base rows without the target column, typed as CSV
    /// ingestion types them.
    pub held_out: Table,
    /// Class of each base row: the fitted rows, then the held-out rows.
    pub labels: Vec<f64>,
    /// Number of classes.
    pub n_classes: usize,
}

impl Inputs {
    /// Generates the `financial` database at `scale` from `seed`.
    pub fn generate(scale: f64, seed: u64) -> Result<Inputs, String> {
        let ds = leva_datasets::financial(scale, seed);
        let base = ds.base();
        let n = base.row_count();
        let fitted_rows = n - ((n as f64 * HOLDOUT).round() as usize).max(1);

        let mut tables = Vec::new();
        for table in ds.db.tables() {
            let table = if table.name() == ds.base_table {
                table.head(fitted_rows)
            } else {
                table.clone()
            };
            tables.push((table.name().to_owned(), csv::write_csv_string(&table)));
        }

        // Held-out rows typed the way ingestion types the full column.
        let full = csv::read_csv_str(&ds.base_table, &csv::write_csv_string(base))
            .map_err(|e| format!("re-reading base CSV: {e}"))?;
        let target_idx = full
            .column_index(&ds.target_column)
            .map_err(|e| e.to_string())?;
        let columns: Vec<&str> = full
            .column_names()
            .into_iter()
            .filter(|c| *c != ds.target_column)
            .collect();
        let mut held_out = Table::new("held_out", columns);
        for r in fitted_rows..n {
            let mut row = full.row(r).map_err(|e| e.to_string())?;
            row.remove(target_idx);
            held_out.push_row(row).map_err(|e| e.to_string())?;
        }

        let mut classes: Vec<String> = (0..n)
            .map(|r| full.value(r, target_idx).map(Value::render))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let labels: Vec<String> = classes.clone();
        classes.sort();
        classes.dedup();
        let label_of = |s: &String| classes.binary_search(s).unwrap_or(0) as f64;

        Ok(Inputs {
            base_table: ds.base_table.clone(),
            target: ds.target_column.clone(),
            csv: tables,
            fitted_rows,
            held_out,
            labels: labels.iter().map(label_of).collect(),
            n_classes: classes.len().max(2),
        })
    }

    /// The CSV sources in the shape `Leva::fit_csv` takes.
    pub fn sources(&self) -> Vec<(&str, &str)> {
        self.csv
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_str()))
            .collect()
    }

    /// Held-out rows `rows` as a table of the base schema.
    pub fn held_out_rows(&self, rows: &[usize]) -> Table {
        let mut t = Table::new("held_out", self.held_out.column_names());
        for &r in rows {
            t.push_row(self.held_out.row(r).expect("held-out row index in range"))
                .expect("held-out rows share the schema");
        }
        t
    }

    /// The `/admin/append` body appending held-out rows `rows`.
    pub fn append_body(&self, rows: &[usize]) -> String {
        let mut out = String::from("{\"table\":");
        json::write_string(&mut out, &self.base_table);
        out.push_str(",\"rows\":[");
        for (i, &r) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            let row = self.held_out.row(r).expect("held-out row index in range");
            for (c, v) in row.iter().enumerate() {
                if c > 0 {
                    out.push(',');
                }
                match v {
                    Value::Null => out.push_str("null"),
                    Value::Int(x) | Value::Timestamp(x) => out.push_str(&x.to_string()),
                    Value::Float(x) => json::write_f64(&mut out, *x),
                    Value::Text(s) => json::write_string(&mut out, s),
                    Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                }
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_hold_out_a_fifth() {
        let a = Inputs::generate(0.1, 3).unwrap();
        let b = Inputs::generate(0.1, 3).unwrap();
        assert_eq!(a.csv, b.csv);
        assert_eq!(a.fitted_rows + a.held_out.row_count(), 80);
        assert_eq!(a.held_out.row_count(), 16);
        assert_eq!(a.labels.len(), 80);
        assert!(a.held_out.column_index(&a.target).is_err());
        let body = a.append_body(&[0, 1]);
        let parsed = leva_serve::wire::parse_append_request(&body).unwrap();
        assert_eq!(parsed.rows.len(), 2);
        assert_eq!(parsed.table, a.base_table);
    }
}

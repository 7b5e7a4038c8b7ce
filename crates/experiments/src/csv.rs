//! CSV serialization of experiment results, for external plotting
//! (`results/figure8_ablation.csv`).

use crate::figures::Figure8;

/// Figure 8 as CSV.
pub fn figure8(f: &Figure8) -> String {
    let mut out = String::from("bench,pct_without_regrouping,pct_without_restart\n");
    for (bench, nr, ns) in &f.rows {
        out.push_str(&format!("{bench},{nr:.2},{ns:.2}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;
    use crate::suite::Suite;
    use ff_workloads::Scale;

    #[test]
    fn csv_output_has_header_and_rows() {
        let mut s = Suite::new(Scale::Test);
        let f8 = figures::figure8(&mut s);
        let csv8 = figure8(&f8);
        assert!(csv8.starts_with("bench,pct_without_regrouping,"));
        assert_eq!(csv8.lines().count(), 13);
        assert!(csv8.contains("mcf,"));
    }
}

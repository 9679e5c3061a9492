//! Compact pretty-printing for small matrices (examples and debugging).

use crate::dense::Matrix;
use std::fmt::Write as _;

/// Formats at most `max_rows × max_cols` of a row-major matrix, eliding the
/// rest with ellipses.
pub fn format_matrix(m: &Matrix, max_rows: usize, max_cols: usize) -> String {
    let mut s = String::new();
    let rows = m.rows().min(max_rows);
    let cols = m.cols().min(max_cols);
    let _ = writeln!(s, "Matrix {}x{} [", m.rows(), m.cols());
    for i in 0..rows {
        s.push_str("  ");
        for j in 0..cols {
            let _ = write!(s, "{:>9.4} ", m.get(i, j));
        }
        if m.cols() > cols {
            s.push_str("...");
        }
        s.push('\n');
    }
    if m.rows() > rows {
        s.push_str("  ...\n");
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_matrix_elides() {
        let m = Matrix::from_fn(10, 10, |i, j| (i + j) as f32);
        let s = format_matrix(&m, 2, 3);
        assert!(s.contains("Matrix 10x10"));
        assert!(s.contains("..."));
        // 2 shown rows only
        assert_eq!(s.lines().count(), 5); // header + 2 rows + "..." + "]"
    }
}

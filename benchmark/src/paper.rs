//! The paper's published `L_avg` for Tables 1–12 at n = 10..14 (§ 7),
//! for the informational accuracy column. The simulator's regression
//! checks never use these numbers.

/// `L_AVG[table - 1][n - 10]`.
const L_AVG: [[f64; 5]; 12] = [
    [10.96, 12.09, 13.08, 14.03, 15.04],
    [21.0, 23.0, 25.0, 27.0, 29.0],
    [11.09, 11.09, 13.13, 13.13, 15.23],
    [10.10, 10.98, 12.06, 13.07, 14.03],
    [11.33, 12.52, 13.76, 15.02, 16.54],
    [21.0, 24.99, 28.61, 32.74, 36.23],
    [12.27, 12.40, 16.01, 16.22, 20.49],
    [10.78, 11.77, 13.17, 14.60, 16.03],
    [12.10, 13.47, 15.01, 16.58, 18.30],
    [33.32, 39.29, 45.60, 52.87, 60.70],
    [14.67, 14.67, 15.78, 20.31, 27.33],
    [12.47, 13.50, 15.17, 16.91, 18.46],
];

/// The paper's `L_avg` for `table` (1–12) at dimension `n`, if published.
pub fn l_avg(table: usize, n: usize) -> Option<f64> {
    L_AVG
        .get(table.checked_sub(1)?)?
        .get(n.checked_sub(10)?)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_and_complement_rows() {
        assert_eq!(l_avg(1, 10), Some(10.96));
        assert_eq!(l_avg(12, 14), Some(18.46));
        assert_eq!(l_avg(9, 9), None);
        assert_eq!(l_avg(13, 10), None);
        for n in 10..=14 {
            assert_eq!(l_avg(2, n), Some((2 * n + 1) as f64));
        }
    }
}

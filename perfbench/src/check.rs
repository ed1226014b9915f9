//! Output checks applied to every timed operation. A failed check
//! counts the operation as failed.

use slb_core::{CoreError, Sqd};
use slb_exp::{Answer, Query};

/// Checks a cold workload's answer to `query`.
///
/// * `bounds`: one row, the sandwich verdict is `Ok`, no cell reports a
///   non-converged or interrupted solve, and an `inf` upper bound only
///   where the upper model is unstable (re-derived from the public
///   solver).
pub fn check_answer(query: &Query, answer: &Answer) -> Result<(), String> {
    match query {
        Query::Bounds { n, d, rho, t, .. } => {
            let [row] = answer.rows.as_slice() else {
                return Err(format!("expected one row, got {}", answer.rows.len()));
            };
            if let Some(cell) = row
                .iter()
                .find(|c| c.contains("nonconverged") || c.contains("interrupted"))
            {
                return Err(format!("row carries a '{cell}' cell"));
            }
            match &answer.sandwich {
                Some(Ok(_)) => {}
                other => return Err(format!("sandwich verdict {other:?}")),
            }
            let col = |name: &str| {
                answer
                    .columns
                    .iter()
                    .position(|c| *c == name)
                    .map(|i| row[i].as_str())
                    .ok_or_else(|| format!("no '{name}' column"))
            };
            for name in ["lower", "sim"] {
                let cell = col(name)?;
                if !cell.parse::<f64>().is_ok_and(f64::is_finite) {
                    return Err(format!("{name} cell '{cell}' is not a finite number"));
                }
            }
            match col("upper")? {
                "inf" => upper_unstable(*n, *d, *rho, *t),
                cell if cell.parse::<f64>().is_ok_and(f64::is_finite) => Ok(()),
                cell => Err(format!("upper cell '{cell}' is not a number")),
            }
        }
        Query::Service { .. } => Err("service answers are checked byte for byte".into()),
        Query::Capacity { .. } => Err("no workload makes capacity queries".into()),
    }
}

/// An `inf` upper bound is correct only where the upper model is not
/// positive recurrent; the solver for the query's path must say so.
fn upper_unstable(n: usize, d: usize, rho: f64, t: u32) -> Result<(), String> {
    let sqd = Sqd::new(n, d, rho).map_err(|e| e.to_string())?;
    let solved = if n <= crate::replay::DENSE_N_MAX {
        sqd.upper_bound(t)
    } else {
        sqd.upper_bound_lumped(t)
    };
    match solved {
        Err(CoreError::UpperBoundUnstable { .. }) => Ok(()),
        other => Err(format!(
            "upper cell is 'inf' but the upper solve gave {other:?}"
        )),
    }
}

//! Ready-made QBD block constructions for classical queues.
//!
//! These serve two purposes: convenient entry points for users analyzing
//! MAP/M/1-type queues, and cross-layer validation targets — the
//! simulator's MAP arrivals are checked against these exact solutions.

use slb_linalg::Matrix;
use slb_markov::Map;

use crate::{QbdBlocks, Result};

/// QBD blocks of the MAP/M/1 queue: arrivals from `map`, a single
/// exponential server of rate `mu`, level = number of jobs.
///
/// Layout: boundary = empty system (one state per phase);
/// `A0 = D1`, `A1 = D0 − µI`, `A2 = µI`.
///
/// # Errors
///
/// Propagates block validation failures (impossible for a valid `Map` and
/// `mu > 0`).
///
/// # Panics
///
/// Panics if `mu <= 0`.
///
/// # Example
///
/// ```
/// use slb_markov::Map;
/// use slb_qbd::models;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Poisson MAP reduces MAP/M/1 to M/M/1: P(L = 0) = 1 − ρ.
/// let map = Map::poisson(0.4)?;
/// let blocks = models::map_m1_blocks(&map, 1.0)?;
/// let sol = blocks.solve()?;
/// assert!((sol.boundary()[0] - 0.6).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn map_m1_blocks(map: &Map, mu: f64) -> Result<QbdBlocks> {
    assert!(mu > 0.0 && mu.is_finite(), "service rate must be positive");
    let p = map.phases();
    let eye_mu = Matrix::from_diag(&vec![mu; p]);
    let a0 = map.d1().clone();
    let a1 = map.d0().add_scaled_identity(-mu)?;
    let a2 = eye_mu.clone();
    let r00 = map.d0().clone();
    let r01 = map.d1().clone();
    let r10 = eye_mu;
    QbdBlocks::new(r00, r01, r10, a0, a1, a2)
}

/// Mean number of jobs in a MAP/M/1 queue (levels weighted by job count).
///
/// # Errors
///
/// [`crate::QbdError::Unstable`] if `λ ≥ µ`; solver failures otherwise.
///
/// # Panics
///
/// Panics if `mu <= 0`.
pub fn map_m1_mean_jobs(map: &Map, mu: f64) -> Result<f64> {
    let blocks = map_m1_blocks(map, mu)?;
    let sol = blocks.solve()?;
    let p = map.phases();
    // Boundary = 0 jobs; repeating level q = q + 1 jobs.
    Ok(sol.mean_linear_cost(&vec![0.0; p], &vec![1.0; p], &vec![1.0; p]))
}

/// Mean sojourn time of a MAP/M/1 queue via Little's law.
///
/// # Errors
///
/// As [`map_m1_mean_jobs`], plus rate-computation failures.
///
/// # Panics
///
/// Panics if `mu <= 0`.
pub fn map_m1_mean_sojourn(map: &Map, mu: f64) -> Result<f64> {
    let jobs = map_m1_mean_jobs(map, mu)?;
    let lam = map.rate().map_err(crate::QbdError::from)?;
    Ok(jobs / lam)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_map_m1_is_mm1() {
        let rho = 0.7;
        let map = Map::poisson(rho).unwrap();
        let jobs = map_m1_mean_jobs(&map, 1.0).unwrap();
        assert!((jobs - rho / (1.0 - rho)).abs() < 1e-9, "E[L] = {jobs}");
        let sojourn = map_m1_mean_sojourn(&map, 1.0).unwrap();
        assert!((sojourn - 1.0 / (1.0 - rho)).abs() < 1e-9);
    }

    #[test]
    fn mmpp_m1_burstier_than_mm1_at_equal_rate() {
        // Same fundamental rate, bursty modulation ⇒ longer queues.
        let map = Map::mmpp2(0.2, 0.2, 0.2, 1.2).unwrap();
        let lam = map.rate().unwrap();
        let mmpp_jobs = map_m1_mean_jobs(&map, 1.0).unwrap();
        let mm1_jobs = lam / (1.0 - lam);
        assert!(
            mmpp_jobs > 1.2 * mm1_jobs,
            "MMPP {mmpp_jobs} vs M/M/1 {mm1_jobs}"
        );
    }

    #[test]
    fn unstable_map_m1_detected() {
        let map = Map::poisson(1.5).unwrap();
        assert!(matches!(
            map_m1_mean_jobs(&map, 1.0),
            Err(crate::QbdError::Unstable { .. })
        ));
    }

    #[test]
    fn solution_is_distribution() {
        let map = Map::mmpp2(0.4, 0.6, 0.3, 1.1).unwrap();
        let blocks = map_m1_blocks(&map, 1.0).unwrap();
        let sol = blocks.solve().unwrap();
        assert!((sol.total_mass() - 1.0).abs() < 1e-9);
        assert!(sol.residual() < 1e-9);
    }
}

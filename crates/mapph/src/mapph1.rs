//! The exact MAP/PH/1 queue in QBD form — the single-server building
//! block of the paper's "MAP arrivals and PH service" future-work
//! direction.
//!
//! Level = number of jobs in the system; phase = (arrival phase, service
//! phase of the job in service). The blocks follow the classical
//! Kronecker assembly (e.g. Lakatos–Szeidl–Telek, ch. 10):
//!
//! ```text
//! A0 = D1 ⊗ I          (arrival, service phase untouched)
//! A1 = D0 ⊗ I + I ⊗ S  (phase evolution on both axes)
//! A2 = I ⊗ (s·α)       (completion, next job starts afresh)
//! ```
//!
//! with boundary `R00 = D0`, `R01 = D1 ⊗ α`, `R10 = I ⊗ s`.

use slb_linalg::Matrix;
use slb_markov::{Map, PhaseType};
use slb_qbd::QbdBlocks;

use crate::{MapphError, Result};

/// A MAP/PH/1 queue: MAP arrivals, phase-type service, one server, FIFO.
///
/// # Example
///
/// ```
/// use slb_markov::{Map, PhaseType};
/// use slb_mapph::MapPh1;
///
/// # fn main() -> Result<(), slb_mapph::MapphError> {
/// // M/M/1 in disguise: Poisson(0.5) arrivals, exp(1) service.
/// let q = MapPh1::new(
///     Map::poisson(0.5).map_err(slb_mapph::MapphError::from)?,
///     PhaseType::exponential(1.0).map_err(slb_mapph::MapphError::from)?,
/// )?;
/// let t = q.mean_sojourn()?;
/// assert!((t - 2.0).abs() < 1e-9); // 1/(1−ρ) = 2
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MapPh1 {
    map: Map,
    service: PhaseType,
}

impl MapPh1 {
    /// Builds the queue and checks stability `ρ = λ·E[S] < 1`.
    ///
    /// # Errors
    ///
    /// [`MapphError::InvalidParameters`] if the queue is overloaded;
    /// propagates MAP/PH validation failures.
    pub fn new(map: Map, service: PhaseType) -> Result<Self> {
        let rho = map.rate()? * service.mean()?;
        if rho >= 1.0 {
            return Err(MapphError::InvalidParameters {
                reason: format!("utilization {rho} must be below 1"),
            });
        }
        Ok(MapPh1 { map, service })
    }

    /// Utilization `ρ = λ·E[S]`.
    ///
    /// # Errors
    ///
    /// Propagates MAP/PH moment failures.
    pub fn utilization(&self) -> Result<f64> {
        Ok(self.map.rate()? * self.service.mean()?)
    }

    /// The arrival MAP.
    pub fn map(&self) -> &Map {
        &self.map
    }

    /// The service law.
    pub fn service(&self) -> &PhaseType {
        &self.service
    }

    /// Assembles the QBD blocks via Kronecker products.
    ///
    /// # Errors
    ///
    /// Propagates block validation failures.
    pub fn blocks(&self) -> Result<QbdBlocks> {
        let p = self.map.phases();
        let q = self.service.phases();
        let eye_p = Matrix::identity(p);
        let eye_q = Matrix::identity(q);

        let alpha_row = Matrix::from_vec(1, q, self.service.alpha().to_vec())?;
        let exit_col = Matrix::from_vec(q, 1, self.service.exit_rates())?;
        let s_alpha = exit_col.mat_mul(&alpha_row)?;

        let a0 = self.map.d1().kron(&eye_q);
        let a1 = self
            .map
            .d0()
            .kron(&eye_q)
            .add(&eye_p.kron(self.service.sub_generator()))?;
        let a2 = eye_p.kron(&s_alpha);
        let r00 = self.map.d0().clone();
        let r01 = self.map.d1().kron(&alpha_row);
        let r10 = eye_p.kron(&exit_col);

        Ok(QbdBlocks::new(r00, r01, r10, a0, a1, a2)?)
    }

    /// Mean number of jobs in the system.
    ///
    /// # Errors
    ///
    /// Propagates solver failures ([`MapphError::UpperBoundUnstable`]
    /// cannot occur because stability was checked at construction).
    pub fn mean_jobs(&self) -> Result<f64> {
        let blocks = self.blocks()?;
        let sol = blocks.solve()?;
        let p = self.map.phases();
        let m = p * self.service.phases();
        // Boundary (0 jobs) costs 0; level q holds q+1 jobs.
        Ok(sol.mean_linear_cost(&vec![0.0; p], &vec![1.0; m], &vec![1.0; m]))
    }

    /// Mean sojourn time `E[T] = E[L]/λ` (Little's law).
    ///
    /// # Errors
    ///
    /// As [`MapPh1::mean_jobs`].
    pub fn mean_sojourn(&self) -> Result<f64> {
        Ok(self.mean_jobs()? / self.map.rate()?)
    }

    /// Stationary probability that the system is empty, by arrival phase.
    ///
    /// # Errors
    ///
    /// As [`MapPh1::mean_jobs`].
    pub fn idle_distribution(&self) -> Result<Vec<f64>> {
        let blocks = self.blocks()?;
        let sol = blocks.solve()?;
        Ok(sol.boundary().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pollaczek–Khinchine mean sojourn for M/G/1:
    /// `E[T] = E[S] + λ E[S²] / (2(1−ρ))`.
    fn pk_sojourn(lam: f64, es: f64, es2: f64) -> f64 {
        es + lam * es2 / (2.0 * (1.0 - lam * es))
    }

    #[test]
    fn mm1_special_case() {
        let q = MapPh1::new(
            Map::poisson(0.7).unwrap(),
            PhaseType::exponential(1.0).unwrap(),
        )
        .unwrap();
        assert!((q.utilization().unwrap() - 0.7).abs() < 1e-12);
        assert!((q.mean_jobs().unwrap() - 0.7 / 0.3).abs() < 1e-9);
        assert!((q.mean_sojourn().unwrap() - 1.0 / 0.3).abs() < 1e-9);
        // Empty-probability = 1 − ρ.
        let idle: f64 = q.idle_distribution().unwrap().iter().sum();
        assert!((idle - 0.3).abs() < 1e-9);
    }

    #[test]
    fn m_e2_1_matches_pollaczek_khinchine() {
        // Erlang-2 service, mean 1, E[S²] = 1.5.
        let lam = 0.6;
        let q = MapPh1::new(
            Map::poisson(lam).unwrap(),
            PhaseType::erlang(2, 2.0).unwrap(),
        )
        .unwrap();
        let want = pk_sojourn(lam, 1.0, 1.5);
        let got = q.mean_sojourn().unwrap();
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn m_h2_1_matches_pollaczek_khinchine() {
        let lam = 0.5;
        let ph = PhaseType::hyperexponential(&[0.3, 0.7], &[0.5, 2.0]).unwrap();
        let es = ph.mean().unwrap();
        let es2 = ph.moment(2).unwrap();
        let q = MapPh1::new(Map::poisson(lam).unwrap(), ph).unwrap();
        let want = pk_sojourn(lam, es, es2);
        let got = q.mean_sojourn().unwrap();
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn map_m1_matches_existing_model() {
        // Cross-validate against the slb-qbd MAP/M/1 reference.
        let map = Map::mmpp2(0.3, 0.6, 0.4, 1.2).unwrap();
        let q = MapPh1::new(map.clone(), PhaseType::exponential(1.3).unwrap()).unwrap();
        let want = slb_qbd::models::map_m1_mean_sojourn(&map, 1.3).unwrap();
        let got = q.mean_sojourn().unwrap();
        assert!((got - want).abs() < 1e-8, "{got} vs {want}");
    }

    #[test]
    fn gi_m_1_matches_sigma_theory() {
        // E2/M/1: the GI/M/1 delay is 1/(µ(1−σ)) with σ the root of
        // Theorem 2's fixed point — computed independently by slb-core.
        let mu = 1.0;
        let lam = 0.7;
        let inter = slb_core::sigma::Interarrival::Erlang {
            k: 2,
            rate: 2.0 * lam,
        };
        let sigma = slb_core::sigma::solve_sigma(&inter, mu).unwrap();
        let want = 1.0 / (mu * (1.0 - sigma));

        let ph = PhaseType::erlang(2, 2.0 * lam).unwrap();
        let q = MapPh1::new(
            Map::renewal(&ph).unwrap(),
            PhaseType::exponential(mu).unwrap(),
        )
        .unwrap();
        let got = q.mean_sojourn().unwrap();
        assert!((got - want).abs() < 1e-8, "{got} vs GI/M/1 {want}");
    }

    #[test]
    fn overload_rejected() {
        assert!(MapPh1::new(
            Map::poisson(1.5).unwrap(),
            PhaseType::exponential(1.0).unwrap(),
        )
        .is_err());
    }

    #[test]
    fn service_variability_increases_delay() {
        // Same mean service, increasing SCV ⇒ increasing delay (P-K).
        let lam = 0.6;
        let erlang = MapPh1::new(
            Map::poisson(lam).unwrap(),
            PhaseType::erlang(4, 4.0).unwrap(), // SCV 1/4
        )
        .unwrap();
        let exp = MapPh1::new(
            Map::poisson(lam).unwrap(),
            PhaseType::exponential(1.0).unwrap(), // SCV 1
        )
        .unwrap();
        let h2 = MapPh1::new(
            Map::poisson(lam).unwrap(),
            PhaseType::hyperexponential(&[0.5, 0.5], &[0.4, 4.0]).unwrap(),
        )
        .unwrap();
        let (a, b, c) = (
            erlang.mean_sojourn().unwrap(),
            exp.mean_sojourn().unwrap(),
            h2.mean_sojourn().unwrap(),
        );
        assert!(a < b && b < c, "{a} < {b} < {c} violated");
    }
}

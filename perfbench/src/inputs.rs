//! Seeded input generation for the three workloads.
//!
//! Each workload fixes its model size and a parameter range inside one
//! cost class. The seed only jitters the parameter around a fixed grid,
//! shuffles the visiting order (one permutation of the grid per pass)
//! and picks the simulation seeds, so a different seed solves different
//! models while doing the same amount of work.

use slb_exp::json::Json;
use slb_exp::{Query, SimBudget};

/// The benchmark workloads, by their `BENCHMARK.json` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold `Query::Bounds` on the dense QBD path (N = 10, T = 3).
    BoundsDense,
    /// Cold `Query::Bounds` on the occupancy-lumped path (N = 16, T = 3).
    BoundsLumped,
    /// Memory hits through `POST /v1/query` on a running `slb serve`.
    ServeHot,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BoundsDense,
        Workload::BoundsLumped,
        Workload::ServeHot,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BoundsDense => "bounds-dense",
            Workload::BoundsLumped => "bounds-lumped",
            Workload::ServeHot => "serve-hot",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload '{name}'"))
    }

    /// The fixed grid the seed jitters around, and the jitter half-width.
    /// For the bounds workloads the axis is ρ, and for `serve-hot` it is
    /// ρ of the cached `service` keys.
    pub fn grid(self) -> (Vec<f64>, f64) {
        let axis = |lo: usize, hi: usize, step: f64| (lo..=hi).map(|i| i as f64 * step).collect();
        match self {
            // Fig. 10 axis 0.05..0.95. The upper model at (N=10, T=3) is
            // unstable above ρ ≈ 0.778, so ±0.004 keeps every point on its
            // side of that frontier.
            Workload::BoundsDense => (axis(1, 19, 0.05), 0.004),
            // 0.05..0.45: beyond it the lumped upper solve leaves this
            // cost class (see README.md, "Findings").
            Workload::BoundsLumped => (axis(1, 9, 0.05), 0.004),
            Workload::ServeHot => ((0..16).map(|i| 0.30 + 0.04 * i as f64).collect(), 0.01),
        }
    }
}

/// Server counts of the `serve-hot` key set: 4 sizes × 16 ρ levels = 64
/// distinct `service` keys.
pub const SERVE_HOT_N: [usize; 4] = [8, 16, 32, 64];

/// The simulation budget of every query of a workload (its seed varies
/// per query; the amount of work does not).
pub fn sim_budget(workload: Workload, seed: u64) -> SimBudget {
    let (jobs, replications) = match workload {
        Workload::BoundsDense | Workload::BoundsLumped => (20_000, 4),
        Workload::ServeHot => (4_000, 2),
    };
    SimBudget {
        jobs,
        replications,
        seed,
    }
}

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one benchmark seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn symmetric(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A simulation seed of the timed key set: even, below 2^52 so it
    /// survives the JSON wire form exactly. Warm-up queries use odd
    /// seeds, so they can never share a key with a timed query.
    fn timed_sim_seed(&mut self) -> u64 {
        (self.next_u64() >> 12) & !1
    }

    /// In-place Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Rounds a jittered parameter to 6 decimals so queries print compactly.
fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// The query of one grid point of a cold workload.
fn cold_query(workload: Workload, x: f64, sim_seed: u64) -> Query {
    let budget = sim_budget(workload, sim_seed);
    match workload {
        Workload::BoundsDense => Query::Bounds {
            n: 10,
            d: 2,
            rho: x,
            t: 3,
            budget,
        },
        Workload::BoundsLumped => Query::Bounds {
            n: 16,
            d: 2,
            rho: x,
            t: 3,
            budget,
        },
        Workload::ServeHot => unreachable!("serve-hot has no cold queries"),
    }
}

/// The endless sequence of timed queries of a cold workload: pass after
/// pass over the grid, each pass in a fresh seeded order, each query
/// with its own jitter and simulation seed (so every query is a cache
/// miss).
pub struct ColdOps {
    workload: Workload,
    grid: Vec<f64>,
    jitter: f64,
    order: Passes,
    rng: Rng,
}

impl ColdOps {
    /// The timed queries of `workload` under benchmark seed `seed`.
    pub fn new(workload: Workload, seed: u64) -> ColdOps {
        assert!(
            workload != Workload::ServeHot,
            "serve-hot replays a key set"
        );
        let (grid, jitter) = workload.grid();
        ColdOps {
            workload,
            order: Passes::new(Rng::new(seed, 1), grid.len()),
            grid,
            jitter,
            rng: Rng::new(seed, 3),
        }
    }
}

impl Iterator for ColdOps {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        let i = self.order.next()?;
        let x = round6(self.grid[i] + self.jitter * self.rng.symmetric());
        Some(cold_query(self.workload, x, self.rng.timed_sim_seed()))
    }
}

/// The untimed warm-up query of set-up repetition `rep`: the middle grid
/// point with an odd simulation seed, so it lies outside the timed key
/// set but in the same cost class.
pub fn warmup_query(workload: Workload, seed: u64, rep: u64) -> Query {
    let (grid, _) = workload.grid();
    let x = grid[grid.len() / 2];
    let sim_seed = (Rng::new(seed, 100 + rep).next_u64() >> 12) | 1;
    match workload {
        Workload::ServeHot => service_query(SERVE_HOT_N[0], x, sim_seed),
        cold => cold_query(cold, x, sim_seed),
    }
}

fn service_query(n: usize, rho: f64, sim_seed: u64) -> Query {
    Query::Service {
        policy: "sqd".into(),
        n,
        d: 2,
        rho,
        budget: sim_budget(Workload::ServeHot, sim_seed),
    }
}

/// The 64 distinct `service` keys `serve-hot` fills and then replays,
/// already round-tripped through the JSON wire form so the in-process
/// reference answers use exactly the parameters the server decodes.
pub fn serve_hot_keys(seed: u64) -> Vec<Query> {
    let (grid, jitter) = Workload::ServeHot.grid();
    let mut rng = Rng::new(seed, 2);
    let mut keys = Vec::with_capacity(SERVE_HOT_N.len() * grid.len());
    for &n in &SERVE_HOT_N {
        for &rho in &grid {
            let rho = round6(rho + jitter * rng.symmetric());
            keys.push(wire_round_trip(&service_query(
                n,
                rho,
                rng.timed_sim_seed(),
            )));
        }
    }
    keys
}

/// `query` as the server sees it after `to_json` → render → parse.
pub fn wire_round_trip(query: &Query) -> Query {
    let doc = Json::parse(&query.to_json().render()).expect("rendered JSON parses");
    Query::from_json(&doc).expect("rendered query decodes")
}

/// Indices `0..len`, pass after pass, each pass a fresh seeded
/// permutation: the order of a cold workload's grid points, and of the
/// keys one `serve-hot` client replays.
pub struct Passes {
    rng: Rng,
    len: usize,
    pass: Vec<usize>,
}

impl Passes {
    fn new(rng: Rng, len: usize) -> Passes {
        Passes {
            rng,
            len,
            pass: Vec::new(),
        }
    }

    /// Client `client`'s order over `len` keys under benchmark seed `seed`.
    pub fn for_client(seed: u64, client: u64, len: usize) -> Passes {
        Passes::new(Rng::new(seed, 10 + client), len)
    }
}

impl Iterator for Passes {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.pass.is_empty() {
            self.pass = (0..self.len).collect();
            self.rng.shuffle(&mut self.pass);
        }
        self.pass.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COLD: [Workload; 2] = [Workload::BoundsDense, Workload::BoundsLumped];

    fn first(workload: Workload, seed: u64, k: usize) -> Vec<Query> {
        ColdOps::new(workload, seed).take(k).collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for w in COLD {
            assert_eq!(first(w, 7, 200), first(w, 7, 200), "{}", w.name());
            assert_eq!(warmup_query(w, 7, 0), warmup_query(w, 7, 0));
        }
        assert_eq!(serve_hot_keys(7), serve_hot_keys(7));
        let order = |c| Passes::for_client(7, c, 64).take(500).collect::<Vec<_>>();
        assert_eq!(order(0), order(0));
        assert_ne!(order(0), order(1), "clients replay different orders");
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for w in COLD {
            assert_ne!(first(w, 1, 50), first(w, 2, 50), "{}", w.name());
        }
        assert_ne!(serve_hot_keys(1), serve_hot_keys(2));
    }

    /// The grid point (index) a query was drawn around, checking that it
    /// lies within the jitter band and keeps the workload's fixed model
    /// size and budget.
    fn grid_index(w: Workload, q: &Query) -> usize {
        let (grid, jitter) = w.grid();
        let budget = q.budget();
        let expected = sim_budget(w, budget.seed);
        assert_eq!(budget, expected, "{}: budget changed", w.name());
        let x = match (w, q) {
            (
                Workload::BoundsDense,
                Query::Bounds {
                    n: 10,
                    d: 2,
                    t: 3,
                    rho,
                    ..
                },
            )
            | (
                Workload::BoundsLumped,
                Query::Bounds {
                    n: 16,
                    d: 2,
                    t: 3,
                    rho,
                    ..
                },
            ) => *rho,
            _ => panic!("{}: unexpected query {q:?}", w.name()),
        };
        let i = grid
            .iter()
            .position(|g| (x - g).abs() <= jitter + 1e-9)
            .unwrap_or_else(|| panic!("{}: {x} off the grid", w.name()));
        i
    }

    #[test]
    fn any_seed_keeps_the_grid_and_the_cost_class() {
        for w in COLD {
            let len = w.grid().0.len();
            for seed in [1, 2, 99, u64::MAX] {
                let ops = first(w, seed, 3 * len);
                assert!(
                    ops.iter().all(|q| q.budget().seed % 2 == 0),
                    "timed seeds are even"
                );
                for pass in ops.chunks(len) {
                    let mut seen: Vec<usize> = pass.iter().map(|q| grid_index(w, q)).collect();
                    seen.sort_unstable();
                    assert_eq!(seen, (0..len).collect::<Vec<_>>(), "{}: one pass", w.name());
                }
                let mut keys: Vec<String> = ops.iter().map(|q| q.to_json().render()).collect();
                keys.sort();
                keys.dedup();
                assert_eq!(
                    keys.len(),
                    ops.len(),
                    "{}: every timed query is cold",
                    w.name()
                );
                let warm = warmup_query(w, seed, 0);
                assert_eq!(grid_index(w, &warm), len / 2, "warm-up is a mid-grid query");
                assert_eq!(
                    warm.budget().seed % 2,
                    1,
                    "warm-up lies outside the timed set"
                );
            }
        }
    }

    #[test]
    fn dense_jitter_stays_on_one_side_of_the_upper_model_frontier() {
        // Upper model at (N=10, T=3) saturates at ρ ≈ 0.7781.
        let (grid, jitter) = Workload::BoundsDense.grid();
        for g in grid {
            assert!((g - jitter > 0.7781) || (g + jitter < 0.7781), "{g}");
        }
    }

    #[test]
    fn serve_hot_keys_are_64_distinct_service_keys() {
        for seed in [1, 5, 1234] {
            let keys = serve_hot_keys(seed);
            assert_eq!(keys.len(), 64);
            let mut rendered: Vec<String> = keys.iter().map(|q| q.to_json().render()).collect();
            rendered.sort();
            rendered.dedup();
            assert_eq!(rendered.len(), 64);
            for q in &keys {
                assert_eq!(q.kind(), "service");
                assert_eq!(q, &wire_round_trip(q), "keys are already in wire form");
                assert_eq!(q.budget(), sim_budget(Workload::ServeHot, q.budget().seed));
            }
            let warm = wire_round_trip(&warmup_query(Workload::ServeHot, seed, 0));
            assert!(!keys.contains(&warm), "warm-up lies outside the key set");
        }
    }
}

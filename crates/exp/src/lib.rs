//! # slb-exp
//!
//! The declarative scenario-sweep engine: every experiment of the
//! ICDCS 2016 evaluation is *data* — a small spec file under
//! `experiments/*.toml` naming a family, fixed parameters and the axes
//! to sweep — executed by one cached, multithreaded engine instead of a
//! per-figure binary.
//!
//! Pipeline:
//!
//! 1. [`ScenarioSpec::parse`] reads the spec (hand-rolled TOML subset,
//!    no external dependencies — the build environment is offline);
//! 2. [`ScenarioSpec::expand`] flattens the axes (cross product, with
//!    `zip`ped axes advancing together) into an ordered [`Job`] list;
//! 3. [`run_sweep`] answers each job from the content-hash cache under
//!    `target/sweep-cache/` or schedules it on a work-stealing thread
//!    pool, then emits rows **in job order** — the output is
//!    byte-identical for any thread count;
//! 4. [`check_sandwich`] (the `--check` flag / CI gate) asserts the
//!    paper's `lower ≤ sim ≤ upper` invariant on every applicable row.
//!
//! The CLI front end is `slb sweep <spec.toml>` in `slb-cli`.
//!
//! ```
//! use slb_exp::{run_sweep, ScenarioSpec, SweepOptions};
//!
//! let spec = ScenarioSpec::parse(
//!     "[scenario]\n\
//!      name = \"demo\"\n\
//!      family = \"logred-iters\"\n\
//!      d = 2\n\
//!      [axes]\n\
//!      n = [3]\n\
//!      t = [2]\n\
//!      rho = [0.5, 0.9]\n\
//!      kind = [\"lower\"]\n",
//! )
//! .unwrap();
//! let report = run_sweep(
//!     &spec,
//!     &SweepOptions {
//!         threads: 2,
//!         cache: false,
//!         ..SweepOptions::default()
//!     },
//! )
//! .unwrap();
//! assert_eq!(report.rows.len(), 2); // one row per rho
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod check;
pub mod exec;
pub mod json;
pub mod manifest;
pub mod output;
pub mod parser;
pub mod query;
pub mod runner;
pub mod spec;
pub mod store;
pub mod value;

pub use check::check_sandwich;
pub use exec::{run_sweep, run_sweep_on, SweepOptions, SweepReport};
pub use json::Json;
pub use manifest::{manifest_path, RunManifest};
pub use query::{answer, answer_with_budget, Answer, CapacityAnswer, Metric, Query, SimBudget};
pub use runner::{run_job, Family, Row};
pub use slb_linalg::{Budget, CancelToken};
pub use slb_pool::WorkPool;
pub use spec::{Job, ScenarioSpec};
pub use store::{CacheStore, Source};
pub use value::Value;

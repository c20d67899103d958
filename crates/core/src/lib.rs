//! # slrh — the Simplified Lagrangian Receding Horizon resource manager
//!
//! The paper's core contribution (§IV–V): a *dynamic* (online,
//! clock-driven) heuristic that maps DAG subtasks onto an ad hoc grid by
//! maximizing the Lagrangian objective
//! `ObjFn = α·T100/|T| − β·TEC/TSE + γ·AET/τ` subject to a receding
//! horizon: at each clock tick only subtasks that can *start* within `H`
//! of the current clock may be committed.
//!
//! Modules:
//!
//! * [`config`] — variants, ΔT, H, objective settings (paper defaults:
//!   ΔT = 10 clock cycles, H = 100 clock cycles);
//! * [`pool`] — the candidate pool `U`: ready subtasks that pass the
//!   conservative energy feasibility test, each with its
//!   objective-maximizing version. [`pool::build_pool`] is the
//!   from-scratch definition and the reference oracle; production runs
//!   select from an incremental frontier (tuned by [`ScaleMode`]) that
//!   commits exactly what a walk of this pool commits;
//! * [`mapper`] — the Figure 1 clock loop and the three variants
//!   SLRH-1 / SLRH-2 / SLRH-3, on the frontier kernel;
//! * [`adaptive`] — the paper's stated future work (§VIII): on-the-fly
//!   adjustment of the weights, implemented as projected dual ascent on
//!   the energy/time constraint violations;
//! * [`dynamic`] — ad hoc machine loss *during* a run: invalidation of
//!   disrupted work and on-the-fly remapping onto the surviving grid;
//! * [`open`] — open-system scheduling: a stream of deadline/budget jobs
//!   on one shared, churning grid.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod config;
pub mod context;
pub mod dynamic;
mod frontier;
pub mod open;
#[doc(hidden)]
pub mod mapper;
pub mod pool;

pub use adaptive::{run_adaptive_slrh, AdaptiveConfig, AdaptiveOutcome};
pub use config::{Adaptation, ConfigError, MachineOrder, ScaleMode, SlrhConfig, SlrhConfigBuilder, SlrhVariant, Trigger};
pub use context::RunContext;
pub use dynamic::{run_slrh_churn, run_slrh_churn_in, run_slrh_churn_observed, run_slrh_dynamic, DynamicOutcome, MachineArrivalEvent, MachineLossEvent};
pub use mapper::{run_slrh, run_slrh_in, run_slrh_observed, RunStats, SlrhOutcome, TickEvent};
pub use open::{run_open, run_open_in, JobHook, OpenJobReport, OpenMetrics, OpenOutcome};
pub use pool::{build_pool, build_pool_with, Pool, PoolEntry};

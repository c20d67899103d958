//! The Max-Max static baseline (§V).
//!
//! Max-Max follows the two-phase greedy structure of Ibarra & Kim's
//! Min-Min [IbK77], but *maximizes* the paper's global objective instead
//! of minimizing completion time:
//!
//! 1. build the pool `U` of feasible (subtask, version) pairs — unlike the
//!    SLRH pool, **both** versions of a subtask may be in `U`
//!    simultaneously, each assessed independently against the machine's
//!    remaining energy;
//! 2. for each machine, find the pair giving the maximum objective
//!    increase; among those per-machine champions, commit the best
//!    (subtask, version, machine) triplet;
//! 3. repeat until every subtask is mapped or nothing feasible remains.
//!
//! Being static, Max-Max sees no clock: a triplet "may be scheduled for a
//! time prior to the target machine's availability time if a sufficiently
//! large hole in the existing schedule" fits it
//! ([`gridsim::plan::Placement::Insert`]).
//!
//! Two interpretation choices the paper leaves implicit, both needed for
//! the heuristic to ever satisfy the τ constraint:
//!
//! * a triplet whose execution would **finish after τ** is not mappable —
//!   the static analogue of the SLRH clock loop stopping at τ (without
//!   it, the positive γ·AET/τ term drives the schedule arbitrarily late
//!   and no (α, β) pair is ever compliant);
//! * equal-objective ties (ubiquitous when γ = 0, where every primary
//!   placement raises the objective identically) break toward the
//!   **earliest finish**, consistent with the heuristic's Min-Min
//!   ancestry — a fixed arbitrary tie-break would serialize every subtask
//!   onto one machine;
//! * a **bottom-level slack gate**: a triplet must finish by τ minus the
//!   optimistic critical path from the subtask to the DAG's sinks (each
//!   descendant costed at its fastest secondary execution). The dynamic
//!   SLRH gets this for free — late slots are filled by subtasks that
//!   *become ready* late, i.e. leaves — but a static greedy will happily
//!   park an interior subtask against the deadline and strangle its
//!   descendants. This is the classic upward-rank guard of deadline list
//!   scheduling;
//! * a **downgrade guard**, the static analogue of the SLRH pool's
//!   conservatism: a triplet is only mappable if afterwards the grid
//!   retains enough *capacity* — per machine, the lesser of its remaining
//!   energy divided by the mean secondary energy cost and its remaining
//!   pre-τ timeline divided by the mean secondary duration — to absorb
//!   every still-unmapped subtask at the secondary level. Without it the
//!   α-heavy (T100-rich) region greedily drains the fast batteries on
//!   early primaries while the slow machines' timelines fill, and no
//!   weight pair can ever map all subtasks — the paper's requirement for
//!   a pair to count at all.
//!
//! # Exact bound-ordered selection
//!
//! Each selection step re-scores every gated (subtask, version, machine)
//! triplet, and planning one (the transfer- and hole-search) dominates
//! the step. The scan therefore runs in two phases and plans only the
//! triplets that can still win:
//!
//! 1. **Bound.** Every triplet passing the feasibility gate and the
//!    downgrade guard gets an upper bound on its objective, computed
//!    without planning. `T100` after the commit is static. `TEC` after it
//!    is `TEC + exec energy + Σ incoming transfer energy`, and transfer
//!    energy depends only on item sizes and link rates, never on where
//!    the slots land ([`SimState::incoming_transfer_energy`] folds the
//!    planner's own per-edge expression), so the bound's `TEC` term is
//!    the plan's, bit for bit. Only `AET` is unknown: under the paper's
//!    positive sign it is bounded above by `max(AET, deadline(t))` — an
//!    admissible triplet finishes by its deadline, later ones are
//!    rejected anyway — and under the negative ablation by the current
//!    `AET` (`AET` never falls). The objective is monotone in `AET/τ`
//!    under IEEE rounding (a product with a fixed-sign factor, then a
//!    sum), so the bound holds exactly, not approximately.
//! 2. **Plan in bound order.** Triplets are planned by descending bound
//!    and the scan stops at the first bound *strictly* below the
//!    incumbent's objective: nothing after it can reach the incumbent.
//!    Equal bounds are still planned, since an equal objective can win
//!    the tie-break. The tie-break `(finish, task, primary first,
//!    machine)` makes the winner the maximum of a *total* order — keys
//!    are unique per triplet — so it does not depend on the scan order,
//!    and the selected triplet is the exhaustive scan's.
//!
//! `candidates_evaluated` still counts every gated triplet, planned or
//! not: it stays the exhaustive scan's host-independent work proxy.

use adhoc_grid::config::MachineId;
use adhoc_grid::task::{TaskId, Version};
use adhoc_grid::units::{Dur, Energy, Time};
use adhoc_grid::workload::Scenario;
use gridsim::plan::{MappingPlan, Placement, PlanScratch};
use gridsim::state::{SimState, StateBuffers};
use lagrange::weights::{AetSign, Objective};
use slrh::pool::{objective_after, plan_objective};

use crate::outcome::StaticOutcome;

/// Run Max-Max to completion on `scenario`.
///
/// ```
/// use adhoc_grid::workload::{Scenario, ScenarioParams};
/// use adhoc_grid::config::GridCase;
/// use grid_baselines::run_maxmax;
/// use lagrange::weights::{Objective, Weights};
///
/// let sc = Scenario::generate(&ScenarioParams::paper_scaled(16), GridCase::A, 0, 0);
/// let out = run_maxmax(&sc, &Objective::paper(Weights::new(0.6, 0.2).unwrap()));
/// assert!(out.metrics().aet <= sc.tau, "Max-Max never schedules past tau");
/// ```
pub fn run_maxmax<'a>(scenario: &'a Scenario, objective: &Objective) -> StaticOutcome<'a> {
    run_maxmax_in(scenario, objective, &mut StateBuffers::default())
}

/// [`run_maxmax`] building its state on donated buffers (see
/// [`StateBuffers`]); results are identical.
pub fn run_maxmax_in<'a>(
    scenario: &'a Scenario,
    objective: &Objective,
    buffers: &mut StateBuffers,
) -> StaticOutcome<'a> {
    let mut state = SimState::new_in(scenario, std::mem::take(buffers));
    let mut search = Search::new(scenario);
    search.admit(&state, state.ready_tasks());
    let mut evaluated = 0u64;
    let mut unmapped = scenario.tasks();

    while let Some(plan) = search.best_triplet(&state, objective, unmapped, &mut evaluated) {
        unmapped -= 1;
        let delta = state.commit(&plan);
        search.admit(&state, &delta.newly_ready);
    }

    StaticOutcome {
        state,
        candidates_evaluated: evaluated,
    }
}

/// Static guard data: per-machine mean secondary footprints (downgrade
/// guard) and per-task latest admissible finishes (deadline gate).
struct DowngradeGuard {
    /// Mean secondary execution energy per machine.
    sec_energy: Vec<f64>,
    /// Mean secondary execution seconds per machine.
    sec_seconds: Vec<f64>,
    /// Latest admissible finish per task; see [`DowngradeGuard::new`].
    deadline: Vec<Time>,
}

impl DowngradeGuard {
    /// The guard tables. A task's deadline is the lesser of
    ///
    /// * τ minus its descendants' optimistic remaining work (critical-path
    ///   slack: each descendant costed at its fastest secondary run), and
    /// * the proportional level quota `τ·(depth+1)/(max_depth+1)` — the
    ///   wave structure the dynamic SLRH gets from its advancing clock.
    ///   Without it, an interior subtask may legally occupy a slot against
    ///   the deadline on an energy-cheap slow machine, compressing every
    ///   descendant into an ever-thinner window until the schedule
    ///   strangles.
    fn new(scenario: &Scenario) -> DowngradeGuard {
        let n = scenario.tasks() as f64;
        let (mut sec_energy, mut sec_seconds) = (Vec::new(), Vec::new());
        for (j, spec) in scenario.grid.iter() {
            let secs: f64 = scenario
                .dag
                .tasks()
                .map(|t| scenario.etc.exec_dur(t, j, Version::Secondary).as_seconds())
                .sum::<f64>()
                / n;
            sec_seconds.push(secs);
            sec_energy.push(secs * spec.compute_power);
        }

        // Bottom-level slack in reverse topological order.
        let min_sec_ticks: Vec<u64> = scenario
            .dag
            .tasks()
            .map(|t| {
                scenario
                    .grid
                    .ids()
                    .map(|j| scenario.etc.exec_dur(t, j, Version::Secondary).0)
                    .min()
                    .expect("grid is non-empty")
            })
            .collect();
        let order = scenario
            .dag
            .topological_order()
            .expect("scenario DAGs are acyclic");
        let mut bottom_slack = vec![Dur::ZERO; scenario.tasks()];
        for &t in order.iter().rev() {
            let slack = scenario
                .dag
                .children(t)
                .iter()
                .map(|&c| bottom_slack[c.0].0 + min_sec_ticks[c.0])
                .max()
                .unwrap_or(0);
            bottom_slack[t.0] = Dur(slack);
        }

        // ASAP level per task.
        let mut depth = vec![0usize; scenario.tasks()];
        let mut max_depth = 0;
        for &t in &order {
            for &c in scenario.dag.children(t) {
                depth[c.0] = depth[c.0].max(depth[t.0] + 1);
                max_depth = max_depth.max(depth[c.0]);
            }
        }

        let tau = scenario.tau;
        let deadline = scenario
            .dag
            .tasks()
            .map(|t| {
                let slack = bottom_slack[t.0];
                let by_slack = if slack.0 >= tau.0 {
                    Time::ZERO
                } else {
                    tau - slack
                };
                let quota = Time(
                    (tau.0 as u128 * (depth[t.0] as u128 + 1) / (max_depth as u128 + 1)) as u64,
                );
                by_slack.min(quota)
            })
            .collect();

        DowngradeGuard {
            sec_energy,
            sec_seconds,
            deadline,
        }
    }

    /// Estimated number of secondary-level subtasks machine `m` can
    /// absorb with `energy` units and `time` seconds left: the lesser of
    /// its energy-limited and time-limited counts.
    fn share(&self, m: usize, energy: f64, time: f64) -> f64 {
        (energy.max(0.0) / self.sec_energy[m]).min(time.max(0.0) / self.sec_seconds[m])
    }

    /// Estimated number of secondary-level subtasks the grid can still
    /// absorb if the candidate `(cost, exec_secs)` lands on machine `j`,
    /// given each machine's current `(energy, time)` room and unchanged
    /// [`DowngradeGuard::share`] in `shares`. Summed in machine order.
    fn capacity_after(
        &self,
        room: &[(f64, f64)],
        shares: &[f64],
        j: MachineId,
        cost: Energy,
        exec_secs: f64,
    ) -> f64 {
        (0..room.len())
            .map(|m| {
                if m == j.0 {
                    let (energy, time) = room[m];
                    self.share(m, energy - cost.units(), time - exec_secs)
                } else {
                    shares[m]
                }
            })
            .sum()
    }
}

/// A gated triplet awaiting planning, with its objective upper bound.
#[derive(Copy, Clone, Debug)]
struct Candidate {
    bound: f64,
    task: TaskId,
    version: Version,
    machine: MachineId,
}

/// One Max-Max run's selection machinery: the static guard, the
/// per-(task, machine) transfer energies of ready tasks, and buffers
/// reused across every selection step.
struct Search {
    guard: DowngradeGuard,
    machines: usize,
    /// Σ incoming transfer energy, indexed `t * machines + j`; filled by
    /// [`Search::admit`] once every parent of `t` is mapped (a static run
    /// never unmaps, so it stays exact).
    tx_energy: Vec<Energy>,
    /// Per machine: afford limit of the feasibility gate, read once per
    /// step.
    limits: Vec<f64>,
    /// Per machine: (available energy, τ − busy seconds), read once per
    /// step.
    room: Vec<(f64, f64)>,
    /// Per machine: [`DowngradeGuard::share`] of its current room.
    shares: Vec<f64>,
    candidates: Vec<Candidate>,
    scratch: PlanScratch,
}

impl Search {
    fn new(scenario: &Scenario) -> Search {
        let machines = scenario.grid.len();
        Search {
            guard: DowngradeGuard::new(scenario),
            machines,
            tx_energy: vec![Energy::ZERO; scenario.tasks() * machines],
            limits: Vec::with_capacity(machines),
            room: Vec::with_capacity(machines),
            shares: Vec::with_capacity(machines),
            candidates: Vec::new(),
            scratch: PlanScratch::default(),
        }
    }

    /// Record the incoming transfer energy of tasks that just became
    /// ready, on every machine.
    fn admit(&mut self, state: &SimState<'_>, ready: &[TaskId]) {
        for &t in ready {
            for j in state.scenario().grid.ids() {
                self.tx_energy[t.0 * self.machines + j.0] = state.incoming_transfer_energy(t, j);
            }
        }
    }

    /// The best feasible (task, version, machine) plan by objective
    /// value, or `None` when no feasible triplet remains. Triplets
    /// finishing after their deadline are not mappable; equal objectives
    /// break toward the earliest finish, then the lower task id, primary
    /// version, and lower machine id — fully deterministic. See the
    /// module docs for why the bound-ordered scan selects exactly what
    /// the exhaustive one does.
    fn best_triplet(
        &mut self,
        state: &SimState<'_>,
        objective: &Objective,
        unmapped: usize,
        evaluated: &mut u64,
    ) -> Option<MappingPlan> {
        let sc = state.scenario();
        let m = state.metrics();
        let tau_s = sc.tau.as_seconds();
        let positive = objective.aet_sign == AetSign::Positive;

        self.limits.clear();
        self.room.clear();
        self.shares.clear();
        for j in sc.grid.ids() {
            // A static run never loses a machine, so the gate needs no
            // liveness check.
            self.limits.push(state.ledger().afford_limit(j));
            let room = (
                state.ledger().available(j).units(),
                tau_s - state.compute_timeline(j).total_busy().as_seconds(),
            );
            self.shares.push(self.guard.share(j.0, room.0, room.1));
            self.room.push(room);
        }

        // Phase 1: gate and bound every triplet.
        self.candidates.clear();
        for &t in state.ready_tasks() {
            let deadline = self.guard.deadline[t.0];
            let aet_bound = if positive { m.aet.max(deadline) } else { m.aet };
            for j in sc.grid.ids() {
                for v in Version::BOTH {
                    if !state.gate_feasible(t, v, j, self.limits[j.0]) {
                        continue;
                    }
                    // Downgrade guard (see module docs): committing this
                    // triplet must leave the grid able to absorb the rest
                    // of the workload at the secondary level. Same static
                    // quantity the feasibility gate compares.
                    let cost = state.feasibility_demand(t, v, j);
                    let exec_dur = sc.etc.exec_dur(t, j, v);
                    let capacity = self.guard.capacity_after(
                        &self.room,
                        &self.shares,
                        j,
                        cost,
                        exec_dur.as_seconds(),
                    );
                    if capacity < (unmapped - 1) as f64 {
                        continue;
                    }
                    *evaluated += 1;
                    // Same expressions the planner uses for `t100_after`
                    // and `tec_after`.
                    let tec_after = m.tec
                        + sc.grid.machine(j).compute_energy(exec_dur)
                        + self.tx_energy[t.0 * self.machines + j.0];
                    let bound = objective_after(
                        &m,
                        objective,
                        m.t100 + usize::from(v.is_primary()),
                        tec_after,
                        aet_bound,
                    );
                    self.candidates.push(Candidate {
                        bound,
                        task: t,
                        version: v,
                        machine: j,
                    });
                }
            }
        }

        // Phase 2: plan by descending bound until no bound can reach the
        // incumbent. `total_cmp` only orders the scan; the stop test is
        // IEEE `<`, and for finite values `total_cmp`-below implies
        // IEEE-at-most, so nothing after the stop can beat the incumbent.
        self.candidates
            .sort_unstable_by(|a, b| b.bound.total_cmp(&a.bound));
        let mut best: Option<(f64, MappingPlan)> = None;
        for c in &self.candidates {
            if best.as_ref().is_some_and(|(b, _)| c.bound < *b) {
                break;
            }
            let plan = state.plan_with(
                c.task,
                c.version,
                c.machine,
                Placement::Insert,
                &mut self.scratch,
            );
            if plan.finish() > self.guard.deadline[c.task.0] {
                continue;
            }
            let obj = plan_objective(state, objective, &plan);
            debug_assert!(
                obj <= c.bound,
                "objective {obj} above its bound {}",
                c.bound
            );
            if best
                .as_ref()
                .is_none_or(|(b, bp)| beats(obj, &plan, *b, bp))
            {
                best = Some((obj, plan));
            }
        }
        best.map(|(_, p)| p)
    }
}

/// The selection order: higher objective, then earliest finish, lower
/// task id, primary version, lower machine id. Keys are unique per
/// triplet, so this is a total order and its maximum does not depend on
/// the order candidates are met in.
fn beats(obj: f64, plan: &MappingPlan, best: f64, best_plan: &MappingPlan) -> bool {
    let key = |p: &MappingPlan| (p.finish(), p.task, !p.version.is_primary(), p.machine);
    obj > best || (obj == best && key(plan) < key(best_plan))
}

/// The exhaustive scan the bound-ordered search replaced, kept as the
/// differential reference: plan every gated triplet in ready, machine,
/// version order, reading the guard's machine state afresh per triplet
/// (busy time summed from the intervals, not the running total).
#[cfg(test)]
fn run_maxmax_exhaustive<'a>(scenario: &'a Scenario, objective: &Objective) -> StaticOutcome<'a> {
    let mut state = SimState::new(scenario);
    let guard = DowngradeGuard::new(scenario);
    let tau_s = scenario.tau.as_seconds();
    let mut evaluated = 0u64;
    let mut unmapped = scenario.tasks();
    loop {
        let mut best: Option<(f64, MappingPlan)> = None;
        for &t in state.ready_tasks() {
            for j in scenario.grid.ids() {
                for v in Version::BOTH {
                    if !state.version_feasible(t, v, j) {
                        continue;
                    }
                    let cost = state.feasibility_demand(t, v, j);
                    let exec_secs = scenario.etc.exec_dur(t, j, v).as_seconds();
                    let capacity: f64 = scenario
                        .grid
                        .ids()
                        .map(|m| {
                            let busy: Dur = state
                                .compute_timeline(m)
                                .intervals()
                                .iter()
                                .map(|iv| iv.end.since(iv.start))
                                .sum();
                            let mut energy = state.ledger().available(m).units();
                            let mut time = tau_s - busy.as_seconds();
                            if m == j {
                                energy -= cost.units();
                                time -= exec_secs;
                            }
                            guard.share(m.0, energy, time)
                        })
                        .sum();
                    if capacity < (unmapped - 1) as f64 {
                        continue;
                    }
                    let plan = state.plan(t, v, j, Placement::Insert);
                    evaluated += 1;
                    if plan.finish() > guard.deadline[t.0] {
                        continue;
                    }
                    let obj = plan_objective(&state, objective, &plan);
                    if best
                        .as_ref()
                        .is_none_or(|(b, bp)| beats(obj, &plan, *b, bp))
                    {
                        best = Some((obj, plan));
                    }
                }
            }
        }
        let Some((_, plan)) = best else { break };
        unmapped -= 1;
        state.commit(&plan);
    }
    StaticOutcome {
        state,
        candidates_evaluated: evaluated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_grid::config::GridCase;
    use adhoc_grid::workload::ScenarioParams;
    use gridsim::validate::validate;
    use lagrange::weights::Weights;

    /// Schedule, metrics and work count of the production run equal the
    /// exhaustive reference's.
    fn assert_matches_exhaustive(sc: &Scenario, objective: &Objective) {
        let fast = run_maxmax(sc, objective);
        let slow = run_maxmax_exhaustive(sc, objective);
        let assignments = |o: &StaticOutcome<'_>| -> Vec<_> {
            o.state.schedule().assignments().copied().collect()
        };
        assert_eq!(assignments(&fast), assignments(&slow));
        assert_eq!(
            fast.state.schedule().transfers(),
            slow.state.schedule().transfers()
        );
        assert_eq!(fast.metrics(), slow.metrics());
        assert_eq!(fast.candidates_evaluated, slow.candidates_evaluated);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The bound-ordered scan selects exactly what the exhaustive
        /// scan selects, on every case, at both AET signs, and at the
        /// corners γ = 0 (equal AET terms: ties everywhere) and β = 0
        /// (no energy term).
        #[test]
        fn bound_ordered_scan_matches_exhaustive(
            tasks in 8usize..=96,
            case_idx in 0usize..3,
            etc_id in 0usize..3,
            dag_id in 0usize..3,
            alpha in 0.0f64..=1.0,
            beta_frac in 0.0f64..=1.0,
            corner in 0u8..3,
            negative in proptest::prelude::any::<bool>(),
        ) {
            let sc = Scenario::generate(
                &ScenarioParams::paper_scaled(tasks),
                GridCase::ALL[case_idx],
                etc_id,
                dag_id,
            );
            let beta = match corner {
                0 => (1.0 - alpha) * beta_frac,
                1 => 1.0 - alpha, // γ = 0
                _ => 0.0,         // β = 0
            };
            let objective = Objective {
                weights: Weights::new(alpha, beta).expect("on simplex"),
                aet_sign: if negative { AetSign::Negative } else { AetSign::Positive },
            };
            assert_matches_exhaustive(&sc, &objective);
        }
    }

    #[test]
    fn bound_ordered_scan_matches_exhaustive_at_paper_weights() {
        let sc = Scenario::generate(&ScenarioParams::paper_scaled(128), GridCase::B, 0, 0);
        assert_matches_exhaustive(&sc, &obj(0.5, 0.2));
    }

    fn scenario(tasks: usize) -> Scenario {
        Scenario::generate(&ScenarioParams::paper_scaled(tasks), GridCase::A, 0, 0)
    }

    fn obj(a: f64, b: f64) -> Objective {
        Objective::paper(Weights::new(a, b).unwrap())
    }

    #[test]
    fn schedules_respect_tau_and_validate() {
        let sc = scenario(64);
        let out = run_maxmax(&sc, &obj(0.5, 0.2));
        // Max-Max never commits a triplet past τ, so AET always complies.
        assert!(out.metrics().aet <= sc.tau);
        let errs = validate(&out.state);
        assert!(errs.is_empty(), "{errs:?}");
        assert!(out.candidates_evaluated > 0);
    }

    #[test]
    fn some_weights_map_everything() {
        // Whether a given (α, β) maps all subtasks depends on the weights
        // (that is what the Figure 3 search is for); a small grid must
        // contain at least one fully-mapping pair.
        let sc = scenario(64);
        let found = [(1.0, 0.0), (0.5, 0.25), (0.5, 0.5), (0.25, 0.25)]
            .iter()
            .any(|&(a, b)| run_maxmax(&sc, &obj(a, b)).metrics().fully_mapped());
        assert!(found, "no grid point fully maps the scenario");
    }

    #[test]
    fn deterministic() {
        let sc = scenario(48);
        let a = run_maxmax(&sc, &obj(0.5, 0.2));
        let b = run_maxmax(&sc, &obj(0.5, 0.2));
        assert_eq!(a.metrics(), b.metrics());
        assert_eq!(a.candidates_evaluated, b.candidates_evaluated);
    }

    #[test]
    fn pure_t100_objective_yields_all_primaries_when_energy_allows() {
        let sc = scenario(32);
        let out = run_maxmax(&sc, &obj(1.0, 0.0));
        let m = out.metrics();
        if m.fully_mapped() && m.tec.units() < m.tse.units() * 0.5 {
            assert_eq!(m.t100, m.mapped, "ample energy: all primaries expected");
        }
    }

    #[test]
    fn hole_insertion_can_backfill() {
        // Max-Max may start a later-discovered pair before the machine's
        // availability time; at minimum the schedule must stay valid and
        // AET must not exceed a serial bound.
        let sc = scenario(48);
        let out = run_maxmax(&sc, &obj(0.6, 0.4));
        assert!(validate(&out.state).is_empty());
    }

    #[test]
    fn respects_per_version_energy_feasibility() {
        let sc = scenario(64);
        let out = run_maxmax(&sc, &obj(0.9, 0.1));
        // However the run went, batteries are never overdrawn (ledger
        // invariants are asserted in commit; validate re-checks).
        assert!(validate(&out.state).is_empty());
    }
}

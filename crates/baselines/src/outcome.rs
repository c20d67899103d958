//! Shared result type for the static baselines.

use gridsim::metrics::Metrics;
use gridsim::state::SimState;
use gridsim::MappingOutcome;

/// The result of a static mapping run.
#[derive(Debug)]
pub struct StaticOutcome<'a> {
    /// Final simulation state (schedule, ledger, metrics).
    pub state: SimState<'a>,
    /// Number of candidate (task, version, machine) triplets that passed
    /// the heuristic's gates — the host-independent work proxy,
    /// comparable to the SLRH run stats. It counts gated candidates, not
    /// plans computed: Max-Max plans only the triplets whose objective
    /// bound can still win, but counts every gated one, as the
    /// exhaustive scan would plan them.
    pub candidates_evaluated: u64,
}

impl StaticOutcome<'_> {
    /// The run's metrics.
    pub fn metrics(&self) -> Metrics {
        self.state.metrics()
    }
}

impl MappingOutcome for StaticOutcome<'_> {
    fn state(&self) -> &SimState<'_> {
        &self.state
    }

    fn candidates_evaluated(&self) -> u64 {
        self.candidates_evaluated
    }
}

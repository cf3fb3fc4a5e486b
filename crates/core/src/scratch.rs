//! What one test needs besides its path: the flow simulator of the
//! TCP-based tests and the estimators' sample buffers. A campaign worker
//! keeps one [`TestScratch`] and resets it between tests instead of
//! building these from nothing for every test; a lone test runs on a
//! fresh one. Only one test runs on a scratch at a time, so what it
//! holds is sized by the largest test it ran, and nothing in it carries
//! from one test into the next.

use crate::estimator::{Lend, SampleBuffers};
use mbw_congestion::{MultiFlowConfig, MultiFlowSim};
use mbw_netsim::PathModel;

/// One worker's reusable test state. Building one allocates nothing.
#[derive(Default)]
pub(crate) struct TestScratch {
    sim: Option<MultiFlowSim>,
    buffers: SampleBuffers,
}

impl TestScratch {
    /// The flow simulator, as [`MultiFlowSim::new`] would build it over
    /// `path`, with the flow list and bins of the tests before it.
    pub(crate) fn sim(&mut self, path: PathModel, config: MultiFlowConfig) -> &mut MultiFlowSim {
        let sim = match self.sim.take() {
            Some(mut sim) => {
                sim.reset(path, config);
                sim
            }
            None => MultiFlowSim::new(path, config),
        };
        self.sim.insert(sim)
    }

    /// Run `test` with the estimator `build` makes on the scratch's
    /// sample buffers, and take them back when it returns.
    pub(crate) fn lend<E: Lend, R>(
        &mut self,
        build: impl FnOnce(&mut SampleBuffers) -> E,
        test: impl FnOnce(&mut Self, &mut E) -> R,
    ) -> R {
        let mut estimator = build(&mut self.buffers);
        let out = test(self, &mut estimator);
        estimator.release(&mut self.buffers);
        out
    }
}

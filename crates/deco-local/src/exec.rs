//! The [`Executor`] abstraction: *what* runs a protocol, decoupled from
//! *which* protocol runs.
//!
//! [`runner::run`] is the reference executor — a
//! straightforward serial loop whose behavior defines the model. Faster
//! executors (the multi-threaded barrier engine in `deco-engine`)
//! implement [`Executor`] and are required to be *observationally
//! identical*: same outputs, same round count, same message count, same
//! errors, for every protocol and network. Callers that execute protocols
//! (the Theorem 4.1 solver, the experiment harness) take an `&impl Executor`
//! so the substrate can be swapped without touching algorithm code.
//!
//! The trait bounds (`Send`/`Sync` on programs, messages, and outputs) are
//! what a multi-threaded executor fundamentally needs; every protocol in
//! this workspace satisfies them for free since programs are plain data.
//!
//! The contract is *observational*, not operational: an executor promises
//! the serial runner's outputs, round count (the maximum local halting
//! round), message count, and errors — it does **not** promise how the
//! work is scheduled. `deco-engine`'s barrier executor keeps global
//! phases but splits each over threads; that is a legal implementation
//! precisely because a node's round-`r` state depends only on its
//! radius-`r` neighborhood, so any dependency-respecting schedule
//! reproduces the synchronous execution bit for bit. The differential
//! suites hold every implementation to this, error cases included:
//! [`RunError`] is reserved for model-level outcomes, identical on every
//! executor.
//!
//! Besides protocol execution, an [`Executor`] also decides how a caller's
//! *logically parallel branches* run ([`Executor::execute_branches`]): the
//! Theorem 4.1 solver's per-subspace residuals and per-class slack-β solves
//! are independent sub-computations composed with `CostNode::par`, and the
//! executor may fan them out over worker threads. The contract is the same
//! as for protocols: results are returned in branch order, so parallelism
//! is observationally invisible.

use crate::network::Network;
use crate::runner::{self, NodeProgram, Protocol, RunError, RunOutcome};

/// A strategy for running a [`Protocol`] to completion on a [`Network`],
/// and for executing batches of independent branch computations.
///
/// Executors are shared by reference across the worker threads they spawn
/// (branches recurse into the same executor), hence the `Sync` bound.
pub trait Executor: Sync {
    /// Runs `protocol` on `net` until every node halts or `max_rounds` is
    /// hit. Must be observationally identical to [`runner::run`].
    ///
    /// # Errors
    ///
    /// Returns [`RunError::RoundLimitExceeded`] exactly when the serial
    /// runner would.
    fn execute<P>(
        &self,
        net: &Network<'_>,
        protocol: &P,
        max_rounds: u64,
    ) -> Result<RunOutcome<<P::Program as NodeProgram>::Output>, RunError>
    where
        P: Protocol,
        P::Program: Send,
        <P::Program as NodeProgram>::Msg: Send + Sync,
        <P::Program as NodeProgram>::Output: Send;

    /// Runs the independent branch computations `0..weights.len()`, where
    /// `run(i)` produces branch `i`'s result, and returns the results **in
    /// branch order**. `weights[i]` estimates branch `i`'s work (e.g. its
    /// sub-instance edge count) so a threaded implementation can balance
    /// worker loads; it must not influence any result.
    ///
    /// The branches must be mutually independent (no branch reads state
    /// another branch writes). Implementations may run them in any order or
    /// concurrently, but the returned vector is always index-ordered, so a
    /// caller that merges results sequentially observes exactly the serial
    /// execution. The default implementation runs the branches serially in
    /// index order.
    fn execute_branches<T, F>(&self, weights: &[usize], run: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        (0..weights.len()).map(run).collect()
    }
}

/// The reference executor: delegates to the serial [`runner::run`] loop.
///
/// Always available, always correct, and the differential-testing oracle
/// for every other [`Executor`] implementation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn execute<P>(
        &self,
        net: &Network<'_>,
        protocol: &P,
        max_rounds: u64,
    ) -> Result<RunOutcome<<P::Program as NodeProgram>::Output>, RunError>
    where
        P: Protocol,
        P::Program: Send,
        <P::Program as NodeProgram>::Msg: Send + Sync,
        <P::Program as NodeProgram>::Output: Send,
    {
        runner::run(net, protocol, max_rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{IdAssignment, NodeCtx};
    use deco_graph::generators;

    /// Trivial 1-round echo protocol for exercising the trait object-free
    /// dispatch path.
    struct Echo;
    struct EchoProgram {
        heard: u64,
        done: bool,
    }

    impl NodeProgram for EchoProgram {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, _ctx: &NodeCtx<'_>) -> Option<u64> {
            Some(self.heard)
        }
        fn receive(&mut self, _ctx: &NodeCtx<'_>, inbox: &[Option<u64>]) {
            self.heard += inbox.iter().flatten().sum::<u64>();
            self.done = true;
        }
        fn output(&self, _ctx: &NodeCtx<'_>) -> Option<u64> {
            self.done.then_some(self.heard)
        }
    }

    impl Protocol for Echo {
        type Program = EchoProgram;
        fn spawn(&self, ctx: &NodeCtx<'_>) -> EchoProgram {
            EchoProgram {
                heard: ctx.id,
                done: false,
            }
        }
    }

    #[test]
    fn default_branch_execution_is_index_ordered() {
        let weights = vec![3usize, 1, 4, 1, 5];
        let out = SerialExecutor.execute_branches(&weights, |i| i * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
        let empty: Vec<usize> = SerialExecutor.execute_branches(&[], |i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn serial_executor_matches_run() {
        let g = generators::cycle(6);
        let net = Network::new(&g, IdAssignment::Sequential);
        let via_trait = SerialExecutor.execute(&net, &Echo, 10).unwrap();
        let direct = runner::run(&net, &Echo, 10).unwrap();
        assert_eq!(via_trait.outputs, direct.outputs);
        assert_eq!(via_trait.rounds, direct.rounds);
        assert_eq!(via_trait.messages, direct.messages);
    }
}

//! The parameter server: master weights plus the optimizer state, the
//! book of who holds a copy of the parameters, and the history of the
//! batches the master has stepped on.
//!
//! Dedicated Trainers update asynchronously: each push steps the
//! optimizer at once, so a gradient is at most as many versions stale as
//! there are peers in flight (§5.2's bounded staleness). A switched
//! standby may only buy time, not change what the run converges to, and
//! a stale gradient does: fed back through Adam's first moment, one
//! version of delay cuts the step length the loop tolerates about
//! forty-fold, and a learning rate a serial run is comfortable with
//! oscillates (DESIGN §4c has the measurements). So while a standby
//! consumes, updates go in **rounds**: a push only adds its gradient to
//! the master's, the pusher waits, and when the last consumer in flight
//! has pushed, the optimizer takes one step on the round's mean gradient
//! — as many times as long as the round has gradients, the linear scaling
//! rule, so a batch moves the model as far as it did alone — and everyone
//! pulls the new parameters. No gradient is applied to parameters it was
//! not computed on.
//!
//! A push hands over its batch's [`BatchRecord`], and the record joins
//! the history at the step that applies its gradient, so one locked read
//! of the server is a consistent checkpoint: the history names exactly the
//! batches the values and the Adam state have stepped on.

use crate::checkpoint::BatchRecord;
use crate::sync::{Condvar, Mutex};
use gnnlab_tensor::{Adam, AdamState, GnnModel, Matrix};
use std::time::Duration;

/// The parameter server's piece of a checkpoint: every master value in
/// `params_mut()` order, the Adam state, and the history sorted by id.
type Snapshot = (Vec<Matrix>, AdamState, Vec<BatchRecord>);

/// How often a consumer waiting for its round's step re-checks it — the
/// queue's guard against a lost wakeup, here too.
const ROUND_WAIT: Duration = Duration::from_millis(50);

/// Every batch id in `0..total` that `trained` does not name, ascending:
/// a resume re-samples the holes a multi-consumer run left first, then
/// goes on past the highest trained id. A loaded history's ids are below
/// `total`: the decoder checks them against the stored meta, and resume
/// refuses a meta that is not the live run's.
pub(super) fn untrained_ids(total: usize, trained: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut done = vec![false; total];
    for i in trained {
        done[i as usize] = true;
    }
    (0..total as u64).filter(|&i| !done[i as usize]).collect()
}

/// The shared parameter server (see the module docs).
pub(super) struct ParamServer {
    state: Mutex<Master>,
    /// Signalled after every optimizer step; consumers waiting for their
    /// round's step sleep on it.
    round_stepped: Condvar,
}

/// What the server's one lock guards.
struct Master {
    model: GnnModel,
    opt: Adam,
    /// Switched standbys consuming right now; rounds are on while any is.
    standbys: usize,
    /// Consumers between their pull and their push.
    in_flight: usize,
    /// Records of the gradients summed into the master's since the last
    /// step.
    pending: Vec<BatchRecord>,
    /// Every batch the master has stepped on, in step order (preloaded
    /// with the checkpointed trained set on resume).
    history: Vec<BatchRecord>,
    /// Steps taken; a pusher waiting for its round's step watches it move.
    round: u64,
}

impl Master {
    /// Steps the optimizer on the mean of the `pending` gradients summed
    /// into the master's, `pending` times as long, and moves their records
    /// into `history`. One pending gradient — every step outside a round —
    /// is the plain step, bit for bit.
    fn step(&mut self) {
        let n = self.pending.len();
        self.history.append(&mut self.pending);
        if n > 1 {
            for p in self.model.params_iter_mut() {
                p.grad.scale(1.0 / n as f32);
            }
        }
        self.opt.step_scaled(self.model.params_iter_mut(), n as f32);
        self.round += 1;
    }
}

impl ParamServer {
    pub(super) fn new(model: GnnModel, opt: Adam) -> Self {
        ParamServer {
            state: Mutex::new(Master {
                model,
                opt,
                standbys: 0,
                in_flight: 0,
                pending: Vec::new(),
                history: Vec::new(),
                round: 0,
            }),
            round_stepped: Condvar::new(),
        }
    }

    /// Copies master parameter values into a replica (the consumer's
    /// pull), straight into the replica's existing buffers under the lock.
    pub(super) fn pull(&self, replica: &mut GnnModel) -> Pulled<'_> {
        let mut s = self.state.lock();
        for (p, m) in replica.params_iter_mut().zip(s.model.params_iter_mut()) {
            p.value.data_mut().copy_from_slice(m.value.data());
        }
        s.in_flight += 1;
        Pulled(self)
    }

    /// Runs a switched standby's `consume` with rounds on. They stay on if
    /// it unwinds instead of returning: the safe side, and what is left of
    /// the run is its tail.
    pub(super) fn in_rounds<R>(&self, consume: impl FnOnce() -> R) -> R {
        self.state.lock().standbys += 1;
        let out = consume();
        self.state.lock().standbys -= 1;
        out
    }

    /// Every batch id in `0..total` the master has not stepped on.
    pub(super) fn untrained(&self, total: usize) -> Vec<u64> {
        untrained_ids(total, self.state.lock().history.iter().map(|r| r.id))
    }

    /// One locked read — what a checkpoint persists. Whatever is pending
    /// in a round is not in it.
    pub(super) fn snapshot(&self) -> Snapshot {
        let (values, opt, mut history) = {
            let mut s = self.state.lock();
            let values = s.model.params_iter_mut().map(|p| p.value.clone());
            (values.collect(), s.opt.export_state(), s.history.clone())
        };
        history.sort_by_key(|r| r.id);
        (values, opt, history)
    }

    /// Splices a checkpoint's values, Adam state and history in, before
    /// any consumer pulls. A checkpoint whose values are not the live
    /// model's shape is refused with the reason.
    pub(super) fn restore(&self, (values, opt, history): Snapshot) -> Result<(), String> {
        let mut s = self.state.lock();
        let mut params = s.model.params_mut();
        if params.len() != values.len() {
            let (n, live) = (values.len(), params.len());
            return Err(format!(
                "holds {n} parameter tensors, the live model has {live}"
            ));
        }
        for (p, saved) in params.iter_mut().zip(values) {
            if (p.value.rows(), p.value.cols()) != (saved.rows(), saved.cols()) {
                return Err("has a parameter shape mismatch".into());
            }
            p.value = saved;
        }
        drop(params);
        s.opt = Adam::from_state(opt);
        s.history = history;
        Ok(())
    }

    /// The run's end: a copy of the master, and the history sorted by id.
    pub(super) fn finish(&self) -> (GnnModel, Vec<BatchRecord>) {
        let mut s = self.state.lock();
        let mut history = std::mem::take(&mut s.history);
        history.sort_by_key(|r| r.id);
        (s.model.clone(), history)
    }
}

/// A consumer between its pull and its push: the server counts it in
/// flight, and a round waits for it. Dropped without a push — the
/// consumer panicked mid-train — it leaves the round all the same, so
/// its peers are not left waiting for a gradient that will never come.
/// A push consumes it without running the drop.
pub(super) struct Pulled<'s>(&'s ParamServer);

impl Pulled<'_> {
    /// Pushes a replica's gradients into the master: added from the
    /// replica's own buffers and zeroed there once the lock is released.
    /// Outside a round the optimizer steps at once; in one it steps when
    /// the last consumer in flight has pushed, and this call returns after
    /// that step. Either way `record` joins the history at that step.
    pub(super) fn push_grads(self, replica: &mut GnnModel, record: BatchRecord) {
        let server = self.0;
        std::mem::forget(self);
        let mut s = server.state.lock();
        for (p, r) in s.model.params_iter_mut().zip(replica.params_iter_mut()) {
            p.grad.add_assign(&r.grad);
        }
        s.pending.push(record);
        s.in_flight -= 1;
        if s.standbys == 0 || s.in_flight == 0 {
            s.step();
            server.round_stepped.notify_all();
        } else {
            let round = s.round;
            while s.round == round {
                server.round_stepped.wait_for(&mut s, ROUND_WAIT);
            }
        }
        drop(s);
        replica.zero_grad();
    }
}

impl Drop for Pulled<'_> {
    fn drop(&mut self) {
        let mut s = self.0.state.lock();
        s.in_flight -= 1;
        if s.in_flight == 0 && !s.pending.is_empty() {
            s.step();
            self.0.round_stepped.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnnlab_tensor::{ModelConfig, ModelKind};

    const LR: f32 = 0.01;

    /// A server over a small GCN's master, two replicas holding the
    /// constant gradients `g[0]` and `g[1]`, and the master's starting
    /// values.
    fn fixture(grads: [f32; 2]) -> (ParamServer, [GnnModel; 2], GnnModel) {
        let start = GnnModel::new(ModelConfig {
            kind: ModelKind::Gcn,
            in_dim: 8,
            hidden_dim: 16,
            num_classes: 4,
            seed: 3,
        });
        let server = ParamServer::new(start.clone(), Adam::new(LR));
        let replicas = grads.map(|value| {
            let mut replica = start.clone();
            for p in replica.params_mut() {
                p.grad.data_mut().fill(value);
            }
            replica
        });
        (server, replicas, start)
    }

    fn record(id: u64) -> BatchRecord {
        BatchRecord {
            id,
            loss: 0.0,
            acc: 0.0,
        }
    }

    fn history_ids(server: &ParamServer) -> Vec<u64> {
        server.state.lock().history.iter().map(|r| r.id).collect()
    }

    fn adam_steps(server: &ParamServer) -> i32 {
        server.state.lock().opt.export_state().t
    }

    fn value_bits(model: &mut GnnModel) -> Vec<u32> {
        let params = model.params_mut();
        let values = params.iter().flat_map(|p| p.value.data());
        values.map(|x| x.to_bits()).collect()
    }

    /// Blocks until a push has landed in `server`: a pending record or a
    /// step. Returns what that one locked read saw: `(pending, steps,
    /// history)`.
    fn await_push(server: &ParamServer) -> (usize, u64, usize) {
        loop {
            let s = server.state.lock();
            if !s.pending.is_empty() || s.round > 0 {
                return (s.pending.len(), s.round, s.history.len());
            }
            drop(s);
            std::thread::yield_now();
        }
    }

    #[test]
    fn without_a_standby_every_push_steps_at_once() {
        let (server, [mut a, mut b], mut start) = fixture([0.5, -0.25]);
        let (pa, pb) = (server.pull(&mut a), server.pull(&mut b));
        pa.push_grads(&mut a, record(0));
        assert_eq!(adam_steps(&server), 1);
        assert_eq!(history_ids(&server), [0]);
        pb.push_grads(&mut b, record(1));
        assert_eq!(adam_steps(&server), 2);
        assert_eq!(history_ids(&server), [0, 1]);
        // Exactly the two plain steps a lone optimizer takes.
        let mut opt = Adam::new(LR);
        for value in [0.5, -0.25] {
            let mut params = start.params_mut();
            for p in &mut params {
                p.grad.data_mut().fill(value);
            }
            gnnlab_tensor::Optimizer::step(&mut opt, &mut params);
        }
        assert_eq!(
            value_bits(&mut server.state.lock().model),
            value_bits(&mut start)
        );
    }

    #[test]
    fn a_round_steps_once_on_the_mean_gradient_when_its_last_consumer_pushes() {
        let (server, [mut a, mut b], mut start) = fixture([0.5, -0.25]);
        server.state.lock().standbys = 1;
        let (pa, pb) = (server.pull(&mut a), server.pull(&mut b));
        std::thread::scope(|scope| {
            let first = scope.spawn(|| pa.push_grads(&mut a, record(4)));
            // The first push lands as one pending record and waits there:
            // no step while a peer still trains on the parameters it
            // pulled, and no record in the history before the step that
            // applies it. A push that stepped would show the step in this
            // same locked read.
            assert_eq!(await_push(&server), (1, 0, 0), "the first push stepped");
            assert!(!first.is_finished(), "the first pusher did not wait");
            pb.push_grads(&mut b, record(3));
        });
        assert_eq!(adam_steps(&server), 1);
        assert_eq!(
            history_ids(&server),
            [4, 3],
            "both records join at the step"
        );
        // One step on the mean of the two gradients, twice as long.
        for p in start.params_iter_mut() {
            p.grad.data_mut().fill((0.5 - 0.25) / 2.0);
        }
        Adam::new(LR).step_scaled(start.params_iter_mut(), 2.0);
        assert_eq!(
            value_bits(&mut server.state.lock().model),
            value_bits(&mut start)
        );
    }

    #[test]
    fn a_consumer_that_dies_mid_train_does_not_hold_the_round() {
        let (server, [mut a, mut b], _) = fixture([0.5, -0.25]);
        server.state.lock().standbys = 1;
        let (pa, pb) = (server.pull(&mut a), server.pull(&mut b));
        std::thread::scope(|scope| {
            scope.spawn(|| pa.push_grads(&mut a, record(0)));
            await_push(&server);
            // The peer unwinds without pushing: the round closes on the one
            // gradient it has and the waiting pusher returns (the scope
            // joins).
            drop(pb);
        });
        assert_eq!(adam_steps(&server), 1);
        assert_eq!(
            history_ids(&server),
            [0],
            "the dead peer's batch is not in it"
        );
        // A lone consumer after that is not in anyone's way.
        let pb = server.pull(&mut b);
        pb.push_grads(&mut b, record(1));
        assert_eq!(adam_steps(&server), 2);
    }

    #[test]
    fn a_standby_turns_rounds_on_and_off_and_an_unwind_leaves_them_on() {
        let (server, ..) = fixture([0.0, 0.0]);
        let standbys = || server.state.lock().standbys;
        assert_eq!(server.in_rounds(standbys), 1);
        assert_eq!(standbys(), 0);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            server.in_rounds(|| panic!("a standby unwinds"))
        }));
        assert!(unwound.is_err());
        assert_eq!(standbys(), 1, "rounds stay on");
    }

    #[test]
    fn a_snapshot_restores_bit_for_bit_and_a_wrong_shape_is_refused() {
        let (server, [mut a, _], _) = fixture([0.5, -0.25]);
        for id in [2, 0] {
            server.pull(&mut a).push_grads(&mut a, record(id));
        }
        let (values, opt, history) = server.snapshot();
        assert_eq!(history.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(server.untrained(4), [1, 3]);
        let (fresh, ..) = fixture([0.0, 0.0]);
        assert_eq!(fresh.untrained(2), [0, 1]);
        fresh
            .restore((values.clone(), opt.clone(), history))
            .unwrap();
        assert_eq!(fresh.untrained(4), [1, 3]);
        let bits = |s: &ParamServer| value_bits(&mut s.state.lock().model);
        assert_eq!(bits(&fresh), bits(&server));
        assert_eq!(fresh.snapshot().1.t, 2);
        let short = values[1..].to_vec();
        let err = fresh.restore((short, opt.clone(), Vec::new())).unwrap_err();
        assert!(err.starts_with("holds"), "{err}");
        let mut reshaped = values;
        reshaped[0] = Matrix::zeros(1, 1);
        let err = fresh.restore((reshaped, opt, Vec::new())).unwrap_err();
        assert_eq!(err, "has a parameter shape mismatch");
        let (_, history) = server.finish();
        assert_eq!(history.iter().map(|r| r.id).collect::<Vec<_>>(), [0, 2]);
    }
}

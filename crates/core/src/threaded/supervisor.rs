//! Spawning and supervision: every executor thread runs under
//! `catch_unwind`, and a caught panic runs the recovery protocol —
//! reclaim the dead executor's leases (batch ids for a Sampler, samples
//! for a consumer) to the front of their queue, in order, then respawn
//! its slot or reassign its role to survivors, budget permitting. A
//! queue is drained only once no lease is out, so no survivor leaves
//! while the dead executor's work can still come back.

use super::consumer::consumer_phase;
use super::sampler::{sampler_clock, sampler_phase};
use super::shared::Shared;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::Scope;
use std::time::Instant;

/// The executor scope and the run's shared state: what spawning and
/// every crash handler need.
#[derive(Clone, Copy)]
pub(super) struct Supervisor<'scope, 'env> {
    pub scope: &'scope Scope<'scope, 'env>,
    pub sh: &'env Shared<'env>,
}

impl<'scope, 'env> Supervisor<'scope, 'env> {
    /// Spawns a Sampler on `slot` as executor `exec`, counting it live
    /// before the thread starts (no window where a crashing peer could think
    /// itself the last) and publishing its batch-time gauge (whatever it goes
    /// on to lease). Also the respawn path after a Sampler crash.
    pub(super) fn spawn_sampler(self, slot: usize, exec: usize) {
        let sh = self.sh;
        sh.ledger().sampler_up();
        let clock = sampler_clock(sh, slot);
        self.scope.spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| sampler_phase(sh, slot, exec, clock)));
            let last = sh.ledger().sampler_down();
            match outcome {
                Err(payload) => self.on_sampler_crash(slot, exec, payload, last),
                Ok(()) if sh.cfg.dynamic_switching => self.run_consumer(slot, exec, true),
                Ok(()) => {}
            }
        });
    }

    /// Spawns a Trainer on `slot` as executor `exec`, registering it as a
    /// consumer before the thread starts. Also the respawn path after a
    /// consumer crash.
    pub(super) fn spawn_trainer(self, slot: usize, exec: usize) {
        self.sh.sched().enlist(exec);
        self.scope
            .spawn(move || self.run_consumer(slot, exec, false));
    }

    /// Runs a consumer phase — a Trainer's, or a finished Sampler's standby
    /// decision — to its end on the calling thread: a clean exit or a typed
    /// fatal error deregisters the consumer (the error also fails the run); a
    /// panic goes to the crash handler.
    fn run_consumer(self, slot: usize, exec: usize, standby: bool) {
        let sh = self.sh;
        match catch_unwind(AssertUnwindSafe(|| consumer_phase(sh, slot, exec, standby))) {
            Ok(outcome) => {
                sh.sched().retire(exec);
                if let Err(fatal) = outcome {
                    sh.fail_fatal(fatal);
                }
            }
            Err(payload) => self.on_consumer_crash(slot, exec, payload, standby),
        }
    }

    /// The supervisor's handler for a dead Sampler (`last`: no other Sampler
    /// is live): reclaim its leased ids to the front of the id queue, in
    /// order, so a survivor re-samples them; respawn the slot only if it was
    /// the last and ids remain, and close the sample queue on its behalf if
    /// it was the last and none do.
    fn on_sampler_crash(self, slot: usize, exec: usize, payload: Box<dyn Any + Send>, last: bool) {
        let (started, ledger) = (Instant::now(), self.sh.ledger());
        let ids = ledger.ids();
        self.sh.faults().ids_replayed(ids.reclaim(exec as u32));
        let drained = ids.is_drained();
        let respawn = last && !drained;
        if !self.absorb(format!("Sampler {slot}"), payload, respawn) {
            return;
        }
        if respawn {
            self.spawn_sampler(slot, ledger.next_exec());
        } else if last && drained {
            ledger.samples().close();
        }
        self.sh.faults().downtime(started.elapsed());
    }

    /// The budget step both crash handlers share: spend one unit of the
    /// respawn budget and count the crash as a respawn or a reassignment, or
    /// — budget exhausted — fail the run with the panic and return `false`.
    fn absorb(self, who: String, payload: Box<dyn Any + Send>, respawn: bool) -> bool {
        let faults = self.sh.faults();
        let absorbed = faults.absorb(respawn);
        if !absorbed {
            self.sh.fail_fatal(faults.panic_error(who, payload));
        }
        absorbed
    }

    /// The supervisor's handler for a dead consumer (Trainer or switched
    /// standby): reclaim its leases so survivors replay the batches, then —
    /// budget permitting — respawn the slot or reassign per the allocation
    /// rule on live stage-time estimates.
    fn on_consumer_crash(
        self,
        slot: usize,
        exec: usize,
        payload: Box<dyn Any + Send>,
        standby: bool,
    ) {
        let (sh, started, samples) = (self.sh, Instant::now(), self.sh.ledger().samples());
        sh.sched().retire(exec);
        sh.faults().samples_replayed(samples.reclaim(exec as u32));
        let who = format!("{} {slot}", if standby { "Standby" } else { "Trainer" });
        let survivors = sh.sched().consumers();
        let drained = samples.is_drained();
        // A replacement is mandatory when the last consumer died with work
        // still queued; otherwise ask the §5.2 allocation rule whether the
        // surviving Trainer pool is already big enough.
        let respawn = !drained
            && (survivors == 0 || {
                let n_g = sh.ledger().samplers() + survivors + 1;
                survivors < sh.sched().ideal_trainers(n_g)
            });
        if !self.absorb(who, payload, respawn) {
            return;
        }
        if respawn {
            self.spawn_trainer(slot, sh.ledger().next_exec());
        }
        sh.faults().downtime(started.elapsed());
    }
}

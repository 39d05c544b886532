//! Spawning and supervision: every executor thread runs under
//! `catch_unwind`, and a caught panic runs the recovery protocol —
//! replay the dead executor's in-flight work, then respawn its slot or
//! reassign its role to survivors, budget permitting.

use super::consumer::{standby_phase, trainer_phase};
use super::sampler::{sampler_clock, sampler_phase};
use super::shared::Shared;
use crate::sync::Ordering;
use gnnlab_obs::names;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::Scope;
use std::time::Instant;

/// Spawns a Sampler on `slot`, registering it in the claim book before the
/// thread starts (no window where the book looks idle) and publishing its
/// batch-time gauge (whatever it goes on to claim). Also the respawn path
/// after a Sampler crash.
pub(super) fn spawn_sampler<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    sh: &'env Shared<'env>,
    slot: usize,
) {
    let exec = sh.next_exec.fetch_add(1, Ordering::Relaxed);
    sh.book.lock().register(exec);
    let clock = sampler_clock(sh, slot);
    scope.spawn(move || {
        match catch_unwind(AssertUnwindSafe(|| sampler_phase(sh, slot, exec, clock))) {
            Err(payload) => on_sampler_crash(scope, sh, slot, exec, payload),
            Ok(()) if sh.cfg.dynamic_switching => run_consumer(scope, sh, slot, exec, true),
            Ok(()) => {}
        }
    });
}

/// Spawns a Trainer on `slot`, registering it as a consumer before the
/// thread starts. Also the respawn path after a consumer crash.
pub(super) fn spawn_trainer<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    sh: &'env Shared<'env>,
    slot: usize,
) {
    let exec = sh.next_exec.fetch_add(1, Ordering::Relaxed);
    sh.consuming.lock().insert(exec);
    scope.spawn(move || run_consumer(scope, sh, slot, exec, false));
}

/// Runs a consumer phase — a Trainer's, or a finished Sampler's standby
/// decision — to its end on the calling thread: a clean exit or a typed
/// fatal error deregisters the consumer (the error also fails the run); a
/// panic goes to the crash handler.
fn run_consumer<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    sh: &'env Shared<'env>,
    slot: usize,
    exec: usize,
    standby: bool,
) {
    let phase = if standby {
        standby_phase
    } else {
        trainer_phase
    };
    match catch_unwind(AssertUnwindSafe(|| phase(sh, slot, exec))) {
        Ok(outcome) => {
            sh.consuming.lock().remove(&exec);
            if let Err(fatal) = outcome {
                sh.fail_fatal(fatal);
            }
        }
        Err(payload) => on_consumer_crash(scope, sh, slot, exec, payload, standby),
    }
}

/// The supervisor's handler for a dead Sampler: orphan its in-flight
/// claim so a survivor re-samples it, then — budget permitting — respawn
/// the slot if no other Sampler is left to absorb the work.
fn on_sampler_crash<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    sh: &'env Shared<'env>,
    slot: usize,
    exec: usize,
    payload: Box<dyn Any + Send>,
) {
    let started = Instant::now();
    let crash = sh.book.lock().crash(exec);
    if crash.orphaned > 0 {
        sh.recovery.lock().replayed_batches += crash.orphaned;
        sh.obs
            .metrics
            .counter_add(names::RECOVERY_REPLAYED_BATCHES, crash.orphaned as f64);
    }
    if !absorb(sh, format!("Sampler {slot}"), payload, crash.respawn) {
        return;
    }
    if crash.respawn {
        // Nobody left to re-sample the orphans or advance the cursor.
        spawn_sampler(scope, sh, slot);
    } else if crash.close {
        // Survivors absorb the role through the shared claim book —
        // unless this was the last producer out with nothing left behind,
        // when the queue is closed on its behalf.
        sh.queue.close();
    }
    sh.note_downtime(started.elapsed());
}

/// The budget step both crash handlers share: spend one unit of the
/// respawn budget and count the crash as a respawn or a reassignment, or
/// — budget exhausted — fail the run with the panic and return `false`.
fn absorb(sh: &Shared<'_>, who: String, payload: Box<dyn Any + Send>, respawn: bool) -> bool {
    if !sh.try_consume_budget() {
        sh.fail(who, payload);
        return false;
    }
    let counter = if respawn {
        sh.recovery.lock().respawns += 1;
        names::RECOVERY_RESPAWNS
    } else {
        sh.recovery.lock().reassignments += 1;
        names::RECOVERY_REASSIGNMENTS
    };
    sh.obs.metrics.counter_inc(counter);
    true
}

/// The supervisor's handler for a dead consumer (Trainer or switched
/// standby): reclaim its leases so survivors replay the batches, then —
/// budget permitting — respawn the slot or reassign per the allocation
/// rule on live stage-time estimates.
fn on_consumer_crash<'scope, 'env>(
    scope: &'scope Scope<'scope, 'env>,
    sh: &'env Shared<'env>,
    slot: usize,
    exec: usize,
    payload: Box<dyn Any + Send>,
    standby: bool,
) {
    let started = Instant::now();
    sh.consuming.lock().remove(&exec);
    // The queue re-enqueues the dead consumer's leases at the front and
    // publishes `recovery.replayed_batches` itself.
    let replayed = sh.queue.reclaim(exec as u32);
    sh.recovery.lock().replayed_batches += replayed;
    let who = if standby {
        format!("Standby {slot}")
    } else {
        format!("Trainer {slot}")
    };
    let survivors = sh.consuming.lock().len();
    let drained = sh.queue.is_drained();
    // A replacement is mandatory when the last consumer died with work
    // still queued; otherwise ask the §5.2 allocation rule whether the
    // surviving Trainer pool is already big enough.
    let respawn = !drained
        && (survivors == 0 || {
            let n_g = sh.book.lock().samplers() + survivors + 1;
            survivors < sh.ideal_trainers(n_g)
        });
    if !absorb(sh, who, payload, respawn) {
        return;
    }
    if respawn {
        spawn_trainer(scope, sh, slot);
    }
    sh.note_downtime(started.elapsed());
}

//! Out-of-line body of `#[cfg(test)] mod tests;`: the unit tests of the
//! epoch co-simulations, one module per placement (moved here unchanged
//! from the four runtimes the engine replaced), plus a fifth placement
//! that exists only as a test.

use super::*;
use crate::faults::FaultPlan;
use crate::memory::{plan_gpu, Residency};

mod factored {
    use super::*;
    use crate::workload::Workload;
    use gnnlab_graph::{DatasetKind, Scale};
    use gnnlab_tensor::ModelKind;

    fn workload(model: ModelKind, ds: DatasetKind) -> Workload {
        Workload::new(model, ds, Scale::new(4096), 1)
    }

    fn ctx(w: &Workload) -> SimContext<'_> {
        SimContext::new(w, SystemKind::GnnLab)
    }

    fn trace(w: &Workload, ctx: &SimContext<'_>) -> EpochTrace {
        EpochTrace::record(w, SystemKind::GnnLab.kernel(), ctx.epoch)
    }

    #[test]
    fn factored_runs_uk_where_timeshare_ooms() {
        let w = workload(ModelKind::Gcn, DatasetKind::Uk);
        let c = ctx(&w);
        let t = trace(&w, &c);
        let rep = run_factored_epoch(&c, &t, 2, 6, true).unwrap();
        assert!(rep.epoch_time > 0.0);
        assert!(rep.cache_ratio > 0.10, "α {}", rep.cache_ratio);
    }

    #[test]
    fn profile_produces_finite_times() {
        let w = workload(ModelKind::GraphSage, DatasetKind::Papers);
        let c = ctx(&w);
        let t = trace(&w, &c);
        let st = profile_stage_times(&c, &t).unwrap();
        assert!(st.t_sample > 0.0 && st.t_sample.is_finite());
        assert!(st.t_trainer > 0.0 && st.t_trainer.is_finite());
        // Standby fits for PA + GraphSAGE.
        assert!(st.t_standby.is_finite());
        // Training a batch takes longer than sampling it (K > 1).
        assert!(st.t_trainer > st.t_sample);
    }

    #[test]
    fn more_trainers_shrink_epoch_until_sampler_binds() {
        let w = workload(ModelKind::Gcn, DatasetKind::Papers);
        let c = ctx(&w);
        let t = trace(&w, &c);
        let e2 = run_factored_epoch(&c, &t, 1, 2, false).unwrap().epoch_time;
        let e5 = run_factored_epoch(&c, &t, 1, 5, false).unwrap().epoch_time;
        assert!(e5 < e2, "2T {e2} vs 5T {e5}");
    }

    #[test]
    fn switching_helps_skewed_workloads() {
        // PinSAGE on PA with 1 Sampler + 1 Trainer: K ~ 10, so the Sampler
        // GPU idles massively without switching (Fig. 17a).
        let w = workload(ModelKind::PinSage, DatasetKind::Papers);
        let c = ctx(&w);
        let t = trace(&w, &c);
        let without = run_factored_epoch(&c, &t, 1, 1, false).unwrap();
        let with = run_factored_epoch(&c, &t, 1, 1, true).unwrap();
        assert_eq!(without.switched_batches, 0);
        assert!(with.switched_batches > 0, "no batches switched");
        assert!(
            with.epoch_time < 0.8 * without.epoch_time,
            "with {} without {}",
            with.epoch_time,
            without.epoch_time
        );
    }

    #[test]
    fn switching_is_a_noop_when_balanced() {
        // With plenty of Trainers the queue never backs up enough for the
        // profit metric to fire meaningfully.
        let w = workload(ModelKind::PinSage, DatasetKind::Papers);
        let c = ctx(&w);
        let t = trace(&w, &c);
        let with = run_factored_epoch(&c, &t, 1, 7, true).unwrap();
        let without = run_factored_epoch(&c, &t, 1, 7, false).unwrap();
        let ratio = with.epoch_time / without.epoch_time;
        assert!(
            ratio < 1.05,
            "switching slowed a balanced workload: {ratio}"
        );
    }

    #[test]
    fn trainer_device_failure_replays_and_finishes() {
        let w = workload(ModelKind::Gcn, DatasetKind::Papers);
        let c = ctx(&w);
        let t = trace(&w, &c);
        let baseline = run_factored_epoch(&c, &t, 1, 3, false).unwrap();
        assert_eq!(baseline.failed_devices, 0);
        assert_eq!(baseline.replayed_batches, 0);
        let mut opts = FactoredOptions::new(1, 3);
        opts.enable_switching = false;
        // Kill Trainer 1 (global device ns + 1 = 2) halfway through the
        // baseline epoch.
        let mid = (baseline.epoch_time * 0.5 * 1e9) as u64;
        opts.faults = FaultPlan::none().with_device_failure(mid, 2);
        let rep = run_factored_epoch_opts(&c, &t, &opts).unwrap();
        assert_eq!(rep.failed_devices, 1);
        assert!(rep.replayed_batches >= 1, "{:?}", rep.replayed_batches);
        // Survivors absorb the dead device's share, so the epoch finishes
        // but no faster than the healthy run.
        assert!(
            rep.epoch_time >= baseline.epoch_time,
            "failed {} vs healthy {}",
            rep.epoch_time,
            baseline.epoch_time
        );
    }

    #[test]
    fn losing_every_trainer_is_a_typed_error() {
        let w = workload(ModelKind::Gcn, DatasetKind::Papers);
        let c = ctx(&w);
        let t = trace(&w, &c);
        let mut opts = FactoredOptions::new(1, 1);
        opts.enable_switching = false;
        // The only Trainer (device 1) dies almost immediately.
        opts.faults = FaultPlan::none().with_device_failure(1, 1);
        let err = run_factored_epoch_opts(&c, &t, &opts).unwrap_err();
        assert!(
            matches!(err, RunError::ExecutorsLost { .. }),
            "expected ExecutorsLost, got {err}"
        );
    }

    #[test]
    fn losing_every_sampler_is_a_typed_error() {
        let w = workload(ModelKind::Gcn, DatasetKind::Papers);
        let c = ctx(&w);
        let t = trace(&w, &c);
        let mut opts = FactoredOptions::new(1, 2);
        opts.faults = FaultPlan::none().with_device_failure(1, 0);
        let err = run_factored_epoch_opts(&c, &t, &opts).unwrap_err();
        assert!(
            matches!(err, RunError::ExecutorsLost { .. }),
            "expected ExecutorsLost, got {err}"
        );
    }

    #[test]
    fn gnnlab_cache_ratio_beats_tsota() {
        let w = workload(ModelKind::Gcn, DatasetKind::Twitter);
        let c = ctx(&w);
        let t = trace(&w, &c);
        let rep = run_factored_epoch(&c, &t, 2, 6, false).unwrap();
        let tsota_plan = plan_gpu(
            &c.testbed,
            &w,
            SystemKind::TSota,
            Residency::TIMESHARE_CACHED,
        )
        .unwrap();
        assert!(rep.cache_ratio > 1.5 * tsota_plan.cache_alpha);
        assert!(rep.hit_rate > 0.6, "hit rate {}", rep.hit_rate);
    }
}

mod timeshare {
    use super::*;
    use crate::workload::Workload;
    use gnnlab_graph::{DatasetKind, Scale};
    use gnnlab_tensor::ModelKind;

    fn workload(model: ModelKind, ds: DatasetKind) -> Workload {
        Workload::new(model, ds, Scale::new(4096), 1)
    }

    fn run(w: &Workload, system: SystemKind, gpus: usize) -> Result<EpochReport, RunError> {
        let ctx = SimContext::new(w, system).with_gpus(gpus);
        let trace = EpochTrace::record(w, system.kernel(), ctx.epoch);
        run_timeshare_epoch(&ctx, &trace)
    }

    #[test]
    fn dgl_beats_pyg_and_tsota_beats_dgl() {
        let w = workload(ModelKind::GraphSage, DatasetKind::Products);
        let pyg = run(&w, SystemKind::PygLike, 8).unwrap();
        let dgl = run(&w, SystemKind::DglLike, 8).unwrap();
        let tsota = run(&w, SystemKind::TSota, 8).unwrap();
        assert!(
            pyg.epoch_time > dgl.epoch_time,
            "pyg {} dgl {}",
            pyg.epoch_time,
            dgl.epoch_time
        );
        assert!(
            dgl.epoch_time > tsota.epoch_time,
            "dgl {} tsota {}",
            dgl.epoch_time,
            tsota.epoch_time
        );
        // With a single GPU, PyG's CPU sampling dominates and the gap is
        // large (Table 1 / Table 4 shape).
        let pyg1 = run(&w, SystemKind::PygLike, 1).unwrap();
        let dgl1 = run(&w, SystemKind::DglLike, 1).unwrap();
        assert!(
            pyg1.epoch_time > 2.0 * dgl1.epoch_time,
            "pyg1 {} dgl1 {}",
            pyg1.epoch_time,
            dgl1.epoch_time
        );
    }

    #[test]
    fn tsota_cache_reduces_transfer() {
        let w = workload(ModelKind::GraphSage, DatasetKind::Products);
        let dgl = run(&w, SystemKind::DglLike, 8).unwrap();
        let tsota = run(&w, SystemKind::TSota, 8).unwrap();
        // PR fits entirely: T_SOTA hit rate ~ 100 %.
        assert!(tsota.hit_rate > 0.99, "hit {}", tsota.hit_rate);
        assert!(tsota.transferred_bytes < 0.05 * dgl.transferred_bytes);
        assert_eq!(dgl.hit_rate, 0.0);
    }

    #[test]
    fn uk_ooms_on_dgl() {
        let w = workload(ModelKind::Gcn, DatasetKind::Uk);
        assert!(matches!(
            run(&w, SystemKind::DglLike, 8),
            Err(RunError::Oom { .. })
        ));
    }

    #[test]
    fn more_gpus_reduce_epoch_time_sublinearly() {
        let w = workload(ModelKind::Gcn, DatasetKind::Papers);
        let one = run(&w, SystemKind::DglLike, 1).unwrap();
        let eight = run(&w, SystemKind::DglLike, 8).unwrap();
        assert!(eight.epoch_time < one.epoch_time);
        // Extract contention prevents linear scaling (Fig. 14).
        assert!(
            eight.epoch_time > one.epoch_time / 7.0,
            "one {} eight {}",
            one.epoch_time,
            eight.epoch_time
        );
    }

    #[test]
    fn gnnlab_is_rejected_here() {
        let w = workload(ModelKind::Gcn, DatasetKind::Products);
        assert!(matches!(
            run(&w, SystemKind::GnnLab, 8),
            Err(RunError::Unsupported(_))
        ));
    }

    #[test]
    fn stage_sums_are_gpu_count_invariant() {
        // Table 1 vs Table 5 consistency: stage sums barely move with GPU
        // count (only extract contention changes).
        let w = workload(ModelKind::GraphSage, DatasetKind::Papers);
        let one = run(&w, SystemKind::TSota, 1).unwrap();
        let two = run(&w, SystemKind::TSota, 2).unwrap();
        assert!((one.stages.sample_g - two.stages.sample_g).abs() < 1e-6);
        assert!((one.stages.train - two.stages.train).abs() < 1e-6);
    }
}

mod single_gpu {
    use super::*;
    use crate::workload::Workload;
    use gnnlab_graph::{DatasetKind, Scale};
    use gnnlab_sampling::Kernel;
    use gnnlab_tensor::ModelKind;

    fn workload(ds: DatasetKind) -> Workload {
        Workload::new(ModelKind::GraphSage, ds, Scale::new(4096), 1)
    }

    #[test]
    fn single_gpu_beats_dgl_single_gpu() {
        // Fig. 17b: GNNLab on one GPU outperforms DGL by enabling the
        // cache (and T_SOTA except on PR).
        let w = workload(DatasetKind::Papers);
        let gnnlab_ctx = SimContext::new(&w, SystemKind::GnnLab).with_gpus(1);
        let t_fy = EpochTrace::record(&w, Kernel::FisherYates, gnnlab_ctx.epoch);
        let gnnlab = run_single_gpu_epoch(&gnnlab_ctx, &t_fy).unwrap();

        let dgl_ctx = SimContext::new(&w, SystemKind::DglLike).with_gpus(1);
        let t_rs = EpochTrace::record(&w, Kernel::Reservoir, dgl_ctx.epoch);
        let dgl = run_timeshare_epoch(&dgl_ctx, &t_rs).unwrap();

        assert!(
            gnnlab.epoch_time < dgl.epoch_time / 1.5,
            "gnnlab {} dgl {}",
            gnnlab.epoch_time,
            dgl.epoch_time
        );
    }

    #[test]
    fn all_batches_are_marked_switched() {
        let w = workload(DatasetKind::Products);
        let ctx = SimContext::new(&w, SystemKind::GnnLab).with_gpus(1);
        let t = EpochTrace::record(&w, Kernel::FisherYates, ctx.epoch);
        let rep = run_single_gpu_epoch(&ctx, &t).unwrap();
        assert_eq!(rep.switched_batches, t.num_batches());
        assert!(rep.hit_rate > 0.9); // PR fits entirely.
    }

    #[test]
    fn phases_are_serialized() {
        // Epoch time >= sample phase + train-dominated phase lower bound.
        let w = workload(DatasetKind::Papers);
        let ctx = SimContext::new(&w, SystemKind::GnnLab).with_gpus(1);
        let t = EpochTrace::record(&w, Kernel::FisherYates, ctx.epoch);
        let rep = run_single_gpu_epoch(&ctx, &t).unwrap();
        assert!(rep.epoch_time >= rep.stages.sample_total() + rep.stages.train - 1e-9);
    }
}

mod agl {
    use super::*;
    use crate::schedule::num_samplers;
    use crate::workload::Workload;
    use gnnlab_graph::{DatasetKind, Scale};
    use gnnlab_sampling::Kernel;
    use gnnlab_tensor::ModelKind;

    #[test]
    fn agl_epoch_is_dominated_by_reloads() {
        let w = Workload::new(
            ModelKind::GraphSage,
            DatasetKind::Papers,
            Scale::new(4096),
            1,
        );
        let ctx = SimContext::new(&w, SystemKind::GnnLab);
        let t = EpochTrace::record(&w, Kernel::FisherYates, ctx.epoch);
        let agl = run_agl_epoch(&ctx, &t).unwrap();

        let st = profile_stage_times(&ctx, &t).unwrap();
        let ns = num_samplers(8, st.t_sample, st.t_trainer);
        let fact = run_factored_epoch(&ctx, &t, ns, 8 - ns, true).unwrap();

        // §3: "it may take a few seconds to load graph topological data and
        // large feature cache, while during the same time interval, tens of
        // epochs can be finished."
        assert!(
            agl.epoch_time > 10.0 * fact.epoch_time,
            "agl {} vs factored {}",
            agl.epoch_time,
            fact.epoch_time
        );
    }
}

/// NeutronOrch's row: CPU Samplers (nothing resident on a GPU) feed GPU
/// Trainers through the queue. No `SystemKind` variant, no flag, no code
/// outside this test — a placement is data.
#[test]
fn cpu_samplers_feeding_gpu_trainers_is_one_more_row() {
    use crate::workload::Workload;
    use gnnlab_graph::{DatasetKind, Scale};
    use gnnlab_tensor::ModelKind;

    let w = Workload::new(
        ModelKind::GraphSage,
        DatasetKind::Papers,
        Scale::new(4096),
        1,
    );
    let ctx = SimContext::new(&w, SystemKind::GnnLab);
    let trace = EpochTrace::record(&w, SystemKind::GnnLab.kernel(), ctx.epoch);
    let gnnlab = Placement::factored(&FactoredOptions::new(2, 6));
    let mut hybrid = gnnlab.clone();
    hybrid.sample_device = gnnlab_sim::SampleDevice::CpuPyg;
    hybrid.phases[0].resident = Residency::NONE;
    hybrid.standby = None; // no GPU under a CPU Sampler to wake a Trainer on
    let gpu = run_epoch(&ctx, &trace, &gnnlab).unwrap();
    let cpu = run_epoch(&ctx, &trace, &hybrid).unwrap();
    assert_eq!(cpu.cache_ratio, gpu.cache_ratio, "same Trainer residency");
    assert!(cpu.stages.sample_g > gpu.stages.sample_g);
    assert!(cpu.epoch_time.is_finite() && cpu.epoch_time > 0.0);
    assert_eq!((cpu.num_samplers, cpu.num_trainers), (2, 6));
}

mod front_door {
    use super::*;
    use crate::workload::Workload;
    use gnnlab_cache::PolicyKind;
    use gnnlab_graph::{DatasetKind, Scale};
    use gnnlab_sim::{GatherPath, SampleDevice};
    use gnnlab_tensor::ModelKind;

    fn papers() -> Workload {
        Workload::new(ModelKind::Gcn, DatasetKind::Papers, Scale::new(4096), 1)
    }

    #[test]
    fn run_system_is_record_then_run_system_on() {
        let w = papers();
        for system in SystemKind::ALL {
            for gpus in [1, 2, 8] {
                let ctx = SimContext::new(&w, system).with_gpus(gpus);
                let trace = EpochTrace::record(&w, system.kernel(), ctx.epoch);
                let (whole, split) = (run_system(&ctx), run_system_on(&ctx, &trace));
                let (whole, split) = (whole.unwrap(), split.unwrap());
                assert_eq!(whole.epoch_time, split.epoch_time, "{system:?} {gpus}");
                assert_eq!(whole.num_samplers, split.num_samplers, "{system:?} {gpus}");
            }
        }
        let psg = Workload::new(ModelKind::PinSage, DatasetKind::Products, Scale::TEST, 1);
        let ctx = SimContext::new(&psg, SystemKind::PygLike);
        let trace = EpochTrace::record(&psg, ctx.system.kernel(), ctx.epoch);
        let refused = run_system_on(&ctx, &trace).unwrap_err();
        assert!(matches!(refused, RunError::Unsupported(_)), "{refused}");
    }

    /// Table 1's argument on one GPU: moving topology onto it for GPU
    /// sampling shrinks the cache that is left, and neither choice touches
    /// Train.
    #[test]
    fn solo_placements_trade_sampling_against_cache() {
        let w = papers();
        let ctx = SimContext::new(&w, SystemKind::TSota).with_gpus(1);
        let trace = EpochTrace::record(&w, ctx.system.kernel(), ctx.epoch);
        let run = |device, resident| {
            let p = Placement::solo(ctx.system, device, GatherPath::GpuDirect, resident);
            run_epoch(&ctx, &trace, &p).unwrap()
        };
        let cpu = run(SampleDevice::Cpu, Residency::TRAIN_WS);
        let cached = run(SampleDevice::Cpu, Residency::TRAINER);
        let both = run(SampleDevice::Gpu, Residency::TIMESHARE_CACHED);
        assert_eq!((cpu.cache_ratio, cpu.hit_rate), (0.0, 0.0));
        assert_eq!((cpu.stages.sample_m, cpu.stages.sample_c), (0.0, 0.0));
        assert!(cached.cache_ratio > 2.0 * both.cache_ratio);
        assert!(cached.stages.extract < cpu.stages.extract);
        assert!(both.stages.sample_g < cpu.stages.sample_g / 2.0);
        assert_eq!(cpu.stages.train, both.stages.train);
        // One serial lane: the epoch is the sum of its stages.
        assert!((both.epoch_time - both.stages.total()).abs() < 1e-6);
    }

    #[test]
    fn a_forced_cache_replaces_the_planned_one() {
        let w = papers();
        let ctx = SimContext::new(&w, SystemKind::TSota).with_gpus(1);
        let trace = EpochTrace::record(&w, ctx.system.kernel(), ctx.epoch);
        let p = Placement::timeshare(ctx.system, 1).unwrap();
        let planned = run_epoch(&ctx, &trace, &p).unwrap();
        let table = |alpha| build_cache_table(&w, ctx.policy, alpha);
        let same = run_epoch_with_cache(&ctx, &trace, &p, table(planned.cache_ratio)).unwrap();
        assert_eq!(same.epoch_time, planned.epoch_time);
        assert_eq!(same.hit_rate, planned.hit_rate);
        let none = run_epoch_with_cache(&ctx, &trace, &p, table(0.0)).unwrap();
        let all = run_epoch_with_cache(&ctx, &trace, &p, table(1.0)).unwrap();
        assert_eq!((none.cache_ratio, none.hit_rate), (0.0, 0.0));
        assert_eq!((all.cache_ratio, all.hit_rate), (1.0, 1.0));
        assert!(all.stages.extract < planned.stages.extract);
        assert!(planned.stages.extract < none.stages.extract);
        // No plan is made: a UK-sized topology cannot run out of memory.
        let uk = Workload::new(ModelKind::Gcn, DatasetKind::Uk, Scale::new(8192), 1);
        let ctx = SimContext::new(&uk, SystemKind::TSota).with_gpus(1);
        let trace = EpochTrace::record(&uk, ctx.system.kernel(), ctx.epoch);
        assert!(matches!(
            run_epoch(&ctx, &trace, &p),
            Err(RunError::Oom { .. })
        ));
        let cache = build_cache_table(&uk, PolicyKind::Degree, 0.1);
        assert!(run_epoch_with_cache(&ctx, &trace, &p, cache).is_ok());
    }
}

//! Bit-level pin on every epoch co-simulation.
//!
//! Each scenario below runs one co-simulated epoch with an [`Obs`]
//! attached and hashes (FNV-1a, 64-bit) the bits of every
//! [`EpochReport`] field, every recorded span in recording order, and
//! every counter of the metrics registry. Errors hash as their variant
//! name. The rendered `label hash` table must equal [`GOLDEN`], which was
//! captured on the four hand-written runtimes before they were folded
//! into one engine and is never edited afterwards: a mismatch means the
//! simulators' arithmetic, ordering or recording changed. Must hold under
//! `cargo test` and `cargo test --release` alike.

use gnnlab_core::faults::{ExecutorRole, FaultPlan};
use gnnlab_core::report::{EpochReport, RunError};
use gnnlab_core::runtime::{
    profile_stage_times, run_agl_epoch, run_factored_epoch_opts, run_single_gpu_epoch, run_system,
    run_timeshare_epoch, FactoredOptions, SimContext,
};
use gnnlab_core::trace::EpochTrace;
use gnnlab_core::{SystemKind, Workload};
use gnnlab_graph::{DatasetKind, Scale};
use gnnlab_obs::Obs;
use gnnlab_tensor::ModelKind;
use std::fmt::Write;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn hash_report(h: &mut Fnv, r: &EpochReport) {
    h.bytes(r.system.label().as_bytes());
    for v in [
        r.epoch_time,
        r.stages.sample_g,
        r.stages.sample_m,
        r.stages.sample_c,
        r.stages.extract,
        r.stages.train,
        r.cache_ratio,
        r.hit_rate,
        r.transferred_bytes,
    ] {
        h.f64(v);
    }
    for v in [
        r.num_samplers,
        r.num_trainers,
        r.switched_batches,
        r.replayed_batches,
        r.failed_devices,
    ] {
        h.u64(v as u64);
    }
}

fn hash_outcome(h: &mut Fnv, out: &Result<EpochReport, RunError>) {
    match out {
        Ok(r) => hash_report(h, r),
        Err(RunError::Oom { .. }) => h.bytes(b"Oom"),
        Err(RunError::Unsupported(_)) => h.bytes(b"Unsupported"),
        Err(RunError::ExecutorsLost { .. }) => h.bytes(b"ExecutorsLost"),
    }
}

fn hash_obs(h: &mut Fnv, obs: &Obs) {
    for s in obs.spans() {
        h.u64(s.device as u64);
        h.bytes(format!("{:?}/{:?}", s.executor, s.stage).as_bytes());
        h.u64(s.batch);
        h.u64(s.t_start);
        h.u64(s.t_end);
    }
    for (name, value) in obs.metrics.counters_snapshot() {
        h.bytes(name.as_bytes());
        h.f64(value);
    }
}

/// Runs one scenario under a fresh hub and appends its `label hash` row.
fn pin(
    table: &mut String,
    label: &str,
    run: impl FnOnce(Option<&Obs>) -> Result<EpochReport, RunError>,
) {
    let obs = Obs::virtual_time();
    let out = run(Some(&obs));
    let mut h = Fnv::new();
    hash_outcome(&mut h, &out);
    hash_obs(&mut h, &obs);
    writeln!(table, "{label} {:016x}", h.0).unwrap();
}

fn factored(
    w: &Workload,
    trace: &EpochTrace,
    obs: Option<&Obs>,
    opts: &FactoredOptions,
) -> Result<EpochReport, RunError> {
    let ctx = SimContext::new(w, SystemKind::GnnLab)
        .with_gpus(opts.num_samplers + opts.num_trainers)
        .with_obs(obs);
    run_factored_epoch_opts(&ctx, trace, opts)
}

fn pin_workload(table: &mut String, model: ModelKind, ds: DatasetKind) {
    let w = Workload::new(model, ds, Scale::new(4096), 1);
    let tag = format!("{}/{}", model.abbrev(), ds.abbrev());
    let epoch = SimContext::new(&w, SystemKind::GnnLab).epoch;

    // Time-sharing: each system on its own kernel's trace.
    for system in [SystemKind::PygLike, SystemKind::DglLike, SystemKind::TSota] {
        let trace = EpochTrace::record(&w, system.kernel(), epoch);
        for gpus in [1, 2, 8] {
            pin(
                table,
                &format!("{tag} timeshare {} {gpus}", system.label()),
                |obs| {
                    let ctx = SimContext::new(&w, system).with_gpus(gpus).with_obs(obs);
                    run_timeshare_epoch(&ctx, &trace)
                },
            );
        }
    }

    let trace = EpochTrace::record(&w, SystemKind::GnnLab.kernel(), epoch);
    pin(table, &format!("{tag} timeshare GNNLab 8"), |obs| {
        let ctx = SimContext::new(&w, SystemKind::GnnLab).with_obs(obs);
        run_timeshare_epoch(&ctx, &trace)
    });

    // Factored: splits × switching × pipelining.
    for (ns, nt) in [(1, 1), (1, 3), (2, 6)] {
        for switching in [false, true] {
            for pipelining in [false, true] {
                let mut opts = FactoredOptions::new(ns, nt);
                opts.enable_switching = switching;
                opts.pipelining = pipelining;
                pin(
                    table,
                    &format!("{tag} factored {ns}S{nt}T sw={switching} pipe={pipelining}"),
                    |obs| factored(&w, &trace, obs, &opts),
                );
            }
        }
    }

    // Faults. Fail times hang off the healthy epoch so every scale of
    // workload loses its device mid-flight.
    let healthy = |ns, nt, switching| {
        let mut opts = FactoredOptions::new(ns, nt);
        opts.enable_switching = switching;
        factored(&w, &trace, None, &opts).map_or(0, |r| (r.epoch_time * 1e9) as u64)
    };
    let mut opts = FactoredOptions::new(1, 3);
    opts.enable_switching = false;
    opts.faults = FaultPlan::none().with_device_failure(healthy(1, 3, false) / 2, 2);
    pin(table, &format!("{tag} factored 1S3T trainer-fail"), |obs| {
        factored(&w, &trace, obs, &opts)
    });
    let mut opts = FactoredOptions::new(2, 6);
    opts.faults = FaultPlan::none().with_device_failure(healthy(2, 6, true) / 4, 0);
    pin(table, &format!("{tag} factored 2S6T sampler-fail"), |obs| {
        factored(&w, &trace, obs, &opts)
    });
    let mut opts = FactoredOptions::new(1, 1);
    opts.faults = FaultPlan::none().with_device_failure(healthy(1, 1, true) / 2, 0);
    pin(
        table,
        &format!("{tag} factored 1S1T standby-device-fail"),
        |obs| factored(&w, &trace, obs, &opts),
    );
    let mut opts = FactoredOptions::new(2, 6);
    opts.faults = FaultPlan::none().with_straggler(ExecutorRole::Trainer, 0, 4.0);
    pin(
        table,
        &format!("{tag} factored 2S6T trainer-straggler"),
        |obs| factored(&w, &trace, obs, &opts),
    );
    let mut opts = FactoredOptions::new(2, 2);
    opts.faults = FaultPlan::none().with_straggler(ExecutorRole::Sampler, 1, 2.5);
    pin(
        table,
        &format!("{tag} factored 2S2T sampler-straggler"),
        |obs| factored(&w, &trace, obs, &opts),
    );
    let mut opts = FactoredOptions::new(1, 1);
    opts.enable_switching = false;
    opts.faults = FaultPlan::none().with_device_failure(1, 1);
    pin(
        table,
        &format!("{tag} factored 1S1T trainers-lost"),
        |obs| factored(&w, &trace, obs, &opts),
    );
    let mut opts = FactoredOptions::new(1, 2);
    opts.faults = FaultPlan::none().with_device_failure(1, 0);
    pin(
        table,
        &format!("{tag} factored 1S2T samplers-lost"),
        |obs| factored(&w, &trace, obs, &opts),
    );

    pin(table, &format!("{tag} single-gpu"), |obs| {
        let ctx = SimContext::new(&w, SystemKind::GnnLab)
            .with_gpus(1)
            .with_obs(obs);
        run_single_gpu_epoch(&ctx, &trace)
    });
    for gpus in [2, 8] {
        pin(table, &format!("{tag} agl {gpus}"), |obs| {
            let ctx = SimContext::new(&w, SystemKind::GnnLab)
                .with_gpus(gpus)
                .with_obs(obs);
            run_agl_epoch(&ctx, &trace)
        });
    }

    // The front door, including the single-GPU dispatch.
    for system in SystemKind::ALL {
        for gpus in [1, 8] {
            pin(
                table,
                &format!("{tag} run_system {} {gpus}", system.label()),
                |obs| run_system(&SimContext::new(&w, system).with_gpus(gpus).with_obs(obs)),
            );
        }
    }

    pin_profile(table, &tag, &w, &trace);
}

fn pin_profile(table: &mut String, tag: &str, w: &Workload, trace: &EpochTrace) {
    let mut h = Fnv::new();
    match profile_stage_times(&SimContext::new(w, SystemKind::GnnLab), trace) {
        Ok(t) => {
            h.f64(t.t_sample);
            h.f64(t.t_trainer);
            h.f64(t.t_standby);
        }
        Err(e) => hash_outcome(&mut h, &Err(e)),
    }
    writeln!(table, "{tag} profile_stage_times {:016x}", h.0).unwrap();
}

/// GCN on UK, where capacity decides the outcome (Table 4's OOM cells):
/// time-sharing with topology resident does not fit, no standby Trainer
/// fits beside a Sampler, the factored split does. One Fisher–Yates trace
/// serves every row — a plan that does not fit never reads it, and DGL's
/// reservoir kernel over UK's hubs would take the debug profile a minute.
fn pin_capacity_outcomes(table: &mut String) {
    let w = Workload::new(ModelKind::Gcn, DatasetKind::Uk, Scale::new(4096), 1);
    let tag = "GCN/UK";
    let epoch = SimContext::new(&w, SystemKind::GnnLab).epoch;
    let trace = EpochTrace::record(&w, SystemKind::GnnLab.kernel(), epoch);
    for system in [SystemKind::PygLike, SystemKind::DglLike, SystemKind::TSota] {
        pin(
            table,
            &format!("{tag} timeshare {} 8", system.label()),
            |obs| run_timeshare_epoch(&SimContext::new(&w, system).with_obs(obs), &trace),
        );
    }
    pin(table, &format!("{tag} factored 2S6T"), |obs| {
        factored(&w, &trace, obs, &FactoredOptions::new(2, 6))
    });
    pin(table, &format!("{tag} single-gpu"), |obs| {
        let ctx = SimContext::new(&w, SystemKind::GnnLab)
            .with_gpus(1)
            .with_obs(obs);
        run_single_gpu_epoch(&ctx, &trace)
    });
    pin(table, &format!("{tag} agl 8"), |obs| {
        run_agl_epoch(
            &SimContext::new(&w, SystemKind::GnnLab).with_obs(obs),
            &trace,
        )
    });
    for system in [SystemKind::TSota, SystemKind::GnnLab] {
        pin(
            table,
            &format!("{tag} run_system {} 8", system.label()),
            |obs| run_system(&SimContext::new(&w, system).with_obs(obs)),
        );
    }
    pin_profile(table, tag, &w, &trace);
}

#[test]
fn cosim_outputs_match_the_pre_fold_fingerprints() {
    let workloads = [
        (ModelKind::Gcn, DatasetKind::Products),
        (ModelKind::Gcn, DatasetKind::Papers),
        (ModelKind::GraphSage, DatasetKind::Products),
        (ModelKind::GraphSage, DatasetKind::Papers),
        (ModelKind::PinSage, DatasetKind::Products),
        (ModelKind::PinSage, DatasetKind::Papers),
    ];
    // One thread per workload (the debug profile takes half a minute
    // serially); rows are joined in workload order.
    let mut table: String = std::thread::scope(|s| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|&(model, ds)| {
                s.spawn(move || {
                    let mut rows = String::new();
                    pin_workload(&mut rows, model, ds);
                    rows
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    pin_capacity_outcomes(&mut table);

    let diff: Vec<String> = table
        .lines()
        .zip(GOLDEN.lines().chain(std::iter::repeat("<missing>")))
        .filter(|(got, want)| got != want)
        .map(|(got, want)| format!("  got  {got}\n  want {want}"))
        .collect();
    assert!(
        diff.is_empty() && table.lines().count() == GOLDEN.lines().count(),
        "{} fingerprint row(s) moved:\n{}\n--- full table ---\n{table}",
        diff.len(),
        diff.join("\n")
    );
}

/// Captured at the parent of the placement-table fold; never edit.
const GOLDEN: &str = "\
GCN/PR timeshare PyG 1 2c39acd399cb4ef2
GCN/PR timeshare PyG 2 d9ba9a8c2ae47f77
GCN/PR timeshare PyG 8 a59c49894ff262ed
GCN/PR timeshare DGL 1 35195c98181a2631
GCN/PR timeshare DGL 2 8d57ab96d4890a1f
GCN/PR timeshare DGL 8 ecf6de1a4c6782ec
GCN/PR timeshare T_SOTA 1 e5a7a6582b1959ad
GCN/PR timeshare T_SOTA 2 273317c4b46743d3
GCN/PR timeshare T_SOTA 8 577da41c9dff2a56
GCN/PR timeshare GNNLab 8 0e7c76ab41da08b0
GCN/PR factored 1S1T sw=false pipe=false 81d467c6ccffa316
GCN/PR factored 1S1T sw=false pipe=true 7c328c87c65e0c30
GCN/PR factored 1S1T sw=true pipe=false 9a0c8c3d4fa98235
GCN/PR factored 1S1T sw=true pipe=true d194b200fe2de2bb
GCN/PR factored 1S3T sw=false pipe=false 835c64d791cc064d
GCN/PR factored 1S3T sw=false pipe=true a26ad6b8f466bc0c
GCN/PR factored 1S3T sw=true pipe=false 6e5166698b93a931
GCN/PR factored 1S3T sw=true pipe=true c33a11af42f27a96
GCN/PR factored 2S6T sw=false pipe=false 8c0585799e20a7de
GCN/PR factored 2S6T sw=false pipe=true 50d77da10277ddcf
GCN/PR factored 2S6T sw=true pipe=false b12f4f92c574fa1b
GCN/PR factored 2S6T sw=true pipe=true 395ab2c49a2165f0
GCN/PR factored 1S3T trainer-fail c9ea12b69b2a65e6
GCN/PR factored 2S6T sampler-fail 0fd6e983e8728993
GCN/PR factored 1S1T standby-device-fail 51052b4afe4a3846
GCN/PR factored 2S6T trainer-straggler a9780aa0a24ba79c
GCN/PR factored 2S2T sampler-straggler 92645e33ca3eccbd
GCN/PR factored 1S1T trainers-lost 69385dbbf11523af
GCN/PR factored 1S2T samplers-lost 0a5b188f87e38530
GCN/PR single-gpu 609242e3f28c61b9
GCN/PR agl 2 527843689e8d4c48
GCN/PR agl 8 b71b17565cf407b8
GCN/PR run_system PyG 1 2c39acd399cb4ef2
GCN/PR run_system PyG 8 a59c49894ff262ed
GCN/PR run_system DGL 1 35195c98181a2631
GCN/PR run_system DGL 8 ecf6de1a4c6782ec
GCN/PR run_system T_SOTA 1 e5a7a6582b1959ad
GCN/PR run_system T_SOTA 8 577da41c9dff2a56
GCN/PR run_system GNNLab 1 609242e3f28c61b9
GCN/PR run_system GNNLab 8 395ab2c49a2165f0
GCN/PR profile_stage_times beed146f5401331c
GCN/PA timeshare PyG 1 1da85f4c7a291d3c
GCN/PA timeshare PyG 2 1135d81ac92f27ce
GCN/PA timeshare PyG 8 0de6c2f9f357431b
GCN/PA timeshare DGL 1 0cc773c484ccafca
GCN/PA timeshare DGL 2 11f75f8dd66b606d
GCN/PA timeshare DGL 8 b36a0913e7e61b93
GCN/PA timeshare T_SOTA 1 f60e9ebd8e8aeccc
GCN/PA timeshare T_SOTA 2 09abde1d5aafb829
GCN/PA timeshare T_SOTA 8 36d14a14f9ad06c6
GCN/PA timeshare GNNLab 8 0e7c76ab41da08b0
GCN/PA factored 1S1T sw=false pipe=false 2c584270867c6d88
GCN/PA factored 1S1T sw=false pipe=true bd4ef14f95e0b906
GCN/PA factored 1S1T sw=true pipe=false 8524180e24043309
GCN/PA factored 1S1T sw=true pipe=true 3b78c1533c3079b4
GCN/PA factored 1S3T sw=false pipe=false 5a22128be66512b9
GCN/PA factored 1S3T sw=false pipe=true e1cdf83d5a81aefc
GCN/PA factored 1S3T sw=true pipe=false cd80cefafd1426e4
GCN/PA factored 1S3T sw=true pipe=true ea50589e1ae421a6
GCN/PA factored 2S6T sw=false pipe=false 4bc3c2699075611a
GCN/PA factored 2S6T sw=false pipe=true 1904ce34e8d0aed0
GCN/PA factored 2S6T sw=true pipe=false b2fcfc46bdd45321
GCN/PA factored 2S6T sw=true pipe=true 4d454e1c7af12679
GCN/PA factored 1S3T trainer-fail 2ce0c6c02b11e474
GCN/PA factored 2S6T sampler-fail fa08846ec7080a5e
GCN/PA factored 1S1T standby-device-fail 411f269fc8dcb897
GCN/PA factored 2S6T trainer-straggler 58236d5e1ed8f18f
GCN/PA factored 2S2T sampler-straggler a9497908a5052262
GCN/PA factored 1S1T trainers-lost 815587df0ce44a03
GCN/PA factored 1S2T samplers-lost 0a5b188f87e38530
GCN/PA single-gpu e4abda39d53cb07b
GCN/PA agl 2 5ab7d5677de20c47
GCN/PA agl 8 8fb247732d3d6669
GCN/PA run_system PyG 1 1da85f4c7a291d3c
GCN/PA run_system PyG 8 0de6c2f9f357431b
GCN/PA run_system DGL 1 0cc773c484ccafca
GCN/PA run_system DGL 8 b36a0913e7e61b93
GCN/PA run_system T_SOTA 1 f60e9ebd8e8aeccc
GCN/PA run_system T_SOTA 8 36d14a14f9ad06c6
GCN/PA run_system GNNLab 1 e4abda39d53cb07b
GCN/PA run_system GNNLab 8 4d454e1c7af12679
GCN/PA profile_stage_times 35b65e1e3a111ffb
GSG/PR timeshare PyG 1 bebacd20bcd63910
GSG/PR timeshare PyG 2 77d5fbee8b7033a1
GSG/PR timeshare PyG 8 6162c7205dd3ae96
GSG/PR timeshare DGL 1 967e1915d435c134
GSG/PR timeshare DGL 2 d06dba6f1c2904d3
GSG/PR timeshare DGL 8 fe5782dfd0e36f43
GSG/PR timeshare T_SOTA 1 8e62f5f14b006f93
GSG/PR timeshare T_SOTA 2 6f2308243c5903ef
GSG/PR timeshare T_SOTA 8 b93ce9a16cc1bb50
GSG/PR timeshare GNNLab 8 0e7c76ab41da08b0
GSG/PR factored 1S1T sw=false pipe=false 5fbf8d31a617b7d2
GSG/PR factored 1S1T sw=false pipe=true e812870bc5be0d93
GSG/PR factored 1S1T sw=true pipe=false 23bcf2369226c199
GSG/PR factored 1S1T sw=true pipe=true 917619572f81aa6d
GSG/PR factored 1S3T sw=false pipe=false 5c0a36f321d5db95
GSG/PR factored 1S3T sw=false pipe=true c4a07a85341f839e
GSG/PR factored 1S3T sw=true pipe=false d8c3f5d1e1de024e
GSG/PR factored 1S3T sw=true pipe=true d97e09d08dbf6aef
GSG/PR factored 2S6T sw=false pipe=false 42032151f9e06056
GSG/PR factored 2S6T sw=false pipe=true 447bbad6b2eef6d4
GSG/PR factored 2S6T sw=true pipe=false 3a0e1446148671fa
GSG/PR factored 2S6T sw=true pipe=true dafbccd225ff49e5
GSG/PR factored 1S3T trainer-fail a18bb193aeb96fe7
GSG/PR factored 2S6T sampler-fail c113b35a84131598
GSG/PR factored 1S1T standby-device-fail 94ff2e4dc772420d
GSG/PR factored 2S6T trainer-straggler f632b12d8d05fc49
GSG/PR factored 2S2T sampler-straggler 9b325e638daadc51
GSG/PR factored 1S1T trainers-lost 8fe9e6496a0e0cf0
GSG/PR factored 1S2T samplers-lost 0a5b188f87e38530
GSG/PR single-gpu 07e01ada917bc649
GSG/PR agl 2 f546c170a686cb2b
GSG/PR agl 8 b3e28c8d5edb5ee1
GSG/PR run_system PyG 1 bebacd20bcd63910
GSG/PR run_system PyG 8 6162c7205dd3ae96
GSG/PR run_system DGL 1 967e1915d435c134
GSG/PR run_system DGL 8 fe5782dfd0e36f43
GSG/PR run_system T_SOTA 1 8e62f5f14b006f93
GSG/PR run_system T_SOTA 8 b93ce9a16cc1bb50
GSG/PR run_system GNNLab 1 07e01ada917bc649
GSG/PR run_system GNNLab 8 dafbccd225ff49e5
GSG/PR profile_stage_times 9b1e6e566a132ef7
GSG/PA timeshare PyG 1 4965b88fd644175f
GSG/PA timeshare PyG 2 f386793730f20450
GSG/PA timeshare PyG 8 dfe644cfd39cb458
GSG/PA timeshare DGL 1 4ba5e1e826bb5e0b
GSG/PA timeshare DGL 2 8ee4b831604b05c1
GSG/PA timeshare DGL 8 91ae563ec23f0e7e
GSG/PA timeshare T_SOTA 1 3924f8959cc7008c
GSG/PA timeshare T_SOTA 2 eb69658840b7a562
GSG/PA timeshare T_SOTA 8 8478b034b9271fc0
GSG/PA timeshare GNNLab 8 0e7c76ab41da08b0
GSG/PA factored 1S1T sw=false pipe=false b2161a7b5c9019dc
GSG/PA factored 1S1T sw=false pipe=true 2f27104c88d8389b
GSG/PA factored 1S1T sw=true pipe=false b66a9f2361fe7da4
GSG/PA factored 1S1T sw=true pipe=true a15372cb99ab74e0
GSG/PA factored 1S3T sw=false pipe=false c93be448a4f75bf2
GSG/PA factored 1S3T sw=false pipe=true 8d110c32d05d978e
GSG/PA factored 1S3T sw=true pipe=false 086560c0b40a29b6
GSG/PA factored 1S3T sw=true pipe=true 72c0c4dc37c99daa
GSG/PA factored 2S6T sw=false pipe=false 3441ce9eb2338582
GSG/PA factored 2S6T sw=false pipe=true d466b3c94959f42b
GSG/PA factored 2S6T sw=true pipe=false 68ad2eda362a378f
GSG/PA factored 2S6T sw=true pipe=true 7cf29b444a2a439f
GSG/PA factored 1S3T trainer-fail 2c6adf9233cfe8a2
GSG/PA factored 2S6T sampler-fail 6907a6293c7d378e
GSG/PA factored 1S1T standby-device-fail fe64a53a5176ac02
GSG/PA factored 2S6T trainer-straggler 931bd39448e4804c
GSG/PA factored 2S2T sampler-straggler ae6d87a589ec2ab7
GSG/PA factored 1S1T trainers-lost 4bdb34dcd4b9e0a1
GSG/PA factored 1S2T samplers-lost 0a5b188f87e38530
GSG/PA single-gpu 923d5e25d4107a3b
GSG/PA agl 2 0fbdb5dc9c584d48
GSG/PA agl 8 83f83f44bf70f8b7
GSG/PA run_system PyG 1 4965b88fd644175f
GSG/PA run_system PyG 8 dfe644cfd39cb458
GSG/PA run_system DGL 1 4ba5e1e826bb5e0b
GSG/PA run_system DGL 8 91ae563ec23f0e7e
GSG/PA run_system T_SOTA 1 3924f8959cc7008c
GSG/PA run_system T_SOTA 8 8478b034b9271fc0
GSG/PA run_system GNNLab 1 923d5e25d4107a3b
GSG/PA run_system GNNLab 8 7cf29b444a2a439f
GSG/PA profile_stage_times e3a748ac0196cd29
PSG/PR timeshare PyG 1 0d07bf34895396af
PSG/PR timeshare PyG 2 218a9c2a97bf2924
PSG/PR timeshare PyG 8 939bb3e7e8de2516
PSG/PR timeshare DGL 1 073fbfa36ed5d884
PSG/PR timeshare DGL 2 2b1d69b0c7d05768
PSG/PR timeshare DGL 8 07cf4090827f7efb
PSG/PR timeshare T_SOTA 1 09f60c95a230f1d0
PSG/PR timeshare T_SOTA 2 40c2ba9a3c54019b
PSG/PR timeshare T_SOTA 8 20caba1afd45478f
PSG/PR timeshare GNNLab 8 0e7c76ab41da08b0
PSG/PR factored 1S1T sw=false pipe=false 73862dbc8a51ad6c
PSG/PR factored 1S1T sw=false pipe=true 81f967de26607532
PSG/PR factored 1S1T sw=true pipe=false 9914a123af3ad47a
PSG/PR factored 1S1T sw=true pipe=true bf3ac48aa978e675
PSG/PR factored 1S3T sw=false pipe=false 1bbcd6f414576f43
PSG/PR factored 1S3T sw=false pipe=true 425fbf4b1dc48dc6
PSG/PR factored 1S3T sw=true pipe=false c8bfc14081f1d007
PSG/PR factored 1S3T sw=true pipe=true 4bf7415e0222c2b2
PSG/PR factored 2S6T sw=false pipe=false 3da9ced58da13863
PSG/PR factored 2S6T sw=false pipe=true 23dba3c65b964c7a
PSG/PR factored 2S6T sw=true pipe=false 09ecf369c156644b
PSG/PR factored 2S6T sw=true pipe=true 3cc8b432efe49fc6
PSG/PR factored 1S3T trainer-fail 3b346ded87fdcae5
PSG/PR factored 2S6T sampler-fail 8ce7c162175da4bf
PSG/PR factored 1S1T standby-device-fail e0c0044ae5bbb5e4
PSG/PR factored 2S6T trainer-straggler 452b62035f22cd34
PSG/PR factored 2S2T sampler-straggler 1ac3f0c2463cf808
PSG/PR factored 1S1T trainers-lost d180486441fddbea
PSG/PR factored 1S2T samplers-lost 0a5b188f87e38530
PSG/PR single-gpu 5a9d83ebd197d4ec
PSG/PR agl 2 e8e762770440abe8
PSG/PR agl 8 ef7d3f55a1847536
PSG/PR run_system PyG 1 0e7c76ab41da08b0
PSG/PR run_system PyG 8 0e7c76ab41da08b0
PSG/PR run_system DGL 1 073fbfa36ed5d884
PSG/PR run_system DGL 8 07cf4090827f7efb
PSG/PR run_system T_SOTA 1 09f60c95a230f1d0
PSG/PR run_system T_SOTA 8 20caba1afd45478f
PSG/PR run_system GNNLab 1 5a9d83ebd197d4ec
PSG/PR run_system GNNLab 8 9f5e12879d026cb7
PSG/PR profile_stage_times 0170bfcb5bf9d443
PSG/PA timeshare PyG 1 81d2c5d0ceb0fb84
PSG/PA timeshare PyG 2 d3eb42b6bc8dda43
PSG/PA timeshare PyG 8 649fb651a4469baa
PSG/PA timeshare DGL 1 2e98a395b734ecd2
PSG/PA timeshare DGL 2 e8b96127872a329b
PSG/PA timeshare DGL 8 52cae5019575bd66
PSG/PA timeshare T_SOTA 1 abcdf0d3da01112f
PSG/PA timeshare T_SOTA 2 4193bf8b41a45616
PSG/PA timeshare T_SOTA 8 725f4f09184b6198
PSG/PA timeshare GNNLab 8 0e7c76ab41da08b0
PSG/PA factored 1S1T sw=false pipe=false 9059afabed2a6af6
PSG/PA factored 1S1T sw=false pipe=true 97c406f16e4f7a94
PSG/PA factored 1S1T sw=true pipe=false bd62b42a87136bfe
PSG/PA factored 1S1T sw=true pipe=true 6cbe09fbf2c9a7d6
PSG/PA factored 1S3T sw=false pipe=false bd761d0b28a18262
PSG/PA factored 1S3T sw=false pipe=true 3eb4e151b06168de
PSG/PA factored 1S3T sw=true pipe=false 6262794fd424947e
PSG/PA factored 1S3T sw=true pipe=true aa97b507da683ffa
PSG/PA factored 2S6T sw=false pipe=false ac862b27f2be9926
PSG/PA factored 2S6T sw=false pipe=true 64a69a2cf6a7c6be
PSG/PA factored 2S6T sw=true pipe=false 57f3d74469e8ed07
PSG/PA factored 2S6T sw=true pipe=true 58766501964fd39c
PSG/PA factored 1S3T trainer-fail 86d9c2dd370daaea
PSG/PA factored 2S6T sampler-fail be102823013cc6a8
PSG/PA factored 1S1T standby-device-fail 3bd359ea56cc2286
PSG/PA factored 2S6T trainer-straggler 1c39e305801f6715
PSG/PA factored 2S2T sampler-straggler 198e810f1b23c387
PSG/PA factored 1S1T trainers-lost 049aeaad72b5fca5
PSG/PA factored 1S2T samplers-lost 0a5b188f87e38530
PSG/PA single-gpu 805171590f9867b6
PSG/PA agl 2 fc80d2372b66f3ad
PSG/PA agl 8 b69ca87702244da5
PSG/PA run_system PyG 1 0e7c76ab41da08b0
PSG/PA run_system PyG 8 0e7c76ab41da08b0
PSG/PA run_system DGL 1 2e98a395b734ecd2
PSG/PA run_system DGL 8 52cae5019575bd66
PSG/PA run_system T_SOTA 1 abcdf0d3da01112f
PSG/PA run_system T_SOTA 8 725f4f09184b6198
PSG/PA run_system GNNLab 1 805171590f9867b6
PSG/PA run_system GNNLab 8 925f3ac07b5f12fd
PSG/PA profile_stage_times 1e2e2484d55d14e4
GCN/UK timeshare PyG 8 fae3ccfd0453e58d
GCN/UK timeshare DGL 8 3015b619bf872fea
GCN/UK timeshare T_SOTA 8 3015b619bf872fea
GCN/UK factored 2S6T a3081ee000dfbe42
GCN/UK single-gpu 49ccfdeec74a4c01
GCN/UK agl 8 1269f20c21874c16
GCN/UK run_system T_SOTA 8 3015b619bf872fea
GCN/UK run_system GNNLab 8 a491426a662867a2
GCN/UK profile_stage_times 650443c21bf8794f
";

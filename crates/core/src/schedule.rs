//! Flexible scheduling: the GPU allocation rule and the dynamic-switching
//! profit metric (§5.3).

/// Computes the number of GPUs allocated to Samplers:
///
/// `N_s = ceil(N_g / (K + 1))` with `K = T_t / T_s`,
///
/// where `T_s`/`T_t` are the per-mini-batch processing times of a Sampler
/// and a Trainer estimated from a profiling epoch. GNNLab rounds *up*
/// because switching Samplers→Trainers is cheap (standby Trainers) while
/// the reverse requires reloading topology.
///
/// Always leaves at least one Trainer when `num_gpus > 1`.
///
/// # Panics
///
/// Panics if any argument is non-positive.
pub fn num_samplers(num_gpus: usize, t_sample: f64, t_train: f64) -> usize {
    assert!(num_gpus > 0, "need at least one GPU");
    assert!(
        t_sample > 0.0 && t_train > 0.0,
        "stage times must be positive"
    );
    let k = t_train / t_sample;
    let ns = (num_gpus as f64 / (k + 1.0)).ceil() as usize;
    // ceil(x) of a positive value is >= 1; additionally never starve
    // Trainers on a multi-GPU box (dynamic switching covers N_t = 0 only
    // in the single-GPU special case).
    if num_gpus > 1 {
        ns.clamp(1, num_gpus - 1)
    } else {
        1
    }
}

/// The dynamic-switching profit metric:
///
/// `P = M_r * T_t / N_t - T_t'` (or `+∞` when `N_t = 0` with work left),
///
/// where `M_r` is the number of tasks remaining in the global queue, `N_t`
/// the number of active (normal) Trainers, `T_t` their per-batch time and
/// `T_t'` the standby Trainer's per-batch time (slower: its GPU still
/// holds topology, so its cache is smaller). A standby Trainer wakes iff
/// `P > 0` — it can finish one task before the normal Trainers drain the
/// queue.
///
/// An empty queue yields a non-positive profit regardless of `N_t`: with
/// no tasks remaining there is nothing a standby Trainer could win, so it
/// must never wake (waking onto an empty queue would pay the switch cost
/// `T_t'` for zero work).
pub fn switch_profit(remaining: usize, t_train: f64, num_trainers: usize, t_standby: f64) -> f64 {
    if remaining == 0 {
        return -t_standby;
    }
    if num_trainers == 0 {
        return f64::INFINITY;
    }
    remaining as f64 * t_train / num_trainers as f64 - t_standby
}

/// Seeds the standby per-batch estimate `T_t'` before any standby has
/// run, from the *planned* cache shapes and the measured cache-refresh
/// cost:
///
/// `T_t' ≈ T_t · miss_ratio + refresh / max(M_r, 1)`,
///
/// where `miss_ratio ≥ 1` scales the Trainer batch time by how much more
/// extraction traffic the standby's smaller planned cache misses, and the
/// measured refresh seconds (0.0 until a fill has been timed) are
/// amortized over the batches the standby could win. Once real standby
/// batches exist their EWMA replaces this seed entirely.
pub fn seed_standby_estimate(
    t_train: f64,
    miss_ratio: f64,
    refresh_secs: f64,
    remaining: usize,
) -> f64 {
    t_train * miss_ratio.max(1.0) + refresh_secs.max(0.0) / remaining.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_stages_split_gpus_evenly() {
        // K = 1 => N_s = ceil(8/2) = 4.
        assert_eq!(num_samplers(8, 1.0, 1.0), 4);
    }

    #[test]
    fn training_heavy_workloads_get_few_samplers() {
        // K = 9.9 (PinSAGE on PA, §7.8) => N_s = ceil(8/10.9) = 1.
        assert_eq!(num_samplers(8, 1.0, 9.9), 1);
        // GCN on PA: T_t/T_s ~ 4.3/0.96 => ceil(8/5.5) = 2 (Table 4: 2S).
        assert_eq!(num_samplers(8, 0.96, 4.3), 2);
    }

    #[test]
    fn sampling_heavy_workloads_still_leave_a_trainer() {
        // Extremely slow sampling: rounding up would take all 8 GPUs.
        assert_eq!(num_samplers(8, 100.0, 1.0), 7);
    }

    #[test]
    fn single_gpu_is_one_sampler() {
        assert_eq!(num_samplers(1, 1.0, 1.0), 1);
    }

    #[test]
    fn rounds_up_in_favor_of_samplers() {
        // K = 3 => 8/4 = 2 exactly; K slightly below 3 must still give >= 2.
        assert_eq!(num_samplers(8, 1.0, 2.9), 3);
        assert_eq!(num_samplers(8, 1.0, 3.0), 2);
    }

    #[test]
    fn profit_metric_matches_formula() {
        // 10 tasks, T_t = 2 s, 4 trainers, standby needs 3 s:
        // P = 10*2/4 - 3 = 2 > 0.
        assert!((switch_profit(10, 2.0, 4, 3.0) - 2.0).abs() < 1e-12);
        assert!(switch_profit(10, 2.0, 4, 3.0) > 0.0);
        // 2 tasks: P = 1 - 3 < 0.
        assert!(switch_profit(2, 2.0, 4, 3.0) <= 0.0);
    }

    #[test]
    fn no_trainers_with_work_left_means_always_switch() {
        assert!(switch_profit(1, 1.0, 0, 100.0).is_infinite());
        assert!(switch_profit(1, 1.0, 0, 100.0) > 0.0);
    }

    #[test]
    fn empty_queue_never_switches() {
        // Regression: `N_t = 0` used to dominate, waking a standby Trainer
        // onto an empty queue. No tasks remaining must mean no profit.
        assert!(switch_profit(0, 1.0, 0, 100.0) <= 0.0);
        assert!(switch_profit(0, 5.0, 4, 0.5) <= 0.0);
        // Even a free standby switch (T_t' = 0) is not *profitable*.
        assert!(switch_profit(0, 1.0, 2, 0.0) <= 0.0);
    }

    #[test]
    fn standby_seed_is_never_faster_than_the_trainer() {
        // A standby with an equal cache and no refresh cost matches T_t.
        assert!((seed_standby_estimate(2.0, 1.0, 0.0, 10) - 2.0).abs() < 1e-12);
        // A smaller cache slows it; refresh cost amortizes over the queue.
        let est = seed_standby_estimate(2.0, 1.5, 5.0, 10);
        assert!((est - 3.5).abs() < 1e-12);
        // Degenerate inputs stay sane: ratio < 1 clamps, remaining 0
        // amortizes over one batch.
        assert!(seed_standby_estimate(2.0, 0.5, 1.0, 0) >= 2.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_times() {
        let _ = num_samplers(8, 0.0, 1.0);
    }
}

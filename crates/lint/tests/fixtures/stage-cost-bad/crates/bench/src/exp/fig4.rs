//! An experiment pricing the three stages itself: a co-simulation the
//! engine does not know about.

pub fn sum(ctx: &Ctx, trace: &Trace) -> u64 {
    let mut ns = 0;
    for b in &trace.batches {
        ns += ctx.cost.sample_time(&b.work, Device::Gpu);
        ns += ctx.cost.extract_time(b.miss, b.hit, Path::GpuDirect, 1);
        ns += ctx.cost.train_time(b.flops);
    }
    ns
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_price_a_stage() {
        assert!(cost().train_time(1.0) > 0);
    }
}

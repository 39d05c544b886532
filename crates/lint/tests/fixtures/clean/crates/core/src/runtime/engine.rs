//! The engine is where a stage is costed: no finding here.

pub fn stage_cost(cost: &CostModel, b: &Batch) -> u64 {
    cost.sample_time(&b.work, Device::Gpu)
        + cost.extract_time(b.miss, b.hit, Path::GpuDirect, 1)
        + cost.train_time(b.flops)
}

//! Outside the engine only the inline escape or a test may price a stage.

pub fn presampling(cost: &CostModel, b: &Batch) -> u64 {
    // lint:allow(stage-cost) — fixture for the inline escape.
    cost.sample_time(&b.work, Device::Gpu)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_are_exempt() {
        assert!(cost().extract_time(1.0, 0.0, Path::GpuDirect, 1) > 0);
    }
}

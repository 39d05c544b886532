//! The four systems compared in the evaluation (§7.1, Table 3 bottom).

use gnnlab_sampling::Kernel;
use gnnlab_sim::{GatherPath, SampleDevice};

/// Which GNN system design to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// PyG: CPU sampling, CPU feature gather, no cache, time-sharing.
    PygLike,
    /// DGL: GPU sampling (Reservoir kernel, Python-driven), CPU gather,
    /// no cache, time-sharing.
    DglLike,
    /// T_SOTA: GPU sampling (Fisher–Yates), GPU-direct gather, degree-based
    /// cache, time-sharing — the paper's strengthened baseline.
    TSota,
    /// GNNLab: the factored space-sharing design with PreSC caching.
    GnnLab,
}

impl SystemKind {
    /// All four systems in the paper's presentation order.
    pub const ALL: [SystemKind; 4] = [
        SystemKind::PygLike,
        SystemKind::DglLike,
        SystemKind::TSota,
        SystemKind::GnnLab,
    ];

    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::PygLike => "PyG",
            SystemKind::DglLike => "DGL",
            SystemKind::TSota => "T_SOTA",
            SystemKind::GnnLab => "GNNLab",
        }
    }

    /// Where this system runs graph sampling.
    pub fn sample_device(&self) -> SampleDevice {
        match self {
            SystemKind::PygLike => SampleDevice::CpuPyg,
            SystemKind::DglLike => SampleDevice::GpuFromPython,
            SystemKind::TSota | SystemKind::GnnLab => SampleDevice::Gpu,
        }
    }

    /// Which uniform-selection kernel this system's sampler uses (§7.3).
    pub fn kernel(&self) -> Kernel {
        match self {
            SystemKind::DglLike => Kernel::Reservoir,
            _ => Kernel::FisherYates,
        }
    }

    /// Which path gathers features during Extract.
    pub fn gather_path(&self) -> GatherPath {
        match self {
            SystemKind::PygLike | SystemKind::DglLike => GatherPath::CpuGather,
            SystemKind::TSota | SystemKind::GnnLab => GatherPath::GpuDirect,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_system_properties() {
        assert_eq!(SystemKind::PygLike.sample_device(), SampleDevice::CpuPyg);
        assert_eq!(SystemKind::DglLike.kernel(), Kernel::Reservoir);
        assert_eq!(SystemKind::DglLike.gather_path(), GatherPath::CpuGather);
        assert_eq!(SystemKind::TSota.kernel(), Kernel::FisherYates);
        assert_eq!(SystemKind::GnnLab.gather_path(), GatherPath::GpuDirect);
        assert_eq!(SystemKind::ALL.len(), 4);
    }
}

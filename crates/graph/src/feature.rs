//! Vertex feature storage.

/// Per-vertex feature storage.
///
/// Performance experiments only need *byte accounting* — which vertices'
/// features crossed PCIe — so [`FeatureStore::Virtual`] stores nothing but
/// the shape. Actual model training (the convergence experiment, the
/// quickstart example) uses [`FeatureStore::Materialized`] with real rows.
#[derive(Debug, Clone)]
pub enum FeatureStore {
    /// Shape-only features; `data()` is unavailable.
    Virtual {
        /// Number of vertices.
        num_vertices: usize,
        /// Feature dimension.
        dim: usize,
    },
    /// Real `f32` features, row-major.
    Materialized {
        /// Number of vertices.
        num_vertices: usize,
        /// Feature dimension.
        dim: usize,
        /// Row-major `num_vertices x dim` data.
        data: Vec<f32>,
    },
}

impl FeatureStore {
    /// Creates a virtual (shape-only) store.
    pub fn virtual_store(num_vertices: usize, dim: usize) -> Self {
        FeatureStore::Virtual { num_vertices, dim }
    }

    /// Creates a materialized store from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != num_vertices * dim`.
    pub fn materialized(num_vertices: usize, dim: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            num_vertices * dim,
            "feature data shape mismatch"
        );
        FeatureStore::Materialized {
            num_vertices,
            dim,
            data,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        match self {
            FeatureStore::Virtual { num_vertices, .. }
            | FeatureStore::Materialized { num_vertices, .. } => *num_vertices,
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        match self {
            FeatureStore::Virtual { dim, .. } | FeatureStore::Materialized { dim, .. } => *dim,
        }
    }

    /// Bytes per feature row (f32 elements).
    pub fn row_bytes(&self) -> u64 {
        (self.dim() * std::mem::size_of::<f32>()) as u64
    }

    /// The row-major `num_vertices x dim` feature data, if materialized.
    pub fn data(&self) -> Option<&[f32]> {
        match self {
            FeatureStore::Virtual { .. } => None,
            FeatureStore::Materialized { data, .. } => Some(data),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_accounting() {
        let f = FeatureStore::virtual_store(10, 128);
        assert_eq!(f.num_vertices(), 10);
        assert_eq!(f.dim(), 128);
        assert_eq!(f.row_bytes(), 512);
        assert!(f.data().is_none());
    }

    #[test]
    fn materialized_data_is_row_major() {
        let data: Vec<f32> = (0..6).map(|x| x as f32).collect();
        let f = FeatureStore::materialized(3, 2, data.clone());
        assert_eq!(f.data(), Some(&data[..]));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn materialized_shape_checked() {
        let _ = FeatureStore::materialized(3, 2, vec![0.0; 5]);
    }
}

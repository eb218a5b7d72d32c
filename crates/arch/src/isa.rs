//! Vector instruction-set descriptions and floating-point precisions.

/// Floating-point datatype precision, as used by the FPU µKernel (Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// IEEE 754 binary16 (half).
    Half,
    /// IEEE 754 binary32 (single).
    Single,
    /// IEEE 754 binary64 (double).
    Double,
}

impl Precision {
    /// Width of one element in bytes.
    pub fn bytes(self) -> usize {
        match self {
            Precision::Half => 2,
            Precision::Single => 4,
            Precision::Double => 8,
        }
    }

    /// All precisions in the order the paper's Figure 1 plots them.
    pub const ALL: [Precision; 3] = [Precision::Half, Precision::Single, Precision::Double];

    /// Short label used on figure axes.
    pub fn label(self) -> &'static str {
        match self {
            Precision::Half => "half",
            Precision::Single => "single",
            Precision::Double => "double",
        }
    }
}

/// A SIMD extension as implemented by a particular core.
#[derive(Debug, Clone)]
pub struct VectorIsa {
    /// Name, e.g. `"SVE"` or `"AVX512"`.
    pub name: String,
    /// Vector register width in bits (512 for SVE on A64FX and for AVX-512).
    pub width_bits: usize,
    /// Whether the ISA supports half-precision *arithmetic* (not just
    /// storage). True for SVE/NEON on Armv8.2 (FP16 extension); false for
    /// AVX-512 on Skylake (no AVX512-FP16).
    pub fp16_arithmetic: bool,
}

impl VectorIsa {
    /// 512-bit Scalable Vector Extension as configured on the A64FX.
    pub fn sve_512() -> Self {
        Self {
            name: "SVE".into(),
            width_bits: 512,
            fp16_arithmetic: true,
        }
    }

    /// 128-bit NEON (Advanced SIMD) on Armv8.2 with the FP16 extension.
    pub fn neon() -> Self {
        Self {
            name: "NEON".into(),
            width_bits: 128,
            fp16_arithmetic: true,
        }
    }

    /// AVX-512 as implemented on Skylake-SP (no FP16 arithmetic).
    pub fn avx512() -> Self {
        Self {
            name: "AVX512".into(),
            width_bits: 512,
            fp16_arithmetic: false,
        }
    }

    /// Number of elements of the given precision processed per vector
    /// instruction (the paper's `s` term in `P_v = s · i · f · o`).
    /// Returns `None` when the ISA cannot do arithmetic at that precision.
    pub fn lanes(&self, p: Precision) -> Option<usize> {
        if p == Precision::Half && !self.fp16_arithmetic {
            return None;
        }
        Some(self.width_bits / (p.bytes() * 8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_bytes() {
        assert_eq!(Precision::Half.bytes(), 2);
        assert_eq!(Precision::Single.bytes(), 4);
        assert_eq!(Precision::Double.bytes(), 8);
    }

    #[test]
    fn sve_lane_counts() {
        let sve = VectorIsa::sve_512();
        assert_eq!(sve.lanes(Precision::Double), Some(8));
        assert_eq!(sve.lanes(Precision::Single), Some(16));
        assert_eq!(sve.lanes(Precision::Half), Some(32));
    }

    #[test]
    fn neon_lane_counts() {
        let neon = VectorIsa::neon();
        assert_eq!(neon.lanes(Precision::Double), Some(2));
        assert_eq!(neon.lanes(Precision::Single), Some(4));
        assert_eq!(neon.lanes(Precision::Half), Some(8));
    }

    #[test]
    fn avx512_has_no_fp16_arithmetic() {
        let avx = VectorIsa::avx512();
        assert_eq!(avx.lanes(Precision::Half), None);
        assert_eq!(avx.lanes(Precision::Double), Some(8));
        assert_eq!(avx.lanes(Precision::Single), Some(16));
    }
}

//! Runtime-dispatched XNOR-popcount word kernels.
//!
//! The BNN mirror's whole job is to be cheap: every proxied neuron
//! output is `2 * popcount(XNOR(a, b)) - len` over packed 64-bit sign
//! words.  How fast `popcount` runs depends on the host ISA, so — like
//! the f32 kernels in `nfm_tensor::kernels` — the word kernel is
//! selected once per process, derived from the same
//! [`KernelBackend`] resolution
//! (including the `NFM_KERNEL_BACKEND` override):
//!
//! | kernel tier | popcount implementation |
//! |---|---|
//! | `scalar` | portable SWAR `u64::count_ones` |
//! | `avx2` | hardware `popcnt` (one instruction per word) |
//! | `avx512` | `vpopcntq` over 8 words per op where `avx512vpopcntdq` exists, else hardware `popcnt` |
//! | `neon` | NEON `cnt` (per-byte popcount + widening adds) |
//!
//! Popcounts are integer-exact, so every tier returns *equal* values by
//! construction — dispatch here is purely about speed, and the
//! cross-tier tests in `crates/bnn/tests/properties.rs` pin the widths
//! around the 64-bit word boundary anyway.

use nfm_tensor::backend::{self, KernelBackend};
use std::sync::OnceLock;

/// A popcount implementation tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PopcountBackend {
    /// Portable `u64::count_ones` (SWAR on targets without a popcount
    /// instruction in the baseline feature set).
    Scalar,
    /// Hardware `popcnt` (x86).
    Popcnt,
    /// AVX-512 `vpopcntq`, 8 words per operation (requires
    /// `avx512vpopcntdq`); full-word chunks only, the last `< 8` words
    /// run hardware `popcnt`.
    Vpopcntdq,
    /// NEON `cnt` per-byte popcount with widening accumulation.
    Neon,
}

impl PopcountBackend {
    /// The tier's lowercase name (bench/snapshot labels).
    pub fn name(self) -> &'static str {
        match self {
            PopcountBackend::Scalar => "scalar",
            PopcountBackend::Popcnt => "popcnt",
            PopcountBackend::Vpopcntdq => "vpopcntdq",
            PopcountBackend::Neon => "neon",
        }
    }

    /// Whether the current host can execute this tier.
    pub fn is_supported(self) -> bool {
        match self {
            PopcountBackend::Scalar => true,
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            PopcountBackend::Popcnt => is_x86_feature_detected!("popcnt"),
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            PopcountBackend::Vpopcntdq => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512vpopcntdq")
                    && is_x86_feature_detected!("popcnt")
            }
            #[cfg(target_arch = "aarch64")]
            PopcountBackend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Every tier the current host supports (always includes
    /// [`PopcountBackend::Scalar`]).
    pub fn supported() -> Vec<PopcountBackend> {
        [
            PopcountBackend::Vpopcntdq,
            PopcountBackend::Popcnt,
            PopcountBackend::Neon,
            PopcountBackend::Scalar,
        ]
        .into_iter()
        .filter(|b| b.is_supported())
        .collect()
    }

    /// The popcount tier implied by a kernel backend on this host:
    /// `scalar` stays scalar (so forcing `NFM_KERNEL_BACKEND=scalar`
    /// pins the whole process to reference code), the SIMD tiers use
    /// the fastest popcount their feature set guarantees or the host
    /// additionally provides.
    pub fn for_kernel_backend(backend: KernelBackend) -> PopcountBackend {
        let candidates: &[PopcountBackend] = match backend {
            KernelBackend::Scalar => &[],
            KernelBackend::Avx2 => &[PopcountBackend::Popcnt],
            KernelBackend::Avx512 => &[PopcountBackend::Vpopcntdq, PopcountBackend::Popcnt],
            KernelBackend::Neon => &[PopcountBackend::Neon],
        };
        candidates
            .iter()
            .copied()
            .find(|b| b.is_supported())
            .unwrap_or(PopcountBackend::Scalar)
    }
}

impl std::fmt::Display for PopcountBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

static ACTIVE: OnceLock<PopcountBackend> = OnceLock::new();

/// The process-wide popcount tier, derived once from
/// [`nfm_tensor::backend::active`].
pub fn active() -> PopcountBackend {
    *ACTIVE.get_or_init(|| PopcountBackend::for_kernel_backend(backend::active()))
}

/// Number of sign agreements (`popcount(XNOR)`) over full 64-bit words,
/// on the active tier.  Slices must have equal lengths.
#[inline]
pub(crate) fn xnor_agreements(a: &[u64], b: &[u64]) -> u32 {
    xnor_agreements_dispatch(active(), a, b)
}

/// [`BitVector::xnor_dot`](crate::BitVector::xnor_dot)'s word kernel on
/// an explicit tier — the hook the cross-tier tests and benches use.
///
/// # Panics
///
/// Panics if `backend` is not supported on this host or the slices'
/// lengths differ.
pub fn xnor_agreements_on(backend: PopcountBackend, a: &[u64], b: &[u64]) -> u32 {
    assert!(
        backend.is_supported(),
        "popcount backend {backend} is not supported on this host (supported: {})",
        PopcountBackend::supported()
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", "),
    );
    assert_eq!(a.len(), b.len(), "word-slice length mismatch");
    xnor_agreements_dispatch(backend, a, b)
}

#[inline]
fn xnor_agreements_dispatch(backend: PopcountBackend, a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    match backend {
        PopcountBackend::Scalar => scalar_agreements(a, b),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: dispatch reaches this arm only for supported tiers.
        PopcountBackend::Popcnt => unsafe { x86::popcnt_agreements(a, b) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: dispatch reaches this arm only for supported tiers.
        PopcountBackend::Vpopcntdq => unsafe { x86::vpopcntdq_agreements(a, b) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: dispatch reaches this arm only for supported tiers.
        PopcountBackend::Neon => unsafe { neon::neon_agreements(a, b) },
        #[allow(unreachable_patterns)]
        other => unreachable!("popcount backend {other} is not compiled for this target"),
    }
}

#[inline]
fn scalar_agreements(a: &[u64], b: &[u64]) -> u32 {
    let mut agreements = 0u32;
    for (x, y) in a.iter().zip(b.iter()) {
        agreements += (!(x ^ y)).count_ones();
    }
    agreements
}

/// One whole XNOR-popcount dot (full words + masked tail), written to
/// inline into the per-tier gate loop below.
#[inline(always)]
fn xnor_dot_words(a: &[u64], b: &[u64], len_bits: usize) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let full_words = len_bits / 64;
    let mut agreements = 0u32;
    for w in 0..full_words {
        agreements += (!(a[w] ^ b[w])).count_ones();
    }
    let tail = len_bits % 64;
    if tail > 0 {
        let mask = (1u64 << tail) - 1;
        agreements += ((!(a[full_words] ^ b[full_words])) & mask).count_ones();
    }
    2 * agreements as i32 - len_bits as i32
}

/// Every neuron of one gate for **all** lanes in one dispatched call,
/// lane-striped — `out[l * rows + n] = xnor_dot(wx_rows[n], xbs[l]) +
/// xnor_dot(wh_rows[n], hbs[l])` — so the tier decision and the
/// `#[target_feature]` call boundary are paid once per gate invocation
/// instead of twice per neuron (BNN-mirror rows are only a few words
/// wide, so per-row dispatch overhead rivals the popcounts themselves).
/// One lane is the single-sequence case.
///
/// The lane loop is *outer*: each lane's packed words are resolved once
/// and the whole gate runs as one tight row loop per lane.  A mirror
/// gate is a few to a few tens of KiB of sign words, so its rows stay
/// cache-resident across the lanes of a call; measured on this
/// project's gate shapes (1–16 lanes), streaming each row across the
/// lanes instead (row-outer) was no faster at any lane count and a
/// third slower at one lane.  Popcounts are integer-exact, so the
/// traversal cannot change any value.
///
/// The caller (`BinaryGate`) has validated the operand widths; every
/// `xbs[l]` / `hbs[l]` must match row widths, `xbs.len() == hbs.len()`,
/// and `out.len() == xbs.len() * rows`.
pub(crate) fn gate_outputs_lanes(
    wx_rows: &[crate::BitVector],
    wh_rows: &[crate::BitVector],
    xbs: &[crate::BitVector],
    hbs: &[crate::BitVector],
    out: &mut [i32],
) {
    gate_outputs_lanes_dispatch(active(), wx_rows, wh_rows, xbs, hbs, out);
}

/// [`gate_outputs_lanes`] on an explicit tier — the hook behind
/// [`BinaryGate::neuron_outputs_batch_on`](crate::BinaryGate::neuron_outputs_batch_on).
///
/// # Panics
///
/// Panics if `backend` is not supported on this host.
pub(crate) fn gate_outputs_lanes_on(
    backend: PopcountBackend,
    wx_rows: &[crate::BitVector],
    wh_rows: &[crate::BitVector],
    xbs: &[crate::BitVector],
    hbs: &[crate::BitVector],
    out: &mut [i32],
) {
    assert!(
        backend.is_supported(),
        "popcount backend {backend} is not supported on this host (supported: {})",
        PopcountBackend::supported()
            .iter()
            .map(|b| b.name())
            .collect::<Vec<_>>()
            .join(", "),
    );
    gate_outputs_lanes_dispatch(backend, wx_rows, wh_rows, xbs, hbs, out);
}

#[inline]
fn gate_outputs_lanes_dispatch(
    backend: PopcountBackend,
    wx_rows: &[crate::BitVector],
    wh_rows: &[crate::BitVector],
    xbs: &[crate::BitVector],
    hbs: &[crate::BitVector],
    out: &mut [i32],
) {
    debug_assert_eq!(wx_rows.len(), wh_rows.len());
    debug_assert_eq!(xbs.len(), hbs.len());
    debug_assert_eq!(out.len(), xbs.len() * wx_rows.len());
    match backend {
        PopcountBackend::Scalar => gate_outputs_lanes_body(wx_rows, wh_rows, xbs, hbs, out),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: dispatch reaches these arms only for supported tiers,
        // and both imply the `popcnt` feature.  The rows of a mirror
        // gate are short, so the row-wise `popcnt` loop is the right
        // kernel even on the vpopcntdq tier (which pays off on long
        // single vectors, not 1–3-word rows).
        PopcountBackend::Popcnt | PopcountBackend::Vpopcntdq => unsafe {
            x86::popcnt_gate_outputs_lanes(wx_rows, wh_rows, xbs, hbs, out)
        },
        #[cfg(target_arch = "aarch64")]
        // `u64::count_ones` lowers to NEON `cnt` on aarch64 baseline.
        PopcountBackend::Neon => gate_outputs_lanes_body(wx_rows, wh_rows, xbs, hbs, out),
        #[allow(unreachable_patterns)]
        other => unreachable!("popcount backend {other} is not compiled for this target"),
    }
}

/// The shared loop of [`gate_outputs_lanes`]: per lane, one row loop
/// over the whole gate with that lane's words resolved up front.
#[inline(always)]
fn gate_outputs_lanes_body(
    wx_rows: &[crate::BitVector],
    wh_rows: &[crate::BitVector],
    xbs: &[crate::BitVector],
    hbs: &[crate::BitVector],
    out: &mut [i32],
) {
    let rows = wx_rows.len().max(1);
    for ((xb, hb), out) in xbs.iter().zip(hbs).zip(out.chunks_exact_mut(rows)) {
        let (xw, xl) = (xb.word_slice(), xb.len());
        let (hw, hl) = (hb.word_slice(), hb.len());
        for ((o, wx), wh) in out.iter_mut().zip(wx_rows).zip(wh_rows) {
            *o = xnor_dot_words(wx.word_slice(), xw, xl) + xnor_dot_words(wh.word_slice(), hw, hl);
        }
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
mod x86 {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// The scalar loop with the `popcnt` instruction enabled, so
    /// `count_ones` compiles to one instruction per word instead of the
    /// portable SWAR sequence.
    ///
    /// # Safety
    ///
    /// Requires `popcnt`.
    #[target_feature(enable = "popcnt")]
    pub(super) unsafe fn popcnt_agreements(a: &[u64], b: &[u64]) -> u32 {
        let mut agreements = 0u32;
        for (x, y) in a.iter().zip(b.iter()) {
            agreements += (!(x ^ y)).count_ones();
        }
        agreements
    }

    /// The whole-gate loop with hardware `popcnt` enabled: one
    /// `#[target_feature]` body covers every (neuron, lane) dot of a
    /// gate invocation.
    ///
    /// # Safety
    ///
    /// Requires `popcnt`.
    #[target_feature(enable = "popcnt")]
    pub(super) unsafe fn popcnt_gate_outputs_lanes(
        wx_rows: &[crate::BitVector],
        wh_rows: &[crate::BitVector],
        xbs: &[crate::BitVector],
        hbs: &[crate::BitVector],
        out: &mut [i32],
    ) {
        super::gate_outputs_lanes_body(wx_rows, wh_rows, xbs, hbs, out)
    }

    /// 8 words per operation: one `vpternlogq` computes the XNOR, one
    /// `vpopcntq` the per-word popcounts.  The `< 8`-word remainder
    /// runs hardware `popcnt`.
    ///
    /// # Safety
    ///
    /// Requires `avx512f` + `avx512vpopcntdq` + `popcnt`.
    #[target_feature(enable = "avx512f,avx512vpopcntdq,popcnt")]
    pub(super) unsafe fn vpopcntdq_agreements(a: &[u64], b: &[u64]) -> u32 {
        let n = a.len();
        let chunks = n / 8;
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut acc = _mm512_setzero_si512();
        for c in 0..chunks {
            // SAFETY: c * 8 + 7 < n, loads are unaligned-tolerant.
            let va = unsafe { _mm512_loadu_si512(pa.add(c * 8) as *const _) };
            let vb = unsafe { _mm512_loadu_si512(pb.add(c * 8) as *const _) };
            // Truth table 0xC3 over (a, b, _) is ~(a ^ b): one-op XNOR.
            let xnor = _mm512_ternarylogic_epi64::<0xC3>(va, vb, va);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(xnor));
        }
        let mut agreements = _mm512_reduce_add_epi64(acc) as u32;
        for i in chunks * 8..n {
            // SAFETY: i < n.
            let (x, y) = unsafe { (*pa.add(i), *pb.add(i)) };
            agreements += (!(x ^ y)).count_ones();
        }
        agreements
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use std::arch::aarch64::*;

    /// NEON per-byte popcount (`cnt`) over 16-byte chunks (two words),
    /// widened to a running sum; the odd trailing word runs
    /// `count_ones`.
    ///
    /// # Safety
    ///
    /// Requires `neon`.
    #[target_feature(enable = "neon")]
    pub(super) unsafe fn neon_agreements(a: &[u64], b: &[u64]) -> u32 {
        let n = a.len();
        let chunks = n / 2;
        let pa = a.as_ptr() as *const u8;
        let pb = b.as_ptr() as *const u8;
        let mut total = 0u32;
        for c in 0..chunks {
            // SAFETY: 16 * c + 15 < 8 * n.
            let va = unsafe { vld1q_u8(pa.add(16 * c)) };
            let vb = unsafe { vld1q_u8(pb.add(16 * c)) };
            let xnor = vmvnq_u8(veorq_u8(va, vb));
            let counts = vcntq_u8(xnor);
            total += vaddlvq_u8(counts) as u32;
        }
        for i in chunks * 2..n {
            // SAFETY: i < n.
            let (x, y) = unsafe { (*a.as_ptr().add(i), *b.as_ptr().add(i)) };
            total += (!(x ^ y)).count_ones();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported() {
        assert!(PopcountBackend::Scalar.is_supported());
        assert!(PopcountBackend::supported().contains(&PopcountBackend::Scalar));
        assert!(active().is_supported());
    }

    #[test]
    fn scalar_kernel_backend_forces_scalar_popcount() {
        assert_eq!(
            PopcountBackend::for_kernel_backend(KernelBackend::Scalar),
            PopcountBackend::Scalar
        );
    }

    #[test]
    fn every_supported_tier_agrees_with_scalar() {
        let a: Vec<u64> = (0..37u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let b: Vec<u64> = (0..37u64)
            .map(|i| i.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .collect();
        for words in [0usize, 1, 2, 3, 7, 8, 9, 16, 17, 37] {
            let reference = xnor_agreements_on(PopcountBackend::Scalar, &a[..words], &b[..words]);
            for backend in PopcountBackend::supported() {
                assert_eq!(
                    xnor_agreements_on(backend, &a[..words], &b[..words]),
                    reference,
                    "words {words} backend {backend}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn explicit_entry_rejects_ragged_slices() {
        let _ = xnor_agreements_on(PopcountBackend::Scalar, &[0], &[0, 1]);
    }
}

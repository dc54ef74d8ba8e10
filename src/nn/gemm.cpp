#include "nn/gemm.hpp"

#include <cstring>

#include "runtime/cpu.hpp"

namespace wavekey::nn {
namespace {

// Register-tile sizes for the portable kernel. MR*NR accumulators must fit
// the vector register file of a baseline x86-64 / AArch64 target (16 x
// 128-bit): 4x8 floats = 8 SSE registers of accumulators plus
// broadcast/load temporaries. The inner NR-loop vectorizes without
// reassociation because each C element keeps its own accumulator.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;

// Generic (edge) path shared by gemm_nn / gemm_tn: per-element k-ordered
// accumulation with A element selected by a caller-supplied stride pattern.
inline void edge_nn(std::size_t m0, std::size_t m1, std::size_t n0, std::size_t n1,
                    std::size_t k, const float* a, std::size_t a_row_stride,
                    std::size_t a_col_stride, const float* b, std::size_t ldb, float* c,
                    std::size_t ldc, bool accumulate) {
  for (std::size_t i = m0; i < m1; ++i) {
    for (std::size_t j = n0; j < n1; ++j) {
      float acc = accumulate ? c[i * ldc + j] : 0.0f;
      for (std::size_t p = 0; p < k; ++p)
        acc += a[i * a_row_stride + p * a_col_stride] * b[p * ldb + j];
      c[i * ldc + j] = acc;
    }
  }
}

}  // namespace

namespace detail {

// Shared blocked kernel for the two outer-product variants. a_row_stride /
// a_col_stride express A[i,p] = a[i*a_row_stride + p*a_col_stride], which is
// (lda, 1) for gemm_nn and (1, lda) for gemm_tn.
void gemm_outer_scalar(std::size_t m, std::size_t n, std::size_t k, const float* a,
                       std::size_t a_row_stride, std::size_t a_col_stride, const float* b,
                       std::size_t ldb, float* c, std::size_t ldc, bool accumulate) {
  const std::size_t m_main = m - m % kMr;
  const std::size_t n_main = n - n % kNr;

  for (std::size_t i0 = 0; i0 < m_main; i0 += kMr) {
    for (std::size_t j0 = 0; j0 < n_main; j0 += kNr) {
      float acc[kMr][kNr];
      for (std::size_t i = 0; i < kMr; ++i)
        for (std::size_t j = 0; j < kNr; ++j)
          acc[i][j] = accumulate ? c[(i0 + i) * ldc + j0 + j] : 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        const float* brow = b + p * ldb + j0;
        for (std::size_t i = 0; i < kMr; ++i) {
          const float av = a[(i0 + i) * a_row_stride + p * a_col_stride];
          for (std::size_t j = 0; j < kNr; ++j) acc[i][j] += av * brow[j];
        }
      }
      for (std::size_t i = 0; i < kMr; ++i)
        for (std::size_t j = 0; j < kNr; ++j) c[(i0 + i) * ldc + j0 + j] = acc[i][j];
    }
    // Right edge of this row band.
    edge_nn(i0, i0 + kMr, n_main, n, k, a, a_row_stride, a_col_stride, b, ldb, c, ldc,
            accumulate);
  }
  // Bottom edge (all columns).
  edge_nn(m_main, m, 0, n, k, a, a_row_stride, a_col_stride, b, ldb, c, ldc, accumulate);
}

}  // namespace detail

void gemm_nn_scalar(std::size_t m, std::size_t n, std::size_t k, const float* a,
                    std::size_t lda, const float* b, std::size_t ldb, float* c,
                    std::size_t ldc, bool accumulate) {
  detail::gemm_outer_scalar(m, n, k, a, lda, 1, b, ldb, c, ldc, accumulate);
}

void gemm_tn_scalar(std::size_t m, std::size_t n, std::size_t k, const float* a,
                    std::size_t lda, const float* b, std::size_t ldb, float* c,
                    std::size_t ldc, bool accumulate) {
  detail::gemm_outer_scalar(m, n, k, a, 1, lda, b, ldb, c, ldc, accumulate);
}

namespace {

// One dot product arow·brow of length k using a fixed 4-lane strided
// reduction: lane L sums elements L, L+4, L+8, ... and the lanes fold as
// ((s0+s1)+(s2+s3)) at the end, followed by the tail in index order. A
// single serial chain cannot be vectorized without reassociation; the four
// independent lanes map straight onto one 128-bit SIMD accumulator. The
// order is a fixed function of k alone — deterministic across runs and call
// sites — it just differs from the naive left-to-right sum
// (kernel-equivalence tests compare against the reference with a relative
// tolerance for exactly this reason).
inline float dot_lanes4(const float* arow, const float* brow, std::size_t k) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  const std::size_t k_main = k - k % 4;
  for (std::size_t p = 0; p < k_main; p += 4) {
    s0 += arow[p + 0] * brow[p + 0];
    s1 += arow[p + 1] * brow[p + 1];
    s2 += arow[p + 2] * brow[p + 2];
    s3 += arow[p + 3] * brow[p + 3];
  }
  float acc = (s0 + s1) + (s2 + s3);
  for (std::size_t p = k_main; p < k; ++p) acc += arow[p] * brow[p];
  return acc;
}

}  // namespace

void gemm_nt_scalar(std::size_t m, std::size_t n, std::size_t k, const float* a,
                    std::size_t lda, const float* b, std::size_t ldb, float* c,
                    std::size_t ldc, bool accumulate) {
  // Dot-product orientation: both A rows and B rows are contiguous over k,
  // so each C element is one lane-reduced dot product.
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * lda;
    for (std::size_t j = 0; j < n; ++j) {
      const float base = accumulate ? c[i * ldc + j] : 0.0f;
      c[i * ldc + j] = base + dot_lanes4(arow, b + j * ldb, k);
    }
  }
}

namespace {

inline bool use_avx2() {
  using runtime::cpu::SimdTier;
  return runtime::cpu::active_tier() >= SimdTier::kAvx2;
}

}  // namespace

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
             const float* b, std::size_t ldb, float* c, std::size_t ldc, bool accumulate) {
  if (use_avx2()) {
    gemm_nn_avx2(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
  } else {
    gemm_nn_scalar(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
  }
}

void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
             const float* b, std::size_t ldb, float* c, std::size_t ldc, bool accumulate) {
  if (use_avx2()) {
    gemm_tn_avx2(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
  } else {
    gemm_tn_scalar(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
  }
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a, std::size_t lda,
             const float* b, std::size_t ldb, float* c, std::size_t ldc, bool accumulate) {
  if (use_avx2()) {
    gemm_nt_avx2(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
  } else {
    gemm_nt_scalar(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
  }
}

}  // namespace wavekey::nn

// Control-byte scan kernels behind runtime::FlatMap (see flat_map.hpp).
//
// Both tiers share one contract: scan a window of control bytes and return
// a little-endian bitmask of matching positions. Scalar consumes 16-byte
// windows (one group); AVX2 (flat_map_avx2.cpp) consumes 32 bytes (two
// consecutive groups). Because probing is linear over groups and every
// kernel reports matches lowest-bit-first, both tiers visit slots in the
// same order and the map's state is bit-identical across tiers.

#include "runtime/flat_map.hpp"

namespace wavekey::runtime::flat_map_detail {
namespace {

// ---- scalar (portable) ------------------------------------------------

std::uint32_t scalar_match_tag(const std::uint8_t* w, std::uint8_t tag) {
  std::uint32_t m = 0;
  for (std::uint32_t i = 0; i < 16; ++i) {
    m |= static_cast<std::uint32_t>(w[i] == tag) << i;
  }
  return m;
}

std::uint32_t scalar_match_empty(const std::uint8_t* w) {
  return scalar_match_tag(w, kCtrlEmpty);
}

std::uint32_t scalar_match_available(const std::uint8_t* w) {
  // Empty (0x80 = -128) and deleted (0xFE = -2) are the only bytes whose
  // signed value is < -1; full slots carry a 7-bit tag (>= 0).
  std::uint32_t m = 0;
  for (std::uint32_t i = 0; i < 16; ++i) {
    m |= static_cast<std::uint32_t>(static_cast<std::int8_t>(w[i]) < -1) << i;
  }
  return m;
}

constexpr ScanOps kScalarOps{scalar_match_tag, scalar_match_empty, scalar_match_available,
                             16};

}  // namespace

const ScanOps& scan_ops_for(cpu::SimdTier tier) {
  if (tier >= cpu::SimdTier::kAvx2) {
    if (const ScanOps* avx2 = avx2_scan_ops(); avx2 != nullptr) return *avx2;
  }
  return kScalarOps;
}

const ScanOps& scan_ops() { return scan_ops_for(cpu::active_tier()); }

}  // namespace wavekey::runtime::flat_map_detail

// Tests for the error-correction substrate: GF(2^8) arithmetic laws,
// Reed-Solomon round-trips under random symbol corruption, and the
// fuzzy-commitment reconciliation used by the key-agreement protocol.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "crypto/drbg.hpp"
#include "ecc/fuzzy_commitment.hpp"
#include "ecc/gf256.hpp"
#include "ecc/reed_solomon.hpp"
#include "numeric/rng.hpp"

namespace wavekey::ecc {
namespace {

TEST(Gf256Test, AdditionIsXor) {
  EXPECT_EQ(Gf256::add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(Gf256::sub(0x53, 0xCA), 0x53 ^ 0xCA);
}

TEST(Gf256Test, MultiplicationKnownValue) {
  // 0x53 * 0xCA = 0x01 under 0x11D? Verify with the field laws instead of a
  // memorized product: check distributivity and the known identity.
  EXPECT_EQ(Gf256::mul(1, 0x57), 0x57);
  EXPECT_EQ(Gf256::mul(0, 0x57), 0);
  EXPECT_EQ(Gf256::mul(2, 0x80), 0x1D);  // x * x^7 = x^8 = 0x11D mod x^8
}

TEST(Gf256Test, FieldLawsHoldForAllPairsSampled) {
  Rng rng(71);
  for (int t = 0; t < 3000; ++t) {
    const auto a = static_cast<std::uint8_t>(rng.uniform_u64(256));
    const auto b = static_cast<std::uint8_t>(rng.uniform_u64(256));
    const auto c = static_cast<std::uint8_t>(rng.uniform_u64(256));
    EXPECT_EQ(Gf256::mul(a, b), Gf256::mul(b, a));
    EXPECT_EQ(Gf256::mul(a, Gf256::mul(b, c)), Gf256::mul(Gf256::mul(a, b), c));
    EXPECT_EQ(Gf256::mul(a, Gf256::add(b, c)), Gf256::add(Gf256::mul(a, b), Gf256::mul(a, c)));
  }
}

TEST(Gf256Test, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto inv = Gf256::inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(Gf256::mul(static_cast<std::uint8_t>(a), inv), 1) << a;
  }
  EXPECT_THROW(Gf256::inv(0), std::domain_error);
  EXPECT_THROW(Gf256::div(1, 0), std::domain_error);
  EXPECT_THROW(Gf256::log(0), std::domain_error);
}

TEST(Gf256Test, ExpLogAreInverse) {
  for (int e = 0; e < 255; ++e) EXPECT_EQ(Gf256::log(Gf256::exp(e)), e);
  EXPECT_EQ(Gf256::exp(255), Gf256::exp(0));  // order-255 cyclic group
  EXPECT_EQ(Gf256::exp(-3), Gf256::exp(252));
}

TEST(Gf256Test, PowMatchesRepeatedMul) {
  const std::uint8_t a = 0x37;
  std::uint8_t acc = 1;
  for (int n = 0; n < 20; ++n) {
    EXPECT_EQ(Gf256::pow(a, n), acc);
    acc = Gf256::mul(acc, a);
  }
  EXPECT_EQ(Gf256::pow(0, 5), 0);
  EXPECT_EQ(Gf256::pow(0, 0), 1);
}

TEST(Gf256Simd, MulTableMatchesFieldMulExhaustively) {
  for (int c = 0; c < 256; ++c) {
    const Gf256::MulTable t = Gf256::mul_table(static_cast<std::uint8_t>(c));
    for (int x = 0; x < 256; ++x) {
      ASSERT_EQ(t.mul(static_cast<std::uint8_t>(x)),
                Gf256::mul(static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(x)))
          << "c=" << c << " x=" << x;
    }
  }
}

// Every multiplier c and lengths 0..100 at shifting src/dst offsets,
// against the log/exp field multiply; bytes outside the span stay untouched.
TEST(Gf256Simd, AddmulSliceAlignmentTailSweep) {
  Rng rng(101);
  constexpr std::size_t kMaxLen = 100;
  constexpr std::size_t kSlack = 32;
  std::vector<std::uint8_t> src_buf(kMaxLen + 2 * kSlack), dst_buf(kMaxLen + 2 * kSlack);
  for (int c = 0; c < 256; ++c) {
    const auto cc = static_cast<std::uint8_t>(c);
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const std::size_t off = (len + static_cast<std::size_t>(c)) % kSlack;
      for (auto& v : src_buf) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
      for (auto& v : dst_buf) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
      std::vector<std::uint8_t> want = dst_buf;
      for (std::size_t i = off; i < off + len; ++i) want[i] ^= Gf256::mul(cc, src_buf[i]);
      Gf256::addmul_slice(dst_buf.data() + off, src_buf.data() + off, len, cc);
      ASSERT_EQ(dst_buf, want) << "c=" << c << " len=" << len;
    }
  }
}

TEST(Gf256Simd, SliceOpsAllowExactAliasing) {
  Rng rng(103);
  for (std::size_t len : {0UL, 1UL, 31UL, 32UL, 33UL, 129UL}) {
    std::vector<std::uint8_t> buf(len);
    for (auto& v : buf) v = static_cast<std::uint8_t>(rng.uniform_u64(256));
    std::vector<std::uint8_t> want(len);
    for (std::size_t i = 0; i < len; ++i)
      want[i] = buf[i] ^ Gf256::mul(0x1D, buf[i]);  // dst ^= c*dst
    std::vector<std::uint8_t> got = buf;
    Gf256::addmul_slice(got.data(), got.data(), len, 0x1D);
    EXPECT_EQ(got, want) << "len=" << len;
  }
}

TEST(ReedSolomonTest, RejectsBadParameters) {
  EXPECT_THROW(ReedSolomon(0), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(255), std::invalid_argument);
  ReedSolomon rs(16);
  EXPECT_THROW(rs.encode(std::vector<std::uint8_t>(240)), std::invalid_argument);
}

TEST(ReedSolomonTest, EncodeIsSystematic) {
  ReedSolomon rs(8);
  const std::vector<std::uint8_t> data{10, 20, 30, 40, 50};
  const auto cw = rs.encode(data);
  ASSERT_EQ(cw.size(), data.size() + 8);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), cw.begin()));
}

TEST(ReedSolomonTest, CleanCodewordDecodes) {
  ReedSolomon rs(10);
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto cw = rs.encode(data);
  const auto decoded = rs.decode(cw);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

class RsErrorSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsErrorSweepTest, CorrectsUpToHalfNsymErrors) {
  const std::size_t nsym = GetParam();
  ReedSolomon rs(nsym);
  Rng rng(100 + nsym);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t len = 20 + rng.uniform_u64(100);
    std::vector<std::uint8_t> data(len);
    for (auto& d : data) d = static_cast<std::uint8_t>(rng.uniform_u64(256));
    auto cw = rs.encode(data);

    const std::size_t nerr = rng.uniform_u64(rs.max_errors() + 1);
    std::set<std::size_t> positions;
    while (positions.size() < nerr) positions.insert(rng.uniform_u64(cw.size()));
    for (std::size_t p : positions) cw[p] ^= static_cast<std::uint8_t>(1 + rng.uniform_u64(255));

    const auto decoded = rs.decode(cw);
    ASSERT_TRUE(decoded.has_value()) << "nsym=" << nsym << " nerr=" << nerr;
    EXPECT_EQ(*decoded, data);
  }
}

INSTANTIATE_TEST_SUITE_P(NsymSweep, RsErrorSweepTest, ::testing::Values(2, 4, 8, 16, 32, 64));

TEST(ReedSolomonTest, TooManyErrorsReportedNotMiscorrected) {
  ReedSolomon rs(8);  // corrects 4
  Rng rng(321);
  int failures = 0, miscorrections = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::uint8_t> data(40);
    for (auto& d : data) d = static_cast<std::uint8_t>(rng.uniform_u64(256));
    auto cw = rs.encode(data);
    // Inject 6 errors: beyond capability.
    std::set<std::size_t> positions;
    while (positions.size() < 6) positions.insert(rng.uniform_u64(cw.size()));
    for (std::size_t p : positions) cw[p] ^= static_cast<std::uint8_t>(1 + rng.uniform_u64(255));
    const auto decoded = rs.decode(cw);
    if (!decoded)
      ++failures;
    else if (*decoded != data)
      ++miscorrections;
  }
  // Decoding must overwhelmingly fail cleanly; silent miscorrection to a
  // *different valid codeword* is possible in principle but must be rare.
  EXPECT_GT(failures, 180);
  EXPECT_LT(miscorrections, 10);
}

TEST(ReedSolomonTest, MalformedInputsReturnNullopt) {
  ReedSolomon rs(8);
  EXPECT_FALSE(rs.decode(std::vector<std::uint8_t>(4)).has_value());    // shorter than parity
  EXPECT_FALSE(rs.decode(std::vector<std::uint8_t>(300)).has_value());  // longer than field
}

TEST(FuzzyCommitmentTest, RecoverWithIdenticalKey) {
  crypto::Drbg rng(200);
  FuzzyCommitment fc(256, 4);
  crypto::Drbg key_rng(201);
  const BitVec key = key_rng.random_bits(256);
  const auto helper = fc.commit(key, rng);
  EXPECT_EQ(helper.size(), fc.helper_size());
  const auto recovered = fc.recover(helper, key);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, key);
}

TEST(FuzzyCommitmentTest, RecoverWithNoisyKeyWithinBudget) {
  crypto::Drbg rng(202);
  FuzzyCommitment fc(256, 6);
  const BitVec key = rng.random_bits(256);
  const auto helper = fc.commit(key, rng);

  // Corrupt 6 whole bytes of the key (worst-case byte-aligned damage).
  BitVec noisy = key;
  Rng sim_rng(77);
  for (int b = 0; b < 6; ++b) {
    const std::size_t byte = 5 * b;
    for (int i = 0; i < 8; ++i) noisy.set(byte * 8 + i, !noisy.get(byte * 8 + i));
  }
  const auto recovered = fc.recover(helper, noisy);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, key);
}

TEST(FuzzyCommitmentTest, FailsBeyondBudget) {
  crypto::Drbg rng(203);
  FuzzyCommitment fc(256, 2);
  const BitVec key = rng.random_bits(256);
  const auto helper = fc.commit(key, rng);
  // Corrupt 12 bytes: far beyond the 2-byte budget.
  BitVec noisy = key;
  for (int byte = 0; byte < 12; ++byte)
    for (int i = 0; i < 8; ++i) noisy.set(byte * 16 + i, !noisy.get(byte * 16 + i));
  const auto recovered = fc.recover(helper, noisy);
  if (recovered.has_value()) {
    EXPECT_NE(*recovered, key);  // no silent success
  }
}

TEST(FuzzyCommitmentTest, LongKeysSpanMultipleChunks) {
  crypto::Drbg rng(204);
  FuzzyCommitment fc(2048, 8);
  EXPECT_GT(fc.num_chunks(), 1u);
  const BitVec key = rng.random_bits(2048);
  const auto helper = fc.commit(key, rng);

  BitVec noisy = key;
  // Flip 8 bytes clustered at a chunk boundary region.
  for (int byte = 120; byte < 128; ++byte)
    for (int i = 0; i < 8; ++i) noisy.set(byte * 8 + i, !noisy.get(byte * 8 + i));
  const auto recovered = fc.recover(helper, noisy);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, key);
}

TEST(FuzzyCommitmentTest, HelperDoesNotExposeKeyDirectly) {
  // delta = key XOR codeword; with a random codeword the helper must not
  // equal the raw key bytes.
  crypto::Drbg rng(205);
  FuzzyCommitment fc(128, 3);
  const BitVec key = rng.random_bits(128);
  const auto helper = fc.commit(key, rng);
  const auto key_bytes = key.to_bytes();
  EXPECT_FALSE(std::equal(key_bytes.begin(), key_bytes.end(), helper.begin()));
}

TEST(FuzzyCommitmentTest, DistinctCommitmentsOfSameKey) {
  // Fresh codeword randomness per commitment: committing twice must give
  // different helpers (unlinkability across sessions).
  crypto::Drbg rng(206);
  FuzzyCommitment fc(128, 3);
  const BitVec key = rng.random_bits(128);
  EXPECT_NE(fc.commit(key, rng), fc.commit(key, rng));
}

TEST(FuzzyCommitmentTest, RejectsMalformedInputs) {
  crypto::Drbg rng(207);
  FuzzyCommitment fc(128, 3);
  EXPECT_THROW(FuzzyCommitment(0, 3), std::invalid_argument);
  EXPECT_THROW(FuzzyCommitment(128, 200), std::invalid_argument);
  EXPECT_THROW(fc.commit(rng.random_bits(64), rng), std::invalid_argument);
  const BitVec key = rng.random_bits(128);
  const auto helper = fc.commit(key, rng);
  EXPECT_FALSE(fc.recover(std::vector<std::uint8_t>(3), key).has_value());
  EXPECT_FALSE(fc.recover(helper, rng.random_bits(64)).has_value());
}

}  // namespace
}  // namespace wavekey::ecc

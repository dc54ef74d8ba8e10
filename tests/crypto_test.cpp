// Tests for the crypto substrate: SHA-256 / HMAC against published vectors,
// ChaCha20 against the RFC 8439 vector, field arithmetic properties in
// F_{2^255-19}, and the stream cipher. The OT built on them is tested through
// its pad roles in protocol_test.cpp (PadExchangeTest).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "crypto/chacha20.hpp"
#include "crypto/drbg.hpp"
#include "crypto/field25519.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/stream_cipher.hpp"
#include "reference_kernels.hpp"

namespace wavekey::crypto {
namespace {

std::vector<std::uint8_t> ascii(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

TEST(Sha256Test, EmptyStringVector) {
  EXPECT_EQ(hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, AbcVector) {
  EXPECT_EQ(hex(Sha256::hash(ascii("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockVector) {
  EXPECT_EQ(hex(Sha256::hash(ascii("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const auto data = ascii("the quick brown fox jumps over the lazy dog multiple times over");
  Sha256 h;
  for (std::size_t i = 0; i < data.size(); i += 7)
    h.update(std::span(data).subspan(i, std::min<std::size_t>(7, data.size() - i)));
  EXPECT_EQ(h.finalize(), Sha256::hash(data));
}

TEST(Sha256Test, UpdateAfterFinalizeThrows) {
  Sha256 h;
  h.update(ascii("x"));
  (void)h.finalize();
  EXPECT_THROW(h.update(ascii("y")), std::logic_error);
  EXPECT_THROW(h.finalize(), std::logic_error);
  h.reset();
  EXPECT_EQ(h.finalize(), Sha256::hash({}));
}

TEST(Sha256Test, PortablePinnedKernelMatchesDispatchedKernel) {
  // In-process differential between the portable compression loop (dispatch
  // pinned to the scalar tier) and whatever kernel the dispatcher picks
  // (SHA-NI where available): every length from 0 to beyond two blocks,
  // covering all padding branches.
  Drbg rng(7331);
  for (std::size_t len = 0; len <= 160; ++len) {
    std::vector<std::uint8_t> data(len);
    rng.random_bytes(data);
    Digest256 portable;
    {
      reference::PortableKernelScope scalar;
      portable = Sha256::hash(data);
    }
    EXPECT_EQ(portable, Sha256::hash(data)) << "len " << len;
  }
}

TEST(Sha256Test, ResumeFromMidstateMatchesOneShot) {
  // Absorb k whole blocks, take the midstate, resume in a fresh hasher: the
  // digest equals hashing the whole message in one go, for every tail length.
  Drbg rng(7333);
  for (std::size_t blocks : {1u, 2u}) {
    for (std::size_t tail = 0; tail <= 130; ++tail) {
      std::vector<std::uint8_t> data(blocks * 64 + tail);
      rng.random_bytes(data);
      const std::span<const std::uint8_t> all(data);
      Sha256 head;
      head.update(all.first(blocks * 64));
      Sha256 resumed = Sha256::resume(head.midstate(), blocks);
      resumed.update(all.subspan(blocks * 64));
      EXPECT_EQ(resumed.finalize(), Sha256::hash(data)) << blocks << " blocks, tail " << tail;
    }
  }
}

TEST(Sha256Test, MidstateOffABlockBoundaryThrows) {
  Sha256 h;
  h.update(ascii("abc"));
  EXPECT_THROW(h.midstate(), std::logic_error);
  Sha256 done;
  (void)done.finalize();
  EXPECT_THROW(done.midstate(), std::logic_error);
}

TEST(HmacTest, PortableHmacMatchesDispatchedHmac) {
  Drbg rng(7332);
  for (std::size_t len : {0u, 1u, 31u, 63u, 64u, 65u, 200u}) {
    std::vector<std::uint8_t> key(32), data(len);
    rng.random_bytes(key);
    rng.random_bytes(data);
    Digest256 want;
    {
      reference::PortableKernelScope scalar;
      want = reference::hmac_sha256_textbook(key, data);
    }
    EXPECT_EQ(hmac_sha256(key, data), want) << "len " << len;
  }
}

TEST(HmacTest, Rfc4231Case1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  EXPECT_EQ(hex(hmac_sha256(key, ascii("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(hex(hmac_sha256(ascii("Jefe"), ascii("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsPrehashed) {
  // RFC 4231 case 6: 131-byte key of 0xaa.
  const std::vector<std::uint8_t> key(131, 0xaa);
  EXPECT_EQ(hex(hmac_sha256(key, ascii("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DigestEqualConstantTimeSemantics) {
  Digest256 a{}, b{};
  EXPECT_TRUE(digest_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(ChaCha20Test, Rfc8439KeystreamBlock) {
  // RFC 8439 section 2.3.2: key = 00..1f, nonce = 00:00:00:09:00:00:00:4a:
  // 00:00:00:00, counter = 1.
  std::array<std::uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  const std::array<std::uint8_t, 12> nonce{0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  ChaCha20 c(key, nonce, 1);
  std::array<std::uint8_t, 64> ks;
  c.keystream(ks);
  EXPECT_EQ(hex(std::span(ks).first(16)), "10f1e7e4d13b5915500fdd1fa32071c4");
  EXPECT_EQ(hex(std::span(ks).subspan(48, 16)), "b5129cd1de164eb9cbd083e8a2503c4e");
}

// Draws are served from a one-block buffer; any split pattern must give the
// same stream as one-byte-at-a-time consumption.
TEST(ChaChaSimd, KeystreamChunkingInvariant) {
  const std::vector<std::uint8_t> key(32, 0x42);
  const std::vector<std::uint8_t> nonce(12, 0x24);
  std::vector<std::uint8_t> want(641);
  {
    ChaCha20 ref(key, nonce, 7);
    for (auto& b : want) {
      std::uint8_t one;
      ref.keystream({&one, 1});
      b = one;
    }
  }
  for (std::size_t chunk : {1UL, 3UL, 63UL, 64UL, 65UL, 127UL, 256UL, 641UL}) {
    ChaCha20 c(key, nonce, 7);
    std::vector<std::uint8_t> got(want.size());
    for (std::size_t pos = 0; pos < got.size(); pos += chunk) {
      const std::size_t n = std::min(chunk, got.size() - pos);
      c.keystream({got.data() + pos, n});
    }
    EXPECT_EQ(got, want) << "chunk=" << chunk;
  }
}

// The 32-bit block counter wraps: the block after counter 2^32 - 1 is the
// block at counter 0.
TEST(ChaCha20Test, CounterWrapsModulo2To32) {
  const std::vector<std::uint8_t> key(32, 0x11), nonce(12, 0x22);
  std::array<std::uint8_t, 128> wrapped;
  ChaCha20(key, nonce, 0xFFFFFFFFu).keystream(wrapped);
  std::array<std::uint8_t, 64> first;
  ChaCha20(key, nonce, 0).keystream(first);
  EXPECT_TRUE(std::equal(first.begin(), first.end(), wrapped.begin() + 64));
}

TEST(ChaCha20Test, RejectsBadKeyNonceSizes) {
  const std::vector<std::uint8_t> short_key(31), nonce(12), key(32), short_nonce(11);
  EXPECT_THROW(ChaCha20(short_key, nonce), std::invalid_argument);
  EXPECT_THROW(ChaCha20(key, short_nonce), std::invalid_argument);
}

TEST(DrbgTest, DeterministicWithSeedAndDistinctAcrossSeeds) {
  Drbg a(42), b(42), c(43);
  std::array<std::uint8_t, 32> ba{}, bb{}, bc{};
  a.random_bytes(ba);
  b.random_bytes(bb);
  c.random_bytes(bc);
  EXPECT_EQ(ba, bb);
  EXPECT_NE(ba, bc);
}

TEST(DrbgTest, RandomBitsLengthAndVariety) {
  Drbg d(1);
  const BitVec bits = d.random_bits(1000);
  EXPECT_EQ(bits.size(), 1000u);
  // Should be roughly balanced.
  EXPECT_GT(bits.popcount(), 400u);
  EXPECT_LT(bits.popcount(), 600u);
}

TEST(DrbgTest, KeystreamGolden) {
  // SHA-256 of the Drbg output over a fixed draw pattern. The sizes cross
  // every split of the keystream into blocks: sub-block draws served from
  // the buffered block, draws ending exactly on a block edge, draws that
  // straddle one, and multi-block runs.
  const std::size_t kDraws[] = {1, 6, 32, 63, 64, 65, 128, 1000, 4096};
  const auto digest = [&](std::uint64_t seed) {
    Drbg rng(seed);
    Sha256 h;
    for (const std::size_t n : kDraws) {
      std::vector<std::uint8_t> out(n);
      rng.random_bytes(out);
      h.update(out);
    }
    return hex(h.finalize());
  };
  EXPECT_EQ(digest(1), "0a277c3e93487118d8577cfa1f617b97ae11fa900f77fcdac2a6719e9bcd8ffb");
  EXPECT_EQ(digest(7919), "afc0f864edcba85e6935871f54caf21afa4e80bb965535dc51cd544405c6b87c");
}

TEST(Fe25519Test, SmallValueArithmetic) {
  const Fe25519 a(7), b(9);
  EXPECT_EQ(a + b, Fe25519(16));
  EXPECT_EQ(a * b, Fe25519(63));
  EXPECT_EQ(b - a, Fe25519(2));
  EXPECT_EQ(a - a, Fe25519::zero());
}

TEST(Fe25519Test, SubtractionWrapsModP) {
  const Fe25519 a(3), b(5);
  const Fe25519 d = a - b;  // == p - 2
  EXPECT_EQ(d + b, a);
}

TEST(Fe25519Test, MultiplicationCommutesAndAssociates) {
  Drbg rng(55);
  for (int i = 0; i < 25; ++i) {
    const Fe25519 x = Fe25519::from_bytes(rng.random_scalar_bytes());
    const Fe25519 y = Fe25519::from_bytes(rng.random_scalar_bytes());
    const Fe25519 z = Fe25519::from_bytes(rng.random_scalar_bytes());
    EXPECT_EQ(x * y, y * x);
    EXPECT_EQ((x * y) * z, x * (y * z));
    EXPECT_EQ(x * (y + z), x * y + x * z);
  }
}

TEST(Fe25519Test, FermatLittleTheorem) {
  // x^(p-1) == 1 for x != 0; p - 1 = 2^255 - 20.
  std::array<std::uint8_t, 32> pm1;
  pm1.fill(0xFF);
  pm1[0] = 0xEC;
  pm1[31] = 0x7F;
  Drbg rng(57);
  const Fe25519 x = Fe25519::from_bytes(rng.random_scalar_bytes());
  EXPECT_EQ(x.pow(pm1), Fe25519::one());
}

TEST(Fe25519Test, PowMatchesRepeatedMultiplication) {
  const Fe25519 g = Fe25519::generator();
  std::array<std::uint8_t, 32> e{};
  e[0] = 13;
  Fe25519 expected = Fe25519::one();
  for (int i = 0; i < 13; ++i) expected = expected * g;
  EXPECT_EQ(g.pow(e), expected);
}

TEST(Fe25519Test, PowLawComposition) {
  // (g^a)^b == (g^b)^a : the DH property the OT protocol rests on.
  Drbg rng(58);
  auto a = rng.random_scalar_bytes();
  auto b = rng.random_scalar_bytes();
  a[31] &= 0x7F;
  b[31] &= 0x7F;
  const Fe25519 g = Fe25519::generator();
  EXPECT_EQ(g.pow(a).pow(b), g.pow(b).pow(a));
}

TEST(Fe25519Test, WindowedPowMatchesSchoolbook) {
  // Random exponents plus the boundary patterns a 4-bit window can trip
  // on: zero (every window selects table entry 0), one, all-ones runs (every
  // window selects entry 15), a lone top bit, and p-2.
  Drbg rng(155);
  const Fe25519 g = Fe25519::generator();
  std::vector<std::vector<std::uint8_t>> exps;
  for (int i = 0; i < 12; ++i) exps.push_back(rng.random_scalar_bytes());
  std::vector<std::uint8_t> e(32, 0);
  exps.push_back(e);  // 0
  e[0] = 1;
  exps.push_back(e);  // 1
  e.assign(32, 0xFF);
  exps.push_back(e);  // 2^256 - 1
  e.assign(32, 0);
  e[31] = 0x80;
  exps.push_back(e);  // 2^255
  e.assign(32, 0xFF);
  e[0] = 0xEB;
  e[31] = 0x7F;
  exps.push_back(e);  // p - 2
  for (const auto& exp : exps) {
    EXPECT_EQ(g.pow(exp), reference::pow_schoolbook(g, exp));
    const Fe25519 x = Fe25519::from_bytes(rng.random_scalar_bytes());
    EXPECT_EQ(x.pow(exp), reference::pow_schoolbook(x, exp));
  }
}

TEST(Fe25519Test, GeneratorPowMatchesSchoolbook) {
  // Powers of the fixed generator as the OT computes them (g^a, g^b): one
  // pow_batch whose bases are all g, over two eight-lane groups and a
  // remainder.
  Drbg rng(156);
  const Fe25519 g = Fe25519::generator();
  std::vector<std::array<std::uint8_t, 32>> exps(19);
  for (auto& e : exps) rng.random_bytes(e);
  exps[3] = {};
  std::vector<Fe25519> powers(exps.size(), g);
  Fe25519::pow_batch(powers, exps, powers);
  for (std::size_t i = 0; i < exps.size(); ++i)
    EXPECT_EQ(powers[i], reference::pow_schoolbook(g, exps[i])) << "lane " << i;
  EXPECT_EQ(powers[3], Fe25519::one());
}

TEST(Fe25519Test, SquareMatchesMultiply) {
  Drbg rng(157);
  for (int i = 0; i < 25; ++i) {
    const Fe25519 x = Fe25519::from_bytes(rng.random_scalar_bytes());
    EXPECT_EQ(x.square(), x * x);
  }
  EXPECT_EQ(Fe25519::zero().square(), Fe25519::zero());
  EXPECT_EQ(Fe25519::one().square(), Fe25519::one());
}

TEST(Fe25519Test, ExponentArithmeticModGroupOrder) {
  // x^a * x^(2(p-1) - a) == 1 for nonzero x: exponents work mod the group
  // order p - 1, the identity behind the OT sender's k1 factor
  // M_a^(2(p-1) - a) = g^(-a^2). Includes a = 0 and the a >= p - 1 that an
  // exponent below 2^255 can take.
  const auto negate = [](const std::array<std::uint8_t, 32>& a) {
    std::array<std::uint8_t, 32> r;  // 2(p-1) - a, with 2(p-1) = 2^256 - 40
    int borrow = 0;
    for (int i = 0; i < 32; ++i) {
      const int d = (i == 0 ? 0xD8 : 0xFF) - a[i] - borrow;
      r[i] = static_cast<std::uint8_t>(d & 0xFF);
      borrow = d < 0;
    }
    return r;
  };
  Drbg rng(159);
  std::vector<std::array<std::uint8_t, 32>> exps(8);
  for (auto& a : exps) {
    rng.random_bytes(a);
    a[31] &= 0x7F;
  }
  exps.push_back({});  // 0
  std::array<std::uint8_t, 32> a;
  a.fill(0xFF);
  a[0] = 0xEC;
  a[31] = 0x7F;
  exps.push_back(a);  // p - 1
  a[0] = 0xFF;
  exps.push_back(a);  // 2^255 - 1
  const Fe25519 g = Fe25519::generator();
  for (const auto& e : exps) {
    const auto ne = negate(e);
    const Fe25519 x = Fe25519::from_bytes(rng.random_scalar_bytes());
    EXPECT_EQ(g.pow(e) * g.pow(ne), Fe25519::one());
    if (!x.is_zero()) {
      EXPECT_EQ(x.pow(e) * x.pow(ne), Fe25519::one());
    }
  }
}

TEST(Fe25519Test, BytesRoundTrip) {
  Drbg rng(59);
  for (int i = 0; i < 10; ++i) {
    const Fe25519 x = Fe25519::from_bytes(rng.random_scalar_bytes());
    EXPECT_EQ(Fe25519::from_bytes(x.to_bytes()), x);
  }
  EXPECT_THROW(Fe25519::from_bytes(std::vector<std::uint8_t>(31)), std::invalid_argument);
}

// --- known-answer vectors ----------------------------------------------------
//
// The expectations below do not come from Fe25519: they were computed once
// with Python's big integers by this script and pasted in (big-endian hex,
// as Fe25519::to_hex prints):
//
//   import random
//   p = 2**255 - 19
//   rng = random.Random(25519)
//   xs = [0, 1, 2, p - 2, p - 1, p, p + 1, 2**51 - 1, 2**255 - 1, 2**255, 2**256 - 1,
//         rng.getrandbits(256), rng.getrandbits(256), rng.getrandbits(256)]
//   es = [0, 1, p - 2, p - 1, 2**256 - 1, rng.getrandbits(255), rng.getrandbits(255)]
//   bases = [5, 2, p - 1, 2**255 - 1, 2**256 - 1, xs[-1]]
//   h = lambda v: '"%064x"' % (v % 2**256)
//   for i, x in enumerate(xs):
//       y = xs[(i + 1) % len(xs)]
//       print("    {" + ",\n     ".join(h(v) for v in (
//           x, x % p, x * x % p, x * y % p, (x + y) % p, (x - y) % p)) + "},")
//   for e in es:
//       print("    " + h(e) + ",")
//   for b in bases:
//       print("    {" + ",\n     ".join(h(pow(b, e, p)) for e in es) + "},")
//   x, y = 2**256 - 1, 2**255 - 1
//   for _ in range(1000):
//       x = x * x % p
//       y = y * x % p
//   print(h(x), h(y))
//
// Inputs cover 0, 1, 2, p-2, p-1 (= 2^255-20), non-canonical encodings
// (p, p+1, 2^255, 2^256-1), all-ones limbs (2^51-1, 2^255-1; 2^256-1 also
// fills the top limb to 52 bits, the largest one from_bytes makes) and
// random 256-bit values.

std::array<std::uint8_t, 32> bytes_from_hex(const char* be_hex) {
  std::array<std::uint8_t, 32> out{};
  const auto nibble = [](char c) { return c <= '9' ? c - '0' : c - 'a' + 10; };
  for (int i = 0; i < 32; ++i)
    out[31 - i] = static_cast<std::uint8_t>(nibble(be_hex[2 * i]) << 4 | nibble(be_hex[2 * i + 1]));
  return out;
}

Fe25519 fe_from_hex(const char* be_hex) { return Fe25519::from_bytes(bytes_from_hex(be_hex)); }

// x, x mod p, x^2, x*y, x+y, x-y (mod p), where y is the next row's x.
struct FieldKat {
  const char* x;
  const char* canonical;
  const char* square;
  const char* times_next;
  const char* plus_next;
  const char* minus_next;
};

constexpr FieldKat kFieldKats[] = {
    {"0000000000000000000000000000000000000000000000000000000000000000",
     "0000000000000000000000000000000000000000000000000000000000000000",
     "0000000000000000000000000000000000000000000000000000000000000000",
     "0000000000000000000000000000000000000000000000000000000000000000",
     "0000000000000000000000000000000000000000000000000000000000000001",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec"},
    {"0000000000000000000000000000000000000000000000000000000000000001",
     "0000000000000000000000000000000000000000000000000000000000000001",
     "0000000000000000000000000000000000000000000000000000000000000001",
     "0000000000000000000000000000000000000000000000000000000000000002",
     "0000000000000000000000000000000000000000000000000000000000000003",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec"},
    {"0000000000000000000000000000000000000000000000000000000000000002",
     "0000000000000000000000000000000000000000000000000000000000000002",
     "0000000000000000000000000000000000000000000000000000000000000004",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe9",
     "0000000000000000000000000000000000000000000000000000000000000000",
     "0000000000000000000000000000000000000000000000000000000000000004"},
    {"7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffeb",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffeb",
     "0000000000000000000000000000000000000000000000000000000000000004",
     "0000000000000000000000000000000000000000000000000000000000000002",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffea",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec"},
    {"7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec",
     "0000000000000000000000000000000000000000000000000000000000000001",
     "0000000000000000000000000000000000000000000000000000000000000000",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec"},
    {"7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed",
     "0000000000000000000000000000000000000000000000000000000000000000",
     "0000000000000000000000000000000000000000000000000000000000000000",
     "0000000000000000000000000000000000000000000000000000000000000000",
     "0000000000000000000000000000000000000000000000000000000000000001",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec"},
    {"7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffee",
     "0000000000000000000000000000000000000000000000000000000000000001",
     "0000000000000000000000000000000000000000000000000000000000000001",
     "0000000000000000000000000000000000000000000000000007ffffffffffff",
     "0000000000000000000000000000000000000000000000000008000000000000",
     "7ffffffffffffffffffffffffffffffffffffffffffffffffff7ffffffffffef"},
    {"0000000000000000000000000000000000000000000000000007ffffffffffff",
     "0000000000000000000000000000000000000000000000000007ffffffffffff",
     "000000000000000000000000000000000000003ffffffffffff0000000000001",
     "000000000000000000000000000000000000000000000000008fffffffffffee",
     "0000000000000000000000000000000000000000000000000008000000000011",
     "0000000000000000000000000000000000000000000000000007ffffffffffed"},
    {"7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "0000000000000000000000000000000000000000000000000000000000000012",
     "0000000000000000000000000000000000000000000000000000000000000144",
     "0000000000000000000000000000000000000000000000000000000000000156",
     "0000000000000000000000000000000000000000000000000000000000000025",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec"},
    {"8000000000000000000000000000000000000000000000000000000000000000",
     "0000000000000000000000000000000000000000000000000000000000000013",
     "0000000000000000000000000000000000000000000000000000000000000169",
     "00000000000000000000000000000000000000000000000000000000000002bf",
     "0000000000000000000000000000000000000000000000000000000000000038",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffdb"},
    {"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
     "0000000000000000000000000000000000000000000000000000000000000025",
     "0000000000000000000000000000000000000000000000000000000000000559",
     "46348305e409861b17b9be13d3c765e9a22dcfcda51eb6f5e459ae2d4c5610fd",
     "2108569174dda9adb4887ac243fe786042a74ace34e5278a1aedaac2f439ad8f",
     "5ef7a96e8b2256524b77853dbc01879fbd58b531cb1ad875e512553d0bc652a8"},
    {"2108569174dda9adb4887ac243fe786042a74ace34e5278a1aedaac2f439ad6a",
     "2108569174dda9adb4887ac243fe786042a74ace34e5278a1aedaac2f439ad6a",
     "7c7cf061dd82ab9d838776648ff374fad539da71fe13d333fcd2ef50da1b12f5",
     "5cf3e2c8570338387f4e7e4357be8303794eabe53431d20d0751c5a3da9f7a2c",
     "52f8b22229f97b4226e48d06ee6fa2077646d99880f036dab6ed3a8b3ce7d98d",
     "6f17fb00bfc1d819422c687d998d4eb90f07bc03e8da18397eee1afaab8b8134"},
    {"31f05b90b51bd194725c1244aa7129a7339f8eca4c0b0f509bff8fc848ae2c23",
     "31f05b90b51bd194725c1244aa7129a7339f8eca4c0b0f509bff8fc848ae2c23",
     "613a77824fed1d40c86c08172596ee768986efc05565e7ddd40df3d47407b1cb",
     "6f230f66bc32ca275c60763e6ef47cd020db6875545f8ba9a196f9a7eb17e798",
     "0e466be51403b7090422e82751587dd2ebe0d0dd72d0718af121198aa8aeec9b",
     "559a4b3c5633ec1fe0953c620389d57b7b5e4cb72545ad1646de0605e8ad6bab"},
    {"dc5610545ee7e57491c6d5e2a6e7542bb841421326c5623a552189c26000c052",
     "5c5610545ee7e57491c6d5e2a6e7542bb841421326c5623a552189c26000c065",
     "2b7ef80035ca6e23e601f7b60351863ebe3289c961199fe01cc9f62d24e79c12",
     "0000000000000000000000000000000000000000000000000000000000000000",
     "5c5610545ee7e57491c6d5e2a6e7542bb841421326c5623a552189c26000c065",
     "5c5610545ee7e57491c6d5e2a6e7542bb841421326c5623a552189c26000c065"},
};

constexpr const char* kKatExponents[] = {
    // 0, 1, p-2, p-1, 2^256-1, then two random 255-bit exponents.
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000001",
    "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffeb",
    "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec",
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
    "251492f5054732b434f878555a718699363bc45f6f18fdc7a061cc7ce4089ad9",
    "2b2d50c6745278598e9829cf6462ed2b972e3c6e03c57bcd9fbf459e6c010201",
};

// kPowKats[i][j] = kPowBases[i] ^ kKatExponents[j] mod p.
constexpr const char* kPowBases[] = {
    "0000000000000000000000000000000000000000000000000000000000000005",  // generator
    "0000000000000000000000000000000000000000000000000000000000000002",
    "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec",  // p-1
    "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",  // 2^255-1
    "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",  // 2^256-1
    "dc5610545ee7e57491c6d5e2a6e7542bb841421326c5623a552189c26000c052",  // last kFieldKats row
};

constexpr const char* kPowKats[6][7] = {
    {"0000000000000000000000000000000000000000000000000000000000000001",
     "0000000000000000000000000000000000000000000000000000000000000005",
     "1999999999999999999999999999999999999999999999999999999999999996",
     "0000000000000000000000000000000000000000000000000000000000000001",
     "000000000000000000000000000000000000000005e0a1fd2712875988becaad",
     "2574ab5916b2f474f23091fe895bac944a48e2d3c49eef8bda12b3f440afe947",
     "3a915dccf40394625e4b007e3727ff95e338ea83e8b371d6da20ee2fc8a2afca"},
    {"0000000000000000000000000000000000000000000000000000000000000001",
     "0000000000000000000000000000000000000000000000000000000000000002",
     "3ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7",
     "0000000000000000000000000000000000000000000000000000000000000001",
     "0000000000000000000000000000000000000000000000000000008000000000",
     "0ea72b1681c8e4f3d4d529be426e794e6e11916e1e1e33fc4615653a823a1e9b",
     "477b7845b0ebe6063217067cf47f51831415b6cb7a7b7a9a3281ed99361af943"},
    {"0000000000000000000000000000000000000000000000000000000000000001",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec",
     "0000000000000000000000000000000000000000000000000000000000000001",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec",
     "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffec"},
    {"0000000000000000000000000000000000000000000000000000000000000001",
     "0000000000000000000000000000000000000000000000000000000000000012",
     "238e38e38e38e38e38e38e38e38e38e38e38e38e38e38e38e38e38e38e38e389",
     "0000000000000000000000000000000000000000000000000000000000000001",
     "0000000000000000000000062d7f37f9815e5fca7ecc14ec3fa83c8000000000",
     "19935c3d701840edf83766b66511487736c25773286a8f67590291e1e0f40d6d",
     "1036d4912ec755805efa8f9d11fbf5eddec15decbc71b6a683cd62605e3a77ca"},
    {"0000000000000000000000000000000000000000000000000000000000000001",
     "0000000000000000000000000000000000000000000000000000000000000025",
     "5d67c8a60dd67c8a60dd67c8a60dd67c8a60dd67c8a60dd67c8a60dd67c8a600",
     "0000000000000000000000000000000000000000000000000000000000000001",
     "00000000000008fe03bbed444d55279b7245254c9527da5bfc7a30a306398a8d",
     "486b8d5d6c05ca813022df436cf4505ac0a73508b4e4b1ad64c85fa92f84aa1d",
     "73c45c2d7e4e46fcd221a3b71eeb225b88df502b5e13e871709993947a905c96"},
    {"0000000000000000000000000000000000000000000000000000000000000001",
     "5c5610545ee7e57491c6d5e2a6e7542bb841421326c5623a552189c26000c065",
     "2908c1789066c208ec3f188031788f54875122c6b7840af9dd3c2f5f9a46b3fc",
     "0000000000000000000000000000000000000000000000000000000000000001",
     "2229f92f67aba6c765c0e4d28c25edbd4c6f16c8af2aecbc0e2c0eaefb62d1dc",
     "76160aee6eaf1e2850c2c061b8c5ae52b0e2baaa7b10e86a35be5ac99742ad4e",
     "547f679d472a22eda3207933a1a281bed06f78796a476a09d253885ccbf49e04"},
};

TEST(Fe25519KatTest, ArithmeticMatchesBigIntegerVectors) {
  constexpr std::size_t n = std::size(kFieldKats);
  for (std::size_t i = 0; i < n; ++i) {
    const FieldKat& k = kFieldKats[i];
    const Fe25519 x = fe_from_hex(k.x);
    const Fe25519 y = fe_from_hex(kFieldKats[(i + 1) % n].x);
    SCOPED_TRACE(k.x);
    EXPECT_EQ(x.to_hex(), k.canonical);
    EXPECT_EQ(Fe25519::from_bytes(x.to_bytes()).to_hex(), k.canonical);
    EXPECT_EQ(x.square().to_hex(), k.square);
    EXPECT_EQ((x * x).to_hex(), k.square);
    EXPECT_EQ((x * y).to_hex(), k.times_next);
    EXPECT_EQ((y * x).to_hex(), k.times_next);
    EXPECT_EQ((x + y).to_hex(), k.plus_next);
    EXPECT_EQ((x - y).to_hex(), k.minus_next);
    EXPECT_TRUE(x == fe_from_hex(k.canonical));
    EXPECT_EQ(x.is_zero(), std::string(k.canonical) == std::string(64, '0'));
  }
}

TEST(Fe25519KatTest, ExponentiationMatchesBigIntegerVectors) {
  for (std::size_t i = 0; i < std::size(kPowBases); ++i) {
    const Fe25519 x = fe_from_hex(kPowBases[i]);
    for (std::size_t j = 0; j < std::size(kKatExponents); ++j) {
      SCOPED_TRACE(std::string(kPowBases[i]) + " ^ " + kKatExponents[j]);
      const auto e = bytes_from_hex(kKatExponents[j]);
      EXPECT_EQ(x.pow(e).to_hex(), kPowKats[i][j]);
    }
  }
}

TEST(Fe25519KatTest, LongChainOnLooseLimbsMatchesBigIntegers) {
  // 2000 dependent multiplies/squarings that never pass through a
  // canonicalizing call, starting from the largest limbs from_bytes makes.
  Fe25519 x = fe_from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  Fe25519 y = fe_from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  for (int i = 0; i < 1000; ++i) {
    x = x.square();
    y = y * x;
  }
  EXPECT_EQ(x.to_hex(), "6751d008d42b3a7ee148d24876fa21c9a985cf1e8ca6ea4fb617abde84a71489");
  EXPECT_EQ(y.to_hex(), "4f2f14da7d0e12ad6a43f74a861797ea8bbb5e95bd524bba9087ed68db11910e");
}

TEST(StreamCipherTest, RoundTripsAndDiffersFromPlaintext) {
  const auto key = ascii("0123456789abcdef0123456789abcdef");
  const auto msg = ascii("seventy-three bytes of highly sensitive key agreement pad material!!");
  const auto ct = stream_crypt(key, msg);
  EXPECT_NE(ct, msg);
  EXPECT_EQ(stream_crypt(key, ct), msg);
}

TEST(StreamCipherTest, DifferentKeysGiveDifferentCiphertexts) {
  const auto msg = ascii("payload");
  const auto c1 = stream_crypt(ascii("key-one"), msg);
  const auto c2 = stream_crypt(ascii("key-two"), msg);
  EXPECT_NE(c1, c2);
}

}  // namespace
}  // namespace wavekey::crypto

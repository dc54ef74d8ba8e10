// Wire-path coverage: WireReader span-lifetime safety over exactly-sized
// buffers (ASan-exact extents — any off-by-one read past a view's source
// trips the sanitizer leg), the external-sink WireWriter, and a
// 1000-mutation fuzz of the cluster frame/unframe round trip: corrupted
// frames resolve to typed errors only, never to a grant.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "crypto/drbg.hpp"
#include "protocol/wire.hpp"
#include "server/cluster.hpp"

using namespace wavekey;
using namespace wavekey::server;
using protocol::Bytes;
using protocol::WireError;
using protocol::WireReader;
using protocol::WireWriter;

namespace {

SessionKey test_key() {
  SessionKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i * 7 + 3);
  return key;
}

std::array<std::uint8_t, kNonceBytes> nonce_from(std::uint64_t v) {
  std::array<std::uint8_t, kNonceBytes> nonce{};
  for (std::size_t i = 0; i < nonce.size(); ++i)
    nonce[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return nonce;
}

/// Copies `bytes` into a heap allocation of EXACTLY that size, so any read
/// one byte past the span is an ASan heap-buffer-overflow, not a silent
/// over-read into vector slack capacity.
struct ExactBuffer {
  std::unique_ptr<std::uint8_t[]> storage;
  std::size_t size = 0;

  explicit ExactBuffer(const Bytes& bytes)
      : storage(new std::uint8_t[bytes.size()]), size(bytes.size()) {
    std::copy(bytes.begin(), bytes.end(), storage.get());
  }
  std::span<const std::uint8_t> span() const { return {storage.get(), size}; }
};

// --- WireReader views -------------------------------------------------------

TEST(WireReaderView, ViewAliasesTheSourceBuffer) {
  WireWriter w;
  w.u32(7);
  w.blob(Bytes{1, 2, 3, 4, 5});
  const Bytes wire = w.take();
  ExactBuffer exact(wire);

  WireReader r(exact.span());
  EXPECT_EQ(r.u32(), 7u);
  const std::span<const std::uint8_t> v = r.view_blob();
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v.data(), exact.span().data() + 8);  // zero-copy: same storage
  EXPECT_EQ(v[0], 1u);
  EXPECT_EQ(v[4], 5u);
  EXPECT_TRUE(r.done());
}

TEST(WireReaderView, ViewReadsExactExtentsOnly) {
  // The last view ends exactly at the buffer edge; under ASan a one-past
  // read inside view() would abort this test.
  Bytes payload(64);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i);
  ExactBuffer exact(payload);

  WireReader r(exact.span());
  const auto head = r.view(1);
  const auto rest = r.view(63);
  EXPECT_EQ(head[0], 0u);
  EXPECT_EQ(rest[62], 63u);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.view(1), WireError);  // past the end: typed, no read
}

TEST(WireReaderView, OversizedViewThrowsWithoutTouchingMemory) {
  Bytes small{1, 2, 3};
  ExactBuffer exact(small);
  WireReader r(exact.span());
  EXPECT_THROW(r.view(4), WireError);
  EXPECT_THROW(r.view_blob(), WireError);  // no 4-byte length prefix either
}

TEST(WireReaderView, BlobLengthBeyondBufferIsTyped) {
  WireWriter w;
  w.u32(1000);  // claims 1000 bytes; only 2 follow
  w.u8(0xAA);
  w.u8(0xBB);
  const Bytes wire = w.take();
  ExactBuffer exact(wire);
  WireReader r(exact.span());
  EXPECT_THROW(r.view_blob(), WireError);
}

TEST(WireReaderView, OwningAndViewFormsAgree) {
  WireWriter w;
  w.blob(Bytes{9, 8, 7});
  const Bytes wire = w.take();

  WireReader owning(wire);
  WireReader viewing(wire);
  const Bytes copied = owning.blob();
  const auto viewed = viewing.view_blob();
  ASSERT_EQ(copied.size(), viewed.size());
  EXPECT_TRUE(std::equal(copied.begin(), copied.end(), viewed.begin()));
}

// --- external-sink writer ---------------------------------------------------

TEST(WireWriterSink, SinkModeAppendsAndForbidsTake) {
  Bytes sink{0xFF};  // pre-existing content must be preserved
  WireWriter w(&sink);
  w.u8(1);
  w.u32(0x04030201u);
  ASSERT_EQ(sink.size(), 6u);
  EXPECT_EQ(sink[0], 0xFFu);
  EXPECT_EQ(sink[1], 1u);
  EXPECT_EQ(sink[2], 0x01u);
  EXPECT_THROW(w.take(), WireError);
}

TEST(WireWriterSink, SinkAndOwnedProduceIdenticalBytes) {
  const Bytes payload{1, 2, 3, 4, 5, 6, 7};
  WireWriter owned;
  owned.u8(42);
  owned.u64(0x1122334455667788ull);
  owned.blob(payload);
  Bytes sink;
  WireWriter sunk(&sink);
  sunk.u8(42);
  sunk.u64(0x1122334455667788ull);
  sunk.blob(payload);
  EXPECT_EQ(owned.take(), sink);
}

// --- 1000-mutation fuzz of the frame/unframe round trip ---------------------

class FrameFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterConfig config;
    config.nodes = 1;
    config.partitions = 8;
    cluster = std::make_unique<VaultCluster>(config);
    key = test_key();
    ASSERT_TRUE(cluster->install(kSid, key));
    inner = make_access_request(kSid, 0, 2, nonce_from(2), Bytes{0xD0}, key).serialize();
  }

  /// The serialized (unsealed) envelope for `request_id`.
  Bytes build_payload(std::uint64_t request_id) const {
    ClusterRequest envelope;
    envelope.request_id = request_id;
    envelope.tenant_id = 1;
    envelope.attempt = 0;
    envelope.inner = inner;
    return envelope.serialize();
  }

  static constexpr std::uint64_t kSid = 0x51D0001;
  std::unique_ptr<VaultCluster> cluster;
  SessionKey key;
  Bytes inner;
};

TEST_F(FrameFuzz, BaselineUnmutatedFrameGrants) {
  // Sanity for the fuzz below: the unmutated round trip DOES grant, so a
  // mutated frame slipping through to kGranted would be caught, not vacuous.
  Bytes frame = build_payload(1);
  frame_seal(frame);
  const auto payload = unframe_view(frame);
  ASSERT_TRUE(payload.has_value());
  const ClusterResponse resp = cluster->execute(ClusterRequest::parse(*payload));
  EXPECT_EQ(resp.status, AccessStatus::kGranted);
}

TEST_F(FrameFuzz, PostSealMutationsAreAllDroppedByTheCrc) {
  // Channel noise model: one flipped byte anywhere in a sealed frame. A
  // single-byte flip can never keep CRC32 consistent, so all 1000 mutants
  // must be dropped at unframe — the typed "corrupt" outcome.
  std::mt19937_64 rng(0xF00D);
  int dropped = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    Bytes frame = build_payload(100 + static_cast<std::uint64_t>(trial));
    frame_seal(frame);
    const std::size_t pos = rng() % frame.size();
    const std::uint8_t flip = static_cast<std::uint8_t>(1 + rng() % 255);
    frame[pos] ^= flip;
    if (!unframe_view(frame).has_value()) ++dropped;
  }
  EXPECT_EQ(dropped, 1000);
}

TEST_F(FrameFuzz, PreSealMutationsResolveTypedAndNeverGrant) {
  // Attacker model: the MAC-protected inner request (or its length framing)
  // is tampered with BEFORE the frame is sealed, so the CRC is consistent
  // and the corruption must be caught by parse (WireError) or by the vault
  // (kBadMac / kUnknownSession / ...). The envelope header fields
  // (request_id/tenant/attempt) are idempotency metadata, not authenticated
  // content, so the fuzz targets the authenticated region. Every mutant
  // uses a fresh request_id and the never-granted counter 2: a mutant that
  // somehow kept the MAC valid WOULD grant and fail the test.
  constexpr std::size_t kInnerFramingOffset = 1 + 8 + 8 + 4;  // tag+id+tenant+attempt
  std::mt19937_64 rng(0xBEEF);
  int wire_errors = 0;
  int vault_rejects = 0;
  int grants = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    Bytes frame = build_payload(5000 + static_cast<std::uint64_t>(trial));
    const std::size_t span = frame.size() - kInnerFramingOffset;  // length prefix + inner
    const std::size_t pos = kInnerFramingOffset + rng() % span;
    const std::uint8_t flip = static_cast<std::uint8_t>(1 + rng() % 255);
    frame[pos] ^= flip;
    frame_seal(frame);

    const auto payload = unframe_view(frame);
    ASSERT_TRUE(payload.has_value());  // CRC is consistent by construction
    try {
      const ClusterRequest envelope = ClusterRequest::parse(*payload);
      AccessRequest::parse(envelope.inner);  // may also throw: typed
      const ClusterResponse resp = cluster->execute(envelope);
      if (resp.status == AccessStatus::kGranted) {
        ++grants;
      } else {
        ++vault_rejects;
      }
    } catch (const WireError&) {
      ++wire_errors;
    }
  }
  EXPECT_EQ(grants, 0);
  EXPECT_EQ(wire_errors + vault_rejects, 1000);
  EXPECT_GT(wire_errors, 0);   // some mutants break framing ...
  EXPECT_GT(vault_rejects, 0); // ... and some survive to the MAC check
}

}  // namespace

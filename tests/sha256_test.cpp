#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"

#include "crypto/digest.hpp"

namespace clusterbft::crypto {
namespace {

// FIPS 180-4 / NIST CAVP reference vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  // 64 bytes: padding goes into a second block.
  const std::string s(64, 'x');
  EXPECT_EQ(to_hex(Sha256::hash(s)),
            to_hex([&] {
              Sha256 h;
              h.update(s.substr(0, 31));
              h.update(s.substr(31));
              return h.finalize();
            }()));
}

TEST(Sha256Test, StreamingEqualsOneShot) {
  const std::string data =
      "ClusterBFT verifies data-flow computations with digests.";
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    Sha256 h;
    h.update(data.substr(0, cut));
    h.update(data.substr(cut));
    EXPECT_EQ(h.finalize(), Sha256::hash(data)) << "cut at " << cut;
  }
}

TEST(Sha256Test, FinalizeTwiceThrows) {
  Sha256 h;
  h.update("x");
  h.finalize();
  EXPECT_THROW(h.finalize(), CheckError);
}

TEST(Sha256Test, UpdateAfterFinalizeThrows) {
  Sha256 h;
  h.finalize();
  EXPECT_THROW(h.update("x"), CheckError);
}

TEST(DigestTest, HexRoundTrip) {
  const Digest256 d = Digest256::of("hello");
  EXPECT_EQ(d.hex().size(), 64u);
  EXPECT_EQ(d, Digest256::of("hello"));
  EXPECT_NE(d, Digest256::of("hellp"));
}

TEST(DigestTest, OrderingIsTotal) {
  const Digest256 a = Digest256::of("a");
  const Digest256 b = Digest256::of("b");
  EXPECT_TRUE((a < b) || (b < a));
  EXPECT_FALSE(a < a);
}

TEST(ChunkedDigesterTest, SingleDigestByDefault) {
  ChunkedDigester d(0);
  d.add_record("one");
  d.add_record("two");
  const auto out = d.finish();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].chunk_index, 0u);
  EXPECT_EQ(out[0].record_count, 2u);
}

TEST(ChunkedDigesterTest, EmptyStreamStillEmitsOneDigest) {
  // The verifier must distinguish "empty output" from "no digest at all"
  // (an omission).
  ChunkedDigester d(0);
  const auto out = d.finish();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].record_count, 0u);
}

TEST(ChunkedDigesterTest, ChunksEveryDRecords) {
  ChunkedDigester d(2);
  for (int i = 0; i < 5; ++i) d.add_record("r" + std::to_string(i));
  const auto out = d.finish();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].record_count, 2u);
  EXPECT_EQ(out[1].record_count, 2u);
  EXPECT_EQ(out[2].record_count, 1u);
  EXPECT_EQ(out[2].chunk_index, 2u);
}

TEST(ChunkedDigesterTest, FramingIsUnambiguous) {
  // "ab"+"c" must not collide with "a"+"bc".
  ChunkedDigester d1(0);
  d1.add_record("ab");
  d1.add_record("c");
  ChunkedDigester d2(0);
  d2.add_record("a");
  d2.add_record("bc");
  EXPECT_NE(d1.finish()[0].digest, d2.finish()[0].digest);
}

TEST(ChunkedDigesterTest, DeterministicAcrossInstances) {
  auto run = [] {
    ChunkedDigester d(3);
    for (int i = 0; i < 10; ++i) d.add_record("record" + std::to_string(i));
    return d.finish();
  };
  EXPECT_EQ(run(), run());
}

/// The digests of `records` framed as ChunkedDigester frames them, but fed
/// to SHA-256 with two updates per record (the length, then the bytes)
/// and no staging.
std::vector<ChunkDigest> two_update_digests(
    const std::vector<std::string>& records, std::uint64_t per_digest) {
  std::vector<ChunkDigest> out;
  Sha256 h;
  std::uint64_t in_chunk = 0;
  const auto close = [&] {
    ChunkDigest cd;
    cd.chunk_index = out.size();
    cd.record_count = in_chunk;
    cd.digest = Digest256{h.finalize()};
    out.push_back(cd);
    h = Sha256();
    in_chunk = 0;
  };
  for (const std::string& r : records) {
    std::uint8_t len[8];
    for (int i = 0; i < 8; ++i) {
      len[i] = static_cast<std::uint8_t>(std::uint64_t{r.size()} >> (56 - 8 * i));
    }
    h.update(len, 8);
    h.update(r);
    if (++in_chunk == per_digest) close();
  }
  if (in_chunk > 0 || out.empty()) close();
  return out;
}

std::vector<ChunkDigest> staged_digests(const std::vector<std::string>& records,
                                        std::uint64_t per_digest) {
  ChunkedDigester d(per_digest);
  for (const std::string& r : records) d.add_record(r);
  return d.finish();
}

TEST(ChunkedDigesterTest, StagedDigestsEqualTwoUpdatesPerRecord) {
  const std::vector<std::size_t> sizes = {0, 1, 63, 64, 65, 4095, 4096, 10000};
  const auto record = [](std::size_t size, std::size_t salt) {
    std::string r(size, '\0');
    for (std::size_t i = 0; i < size; ++i) {
      r[i] = static_cast<char>((i * 131 + salt * 17) & 0xff);
    }
    return r;
  };
  for (const std::uint64_t d : {0u, 1u, 7u}) {
    // Streams of one record size, long enough to cross the stage's
    // flush threshold at shifting offsets.
    for (const std::size_t size : sizes) {
      for (const std::size_t count : {1u, 2u, 9u, 40u}) {
        SCOPED_TRACE("d " + std::to_string(d) + " size " +
                     std::to_string(size) + " count " + std::to_string(count));
        std::vector<std::string> records;
        for (std::size_t i = 0; i < count; ++i) records.push_back(record(size, i));
        EXPECT_EQ(staged_digests(records, d), two_update_digests(records, d));
      }
    }
    // Every size, interleaved.
    std::vector<std::string> mixed;
    for (std::size_t i = 0; i < 5 * sizes.size(); ++i) {
      mixed.push_back(record(sizes[(i * 3) % sizes.size()], i));
    }
    SCOPED_TRACE("mixed, d " + std::to_string(d));
    EXPECT_EQ(staged_digests(mixed, d), two_update_digests(mixed, d));
  }
  EXPECT_EQ(staged_digests({}, 3), two_update_digests({}, 3));
}

TEST(ChunkedDigesterTest, FinishTwiceThrows) {
  ChunkedDigester d(0);
  d.finish();
  EXPECT_THROW(d.finish(), CheckError);
}

}  // namespace
}  // namespace clusterbft::crypto

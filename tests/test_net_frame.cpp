// Frame-codec hardening (ISSUE 7 satellite): the length-prefixed framing is
// the first thing network bytes hit, so its decoder must be total under
// partial reads, split length prefixes, oversized claims and garbage -- every
// anomaly a counted drop, never an assert or UB. The sim's junk-flood
// adversary becomes a real threat model once frames cross a socket.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/serde.hpp"
#include "net/frame.hpp"

namespace tbft::net {
namespace {

using Frame = std::pair<FrameKind, std::vector<std::uint8_t>>;

std::vector<std::uint8_t> encode_frame(FrameKind kind,
                                       const std::vector<std::uint8_t>& payload) {
  // Sized once and copied into: growing a header-sized vector with insert
  // trips a false -Warray-bounds in GCC 12 at -O3.
  std::vector<std::uint8_t> out(kFrameHeaderBytes + payload.size());
  put_frame_header(out.data(), kind, static_cast<std::uint32_t>(payload.size()));
  std::copy(payload.begin(), payload.end(), out.begin() + kFrameHeaderBytes);
  return out;
}

/// Feed `stream` to a decoder in chunks of `chunk` bytes; collect frames.
struct FeedResult {
  std::vector<Frame> frames;
  bool ok{true};
  FrameDecoder::Counters counters;
};
FeedResult feed_chunked(const std::vector<std::uint8_t>& stream, std::size_t chunk,
                 FrameDecoder::Limits limits = {}) {
  FrameDecoder dec(limits);
  FeedResult res;
  const auto sink = [&](FrameKind k, std::vector<std::uint8_t>&& body) {
    res.frames.emplace_back(k, std::move(body));
  };
  for (std::size_t i = 0; i < stream.size() && res.ok; i += chunk) {
    const std::size_t n = std::min(chunk, stream.size() - i);
    res.ok = dec.feed(std::span<const std::uint8_t>(stream.data() + i, n), sink);
  }
  dec.finish();
  res.counters = dec.counters();
  return res;
}

TEST(FrameCodec, RoundTripsFramesAcrossEveryChunkSize) {
  std::vector<std::uint8_t> stream;
  const std::vector<std::uint8_t> a{1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> b;  // empty payload (ping-shaped data)
  std::vector<std::uint8_t> c(300);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = static_cast<std::uint8_t>(i * 7);
  for (const auto& f : {encode_frame(FrameKind::kData, a), encode_frame(FrameKind::kPing, b),
                        encode_frame(FrameKind::kData, c)}) {
    stream.insert(stream.end(), f.begin(), f.end());
  }
  // chunk = 1 splits every length prefix; larger chunks split bodies; a
  // whole-stream chunk exercises multiple frames per feed.
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                  std::size_t{7}, std::size_t{64}, stream.size()}) {
    const FeedResult res = feed_chunked(stream, chunk);
    ASSERT_TRUE(res.ok) << "chunk " << chunk;
    ASSERT_EQ(res.frames.size(), 3u) << "chunk " << chunk;
    EXPECT_EQ(res.frames[0], Frame(FrameKind::kData, a));
    EXPECT_EQ(res.frames[1], Frame(FrameKind::kPing, b));
    EXPECT_EQ(res.frames[2], Frame(FrameKind::kData, c));
    EXPECT_EQ(res.counters.frames, 3u);
    EXPECT_EQ(res.counters.bytes, stream.size());
    EXPECT_EQ(res.counters.dropped_truncated, 0u);
  }
}

/// A data frame as the socket host writes it: put_data_header + message.
std::vector<std::uint8_t> encode_data(std::uint32_t route,
                                      const std::vector<std::uint8_t>& message) {
  std::vector<std::uint8_t> out(kMaxDataHeaderBytes);
  out.resize(put_data_header(out.data(), route, static_cast<std::uint32_t>(message.size())));
  out.insert(out.end(), message.begin(), message.end());
  return out;
}

TEST(FrameCodec, RoutedDataFramesRoundTripAcrossEveryChunkSize) {
  const std::vector<std::uint8_t> m1{7, 7, 7};
  std::vector<std::uint8_t> m2(200);
  for (std::size_t i = 0; i < m2.size(); ++i) m2[i] = static_cast<std::uint8_t>(i * 13);
  // Route 0 is elided: byte-identical to an unrouted kData frame.
  EXPECT_EQ(encode_data(0, m1), encode_frame(FrameKind::kData, m1));

  const std::uint32_t routes[] = {1, 127, 128, 300, 0xFFFFFFFFu};
  std::vector<std::uint8_t> stream;
  for (const std::uint32_t r : routes) {
    const auto f = encode_data(r, r % 2 == 0 ? m2 : m1);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  EXPECT_EQ(encode_data(0xFFFFFFFFu, m1).size(), kMaxDataHeaderBytes + m1.size());
  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    FeedResult res = feed_chunked(stream, chunk);
    ASSERT_TRUE(res.ok) << "chunk " << chunk;
    ASSERT_EQ(res.frames.size(), std::size(routes)) << "chunk " << chunk;
    for (std::size_t i = 0; i < std::size(routes); ++i) {
      auto& [kind, body] = res.frames[i];
      EXPECT_EQ(kind, FrameKind::kRouted);
      std::uint32_t route = 0;
      ASSERT_TRUE(take_route(body, route)) << "chunk " << chunk << " frame " << i;
      EXPECT_EQ(route, routes[i]);
      EXPECT_EQ(body, routes[i] % 2 == 0 ? m2 : m1);
    }
    EXPECT_EQ(res.counters.dropped_truncated, 0u);
  }
}

TEST(FrameCodec, MalformedRouteVarintsAreRejected) {
  std::uint32_t route = 0;
  std::vector<std::uint8_t> empty;
  EXPECT_FALSE(take_route(empty, route));
  std::vector<std::uint8_t> truncated{0x80, 0x80};  // continuation, then nothing
  EXPECT_FALSE(take_route(truncated, route));
  std::vector<std::uint8_t> overlong{0x81, 0x80, 0x80, 0x80, 0x80, 0x01, 9};  // 6 bytes
  EXPECT_FALSE(take_route(overlong, route));
  std::vector<std::uint8_t> too_big{0xFF, 0xFF, 0xFF, 0xFF, 0x1F, 9};  // 2^36 - 1
  EXPECT_FALSE(take_route(too_big, route));
  std::vector<std::uint8_t> max{0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 9};  // 2^32 - 1
  ASSERT_TRUE(take_route(max, route));
  EXPECT_EQ(route, 0xFFFFFFFFu);
  EXPECT_EQ(max, std::vector<std::uint8_t>{9});
}

TEST(FrameCodec, OversizedLengthPrefixPoisonsTheStream) {
  FrameDecoder::Limits limits;
  limits.max_payload_bytes = 64;
  std::vector<std::uint8_t> stream = encode_frame(FrameKind::kData, {9, 9});
  std::vector<std::uint8_t> big(kFrameHeaderBytes);
  put_frame_header(big.data(), FrameKind::kData, 65);  // one past the limit
  stream.insert(stream.end(), big.begin(), big.end());
  stream.push_back(0xAA);  // bytes after the lie must not be parsed

  const FeedResult res = feed_chunked(stream, 3, limits);
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.frames.size(), 1u);  // the honest frame before the lie
  EXPECT_EQ(res.counters.dropped_oversize, 1u);

  // A poisoned decoder refuses all further input.
  FrameDecoder dec(limits);
  std::vector<std::uint8_t> lie(kFrameHeaderBytes);
  put_frame_header(lie.data(), FrameKind::kData, 0xFFFFFFFFu);
  EXPECT_FALSE(dec.feed(lie, [](FrameKind, std::vector<std::uint8_t>&&) {}));
  EXPECT_TRUE(dec.poisoned());
  EXPECT_FALSE(dec.feed(encode_frame(FrameKind::kPing, {}),
                        [](FrameKind, std::vector<std::uint8_t>&&) {}));
  EXPECT_EQ(dec.counters().frames, 0u);
}

TEST(FrameCodec, UnknownKindIsACountedSkipNotAPoisoning) {
  std::vector<std::uint8_t> stream;
  std::vector<std::uint8_t> junk(kFrameHeaderBytes);
  put_frame_header(junk.data(), static_cast<FrameKind>(0x7F), 4);
  junk.insert(junk.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  stream.insert(stream.end(), junk.begin(), junk.end());
  const auto good = encode_frame(FrameKind::kData, {1, 2, 3});
  stream.insert(stream.end(), good.begin(), good.end());

  for (const std::size_t chunk : {std::size_t{1}, stream.size()}) {
    const FeedResult res = feed_chunked(stream, chunk);
    ASSERT_TRUE(res.ok);
    ASSERT_EQ(res.frames.size(), 1u);  // only the known frame is emitted
    EXPECT_EQ(res.frames[0], Frame(FrameKind::kData, std::vector<std::uint8_t>{1, 2, 3}));
    EXPECT_EQ(res.counters.dropped_unknown, 1u);
  }
}

TEST(FrameCodec, TruncatedFramesAreCountedAtStreamEnd) {
  // Cut mid-header (a split length prefix the peer never finishes)...
  {
    const auto f = encode_frame(FrameKind::kData, {1, 2, 3, 4});
    const std::vector<std::uint8_t> cut(f.begin(), f.begin() + 2);
    const FeedResult res = feed_chunked(cut, 1);
    EXPECT_TRUE(res.ok);
    EXPECT_TRUE(res.frames.empty());
    EXPECT_EQ(res.counters.dropped_truncated, 1u);
  }
  // ...and mid-body.
  {
    const auto f = encode_frame(FrameKind::kData, {1, 2, 3, 4});
    const std::vector<std::uint8_t> cut(f.begin(), f.end() - 1);
    const FeedResult res = feed_chunked(cut, 2);
    EXPECT_TRUE(res.ok);
    EXPECT_TRUE(res.frames.empty());
    EXPECT_EQ(res.counters.dropped_truncated, 1u);
  }
  // A cleanly ended stream counts nothing.
  {
    const FeedResult res = feed_chunked(encode_frame(FrameKind::kPong, {}), 1);
    EXPECT_EQ(res.counters.dropped_truncated, 0u);
    EXPECT_EQ(res.frames.size(), 1u);
  }
}

TEST(FrameCodec, ZeroLengthFrameAtBufferBoundaryIsEmitted) {
  // A zero-payload frame whose header lands exactly at the end of a read
  // must still be emitted (regression guard for the header/body handoff).
  const auto f = encode_frame(FrameKind::kPing, {});
  FrameDecoder dec;
  std::vector<Frame> frames;
  EXPECT_TRUE(dec.feed(f, [&](FrameKind k, std::vector<std::uint8_t>&& b) {
    frames.emplace_back(k, std::move(b));
  }));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, FrameKind::kPing);
  EXPECT_TRUE(frames[0].second.empty());
}

TEST(FrameCodec, GarbageStreamNeverEmitsAFakeHello) {
  // 4KiB of pseudo-random garbage: whatever the decoder makes of it, any
  // frame it emits must fail Hello validation -- the handshake layer's
  // decode is total too.
  std::vector<std::uint8_t> garbage(4096);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (auto& b : garbage) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  FrameDecoder dec(FrameDecoder::Limits{.max_payload_bytes = 1024});
  std::size_t hellos_accepted = 0;
  (void)dec.feed(garbage, [&](FrameKind k, std::vector<std::uint8_t>&& body) {
    if (k != FrameKind::kHello) return;
    serde::Reader r(body);
    const Hello h = Hello::decode(r);
    if (r.done() && h.magic == kHelloMagic) ++hellos_accepted;
  });
  dec.finish();
  EXPECT_EQ(hellos_accepted, 0u);
  // The garbage was consumed through some mix of counted outcomes -- no
  // silent path exists.
  const auto& c = dec.counters();
  EXPECT_GT(c.dropped_oversize + c.dropped_unknown + c.dropped_truncated + c.frames, 0u);
}

TEST(FrameCodec, HelloRoundTripAndRejections) {
  Hello h;
  h.node = 3;
  h.n = 7;
  const auto back = serde::roundtrip(h);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, h);

  serde::Writer w;
  Hello bad = h;
  bad.magic = 0x12345678;
  bad.encode(w);
  serde::Reader r(w.data());
  (void)Hello::decode(r);
  EXPECT_FALSE(r.ok());

  serde::Writer w2;
  Hello old = h;
  old.version = 0;
  old.encode(w2);
  serde::Reader r2(w2.data());
  (void)Hello::decode(r2);
  EXPECT_FALSE(r2.ok());
}

}  // namespace
}  // namespace tbft::net

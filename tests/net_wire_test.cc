// Wire-format coverage: encode/decode round-trips for every message type,
// and the robustness contract — truncated, oversized, and garbage frames
// come back as typed Status errors, never a crash, an over-read, or a bogus
// parse. The fuzz-ish sections drive DecodeFrame with random bytes and
// random mutations of valid frames.
#include "net/wire.h"

#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"

namespace vfl::net {
namespace {

using core::StatusCode;

/// Strips the length prefix and decodes what EncodeX produced.
core::StatusOr<Message> DecodeWhole(const std::string& frame) {
  EXPECT_GE(frame.size(), kLengthPrefixBytes + kPayloadHeaderBytes);
  return DecodeFrame(
      reinterpret_cast<const std::uint8_t*>(frame.data()) + kLengthPrefixBytes,
      frame.size() - kLengthPrefixBytes);
}

std::uint32_t PrefixOf(const std::string& frame) {
  std::uint32_t length = 0;
  for (std::size_t i = 0; i < kLengthPrefixBytes; ++i) {
    length |= static_cast<std::uint32_t>(
                  static_cast<std::uint8_t>(frame[i]))
              << (8 * i);
  }
  return length;
}

TEST(WireTest, LengthPrefixMatchesPayload) {
  HelloRequest hello;
  hello.request_id = 7;
  hello.client_name = "adversary";
  const std::string frame = EncodeHello(hello);
  EXPECT_EQ(PrefixOf(frame), frame.size() - kLengthPrefixBytes);
}

TEST(WireTest, HelloRoundTrip) {
  HelloRequest hello;
  hello.request_id = 42;
  hello.client_name = "remote-client";
  const auto decoded = DecodeWhole(EncodeHello(hello));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto* parsed = std::get_if<HelloRequest>(&*decoded);
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->request_id, 42u);
  EXPECT_EQ(parsed->client_name, "remote-client");
}

TEST(WireTest, HelloOkRoundTrip) {
  HelloResponse response;
  response.request_id = 3;
  response.client_id = 17;
  response.num_samples = 1000;
  response.num_classes = 4;
  const auto decoded = DecodeWhole(EncodeHelloOk(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto* parsed = std::get_if<HelloResponse>(&*decoded);
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->request_id, 3u);
  EXPECT_EQ(parsed->client_id, 17u);
  EXPECT_EQ(parsed->num_samples, 1000u);
  EXPECT_EQ(parsed->num_classes, 4u);
}

TEST(WireTest, PredictRoundTrip) {
  PredictRequest request;
  request.request_id = 9;
  request.client_id = 2;
  request.sample_ids = {5, 0, 5, 123456789};
  const auto decoded = DecodeWhole(EncodePredict(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto* parsed = std::get_if<PredictRequest>(&*decoded);
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->request_id, 9u);
  EXPECT_EQ(parsed->client_id, 2u);
  EXPECT_EQ(parsed->sample_ids, request.sample_ids);
}

TEST(WireTest, ScoresRoundTripIsBitExact) {
  ScoresResponse response;
  response.request_id = 11;
  response.scores = la::Matrix(2, 3);
  // Values that printf-style text encodings would mangle.
  const double values[] = {1.0 / 3.0, -0.0, 1e-308, 0.1 + 0.2, 1e300, -42.5};
  std::memcpy(response.scores.data(), values, sizeof(values));
  const auto decoded = DecodeWhole(EncodeScores(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto* parsed = std::get_if<ScoresResponse>(&*decoded);
  ASSERT_NE(parsed, nullptr);
  ASSERT_EQ(parsed->scores.rows(), 2u);
  ASSERT_EQ(parsed->scores.cols(), 3u);
  EXPECT_EQ(std::memcmp(parsed->scores.data(), values, sizeof(values)), 0);
}

TEST(WireTest, StatusRoundTripKeepsCodeAndMessage) {
  StatusResponse response;
  response.request_id = 13;
  response.status = core::Status::ResourceExhausted("budget gone");
  const auto decoded = DecodeWhole(EncodeStatus(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto* parsed = std::get_if<StatusResponse>(&*decoded);
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->request_id, 13u);
  EXPECT_EQ(parsed->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(parsed->status.message(), "budget gone");
}

TEST(WireTest, GetStatsRoundTrip) {
  GetStatsRequest request;
  request.request_id = 21;
  const auto decoded = DecodeWhole(EncodeGetStats(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto* parsed = std::get_if<GetStatsRequest>(&*decoded);
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->request_id, 21u);
}

TEST(WireTest, RetiredStatsReplyTypeIsAnUnknownType) {
  // Type 7 carried the retired text-payload stats reply; kGetStats is now
  // answered with kTimeseriesOk, and a type-7 frame is an unknown type.
  GetStatsRequest request;
  request.request_id = 21;
  std::string frame = EncodeGetStats(request);
  frame[kLengthPrefixBytes + 5] = 7;
  const auto decoded = DecodeWhole(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, FrameLengthValidationRejectsExtremes) {
  // Shorter than the fixed header: structurally impossible.
  EXPECT_EQ(ValidateFrameLength(0, kDefaultMaxFrameBytes).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ValidateFrameLength(kPayloadHeaderBytes - 1, kDefaultMaxFrameBytes)
          .code(),
      StatusCode::kInvalidArgument);
  // Oversized: rejected before any allocation.
  EXPECT_EQ(ValidateFrameLength(kDefaultMaxFrameBytes + 1,
                                kDefaultMaxFrameBytes)
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(
      ValidateFrameLength(kPayloadHeaderBytes, kDefaultMaxFrameBytes).ok());
}

TEST(WireTest, TruncatedFramesAreTypedErrors) {
  PredictRequest request;
  request.request_id = 1;
  request.client_id = 1;
  request.sample_ids = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::string frame = EncodePredict(request);
  const auto* payload =
      reinterpret_cast<const std::uint8_t*>(frame.data()) + kLengthPrefixBytes;
  const std::size_t payload_size = frame.size() - kLengthPrefixBytes;
  // Every possible truncation point fails cleanly.
  for (std::size_t cut = 0; cut < payload_size; ++cut) {
    const auto decoded = DecodeFrame(payload, cut);
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    const StatusCode code = decoded.status().code();
    EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                code == StatusCode::kOutOfRange)
        << "cut=" << cut << ": " << decoded.status().ToString();
  }
}

TEST(WireTest, CountThatExceedsPayloadIsOutOfRange) {
  PredictRequest request;
  request.request_id = 1;
  request.client_id = 1;
  request.sample_ids = {1, 2};
  std::string frame = EncodePredict(request);
  // Bump the id count field (first 4 body bytes) far past the actual
  // payload: a malicious length must not trigger a huge allocation or read.
  const std::size_t count_offset = kLengthPrefixBytes + kPayloadHeaderBytes;
  frame[count_offset] = static_cast<char>(0xff);
  frame[count_offset + 1] = static_cast<char>(0xff);
  frame[count_offset + 2] = static_cast<char>(0xff);
  frame[count_offset + 3] = static_cast<char>(0x7f);
  const auto decoded = DecodeWhole(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange);
}

TEST(WireTest, BadMagicVersionAndTypeAreInvalidArgument) {
  HelloRequest hello;
  hello.request_id = 1;
  hello.client_name = "x";
  const std::string good = EncodeHello(hello);

  std::string bad_magic = good;
  bad_magic[kLengthPrefixBytes] ^= 0x01;
  EXPECT_EQ(DecodeWhole(bad_magic).status().code(),
            StatusCode::kInvalidArgument);

  std::string bad_version = good;
  bad_version[kLengthPrefixBytes + 4] = 99;
  EXPECT_EQ(DecodeWhole(bad_version).status().code(),
            StatusCode::kInvalidArgument);

  std::string bad_type = good;
  bad_type[kLengthPrefixBytes + 5] = 77;
  EXPECT_EQ(DecodeWhole(bad_type).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, TrailingGarbageIsRejected) {
  HelloRequest hello;
  hello.request_id = 1;
  hello.client_name = "x";
  std::string frame = EncodeHello(hello);
  frame += "extra";
  EXPECT_EQ(DecodeFrame(reinterpret_cast<const std::uint8_t*>(frame.data()) +
                            kLengthPrefixBytes,
                        frame.size() - kLengthPrefixBytes)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, ScoresShapeOverflowIsRejectedNotAllocated) {
  // rows = cols = 0x80000000 makes cells*8 wrap a u64 to 0; a multiplying
  // size check would pass and la::Matrix would attempt a 2^62-double
  // allocation. The decoder must reject the shape with a typed error.
  ScoresResponse response;
  response.request_id = 1;
  response.scores = la::Matrix(0, 0);
  std::string frame = EncodeScores(response);
  const std::size_t body = kLengthPrefixBytes + kPayloadHeaderBytes;
  for (const std::size_t field : {body, body + 4}) {  // rows, cols
    frame[field] = '\0';
    frame[field + 1] = '\0';
    frame[field + 2] = '\0';
    frame[field + 3] = static_cast<char>(0x80);
  }
  const auto decoded = DecodeWhole(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange);
}

TEST(WireTest, RandomGarbageNeverCrashesTheDecoder) {
  core::Rng rng(20260726);
  for (int iter = 0; iter < 5000; ++iter) {
    const std::size_t size = rng.UniformInt(257);
    std::vector<std::uint8_t> bytes(size);
    for (std::uint8_t& b : bytes) {
      b = static_cast<std::uint8_t>(rng.UniformInt(256));
    }
    // Random bytes essentially never form a valid frame (the magic alone is
    // a 2^-32 accident); the contract under test is "typed error, no crash".
    const auto decoded = DecodeFrame(bytes.data(), bytes.size());
    if (decoded.ok()) continue;
    const StatusCode code = decoded.status().code();
    EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                code == StatusCode::kOutOfRange);
  }
}

TEST(WireTest, GetTimeseriesRoundTrip) {
  GetTimeseriesRequest request;
  request.request_id = 31;
  request.max_frames = 16;
  const auto decoded = DecodeWhole(EncodeGetTimeseries(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto* parsed = std::get_if<GetTimeseriesRequest>(&*decoded);
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->request_id, 31u);
  EXPECT_EQ(parsed->max_frames, 16u);
}

TEST(WireTest, TimeseriesOkRoundTripKeepsOpaqueFrames) {
  TimeseriesOkResponse response;
  response.request_id = 33;
  // Frame payloads are opaque to the wire layer: arbitrary bytes (NUL,
  // high-bit, empty entries) survive byte-exact and in order.
  response.frames.push_back(std::string("VTS1\x01\x07\0\xff\x80", 9));
  response.frames.push_back("");
  response.frames.push_back(std::string(300, '\x5a'));
  const auto decoded = DecodeWhole(EncodeTimeseriesOk(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto* parsed = std::get_if<TimeseriesOkResponse>(&*decoded);
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->request_id, 33u);
  EXPECT_EQ(parsed->frames, response.frames);
}

TEST(WireTest, TimeseriesOkEmptyRoundTrips) {
  TimeseriesOkResponse response;
  response.request_id = 2;
  const auto decoded = DecodeWhole(EncodeTimeseriesOk(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto* parsed = std::get_if<TimeseriesOkResponse>(&*decoded);
  ASSERT_NE(parsed, nullptr);
  EXPECT_TRUE(parsed->frames.empty());
}

TEST(WireTest, TruncatedTimeseriesFramesAreTypedErrors) {
  TimeseriesOkResponse response;
  response.request_id = 35;
  response.frames = {"one", "two-longer", std::string("\0\0\0", 3)};
  const std::string frame = EncodeTimeseriesOk(response);
  const auto* payload =
      reinterpret_cast<const std::uint8_t*>(frame.data()) + kLengthPrefixBytes;
  const std::size_t payload_size = frame.size() - kLengthPrefixBytes;
  for (std::size_t cut = 0; cut < payload_size; ++cut) {
    const auto decoded = DecodeFrame(payload, cut);
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
    const StatusCode code = decoded.status().code();
    EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                code == StatusCode::kOutOfRange)
        << "cut=" << cut << ": " << decoded.status().ToString();
  }
  const std::string get = EncodeGetTimeseries(GetTimeseriesRequest{});
  const auto* get_payload =
      reinterpret_cast<const std::uint8_t*>(get.data()) + kLengthPrefixBytes;
  for (std::size_t cut = 0; cut < get.size() - kLengthPrefixBytes; ++cut) {
    const auto decoded = DecodeFrame(get_payload, cut);
    ASSERT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

TEST(WireTest, TimeseriesCountThatExceedsPayloadIsOutOfRange) {
  TimeseriesOkResponse response;
  response.request_id = 5;
  response.frames = {"ab"};
  std::string frame = EncodeTimeseriesOk(response);
  // Bump the frame-count field (first 4 body bytes) far past the actual
  // payload: typed error, no huge allocation.
  const std::size_t count_offset = kLengthPrefixBytes + kPayloadHeaderBytes;
  frame[count_offset] = static_cast<char>(0xff);
  frame[count_offset + 1] = static_cast<char>(0xff);
  frame[count_offset + 2] = static_cast<char>(0xff);
  frame[count_offset + 3] = static_cast<char>(0x7f);
  const auto decoded = DecodeWhole(frame);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange);
}

TEST(WireTest, MutatedTimeseriesFramesNeverCrashTheDecoder) {
  TimeseriesOkResponse response;
  response.request_id = 99;
  for (int i = 0; i < 6; ++i) {
    response.frames.push_back(std::string(20 + i * 7, static_cast<char>(i)));
  }
  const std::string frame = EncodeTimeseriesOk(response);
  core::Rng rng(20260807);
  for (int iter = 0; iter < 10000; ++iter) {
    std::string mutated = frame;
    const std::size_t flips = 1 + rng.UniformInt(8);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos =
          kLengthPrefixBytes +
          rng.UniformInt(mutated.size() - kLengthPrefixBytes);
      mutated[pos] = static_cast<char>(rng.UniformInt(256));
    }
    const auto decoded = DecodeFrame(
        reinterpret_cast<const std::uint8_t*>(mutated.data()) +
            kLengthPrefixBytes,
        mutated.size() - kLengthPrefixBytes);
    if (!decoded.ok()) {
      const StatusCode code = decoded.status().code();
      EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kOutOfRange);
    }
  }
}

TEST(WireTest, DeadlineExceededStatusRoundTrips) {
  // The scrape timeout surfaces as kDeadlineExceeded; a server relaying such
  // a status must not have it collapse to kUnknown at the wire boundary.
  StatusResponse response;
  response.request_id = 41;
  response.status = core::Status::DeadlineExceeded("recv timed out");
  const auto decoded = DecodeWhole(EncodeStatus(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const auto* parsed = std::get_if<StatusResponse>(&*decoded);
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(parsed->status.message(), "recv timed out");
}

TEST(WireTest, MutatedValidFramesNeverCrashTheDecoder) {
  PredictRequest request;
  request.request_id = 77;
  request.client_id = 3;
  for (std::uint64_t id = 0; id < 32; ++id) request.sample_ids.push_back(id);
  const std::string frame = EncodePredict(request);

  core::Rng rng(4242);
  for (int iter = 0; iter < 5000; ++iter) {
    std::string mutated = frame;
    const std::size_t flips = 1 + rng.UniformInt(8);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos =
          kLengthPrefixBytes +
          rng.UniformInt(mutated.size() - kLengthPrefixBytes);
      mutated[pos] = static_cast<char>(rng.UniformInt(256));
    }
    // Decode must either succeed (mutation hit a value byte) or fail typed.
    const auto decoded = DecodeFrame(
        reinterpret_cast<const std::uint8_t*>(mutated.data()) +
            kLengthPrefixBytes,
        mutated.size() - kLengthPrefixBytes);
    if (!decoded.ok()) {
      const StatusCode code = decoded.status().code();
      EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                  code == StatusCode::kOutOfRange);
    }
  }
}

}  // namespace
}  // namespace vfl::net

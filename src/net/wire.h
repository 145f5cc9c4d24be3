#ifndef VFLFIA_NET_WIRE_H_
#define VFLFIA_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/status.h"
#include "la/matrix.h"

namespace vfl::net {

/// The vflfia wire protocol: length-prefixed, versioned binary frames over a
/// byte stream (TCP). Every frame is
///
///   u32 payload_length                      (little-endian, bytes following)
///   u32 magic      = 0x56464C4E ("VFLN")
///   u8  version    = kWireVersion
///   u8  type       (MessageType)
///   u16 reserved   = 0
///   u64 request_id (client-chosen; responses echo it)
///   u64 client_id  (server-assigned token; 0 before Hello)
///   ... type-specific body ...
///
/// All integers are little-endian fixed-width; doubles travel as their IEEE
/// 754 bit pattern in a u64, so confidence vectors round-trip bit-exactly —
/// the property the byte-identical-CSV-across-channels contract rests on.
/// Decoding is fully bounds-checked: truncated, oversized, or garbage frames
/// come back as typed Status errors (kInvalidArgument / kOutOfRange), never
/// a crash or an over-read.
inline constexpr std::uint32_t kWireMagic = 0x56464C4E;  // "VFLN"
inline constexpr std::uint8_t kWireVersion = 2;
/// Bytes of the length prefix itself.
inline constexpr std::size_t kLengthPrefixBytes = 4;
/// Fixed header bytes inside the payload (magic..client_id).
inline constexpr std::size_t kPayloadHeaderBytes = 4 + 1 + 1 + 2 + 8 + 8;
/// Default ceiling on one frame's payload; both sides reject larger length
/// prefixes before allocating anything.
inline constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{1} << 24;

enum class MessageType : std::uint8_t {
  /// Client -> server: register under a display name.
  kHello = 1,
  /// Server -> client: Hello accepted; carries the assigned client id and
  /// the served table's shape.
  kHelloOk = 2,
  /// Client -> server: predict a batch of sample ids (duplicates allowed).
  kPredict = 3,
  /// Server -> client: one score vector per requested id, in request order.
  kScores = 4,
  /// Server -> client: typed failure (budget exhausted, bad id, protocol
  /// error). Terminal for the request, not the connection — unless the
  /// request itself was unparseable.
  kStatus = 5,
  /// Client -> server: scrape the server's live metrics. Requires no Hello —
  /// observability must work on a fresh connection. Answered with a
  /// kTimeseriesOk carrying one cumulative frame (see kTimeseriesOk).
  kGetStats = 6,
  // 7 is retired and must not be reused: a type-7 frame decodes as an
  // unknown type.
  /// Client -> server: fetch the server's retained telemetry history (the
  /// TimeseriesCollector ring). Like kGetStats, requires no Hello.
  kGetTimeseries = 8,
  /// Server -> client: encoded obs::TimeseriesFrame payloads, oldest first,
  /// carried opaque (the timeseries codec validates on the consuming side).
  /// The reply to kGetTimeseries holds the ring's delta frames; the reply to
  /// kGetStats holds exactly one cumulative frame,
  /// `obs::DiffSnapshots({}, registry.Snapshot())`.
  kTimeseriesOk = 9,
};

struct HelloRequest {
  std::uint64_t request_id = 0;
  std::string client_name;
};

struct HelloResponse {
  std::uint64_t request_id = 0;
  std::uint64_t client_id = 0;
  std::uint64_t num_samples = 0;
  std::uint32_t num_classes = 0;
};

struct PredictRequest {
  std::uint64_t request_id = 0;
  std::uint64_t client_id = 0;
  std::vector<std::uint64_t> sample_ids;
};

struct ScoresResponse {
  std::uint64_t request_id = 0;
  la::Matrix scores;
};

struct StatusResponse {
  std::uint64_t request_id = 0;
  core::Status status;
};

struct GetStatsRequest {
  std::uint64_t request_id = 0;
};

struct GetTimeseriesRequest {
  std::uint64_t request_id = 0;
  /// Newest frames to return; 0 = every retained frame.
  std::uint32_t max_frames = 0;
};

struct TimeseriesOkResponse {
  std::uint64_t request_id = 0;
  /// One encoded obs::TimeseriesFrame per entry, oldest first.
  std::vector<std::string> frames;
};

/// One decoded inbound frame.
using Message =
    std::variant<HelloRequest, HelloResponse, PredictRequest, ScoresResponse,
                 StatusResponse, GetStatsRequest, GetTimeseriesRequest,
                 TimeseriesOkResponse>;

/// Encoders produce one complete frame, length prefix included, ready for a
/// single stream write.
std::string EncodeHello(const HelloRequest& message);
std::string EncodeHelloOk(const HelloResponse& message);
std::string EncodePredict(const PredictRequest& message);
std::string EncodeScores(const ScoresResponse& message);
std::string EncodeStatus(const StatusResponse& message);
std::string EncodeGetStats(const GetStatsRequest& message);
std::string EncodeGetTimeseries(const GetTimeseriesRequest& message);
std::string EncodeTimeseriesOk(const TimeseriesOkResponse& message);

/// Decodes one frame payload (the bytes after the length prefix). Every
/// error is a typed Status: kInvalidArgument for bad magic/version/type or a
/// body that does not parse, kOutOfRange for counts that exceed the payload.
core::StatusOr<Message> DecodeFrame(const std::uint8_t* payload,
                                    std::size_t size);

/// Validates a just-read length prefix against the frame ceiling before any
/// allocation happens. A payload shorter than the fixed header or longer
/// than `max_frame_bytes` is rejected.
core::Status ValidateFrameLength(std::uint32_t payload_length,
                                 std::size_t max_frame_bytes);

}  // namespace vfl::net

#endif  // VFLFIA_NET_WIRE_H_

#include "net/wire.h"

#include <cstring>

namespace vfl::net {

namespace {

/// Append-only little-endian writer; reserves the length prefix up front and
/// patches it on Finish().
class FrameWriter {
 public:
  explicit FrameWriter(MessageType type, std::uint64_t request_id,
                       std::uint64_t client_id) {
    bytes_.assign(kLengthPrefixBytes, '\0');
    PutU32(kWireMagic);
    PutU8(kWireVersion);
    PutU8(static_cast<std::uint8_t>(type));
    PutU16(0);  // reserved
    PutU64(request_id);
    PutU64(client_id);
  }

  void PutU8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void PutU16(std::uint16_t v) { PutLe(v, 2); }
  void PutU32(std::uint32_t v) { PutLe(v, 4); }
  void PutU64(std::uint64_t v) { PutLe(v, 8); }
  void PutDouble(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    PutU64(bits);
  }
  void PutBytes(const std::string& s) { bytes_.append(s); }

  std::string Finish() {
    const std::uint64_t payload = bytes_.size() - kLengthPrefixBytes;
    for (std::size_t i = 0; i < kLengthPrefixBytes; ++i) {
      bytes_[i] = static_cast<char>((payload >> (8 * i)) & 0xff);
    }
    return std::move(bytes_);
  }

 private:
  void PutLe(std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
      bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  std::string bytes_;
};

/// Bounds-checked little-endian reader over one frame payload.
class FrameReader {
 public:
  FrameReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  core::StatusOr<std::uint8_t> U8(const char* what) {
    VFL_RETURN_IF_ERROR(Require(1, what));
    return data_[pos_++];
  }
  core::StatusOr<std::uint16_t> U16(const char* what) { return Le<std::uint16_t>(2, what); }
  core::StatusOr<std::uint32_t> U32(const char* what) { return Le<std::uint32_t>(4, what); }
  core::StatusOr<std::uint64_t> U64(const char* what) { return Le<std::uint64_t>(8, what); }
  core::StatusOr<double> Double(const char* what) {
    VFL_ASSIGN_OR_RETURN(const std::uint64_t bits, U64(what));
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  core::StatusOr<std::string> Bytes(std::size_t n, const char* what) {
    VFL_RETURN_IF_ERROR(Require(n, what));
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return size_ - pos_; }

  core::Status ExpectDrained() const {
    if (pos_ != size_) {
      return core::Status::InvalidArgument(
          "frame has " + std::to_string(size_ - pos_) +
          " trailing byte(s) past the message body");
    }
    return core::Status::Ok();
  }

 private:
  core::Status Require(std::size_t n, const char* what) {
    if (size_ - pos_ < n) {
      return core::Status::InvalidArgument(
          std::string("truncated frame: need ") + std::to_string(n) +
          " byte(s) for " + what + ", have " + std::to_string(size_ - pos_));
    }
    return core::Status::Ok();
  }

  template <typename T>
  core::StatusOr<T> Le(std::size_t width, const char* what) {
    VFL_RETURN_IF_ERROR(Require(width, what));
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += width;
    return static_cast<T>(v);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Status codes travel as their enum value; anything past the known range is
/// a protocol error (a newer peer must bump kWireVersion instead).
constexpr std::uint32_t kMaxStatusCode =
    static_cast<std::uint32_t>(core::StatusCode::kDeadlineExceeded);

/// Rebuilds a typed Status from a validated wire code.
core::Status StatusFromWire(core::StatusCode code, std::string text) {
  switch (code) {
    case core::StatusCode::kOk:
      return core::Status::Ok();
    case core::StatusCode::kInvalidArgument:
      return core::Status::InvalidArgument(std::move(text));
    case core::StatusCode::kOutOfRange:
      return core::Status::OutOfRange(std::move(text));
    case core::StatusCode::kNotFound:
      return core::Status::NotFound(std::move(text));
    case core::StatusCode::kAlreadyExists:
      return core::Status::AlreadyExists(std::move(text));
    case core::StatusCode::kFailedPrecondition:
      return core::Status::FailedPrecondition(std::move(text));
    case core::StatusCode::kResourceExhausted:
      return core::Status::ResourceExhausted(std::move(text));
    case core::StatusCode::kInternal:
      return core::Status::Internal(std::move(text));
    case core::StatusCode::kUnimplemented:
      return core::Status::Unimplemented(std::move(text));
    case core::StatusCode::kIoError:
      return core::Status::IoError(std::move(text));
    case core::StatusCode::kDeadlineExceeded:
      return core::Status::DeadlineExceeded(std::move(text));
  }
  return core::Status::Internal("unreachable status code");
}

}  // namespace

std::string EncodeHello(const HelloRequest& message) {
  FrameWriter w(MessageType::kHello, message.request_id, /*client_id=*/0);
  w.PutU32(static_cast<std::uint32_t>(message.client_name.size()));
  w.PutBytes(message.client_name);
  return w.Finish();
}

std::string EncodeHelloOk(const HelloResponse& message) {
  FrameWriter w(MessageType::kHelloOk, message.request_id, message.client_id);
  w.PutU64(message.num_samples);
  w.PutU32(message.num_classes);
  return w.Finish();
}

std::string EncodePredict(const PredictRequest& message) {
  FrameWriter w(MessageType::kPredict, message.request_id, message.client_id);
  w.PutU32(static_cast<std::uint32_t>(message.sample_ids.size()));
  for (const std::uint64_t id : message.sample_ids) w.PutU64(id);
  return w.Finish();
}

std::string EncodeScores(const ScoresResponse& message) {
  FrameWriter w(MessageType::kScores, message.request_id, /*client_id=*/0);
  w.PutU32(static_cast<std::uint32_t>(message.scores.rows()));
  w.PutU32(static_cast<std::uint32_t>(message.scores.cols()));
  const double* data = message.scores.data();
  for (std::size_t i = 0; i < message.scores.size(); ++i) w.PutDouble(data[i]);
  return w.Finish();
}

std::string EncodeStatus(const StatusResponse& message) {
  FrameWriter w(MessageType::kStatus, message.request_id, /*client_id=*/0);
  w.PutU32(static_cast<std::uint32_t>(message.status.code()));
  const std::string& text = message.status.message();
  w.PutU32(static_cast<std::uint32_t>(text.size()));
  w.PutBytes(text);
  return w.Finish();
}

std::string EncodeGetStats(const GetStatsRequest& message) {
  FrameWriter w(MessageType::kGetStats, message.request_id, /*client_id=*/0);
  return w.Finish();
}

std::string EncodeGetTimeseries(const GetTimeseriesRequest& message) {
  FrameWriter w(MessageType::kGetTimeseries, message.request_id,
                /*client_id=*/0);
  w.PutU32(message.max_frames);
  return w.Finish();
}

std::string EncodeTimeseriesOk(const TimeseriesOkResponse& message) {
  FrameWriter w(MessageType::kTimeseriesOk, message.request_id,
                /*client_id=*/0);
  w.PutU32(static_cast<std::uint32_t>(message.frames.size()));
  for (const std::string& frame : message.frames) {
    w.PutU32(static_cast<std::uint32_t>(frame.size()));
    w.PutBytes(frame);
  }
  return w.Finish();
}

core::Status ValidateFrameLength(std::uint32_t payload_length,
                                 std::size_t max_frame_bytes) {
  if (payload_length < kPayloadHeaderBytes) {
    return core::Status::InvalidArgument(
        "frame payload of " + std::to_string(payload_length) +
        " byte(s) is shorter than the fixed header");
  }
  if (payload_length > max_frame_bytes) {
    return core::Status::OutOfRange(
        "frame payload of " + std::to_string(payload_length) +
        " bytes exceeds the " + std::to_string(max_frame_bytes) +
        "-byte frame ceiling");
  }
  return core::Status::Ok();
}

core::StatusOr<Message> DecodeFrame(const std::uint8_t* payload,
                                    std::size_t size) {
  FrameReader r(payload, size);
  VFL_ASSIGN_OR_RETURN(const std::uint32_t magic, r.U32("magic"));
  if (magic != kWireMagic) {
    return core::Status::InvalidArgument("bad frame magic");
  }
  VFL_ASSIGN_OR_RETURN(const std::uint8_t version, r.U8("version"));
  if (version != kWireVersion) {
    return core::Status::InvalidArgument(
        "unsupported wire version " + std::to_string(version) + " (expected " +
        std::to_string(kWireVersion) + ")");
  }
  VFL_ASSIGN_OR_RETURN(const std::uint8_t type, r.U8("message type"));
  VFL_ASSIGN_OR_RETURN(const std::uint16_t reserved, r.U16("reserved"));
  if (reserved != 0) {
    return core::Status::InvalidArgument("reserved header bytes are non-zero");
  }
  VFL_ASSIGN_OR_RETURN(const std::uint64_t request_id, r.U64("request id"));
  VFL_ASSIGN_OR_RETURN(const std::uint64_t client_id, r.U64("client id"));

  switch (static_cast<MessageType>(type)) {
    case MessageType::kHello: {
      VFL_ASSIGN_OR_RETURN(const std::uint32_t name_len, r.U32("name length"));
      if (name_len > r.remaining()) {
        return core::Status::OutOfRange("client name length exceeds frame");
      }
      HelloRequest message;
      message.request_id = request_id;
      VFL_ASSIGN_OR_RETURN(message.client_name,
                           r.Bytes(name_len, "client name"));
      VFL_RETURN_IF_ERROR(r.ExpectDrained());
      return Message(std::move(message));
    }
    case MessageType::kHelloOk: {
      HelloResponse message;
      message.request_id = request_id;
      message.client_id = client_id;
      VFL_ASSIGN_OR_RETURN(message.num_samples, r.U64("sample count"));
      VFL_ASSIGN_OR_RETURN(message.num_classes, r.U32("class count"));
      VFL_RETURN_IF_ERROR(r.ExpectDrained());
      return Message(std::move(message));
    }
    case MessageType::kPredict: {
      VFL_ASSIGN_OR_RETURN(const std::uint32_t count, r.U32("id count"));
      if (static_cast<std::size_t>(count) > r.remaining() / 8) {
        return core::Status::OutOfRange("sample-id count exceeds frame");
      }
      PredictRequest message;
      message.request_id = request_id;
      message.client_id = client_id;
      message.sample_ids.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        VFL_ASSIGN_OR_RETURN(const std::uint64_t id, r.U64("sample id"));
        message.sample_ids.push_back(id);
      }
      VFL_RETURN_IF_ERROR(r.ExpectDrained());
      return Message(std::move(message));
    }
    case MessageType::kScores: {
      VFL_ASSIGN_OR_RETURN(const std::uint32_t rows, r.U32("row count"));
      VFL_ASSIGN_OR_RETURN(const std::uint32_t cols, r.U32("column count"));
      const std::uint64_t cells =
          static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
      // Divide instead of multiplying: cells * 8 can wrap a u64 for crafted
      // rows/cols, which would skip the bound and attempt a huge allocation.
      if (cells > r.remaining() / 8) {
        return core::Status::OutOfRange("score matrix shape exceeds frame");
      }
      ScoresResponse message;
      message.request_id = request_id;
      message.scores = la::Matrix(rows, cols);
      double* data = message.scores.data();
      for (std::uint64_t i = 0; i < cells; ++i) {
        VFL_ASSIGN_OR_RETURN(data[i], r.Double("score"));
      }
      VFL_RETURN_IF_ERROR(r.ExpectDrained());
      return Message(std::move(message));
    }
    case MessageType::kGetStats: {
      GetStatsRequest message;
      message.request_id = request_id;
      VFL_RETURN_IF_ERROR(r.ExpectDrained());
      return Message(std::move(message));
    }
    case MessageType::kGetTimeseries: {
      GetTimeseriesRequest message;
      message.request_id = request_id;
      VFL_ASSIGN_OR_RETURN(message.max_frames, r.U32("max frame count"));
      VFL_RETURN_IF_ERROR(r.ExpectDrained());
      return Message(std::move(message));
    }
    case MessageType::kTimeseriesOk: {
      VFL_ASSIGN_OR_RETURN(const std::uint32_t count, r.U32("frame count"));
      // Each entry costs at least its 4-byte length field.
      if (static_cast<std::size_t>(count) > r.remaining() / 4) {
        return core::Status::OutOfRange("timeseries frame count exceeds frame");
      }
      TimeseriesOkResponse message;
      message.request_id = request_id;
      message.frames.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        VFL_ASSIGN_OR_RETURN(const std::uint32_t len,
                             r.U32("timeseries frame length"));
        if (len > r.remaining()) {
          return core::Status::OutOfRange(
              "timeseries frame length exceeds frame");
        }
        VFL_ASSIGN_OR_RETURN(std::string bytes,
                             r.Bytes(len, "timeseries frame"));
        message.frames.push_back(std::move(bytes));
      }
      VFL_RETURN_IF_ERROR(r.ExpectDrained());
      return Message(std::move(message));
    }
    case MessageType::kStatus: {
      VFL_ASSIGN_OR_RETURN(const std::uint32_t code, r.U32("status code"));
      if (code == 0 || code > kMaxStatusCode) {
        return core::Status::InvalidArgument(
            "status frame carries invalid code " + std::to_string(code));
      }
      VFL_ASSIGN_OR_RETURN(const std::uint32_t msg_len,
                           r.U32("status message length"));
      if (msg_len > r.remaining()) {
        return core::Status::OutOfRange("status message length exceeds frame");
      }
      VFL_ASSIGN_OR_RETURN(const std::string text,
                           r.Bytes(msg_len, "status message"));
      VFL_RETURN_IF_ERROR(r.ExpectDrained());
      StatusResponse message;
      message.request_id = request_id;
      message.status =
          StatusFromWire(static_cast<core::StatusCode>(code), text);
      return Message(std::move(message));
    }
  }
  return core::Status::InvalidArgument("unknown message type " +
                                       std::to_string(type));
}

}  // namespace vfl::net

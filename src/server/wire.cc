#include "src/server/wire.h"

#include <cstring>

namespace vqldb {
namespace server {

namespace {

// The wire format freezes the StatusCode enum values; a renumbering would be
// a protocol break, so pin the ones the taxonomy depends on.
static_assert(static_cast<int>(StatusCode::kOk) == 0);
static_assert(static_cast<int>(StatusCode::kParseError) == 6);
static_assert(static_cast<int>(StatusCode::kResourceExhausted) == 8);
static_assert(static_cast<int>(StatusCode::kDeadlineExceeded) == 13);
static_assert(static_cast<int>(StatusCode::kCancelled) == 14);
static_assert(static_cast<int>(StatusCode::kOverloaded) == 15);
static_assert(static_cast<int>(StatusCode::kUnavailable) == 16);

constexpr uint8_t kMaxWireCode = 16;

void AppendU32(uint32_t v, std::string* out) {
  char bytes[4];
  bytes[0] = static_cast<char>(v & 0xff);
  bytes[1] = static_cast<char>((v >> 8) & 0xff);
  bytes[2] = static_cast<char>((v >> 16) & 0xff);
  bytes[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(bytes, 4);
}

uint32_t ReadU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

}  // namespace

void AppendFrame(std::string_view payload, std::string* out) {
  AppendU32(kFrameMagic, out);
  AppendU32(static_cast<uint32_t>(payload.size()), out);
  out->append(payload.data(), payload.size());
}

std::string EncodeRequest(const Request& request) {
  std::string payload;
  payload.reserve(kRequestHeaderBytes + request.text.size());
  payload.push_back(static_cast<char>(request.type));
  payload.push_back(static_cast<char>(request.flags));
  AppendU32(request.deadline_ms, &payload);
  payload.append(request.text);
  std::string framed;
  framed.reserve(8 + payload.size());
  AppendFrame(payload, &framed);
  return framed;
}

std::string EncodeResponse(const Response& response) {
  // Framed in one pass, so the body is copied once: answers run to
  // hundreds of kilobytes.
  const size_t payload = kResponseHeaderBytes + response.body.size();
  std::string framed;
  framed.reserve(8 + payload);
  AppendU32(kFrameMagic, &framed);
  AppendU32(static_cast<uint32_t>(payload), &framed);
  framed.push_back(static_cast<char>(WireCodeOf(response.status)));
  framed.push_back(static_cast<char>(response.flags));
  framed.append(response.body);
  return framed;
}

DecodeResult DecodeFrame(std::string_view buffer, size_t offset,
                         std::string* payload, size_t* consumed) {
  if (offset > buffer.size()) return DecodeResult::kNeedMore;
  std::string_view rest = buffer.substr(offset);
  if (rest.size() < 8) {
    // Reject bad magic as soon as the prefix shows it, so garbage (e.g. an
    // unexpected plain-text client) is detected without waiting for 8 bytes.
    for (size_t i = 0; i < rest.size() && i < 4; ++i) {
      uint8_t expect = static_cast<uint8_t>((kFrameMagic >> (8 * i)) & 0xff);
      if (static_cast<uint8_t>(rest[i]) != expect) return DecodeResult::kBad;
    }
    return DecodeResult::kNeedMore;
  }
  if (ReadU32(rest.data()) != kFrameMagic) return DecodeResult::kBad;
  uint32_t len = ReadU32(rest.data() + 4);
  if (len > kMaxPayloadBytes) return DecodeResult::kBad;
  if (rest.size() < 8 + static_cast<size_t>(len)) return DecodeResult::kNeedMore;
  payload->assign(rest.data() + 8, len);
  *consumed = 8 + static_cast<size_t>(len);
  return DecodeResult::kOk;
}

Status ParseRequest(std::string_view payload, Request* request) {
  if (payload.size() < kRequestHeaderBytes) {
    return Status::Corruption("request payload shorter than its header");
  }
  uint8_t type = static_cast<uint8_t>(payload[0]);
  if (type < static_cast<uint8_t>(MsgType::kQuery) ||
      type > static_cast<uint8_t>(MsgType::kAdmin)) {
    return Status::Corruption("unknown request type " + std::to_string(type));
  }
  request->type = static_cast<MsgType>(type);
  request->flags = static_cast<uint8_t>(payload[1]);
  request->deadline_ms = ReadU32(payload.data() + 2);
  request->text.assign(payload.substr(kRequestHeaderBytes));
  return Status::OK();
}

Status ParseResponse(std::string_view payload, Response* response) {
  if (payload.size() < kResponseHeaderBytes) {
    return Status::Corruption("response payload shorter than its header");
  }
  response->status = StatusCodeFromWire(static_cast<uint8_t>(payload[0]));
  response->flags = static_cast<uint8_t>(payload[1]);
  response->body.assign(payload.substr(kResponseHeaderBytes));
  return Status::OK();
}

uint8_t WireCodeOf(StatusCode code) {
  int v = static_cast<int>(code);
  if (v < 0 || v > kMaxWireCode) return static_cast<uint8_t>(StatusCode::kInternal);
  return static_cast<uint8_t>(v);
}

StatusCode StatusCodeFromWire(uint8_t wire) {
  if (wire > kMaxWireCode) return StatusCode::kInternal;
  return static_cast<StatusCode>(wire);
}

Status StatusFromResponse(const Response& response) {
  if (response.status == StatusCode::kOk) return Status::OK();
  return Status(response.status, response.body);
}

}  // namespace server

int ExitCodeForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kParseError:
      return 2;
    case StatusCode::kOverloaded:
      return 3;
    case StatusCode::kDeadlineExceeded:
      return 4;
    case StatusCode::kUnavailable:
      return 5;
    default:
      return 1;
  }
}

}  // namespace vqldb

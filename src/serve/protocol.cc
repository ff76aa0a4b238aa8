#include "serve/protocol.hh"

#include <cstring>

#include "serve/net.hh"
#include "util/io.hh"

namespace snapea::serve {

namespace {

void
putU32(uint8_t *p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
}

void
putU64(uint8_t *p, uint64_t v)
{
    putU32(p, static_cast<uint32_t>(v));
    putU32(p + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t
getU32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0])
        | static_cast<uint32_t>(p[1]) << 8
        | static_cast<uint32_t>(p[2]) << 16
        | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t
getU64(const uint8_t *p)
{
    return static_cast<uint64_t>(getU32(p))
        | static_cast<uint64_t>(getU32(p + 4)) << 32;
}

} // namespace

StatusCode
wireToStatusCode(WireStatus ws)
{
    switch (ws) {
      case WireStatus::Ok: return StatusCode::Ok;
      case WireStatus::Overloaded: return StatusCode::Overloaded;
      case WireStatus::DeadlineExceeded:
        return StatusCode::DeadlineExceeded;
      case WireStatus::Cancelled: return StatusCode::Cancelled;
      case WireStatus::InvalidArgument:
        return StatusCode::InvalidArgument;
      case WireStatus::Unavailable: return StatusCode::Unavailable;
      case WireStatus::Internal: return StatusCode::IoError;
      case WireStatus::WorkerLost: return StatusCode::WorkerLost;
    }
    return StatusCode::IoError;
}

WireStatus
statusCodeToWire(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok: return WireStatus::Ok;
      case StatusCode::Overloaded: return WireStatus::Overloaded;
      case StatusCode::DeadlineExceeded:
        return WireStatus::DeadlineExceeded;
      case StatusCode::Cancelled: return WireStatus::Cancelled;
      case StatusCode::InvalidArgument:
        return WireStatus::InvalidArgument;
      case StatusCode::Unavailable: return WireStatus::Unavailable;
      case StatusCode::WorkerLost: return WireStatus::WorkerLost;
      default: return WireStatus::Internal;
    }
}

uint32_t
packReplyAux(WireStatus status, int level)
{
    return static_cast<uint32_t>(status)
        | static_cast<uint32_t>(level & 0xff) << 8;
}

WireStatus
replyStatus(uint32_t aux)
{
    return static_cast<WireStatus>(aux & 0xff);
}

int
replyLevel(uint32_t aux)
{
    return static_cast<int>((aux >> 8) & 0xff);
}

std::string
encodeFrame(const FrameHeader &h, std::string_view body)
{
    std::string out(kHeaderBytes + body.size(), '\0');
    auto *p = reinterpret_cast<uint8_t *>(out.data());
    putU32(p, kMagic);
    p[4] = h.version;
    p[5] = static_cast<uint8_t>(h.type);
    p[6] = 0;
    p[7] = 0;
    putU64(p + 8, h.req_id);
    putU32(p + 16, h.aux);
    putU32(p + 20, static_cast<uint32_t>(body.size()));
    putU32(p + 24, crc32(body));
    // An empty body may have a null data(); memcpy forbids that even
    // for zero bytes.
    if (!body.empty())
        std::memcpy(out.data() + kHeaderBytes, body.data(), body.size());
    return out;
}

StatusOr<FrameHeader>
decodeHeader(const uint8_t *bytes)
{
    if (getU32(bytes) != kMagic) {
        return Status(StatusCode::Corrupt,
                      "bad frame magic (not a snapea_serve peer?)");
    }
    FrameHeader h;
    h.version = bytes[4];
    if (h.version != kProtocolVersion) {
        return statusf(StatusCode::VersionMismatch,
                       "protocol version %d, expected %d", h.version,
                       kProtocolVersion);
    }
    if (bytes[6] != 0 || bytes[7] != 0) {
        return Status(StatusCode::Corrupt,
                      "nonzero reserved header bytes");
    }
    const uint8_t ty = bytes[5];
    if (ty < static_cast<uint8_t>(MsgType::Infer)
        || ty > static_cast<uint8_t>(MsgType::WorkerReady)) {
        return statusf(StatusCode::Corrupt, "unknown frame type %d",
                       ty);
    }
    h.type = static_cast<MsgType>(ty);
    h.req_id = getU64(bytes + 8);
    h.aux = getU32(bytes + 16);
    h.body_len = getU32(bytes + 20);
    h.body_crc = getU32(bytes + 24);
    if (h.body_len > kMaxBodyBytes) {
        return statusf(StatusCode::Corrupt,
                       "body length %u exceeds the %u-byte cap",
                       h.body_len, kMaxBodyBytes);
    }
    return h;
}

Status
validateBody(const FrameHeader &h, std::string_view body)
{
    if (body.size() != h.body_len) {
        return statusf(StatusCode::Corrupt,
                       "body is %zu bytes, header said %u",
                       body.size(), h.body_len);
    }
    const uint32_t crc = crc32(body);
    if (crc != h.body_crc) {
        return statusf(StatusCode::Corrupt,
                       "body CRC %08x, header said %08x", crc,
                       h.body_crc);
    }
    return Status();
}

StatusOr<FrameHeader>
readFrame(int fd, std::string &body)
{
    uint8_t hdr[kHeaderBytes];
    if (Status st = readFull(fd, hdr, sizeof(hdr)); !st.ok())
        return st;
    StatusOr<FrameHeader> h = decodeHeader(hdr);
    if (!h.ok())
        return h.status();
    body.resize(h.value().body_len);
    if (h.value().body_len > 0) {
        if (Status st = readFull(fd, body.data(), body.size());
            !st.ok()) {
            return st;
        }
    }
    if (Status st = validateBody(h.value(), body); !st.ok())
        return st;
    return h;
}

Status
writeFrame(int fd, const FrameHeader &h, std::string_view body)
{
    if (body.size() > kMaxBodyBytes) {
        return statusf(StatusCode::InvalidArgument,
                       "frame body %zu bytes exceeds the %u-byte cap",
                       body.size(), kMaxBodyBytes);
    }
    const std::string frame = encodeFrame(h, body);
    return writeFull(fd, frame.data(), frame.size());
}

} // namespace snapea::serve

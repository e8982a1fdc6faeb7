#include "hrmc/wire.hpp"

#include "kern/byteorder.hpp"
#include "kern/checksum.hpp"

namespace hrmc::proto {
namespace {

constexpr std::uint8_t kTypeMask = 0x0f;
constexpr std::uint8_t kUrgBit = 0x40;
constexpr std::uint8_t kFinBit = 0x80;

}  // namespace

std::string_view packet_type_name(PacketType t) {
  switch (t) {
    case PacketType::kData: return "DATA";
    case PacketType::kNak: return "NAK";
    case PacketType::kNakErr: return "NAK_ERR";
    case PacketType::kJoin: return "JOIN";
    case PacketType::kJoinResponse: return "JOIN_RESPONSE";
    case PacketType::kLeave: return "LEAVE";
    case PacketType::kLeaveResponse: return "LEAVE_RESPONSE";
    case PacketType::kControl: return "CONTROL";
    case PacketType::kKeepalive: return "KEEPALIVE";
    case PacketType::kUpdate: return "UPDATE";
    case PacketType::kProbe: return "PROBE";
    case PacketType::kFec: return "FEC";
    case PacketType::kAggUpdate: return "AGG_UPDATE";
  }
  return "UNKNOWN";
}

void write_header(kern::SkBuff& skb, const Header& h) {
  std::uint8_t* p = skb.push(Header::kSize);
  kern::put_be16(p + 0, h.sport);
  kern::put_be16(p + 2, h.dport);
  kern::put_be32(p + 4, h.seq);
  kern::put_be32(p + 8, h.rate);
  kern::put_be32(p + 12, h.length);
  kern::put_be16(p + 16, 0);  // checksum placeholder
  p[18] = h.tries;
  p[19] = static_cast<std::uint8_t>(
      (static_cast<std::uint8_t>(h.type) & kTypeMask) |
      (h.urg ? kUrgBit : 0) | (h.fin ? kFinBit : 0));
  const std::uint16_t csum = kern::internet_checksum(skb.bytes());
  kern::put_be16(p + 16, csum);
}

std::optional<Header> peek_header(const kern::SkBuff& skb) {
  if (skb.size() < Header::kSize) return std::nullopt;
  const std::uint8_t* p = skb.data();
  Header h;
  h.sport = kern::get_be16(p + 0);
  h.dport = kern::get_be16(p + 2);
  h.seq = kern::get_be32(p + 4);
  h.rate = kern::get_be32(p + 8);
  h.length = kern::get_be32(p + 12);
  h.tries = p[18];
  const std::uint8_t tf = p[19];
  const std::uint8_t raw_type = tf & kTypeMask;
  if (raw_type < static_cast<std::uint8_t>(PacketType::kData) ||
      raw_type > static_cast<std::uint8_t>(PacketType::kAggUpdate)) {
    return std::nullopt;
  }
  h.type = static_cast<PacketType>(raw_type);
  h.urg = (tf & kUrgBit) != 0;
  h.fin = (tf & kFinBit) != 0;
  // Payload-bearing types must not claim more payload than the buffer
  // holds: a truncated DATA/FEC packet acted on at face value would
  // deliver bytes that were never sent.
  if ((h.type == PacketType::kData || h.type == PacketType::kFec) &&
      h.length > skb.size() - Header::kSize) {
    return std::nullopt;
  }
  return h;
}

std::optional<Header> read_header(kern::SkBuff& skb) {
  if (skb.size() < Header::kSize) return std::nullopt;
  if (!skb.checksum_ok()) return std::nullopt;
  auto h = peek_header(skb);
  if (!h) return std::nullopt;
  skb.pull(Header::kSize);
  return h;
}

}  // namespace hrmc::proto

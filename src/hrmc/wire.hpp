// RMC/H-RMC wire format: the 20-byte header of Figure 1 and the packet
// types of Table 1.
//
// Header layout (network byte order):
//
//     0               2               4
//     +---------------+---------------+
//     |  Source Port  |   Dest Port   |
//     +---------------+---------------+
//     |        Sequence Number        |
//     +-------------------------------+
//     |      Rate Advertisement       |
//     +-------------------------------+
//     |            Length             |
//     +---------------+-------+-------+
//     |   Checksum    | Tries | Type  |
//     +---------------+-------+-------+
//
// The paper's figure shows the URG and FIN flags in the final word; the
// layout it gives sums to exactly 20 bytes with one Type octet, so we
// keep the flags in the top bits of that octet (types need 4 bits).
//
// Field use by packet type (per §2/§3 of the paper; where the paper is
// silent we document the choice):
//  - DATA:      seq = first byte of payload, length = payload bytes,
//               rate = sender's advertised rate (bytes/s). FIN on last.
//  - NAK:       seq = receiver's next expected byte (member-state
//               update), rate = first missing byte of the requested gap,
//               length = gap length in bytes. URG set when the NAK was
//               solicited by a PROBE (see UPDATE).
//  - CONTROL:   seq = next expected byte, rate = requested send rate;
//               URG set for a critical-region (stop for 2 RTT) request.
//  - UPDATE:    seq = next expected byte (highest in-order + 1). URG set
//               when the update answers a PROBE (a *solicited* update):
//               only those are safe to time as probe round trips —
//               a periodic update crossing a probe in flight is not a
//               response to it.
//  - PROBE:     seq = byte the sender wants confirmed delivered, i.e.
//               "do you have everything before seq?".
//  - KEEPALIVE: seq = sender's snd_nxt (end of stream so far).
//  - JOIN/LEAVE and responses: seq carries the current stream position
//    (snd_nxt) in responses so late joiners can synchronize.
//  - NAK_ERR:   seq/rate/length echo the unsatisfiable request.
//  - FEC:       seq = first byte of the protected group, rate = the
//               group's span in bytes (k*mss for a full group; a group
//               cut short by a sub-MSS packet or end-of-stream carries
//               the exact byte span it covers, so the final shard may
//               be partial and is zero-padded for coding), length =
//               parity payload size, tries = parity row index + 1
//               (Reed–Solomon row; row 0 is the plain XOR, so tries=1
//               is bit-compatible with the original single-XOR parity);
//               payload = GF(256) combination of the k data payloads
//               with fec::coefficient(row, shard).
//  - AGG_UPDATE: hierarchical-repair extension. seq = the minimum next
//               expected byte across the subtree the emitter represents,
//               rate = the number of members it stands for (itself plus
//               registered children / modeled population). URG set when
//               the aggregate answers a PROBE (solicited, same timing
//               contract as UPDATE).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "kern/seq.hpp"
#include "kern/skbuff.hpp"

namespace hrmc::proto {

/// Transport protocol number H-RMC registers with the (simulated) IP
/// layer — IPPROTO_HRMC in the driver.
inline constexpr std::uint8_t kIpProtoHrmc = 200;

/// Packet types (Table 1). UPDATE and PROBE exist only in H-RMC mode.
/// FEC is this repository's implementation of the paper's §6 future-work
/// item (4) — "incorporation of forward error correction, particularly
/// for wireless environments" — and is off by default.
enum class PacketType : std::uint8_t {
  kData = 1,
  kNak = 2,
  kNakErr = 3,
  kJoin = 4,
  kJoinResponse = 5,
  kLeave = 6,
  kLeaveResponse = 7,
  kControl = 8,
  kKeepalive = 9,
  kUpdate = 10,  // H-RMC only
  kProbe = 11,   // H-RMC only
  kFec = 12,     // extension (§6 future work (4)); not in Table 1
  /// Aggregated subtree UPDATE (hierarchical repair extension): one
  /// message carries (min next_expected, member multiplicity) for a
  /// whole router subtree. Not in Table 1.
  kAggUpdate = 13,
};

std::string_view packet_type_name(PacketType t);

/// Decoded header.
struct Header {
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  kern::Seq seq = 0;
  std::uint32_t rate = 0;    ///< rate advertisement / request, bytes per second
  std::uint32_t length = 0;  ///< payload length (DATA) or range length (NAK)
  std::uint8_t tries = 0;    ///< transmission attempt count (1 = first send)
  PacketType type = PacketType::kData;
  bool urg = false;
  bool fin = false;

  static constexpr std::size_t kSize = 20;
};

/// Serializes `h` in front of the buffer's current payload (consumes 20
/// bytes of headroom) and fills in the checksum over header + payload.
void write_header(kern::SkBuff& skb, const Header& h);

/// Parses and strips the header. Returns nullopt on short packets or
/// checksum failure (the caller counts and drops those). The checksum
/// goes through SkBuff::checksum_ok, so fan-out clones of one block are
/// summed once.
std::optional<Header> read_header(kern::SkBuff& skb);

/// Parses without stripping or verifying (for taps and tests).
std::optional<Header> peek_header(const kern::SkBuff& skb);

}  // namespace hrmc::proto

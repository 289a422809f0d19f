// The CSname standard header (paper section 5.3).
//
// Every request message that contains a character-string name has these
// fields at fixed offsets, forming a skeleton common to all CSname request
// types.  The variant part (bytes 12..31) depends on the request code.
// The name bytes themselves are NOT in the 32-byte message: they live in a
// segment of the original sender's memory, fetched by whichever server ends
// up interpreting them via MoveFrom.  The server-pid part of the context is
// implicit: it is the process the message is (currently) addressed to.
#pragma once

#include <cstdint>

#include "msg/message.hpp"
#include "common/annotate.hpp"

namespace v::msg::cs {

// Standard field offsets within a CSname request message.
inline constexpr std::size_t kOffCode = 0;        // u16 request code
inline constexpr std::size_t kOffNameIndex = 2;   // u16 parse resume index
inline constexpr std::size_t kOffNameLength = 4;  // u16 total name length
inline constexpr std::size_t kOffMode = 6;        // u8 op-specific mode bits
inline constexpr std::size_t kOffForwardCount = 7;  // u8 servers traversed
inline constexpr std::size_t kOffContextId = 8;   // u32 context identifier
inline constexpr std::size_t kVariantStart = 12;  // op-specific fields

// Validated-caching fields (bytes 24..28).  No standard operation's variant
// part reaches past byte 23 (kAddContextName is the widest, ending at 23),
// so these ride in otherwise-unused header space.  A request MAY carry the
// context generation the client expects the addressed context to have; a
// server whose generation differs answers kStaleContext without
// interpreting.  Absence of the flag means "no expectation" — the 1984
// behaviour, bit-for-bit.
inline constexpr std::size_t kOffExpectedGen = 24;  // u32 expected generation
inline constexpr std::size_t kOffCsFlags = 28;      // u8 CSname header flags
inline constexpr std::uint8_t kFlagExpectGen = 0x01;  // kOffExpectedGen valid
// Recovery probe (V-fault rebinding, PROTOCOL.md "Multicast rebinding"):
// the request was multicast to a server group to rediscover a binding after
// kNoReply/kInvalidContext.  Members that cannot serve it stay SILENT
// instead of replying with an error, so first-reply-wins surfaces a member
// that can; the sender's group timeout covers the nobody-can case.
inline constexpr std::uint8_t kFlagRecoveryProbe = 0x02;

/// Forwarding budget: a request traversing more servers than this is
/// answered kForwardLoop.  Cross-server pointer graphs are arbitrary
/// directed graphs (section 5.8), so cycles are expressible; this bound
/// makes interpretation total.
inline constexpr std::uint8_t kMaxForwardHops = 8;

/// Index into the name at which interpretation is to begin or continue.
/// A server that forwards a partially-interpreted request advances this.
[[nodiscard]] inline std::uint16_t name_index(const Message& m) noexcept {
  return m.u16(kOffNameIndex);
}
V_HOT_PATH
inline void set_name_index(Message& m, std::uint16_t index) noexcept {
  m.set_u16(kOffNameIndex, index);
}

/// Total length in bytes of the name segment.
[[nodiscard]] inline std::uint16_t name_length(const Message& m) noexcept {
  return m.u16(kOffNameLength);
}
V_HOT_PATH
inline void set_name_length(Message& m, std::uint16_t length) noexcept {
  m.set_u16(kOffNameLength, length);
}

/// Context identifier in which interpretation (re)starts.
[[nodiscard]] inline std::uint32_t context_id(const Message& m) noexcept {
  return m.u32(kOffContextId);
}
V_HOT_PATH
inline void set_context_id(Message& m, std::uint32_t ctx) noexcept {
  m.set_u32(kOffContextId, ctx);
}

/// Op-specific mode bits (e.g. open mode for kCreateInstance).
[[nodiscard]] inline std::uint16_t mode(const Message& m) noexcept {
  return static_cast<std::uint8_t>(m.raw()[kOffMode]);
}
V_HOT_PATH
inline void set_mode(Message& m, std::uint16_t mode_bits) noexcept {
  m.raw()[kOffMode] = static_cast<std::byte>(mode_bits & 0xff);
}

/// How many servers have already interpreted part of this name (advanced
/// on every forward; see kMaxForwardHops).
[[nodiscard]] inline std::uint8_t forward_count(const Message& m) noexcept {
  return static_cast<std::uint8_t>(m.raw()[kOffForwardCount]);
}
inline void set_forward_count(Message& m, std::uint8_t count) noexcept {
  m.raw()[kOffForwardCount] = static_cast<std::byte>(count);
}

/// CSname header flag bits (kOffCsFlags).
V_HOT_PATH
[[nodiscard]] inline std::uint8_t cs_flags(const Message& m) noexcept {
  return static_cast<std::uint8_t>(m.raw()[kOffCsFlags]);
}

/// True when the request carries an expected context generation.
[[nodiscard]] inline bool has_expected_generation(const Message& m) noexcept {
  return (cs_flags(m) & kFlagExpectGen) != 0;
}

/// The generation the client expects the addressed context to have.
/// Meaningful only when has_expected_generation().
[[nodiscard]] inline std::uint32_t expected_generation(
    const Message& m) noexcept {
  return m.u32(kOffExpectedGen);
}

/// Stamp an expected generation onto the request.
V_HOT_PATH
inline void set_expected_generation(Message& m, std::uint32_t gen) noexcept {
  m.set_u32(kOffExpectedGen, gen);
  m.raw()[kOffCsFlags] =
      static_cast<std::byte>(cs_flags(m) | kFlagExpectGen);
}

/// Drop the expectation (a forwarding server clears it: the expectation
/// applied to the context the client addressed, not to downstream ones).
inline void clear_expected_generation(Message& m) noexcept {
  m.set_u32(kOffExpectedGen, 0);
  m.raw()[kOffCsFlags] =
      static_cast<std::byte>(cs_flags(m) & ~kFlagExpectGen);
}

/// True when the request is a recovery probe (see kFlagRecoveryProbe).
V_HOT_PATH
[[nodiscard]] inline bool is_recovery_probe(const Message& m) noexcept {
  return (cs_flags(m) & kFlagRecoveryProbe) != 0;
}

/// Mark the request as a recovery probe.
inline void set_recovery_probe(Message& m) noexcept {
  m.raw()[kOffCsFlags] =
      static_cast<std::byte>(cs_flags(m) | kFlagRecoveryProbe);
}

/// Build the skeleton of a CSname request: code + standard fields.
[[nodiscard]] inline Message make_request(std::uint16_t code,
                                          std::uint32_t ctx,
                                          std::uint16_t name_len,
                                          std::uint16_t mode_bits = 0) {
  Message m;
  m.set_code(code);
  set_name_index(m, 0);
  set_name_length(m, name_len);
  set_context_id(m, ctx);
  set_mode(m, mode_bits);
  return m;
}

}  // namespace v::msg::cs

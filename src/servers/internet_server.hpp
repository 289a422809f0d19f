// The Internet server — section 6's "V kernel-based implementation of
// IP/TCP", reduced to its naming-relevant surface: TCP connections are
// named objects ("host:port" in the server's single context), opened and
// used through the V I/O protocol, and enumerated by the same context
// directory mechanism as files and terminals.
//
// The network behind it is simulated: connections echo their written bytes
// back (a loopback peer) after a configurable round-trip delay.
#pragma once

#include <string>
#include <vector>

#include "servers/flat_context_server.hpp"

namespace v::servers {

enum class ConnState { kOpen, kClosed };

/// One connection: writes go to the simulated peer (which echoes them after
/// the RTT); reads consume the inbound stream.
struct Connection {
  static constexpr auto kType = naming::DescriptorType::kConnection;
  static constexpr std::uint16_t kFlags =
      naming::kReadable | naming::kWriteable;
  static constexpr std::string_view kContextName = "tcp";
  static constexpr auto kService = ipc::ServiceId::kInternetServer;
  static constexpr auto kScope = ipc::Scope::kBoth;

  std::uint32_t id = 0;
  ConnState state = ConnState::kOpen;
  std::vector<std::byte> inbound;  ///< bytes the peer "sent" us
  std::uint64_t bytes_sent = 0;
  std::uint32_t opened = 0;
  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(inbound.size());
  }
};

class InternetServer : public FlatContextServer<Connection> {
 public:
  /// `rtt` is the simulated remote peer round-trip time per write.
  explicit InternetServer(sim::SimDuration rtt = 20 * sim::kMillisecond,
                          bool register_service = true,
                          naming::TeamConfig team = {});

  using ConnState = servers::ConnState;

 protected:
  /// "host:port" names are validated on create.
  [[nodiscard]] ReplyCode check_create(std::string_view leaf) const override;
  /// Connection establishment costs one peer round trip.
  sim::Co<Result<Connection>> new_record(ipc::Process& self,
                                         std::string_view leaf) override;
  void describe_record(naming::ObjectDescriptor& desc, const Connection& c,
                       sim::SimTime now) const override;
  Result<std::size_t> read_record(const Connection& c, std::uint32_t block,
                                  std::span<std::byte> out) const override;
  sim::Co<Result<std::size_t>> write_record(
      ipc::Process& self, std::string_view name, Connection& c,
      std::span<const std::byte> data) override;

 private:
  sim::SimDuration rtt_;
};

}  // namespace v::servers

// The virtual (graphics) terminal server (paper sections 2.2, 6).
//
// The paper's example of a server providing "a small number of transient
// objects" whose names and attributes live in memory.  Terminals are
// created by name, carry an input/output transcript readable and writeable
// through the V I/O protocol, and appear in the server's context directory
// with type kTerminal — one of the contexts the single "list directory"
// command handles uniformly.
#pragma once

#include <string>
#include <vector>

#include "servers/flat_context_server.hpp"

namespace v::servers {

/// One terminal: reads return the transcript; writes append to it
/// (append-only stream semantics).
struct Terminal {
  static constexpr auto kType = naming::DescriptorType::kTerminal;
  static constexpr std::uint16_t kFlags =
      naming::kReadable | naming::kWriteable | naming::kAppendOnly;
  static constexpr std::string_view kContextName = "terminals";
  static constexpr auto kService = ipc::ServiceId::kTerminalServer;
  static constexpr auto kScope = ipc::Scope::kLocal;

  std::uint32_t id = 0;
  std::vector<std::byte> transcript;
  std::string owner = "user";
  std::uint32_t created = 0;
  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(transcript.size());
  }
};

class TerminalServer : public FlatContextServer<Terminal> {
 public:
  explicit TerminalServer(bool register_service = true,
                          naming::TeamConfig team = {});

  [[nodiscard]] std::size_t terminal_count() const noexcept {
    return records().size();
  }
  /// Transcript bytes of a terminal (test inspection).
  [[nodiscard]] Result<std::string> transcript(std::string_view name) const;

 protected:
  sim::Co<Result<Terminal>> new_record(ipc::Process& self,
                                       std::string_view leaf) override;
  void describe_record(naming::ObjectDescriptor& desc, const Terminal& t,
                       sim::SimTime now) const override;
  Result<std::size_t> read_record(const Terminal& t, std::uint32_t block,
                                  std::span<std::byte> out) const override;
  sim::Co<Result<std::size_t>> write_record(
      ipc::Process& self, std::string_view name, Terminal& t,
      std::span<const std::byte> data) override;
};

}  // namespace v::servers

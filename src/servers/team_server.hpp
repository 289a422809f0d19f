// The team server (program manager) — section 3.1's program-loading path
// and section 6's "programs in execution" context.
//
// kLoadProgram names a program file (any CSname the workstation's runtime
// can resolve, e.g. "[bin]edit"); the team server opens it and pulls the
// whole image with the bulk-transfer path — one MoveTo, which is how a
// diskless SUN loaded a 64 KB program in 338 ms.  Loaded programs appear as
// kProcess records in the team server's context directory and can be
// queried/removed (killed) through the standard protocol.
#pragma once

#include <optional>
#include <string>

#include "servers/flat_context_server.hpp"
#include "svc/runtime.hpp"

namespace v::servers {

// --- kLoadProgram wire layout (non-CSname request: the program name is the
// --- whole read segment; it must not be interpreted against the team
// --- server's own context space).
inline constexpr std::size_t kOffLoadNameLength = 2;  // u16
// Reply:
inline constexpr std::size_t kOffLoadProgramId = 2;   // u16
inline constexpr std::size_t kOffLoadBytes = 4;       // u32 image size

/// One loaded program ("a program in execution").
struct Program {
  static constexpr auto kType = naming::DescriptorType::kProcess;
  static constexpr std::uint16_t kFlags = 0;
  static constexpr std::string_view kContextName = "programs";
  static constexpr auto kService = ipc::ServiceId::kTeamServer;
  static constexpr auto kScope = ipc::Scope::kLocal;

  std::uint16_t id = 0;
  std::string image_name;  ///< the CSname it was loaded from
  std::uint32_t bytes = 0;
  std::uint32_t started = 0;
  [[nodiscard]] std::uint32_t size() const { return bytes; }
};

class TeamServer : public FlatContextServer<Program> {
 public:
  /// `default_context` is the context for program names without a prefix.
  explicit TeamServer(naming::ContextPair default_context,
                      bool register_service = true,
                      naming::TeamConfig team = {});

  [[nodiscard]] std::size_t program_count() const noexcept {
    return records().size();
  }

  /// Client helper: ask `team` to load `program_name`.
  /// Returns the new program's id.
  static sim::Co<Result<std::uint16_t>> load_program(ipc::Process self,
                                                     ipc::ProcessId team,
                                                     std::string_view name);

 protected:
  /// Programs come from kLoadProgram only: no CreateName, no open.
  [[nodiscard]] ReplyCode check_create(std::string_view leaf) const override;
  [[nodiscard]] ReplyCode check_open(std::uint16_t mode) const override;
  void describe_record(naming::ObjectDescriptor& desc, const Program& p,
                       sim::SimTime now) const override;
  sim::Co<msg::Message> handle_custom(ipc::Process& self,
                                      ipc::Envelope& env) override;

 private:
  sim::Co<msg::Message> do_load(ipc::Process& self, ipc::Envelope& env);

  naming::ContextPair default_context_;
  /// do_load adds programs from handle_custom, outside any (ctx,leaf)
  /// gate; annotate the write for the race detector instead.
  chk::CellState programs_cell_{"team.programs"};
  std::optional<svc::Rt> rt_;  ///< lazily attached workstation runtime
};

}  // namespace v::servers

// The exception server — one of the per-workstation servers of section 6
// ("exception server"), reconstructed: processes raise exception reports
// with a custom operation; each report becomes a named, queryable, readable
// object in the server's context, so the SAME list-directory/query/open
// machinery that works on files works on pending exceptions (a debugger is
// just another client of the name-handling protocol).
#pragma once

#include <string>

#include "servers/flat_context_server.hpp"

namespace v::servers {

// --- kRaiseException wire layout (non-CSname request) ---------------------
inline constexpr std::uint16_t kRaiseException = 0x0305;
inline constexpr std::size_t kOffExcCode = 2;        // u16 fault code
inline constexpr std::size_t kOffExcDetailLen = 4;   // u16 report text bytes
// Reply:
inline constexpr std::size_t kOffExcReportId = 2;    // u16 new report id

/// Well-known fault codes (descriptor.object_id low bits).
enum class FaultCode : std::uint16_t {
  kUnknown = 0,
  kAddressError = 1,
  kIllegalInstruction = 2,
  kProtocolViolation = 3,
  kResourceExhausted = 4,
};

/// One pending exception report.
struct ExceptionReport {
  static constexpr auto kType = naming::DescriptorType::kDevice;  // report
  static constexpr std::uint16_t kFlags = naming::kReadable;
  static constexpr std::string_view kContextName = "exceptions";
  static constexpr auto kService = ipc::ServiceId::kExceptionServer;
  static constexpr auto kScope = ipc::Scope::kLocal;

  std::uint16_t id = 0;
  ipc::ProcessId faulting;
  FaultCode code = FaultCode::kUnknown;
  std::string detail;
  std::uint32_t raised = 0;
  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(detail.size());
  }
};

class ExceptionServer : public FlatContextServer<ExceptionReport> {
 public:
  explicit ExceptionServer(bool register_service = true,
                           naming::TeamConfig team = {});

  /// Client helper: raise an exception report at `server` (resolve it via
  /// GetPid(kExceptionServer, kLocal) first).  Returns the report id.
  static sim::Co<Result<std::uint16_t>> raise(ipc::Process self,
                                              ipc::ProcessId server,
                                              FaultCode code,
                                              std::string_view detail);

  [[nodiscard]] std::size_t pending_count() const noexcept {
    return records().size();
  }

 protected:
  /// Reports come from kRaiseException only, never from CreateName.
  [[nodiscard]] ReplyCode check_create(std::string_view leaf) const override;
  void describe_record(naming::ObjectDescriptor& desc,
                       const ExceptionReport& r,
                       sim::SimTime now) const override;
  /// Opening a report reads a private copy of its text.
  Result<std::unique_ptr<io::InstanceObject>> open_record(
      const std::string& name, ExceptionReport& r,
      std::uint16_t mode) override;
  sim::Co<msg::Message> handle_custom(ipc::Process& self,
                                      ipc::Envelope& env) override;

 private:
  /// kRaiseException adds reports from handle_custom, outside any
  /// (ctx,leaf) gate; annotate the write for the race detector instead.
  chk::CellState reports_cell_{"exception.reports"};
};

}  // namespace v::servers

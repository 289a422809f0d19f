// The metrics server: the domain's metrics registry mounted as a `[metrics]`
// context.
//
// The paper's thesis is that ANY server can join the uniform name space by
// speaking the name-handling protocol; this server makes the point by
// serving the simulation's own instrumentation that way.  Each registry
// scope ("fileserver", "ipc", "loop"...) is a sub-context of the root
// context, and each metric within a scope is a read-only file whose content
// is the current value rendered as one text line — so a client resolves
// "[metrics]fileserver/requests" through the normal CSname path and Reads
// the same number a JSON snapshot reports.  Context directories, pattern
// opens and QueryName all work for free via the CsnhServer base.
#pragma once

#include <string>

#include "naming/csnh_server.hpp"
#include "obs/metrics.hpp"

namespace v::servers {

class MetricsServer : public naming::CsnhServer {
 public:
  explicit MetricsServer(naming::TeamConfig team = {});

 protected:
  sim::Co<void> on_start(ipc::Process& self) override;
  bool context_valid(naming::ContextId ctx) override;
  sim::Co<LookupResult> lookup(ipc::Process& self, naming::ContextId ctx,
                               std::string_view component) override;
  sim::Co<Result<naming::ObjectDescriptor>> describe(
      ipc::Process& self, naming::ContextId ctx,
      std::string_view leaf) override;
  sim::Co<Result<std::unique_ptr<io::InstanceObject>>> open_object(
      ipc::Process& self, naming::ContextId ctx, std::string_view leaf,
      std::uint16_t mode) override;
  sim::Co<Result<std::vector<naming::ObjectDescriptor>>> list_context(
      ipc::Process& self, naming::ContextId ctx) override;
  Result<std::string> context_to_name(naming::ContextId ctx) override;

 private:
  /// Scope name for a sub-context id (1-based index into the registry's
  /// first-registration scope order); nullptr for unknown/root ids.
  [[nodiscard]] const std::string* scope_of(naming::ContextId ctx) const;
  [[nodiscard]] naming::ObjectDescriptor describe_metric(
      naming::ContextId ctx, const std::string& name,
      const std::string& value) const;

  const obs::MetricsRegistry* registry_ = nullptr;  ///< set in on_start
};

}  // namespace v::servers

// The context prefix server (paper sections 5.8, 6).
//
// One per user/workstation.  It gives locally-defined character-string
// names — prefixes, written "[prefix]" — to contexts on servers of
// interest, and forwards any CSname request starting with such a prefix to
// the server implementing that context.  Entries come in two kinds:
//
//   * ordinary: bound to a concrete (server-pid, context-id) pair;
//   * logical: bound to a *service id* plus a (usually well-known) context
//     id; the server performs a GetPid each time the name is used, so the
//     prefix keeps working across server crashes and restarts.
//
// It implements the optional AddContextName/DeleteContextName operations of
// the protocol, and its context directory lists the prefix table (the
// paper's "list directory" works on it like on any other context).
#pragma once

#include <map>
#include <string>

#include "naming/csnh_server.hpp"

namespace v::servers {

class ContextPrefixServer : public naming::CsnhServer {
 public:
  /// `user` labels the per-user instance (descriptor owner field).
  explicit ContextPrefixServer(std::string user = "user",
                               bool register_service = true,
                               naming::TeamConfig team = {});

  /// One prefix table entry: ordinary (pid-bound), logical (service-bound,
  /// GetPid at each use) or group (multicast to a server group, section 7).
  struct Entry {
    bool logical = false;
    naming::ContextPair target;             ///< ordinary entries
    ipc::ServiceId service = ipc::ServiceId::kNone;  ///< logical entries
    naming::ContextId logical_context = naming::kDefaultContext;
    ipc::GroupId group = 0;                 ///< group entries (non-zero)
  };

  /// Pre-run population helper (simulation-time clients use the protocol's
  /// AddContextName operation instead).
  void define(std::string prefix, Entry entry);

  [[nodiscard]] std::size_t entry_count() const noexcept {
    return table_.size();
  }

  /// Approximate resident size of the prefix table in bytes (for the
  /// footprint report mirroring the paper's 4.5 KB code + 2.6 KB data).
  [[nodiscard]] std::size_t table_bytes() const noexcept;

  /// Fallback server group for ordinary entries whose bound server has
  /// DIED (V-fault rebinding): instead of forwarding into a void, the
  /// request is multicast to this group as a recovery probe — the member
  /// now implementing the context answers, everyone else stays silent.
  /// 0 (default) = no fallback; dead-target requests fail as before.
  void set_rebind_group(ipc::GroupId group) noexcept {
    rebind_group_ = group;
  }
  [[nodiscard]] ipc::GroupId rebind_group() const noexcept {
    return rebind_group_;
  }

 protected:
  sim::Co<void> on_start(ipc::Process& self) override;
  bool context_valid(naming::ContextId ctx) override {
    return ctx == naming::kDefaultContext;
  }
  /// Prefix syntax: "[name]" is one component; plain components fall back
  /// to the standard parsing so the Add/Delete leaf also resolves.
  std::string_view parse_component(std::string_view name, std::size_t index,
                                   std::size_t& next) override;
  /// The paper's measured per-request prefix-server processing time.
  sim::SimDuration parse_cost(ipc::Process& self,
                              std::string_view name) override;
  sim::Co<LookupResult> lookup(ipc::Process& self, naming::ContextId ctx,
                               std::string_view component) override;
  sim::Co<ReplyCode> add_context_name(ipc::Process& self,
                                      naming::ContextId ctx,
                                      std::string_view leaf,
                                      naming::ContextPair target,
                                      ipc::ServiceId logical_service,
                                      ipc::GroupId group) override;
  sim::Co<ReplyCode> delete_context_name(ipc::Process& self,
                                         naming::ContextId ctx,
                                         std::string_view leaf) override;
  sim::Co<Result<naming::ObjectDescriptor>> describe(
      ipc::Process& self, naming::ContextId ctx,
      std::string_view leaf) override;
  sim::Co<ReplyCode> modify(ipc::Process& self, naming::ContextId ctx,
                            std::string_view leaf,
                            const naming::ObjectDescriptor& desc) override;
  sim::Co<Result<std::vector<naming::ObjectDescriptor>>> list_context(
      ipc::Process& self, naming::ContextId ctx) override;
  Result<std::string> context_to_name(naming::ContextId ctx) override;
  void reset_metric_handles() override;

 private:
  naming::ObjectDescriptor describe_entry(const std::string& name,
                                          const Entry& entry) const;

  std::string user_;
  bool register_service_;
  std::map<std::string, Entry, std::less<>> table_;
  ipc::GroupId rebind_group_ = 0;
  CounterHandle m_prefix_hits_ = nullptr;
  CounterHandle m_prefix_misses_ = nullptr;
};

}  // namespace v::servers

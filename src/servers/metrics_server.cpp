#include "servers/metrics_server.hpp"

#include <cstring>
#include <memory>
#include <utility>
#include <vector>
#include "common/annotate.hpp"

namespace v::servers {

using naming::ContextId;
using naming::ObjectDescriptor;

namespace {

/// Root-context leaf that serves the flight recorder's post-mortem dump.
/// Opening it fires an on-demand dump trigger and
/// answers the rendered Chrome trace-event JSON as the file content, so
/// `[metrics]flight-dump` is the paper-idiomatic way to pull a black-box
/// snapshot out of a live installation.
constexpr std::string_view kFlightDumpLeaf = "flight-dump";

}  // namespace

MetricsServer::MetricsServer(naming::TeamConfig team) : CsnhServer(team) {}

sim::Co<void> MetricsServer::on_start(ipc::Process& self) {
  registry_ = &self.domain().metrics();
  co_return;
}

const std::string* MetricsServer::scope_of(ContextId ctx) const {
  if (registry_ == nullptr || ctx < 1) return nullptr;
  const auto& scopes = registry_->scopes();
  if (ctx > scopes.size()) return nullptr;
  return &scopes[ctx - 1];
}

bool MetricsServer::context_valid(ContextId ctx) {
  return ctx == naming::kDefaultContext || scope_of(ctx) != nullptr;
}

sim::Co<naming::CsnhServer::LookupResult> MetricsServer::lookup(
    ipc::Process& /*self*/, ContextId ctx, std::string_view component) {
  if (registry_ == nullptr) co_return LookupResult::missing();
  if (ctx == naming::kDefaultContext) {
    if (component == kFlightDumpLeaf) co_return LookupResult::object();
    const auto& scopes = registry_->scopes();
    for (std::size_t i = 0; i < scopes.size(); ++i) {
      if (scopes[i] == component) {
        co_return LookupResult::local(static_cast<ContextId>(i + 1));
      }
    }
    co_return LookupResult::missing();
  }
  const std::string* scope = scope_of(ctx);
  if (scope != nullptr && registry_->value_text(*scope, component)) {
    co_return LookupResult::object();
  }
  co_return LookupResult::missing();
}

ObjectDescriptor MetricsServer::describe_metric(
    ContextId ctx, const std::string& name, const std::string& value) const {
  ObjectDescriptor desc;
  desc.type = naming::DescriptorType::kFile;
  desc.flags = naming::kReadable;
  desc.size = static_cast<std::uint32_t>(value.size());
  desc.server_pid = pid().raw;
  desc.context_id = ctx;
  desc.name = name;
  return desc;
}

V_BORROWS_SPAN
sim::Co<Result<ObjectDescriptor>> MetricsServer::describe(
    ipc::Process& self, ContextId ctx, std::string_view leaf) {
  if (leaf.empty()) {
    // The context itself: fall back to the generic context record.
    co_return co_await CsnhServer::describe(self, ctx, leaf);
  }
  if (ctx == naming::kDefaultContext && leaf == kFlightDumpLeaf) {
    // Size 0: the dump is rendered at Open time; a descriptor size would
    // be stale the moment another event is recorded.
    co_return describe_metric(ctx, std::string(leaf), std::string{});
  }
  const std::string* scope = scope_of(ctx);
  if (scope == nullptr) co_return ReplyCode::kNotFound;
  auto value = registry_->value_text(*scope, leaf);
  if (!value) co_return ReplyCode::kNotFound;
  co_return describe_metric(ctx, std::string(leaf), *value);
}

sim::Co<Result<std::unique_ptr<io::InstanceObject>>> MetricsServer::
    open_object(ipc::Process& self, ContextId ctx, std::string_view leaf,
                std::uint16_t /*mode*/) {
  (void)self;
  if (ctx == naming::kDefaultContext && leaf == kFlightDumpLeaf) {
    // On-demand post-mortem: the Open fires a dump trigger (so the dump
    // records why it exists, and a configured dump path gets the file)
    // and the instance content is the rendered Chrome trace-event JSON.
    auto& dom = self.domain();
    dom.flight().trigger(obs::kDumpOnDemand, dom.now());
    const std::string doc = dom.flight().chrome_json();
    std::vector<std::byte> bytes(doc.size());
    if (!bytes.empty()) std::memcpy(bytes.data(), doc.data(), bytes.size());
    co_return std::make_unique<io::BufferInstance>(std::move(bytes),
                                                   io::kInstanceReadable);
  }
  const std::string* scope = scope_of(ctx);
  if (scope == nullptr) co_return ReplyCode::kNotFound;
  const auto value = registry_->value_text(*scope, leaf);
  if (!value) co_return ReplyCode::kNotFound;
  // Snapshot-at-open semantics: the instance holds the value as of the
  // Open, exactly like a context directory holds its fabrication snapshot.
  std::vector<std::byte> bytes(value->size());
  if (!bytes.empty()) std::memcpy(bytes.data(), value->data(), bytes.size());
  co_return std::make_unique<io::BufferInstance>(std::move(bytes),
                                                 io::kInstanceReadable);
}

sim::Co<Result<std::vector<ObjectDescriptor>>> MetricsServer::list_context(
    ipc::Process& /*self*/, ContextId ctx) {
  std::vector<ObjectDescriptor> entries;
  if (registry_ == nullptr) co_return entries;
  if (ctx == naming::kDefaultContext) {
    const auto& scopes = registry_->scopes();
    for (std::size_t i = 0; i < scopes.size(); ++i) {
      ObjectDescriptor desc;
      desc.type = naming::DescriptorType::kContext;
      desc.flags = naming::kReadable;
      desc.server_pid = pid().raw;
      desc.context_id = static_cast<ContextId>(i + 1);
      desc.name = scopes[i];
      entries.push_back(std::move(desc));
    }
    entries.push_back(
        describe_metric(ctx, std::string(kFlightDumpLeaf), std::string{}));
    co_return entries;
  }
  const std::string* scope = scope_of(ctx);
  if (scope == nullptr) co_return ReplyCode::kInvalidContext;
  for (const auto& metric : registry_->names(*scope)) {
    auto value = registry_->value_text(*scope, metric);
    entries.push_back(describe_metric(ctx, metric, value.value_or("")));
  }
  co_return entries;
}

Result<std::string> MetricsServer::context_to_name(ContextId ctx) {
  if (ctx == naming::kDefaultContext) return std::string{};
  const std::string* scope = scope_of(ctx);
  if (scope == nullptr) return ReplyCode::kInvalidContext;
  return *scope;
}

}  // namespace v::servers

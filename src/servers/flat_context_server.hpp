// FlatContextServer<Record>: the skeleton of every server whose name space
// is ONE flat context of named records — terminals, print jobs, mailboxes,
// connections, programs, exception reports and pipes (paper section 6).
//
// The paper's point is that the single name-handling protocol reaches every
// kind of object alike; this base is where that sameness is written once.
// It owns the name -> record map and the id counter and implements, for the
// one context: the service registration, lookup, the context and record
// descriptors, gated CreateName/RemoveName, open (with create), the context
// directory and the context's inverse name.  A server supplies its Record
// type and overrides only the hooks where it differs.
//
// Record requirements:
//   id                                  object id, assigned on insert
//   std::uint32_t size() const          what descriptors and opens report
//   static constexpr DescriptorType kType
//   static constexpr std::uint16_t kFlags   descriptor flags; the default
//                                       instance's flags too (the kReadable /
//                                       kWriteable / kAppendOnly bits equal
//                                       io's kInstance* bits)
//   static constexpr std::string_view kContextName   GetContextName answer
//   static constexpr ipc::ServiceId kService  registered at kScope on start
//   static constexpr ipc::Scope kScope        when register_service is set
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/annotate.hpp"
#include "naming/csnh_server.hpp"
#include "naming/protocol.hpp"

namespace v::servers {

template <class Record>
class FlatContextServer : public naming::CsnhServer {
 protected:
  using Id = decltype(Record::id);

  FlatContextServer(bool register_service, naming::TeamConfig team)
      : CsnhServer(team), register_service_(register_service) {}

  [[nodiscard]] std::map<std::string, Record, std::less<>>& records() noexcept {
    return records_;
  }
  [[nodiscard]] const std::map<std::string, Record, std::less<>>& records()
      const noexcept {
    return records_;
  }
  /// The record named `name`, or nullptr.  Instances re-find their record
  /// by name on every operation: it may have been removed meanwhile.
  [[nodiscard]] Record* find(std::string_view name) {
    auto it = records_.find(name);
    return it != records_.end() ? &it->second : nullptr;
  }
  [[nodiscard]] const Record* find(std::string_view name) const {
    auto it = records_.find(name);
    return it != records_.end() ? &it->second : nullptr;
  }
  /// The next object id, for records made outside CreateName.
  Id next_id() noexcept { return next_id_++; }

  // --- hooks ------------------------------------------------------------------

  /// CreateName's verdict on `leaf`: kOk, kBadArgs for a malformed name, or
  /// kIllegalRequest where objects are not made by name (an open-with-create
  /// of a missing leaf is then a plain open).  Default: any non-empty leaf.
  [[nodiscard]] virtual ReplyCode check_create(std::string_view leaf) const {
    return leaf.empty() ? ReplyCode::kBadArgs : ReplyCode::kOk;
  }
  /// The new record for a CreateName that passed check_create, made under
  /// the (ctx, leaf) gate.  A hook that suspends must re-check for `leaf`.
  /// Default: kIllegalRequest, for servers whose check_create refuses.
  virtual sim::Co<Result<Record>> new_record(ipc::Process& /*self*/,
                                             std::string_view /*leaf*/) {
    co_return ReplyCode::kIllegalRequest;
  }
  /// Refusal of an open `mode` before anything is looked up or created.
  [[nodiscard]] virtual ReplyCode check_open(std::uint16_t /*mode*/) const {
    return ReplyCode::kOk;
  }
  /// RemoveName's veto (kBadState while the object is busy).
  [[nodiscard]] virtual ReplyCode check_remove(const Record& /*record*/,
                                               sim::SimTime /*now*/) const {
    return ReplyCode::kOk;
  }
  /// The descriptor fields beyond type, flags, size, id and name.
  virtual void describe_record(naming::ObjectDescriptor& desc,
                               const Record& record,
                               sim::SimTime now) const = 0;
  /// The instance an open of the record `name` returns.  Default: one that
  /// serves read_record / write_record.
  virtual Result<std::unique_ptr<io::InstanceObject>> open_record(
      const std::string& name, Record& /*record*/, std::uint16_t /*mode*/) {
    return std::unique_ptr<io::InstanceObject>(
        std::make_unique<RecordInstance>(*this, name));
  }
  /// Instance reads and writes of the default instance, on a record that
  /// still exists.  A write that suspends must re-find its record by `name`.
  virtual Result<std::size_t> read_record(const Record& /*record*/,
                                          std::uint32_t /*block*/,
                                          std::span<std::byte> /*out*/) const {
    return ReplyCode::kNotReadable;
  }
  virtual sim::Co<Result<std::size_t>> write_record(
      ipc::Process& /*self*/, std::string_view /*name*/, Record& /*record*/,
      std::span<const std::byte> /*data*/) {
    co_return ReplyCode::kNotWriteable;
  }

  // --- the protocol, written once ---------------------------------------------

  sim::Co<void> on_start(ipc::Process& self) override {
    if (register_service_) {
      self.set_pid(Record::kService, self.pid(), Record::kScope);
    }
    co_return;
  }

  sim::Co<LookupResult> lookup(ipc::Process& /*self*/,
                               naming::ContextId /*ctx*/,
                               std::string_view component) override {
    const Record* record = find(component);
    if (record == nullptr) co_return LookupResult::missing();
    co_return LookupResult::object(record->id);
  }

  sim::Co<Result<naming::ObjectDescriptor>> describe(
      ipc::Process& self, naming::ContextId ctx,
      std::string_view leaf) override {
    if (leaf.empty()) {
      // The context's own record carries the record count.
      naming::ObjectDescriptor desc;
      desc.type = naming::DescriptorType::kContext;
      desc.server_pid = pid().raw;
      desc.context_id = ctx;
      desc.size = static_cast<std::uint32_t>(records_.size());
      if (auto name = context_to_name(ctx); name.ok()) desc.name = name.value();
      co_return desc;
    }
    auto it = records_.find(leaf);
    if (it == records_.end()) co_return ReplyCode::kNotFound;
    co_return descriptor(it->first, it->second, self.now());
  }

  V_BORROWS_SPAN
  V_GATED_MUTATION
  sim::Co<ReplyCode> create_object(ipc::Process& self, naming::ContextId ctx,
                                   std::string_view leaf,
                                   std::uint16_t /*mode*/) override {
    note_name_write(self, ctx, leaf);
    if (const ReplyCode verdict = check_create(leaf);
        verdict != ReplyCode::kOk) {
      co_return verdict;
    }
    if (records_.contains(leaf)) co_return ReplyCode::kNameExists;
    auto record = co_await new_record(self, leaf);
    if (!record.ok()) co_return record.code();
    Record made = record.take();
    made.id = next_id();
    records_.emplace(std::string(leaf), std::move(made));
    co_return ReplyCode::kOk;
  }

  V_GATED_MUTATION
  sim::Co<ReplyCode> remove(ipc::Process& self, naming::ContextId ctx,
                            std::string_view leaf) override {
    note_name_write(self, ctx, leaf);
    auto it = records_.find(leaf);
    if (it == records_.end()) co_return ReplyCode::kNotFound;
    if (const ReplyCode veto = check_remove(it->second, self.now());
        veto != ReplyCode::kOk) {
      co_return veto;
    }
    records_.erase(it);
    co_return ReplyCode::kOk;
  }

  V_BORROWS_SPAN
  sim::Co<Result<std::unique_ptr<io::InstanceObject>>> open_object(
      ipc::Process& self, naming::ContextId ctx, std::string_view leaf,
      std::uint16_t mode) override {
    if (const ReplyCode refused = check_open(mode);
        refused != ReplyCode::kOk) {
      co_return refused;
    }
    if (!records_.contains(leaf)) {
      // Open-with-create creates only where CreateName would.
      if ((mode & naming::wire::kOpenCreate) == 0 ||
          check_create(leaf) == ReplyCode::kIllegalRequest) {
        co_return ReplyCode::kNotFound;
      }
      // vlint: allow(gate-generation): open-with-create dispatches through handle_csname, which bumps the generation on success.
      const auto created = co_await create_object(self, ctx, leaf, mode);
      if (!v::ok(created)) co_return created;
    }
    auto it = records_.find(leaf);
    co_return open_record(it->first, it->second, mode);
  }

  sim::Co<Result<std::vector<naming::ObjectDescriptor>>> list_context(
      ipc::Process& self, naming::ContextId /*ctx*/) override {
    std::vector<naming::ObjectDescriptor> descs;
    descs.reserve(records_.size());
    for (const auto& [name, record] : records_) {
      descs.push_back(descriptor(name, record, self.now()));
    }
    co_return descs;
  }

  Result<std::string> context_to_name(naming::ContextId ctx) override {
    if (ctx != naming::kDefaultContext) return ReplyCode::kNoInverse;
    return std::string(Record::kContextName);
  }

 private:
  /// The default open instance: re-finds its record by name on every
  /// operation and answers kBadState once the record is gone.
  class RecordInstance final : public io::InstanceObject {
   public:
    RecordInstance(FlatContextServer& server, std::string name) noexcept
        : server_(server), name_(std::move(name)) {}

    [[nodiscard]] io::InstanceInfo info() const override {
      io::InstanceInfo info;
      info.flags = Record::kFlags;
      const Record* record = server_.find(name_);
      info.size_bytes = record != nullptr ? record->size() : 0;
      return info;
    }

    sim::Co<Result<std::size_t>> read_block(
        ipc::Process& /*self*/, std::uint32_t block,
        std::span<std::byte> out) override {
      if ((Record::kFlags & naming::kReadable) == 0) {
        co_return ReplyCode::kNotReadable;
      }
      const Record* record = server_.find(name_);
      if (record == nullptr) co_return ReplyCode::kBadState;
      co_return server_.read_record(*record, block, out);
    }

    sim::Co<Result<std::size_t>> write_block(
        ipc::Process& self, std::uint32_t /*block*/,
        std::span<const std::byte> data) override {
      Record* record = server_.find(name_);
      if (record == nullptr) co_return ReplyCode::kBadState;
      co_return co_await server_.write_record(self, name_, *record, data);
    }

   private:
    FlatContextServer& server_;
    std::string name_;
  };

  naming::ObjectDescriptor descriptor(const std::string& name,
                                      const Record& record,
                                      sim::SimTime now) const {
    naming::ObjectDescriptor desc;
    desc.type = Record::kType;
    desc.flags = Record::kFlags;
    desc.size = record.size();
    desc.object_id = record.id;
    desc.name = name;
    describe_record(desc, record, now);
    return desc;
  }

  bool register_service_;
  std::map<std::string, Record, std::less<>> records_;
  Id next_id_ = 1;
};

}  // namespace v::servers

#include "baseline/central.hpp"

#include <cstring>
#include <vector>

#include "naming/parse.hpp"
#include "common/annotate.hpp"

namespace v::baseline {

void CentralNameServer::preload(std::string name, Binding binding) {
  table_[std::move(name)] = std::move(binding);
}

sim::Co<void> CentralNameServer::run(ipc::Process self) {
  pid_ = self.pid();
  self.set_pid(ipc::ServiceId::kCentralNameServer, self.pid(),
               ipc::Scope::kBoth);
  for (;;) {
    auto env = co_await self.receive();
    const std::uint16_t code = env.request.code();
    if (code == kCountNames) {
      msg::Message reply = msg::make_reply(ReplyCode::kOk);
      reply.set_u32(kOffCount, static_cast<std::uint32_t>(table_.size()));
      self.reply(env, reply);
      continue;
    }
    if (code != kRegisterName && code != kLookupName &&
        code != kUnregisterName) {
      self.reply(env, msg::make_reply(ReplyCode::kIllegalRequest));
      continue;
    }
    const std::uint16_t name_len = env.request.u16(kOffNameLen);
    if (name_len == 0 || name_len > naming::kMaxNameLength) {
      self.reply(env, msg::make_reply(ReplyCode::kBadArgs));
      continue;
    }
    std::string name(name_len, '\0');
    auto fetched = co_await self.move_from(
        env, std::as_writable_bytes(std::span(name)), 0);
    if (!fetched.ok()) continue;
    // Registry work: comparable per-request cost to a CSNH server's parse.
    co_await self.compute(self.params().csname_parse);

    msg::Message reply;
    switch (code) {
      case kRegisterName: {
        Binding binding;
        binding.home.server =
            ipc::ProcessId{env.request.u32(kOffServerPid)};
        binding.home.context = env.request.u32(kOffContextId);
        const std::uint16_t leaf_len = env.request.u16(kOffLeafLen);
        if (!binding.home.valid() || leaf_len > name.size()) {
          reply = msg::make_reply(ReplyCode::kBadArgs);
          break;
        }
        binding.leaf = name.substr(name.size() - leaf_len);
        table_[name] = std::move(binding);
        reply = msg::make_reply(ReplyCode::kOk);
        break;
      }
      case kLookupName: {
        auto it = table_.find(name);
        if (it == table_.end()) {
          reply = msg::make_reply(ReplyCode::kNotFound);
          break;
        }
        reply = msg::make_reply(ReplyCode::kOk);
        reply.set_u32(kOffServerPid, it->second.home.server.raw);
        reply.set_u32(kOffContextId, it->second.home.context);
        reply.set_u16(kOffLeafLen,
                      static_cast<std::uint16_t>(it->second.leaf.size()));
        // The leaf suffix is implicit in the name the client sent; no bulk
        // reply needed.
        break;
      }
      case kUnregisterName: {
        reply = msg::make_reply(table_.erase(name) > 0
                                    ? ReplyCode::kOk
                                    : ReplyCode::kNotFound);
        break;
      }
      default:
        reply = msg::make_reply(ReplyCode::kIllegalRequest);
        break;
    }
    self.reply(env, reply);
  }
}

V_BORROWS_SPAN
sim::Co<msg::Message> CentralClient::send_with_name(
    msg::Message request, std::string_view name,
    std::span<std::byte> write_segment) {
  co_await self_.compute(self_.params().send_build);
  request.set_u16(kOffNameLen, static_cast<std::uint16_t>(name.size()));
  ipc::Segments segments;
  segments.read = std::as_bytes(std::span(name.data(), name.size()));
  segments.write = write_segment;
  co_return co_await self_.send(request, name_server_, segments);
}

sim::Co<ReplyCode> CentralClient::register_name(std::string_view name,
                                                const Binding& binding) {
  msg::Message request;
  request.set_code(kRegisterName);
  request.set_u32(kOffServerPid, binding.home.server.raw);
  request.set_u32(kOffContextId, binding.home.context);
  request.set_u16(kOffLeafLen,
                  static_cast<std::uint16_t>(binding.leaf.size()));
  const auto reply = co_await send_with_name(request, name, {});
  co_return reply.reply_code();
}

V_BORROWS_SPAN
sim::Co<Result<Binding>> CentralClient::lookup(std::string_view name) {
  msg::Message request;
  request.set_code(kLookupName);
  const auto reply = co_await send_with_name(request, name, {});
  if (reply.reply_code() != ReplyCode::kOk) co_return reply.reply_code();
  Binding binding;
  binding.home.server = ipc::ProcessId{reply.u32(kOffServerPid)};
  binding.home.context = reply.u32(kOffContextId);
  const std::uint16_t leaf_len = reply.u16(kOffLeafLen);
  if (leaf_len > name.size()) co_return ReplyCode::kBadArgs;
  binding.leaf = std::string(name.substr(name.size() - leaf_len));
  co_return binding;
}

sim::Co<ReplyCode> CentralClient::unregister_name(std::string_view name) {
  msg::Message request;
  request.set_code(kUnregisterName);
  const auto reply = co_await send_with_name(request, name, {});
  co_return reply.reply_code();
}

sim::Co<Result<std::uint32_t>> CentralClient::count() {
  co_await self_.compute(self_.params().send_build);
  msg::Message request;
  request.set_code(kCountNames);
  const auto reply = co_await self_.send(request, name_server_);
  if (reply.reply_code() != ReplyCode::kOk) co_return reply.reply_code();
  co_return reply.u32(kOffCount);
}

}  // namespace v::baseline

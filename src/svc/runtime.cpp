#include "svc/runtime.hpp"

#include <cstring>

#include "msg/request_codes.hpp"
#include "naming/parse.hpp"
#include "naming/protocol.hpp"
#include "common/annotate.hpp"

namespace v::svc {

using msg::Message;
using msg::RequestCode;
using naming::ContextPair;
using naming::ObjectDescriptor;

sim::Co<Rt> Rt::attach(ipc::Process self, naming::ContextPair current) {
  const auto prefix_server = co_await self.get_pid(
      ipc::ServiceId::kContextPrefixServer, ipc::Scope::kLocal);
  co_return Rt(self, NameEnv{prefix_server, current});
}

V_BORROWS_SPAN
sim::Co<msg::Message> Rt::send_csname(msg::Message request,
                                      std::string_view name,
                                      std::span<const std::byte> payload,
                                      std::span<std::byte> write_segment) {
  co_await self_.compute(self_.params().send_build);
  // Read segment layout: name bytes, then the operation payload.  Both
  // pieces outlive the blocking send in the caller's storage, so expose
  // them as the kernel's scatter-gather pair (Segments::read/read2)
  // instead of staging a concatenation buffer — MoveFrom addresses them as
  // one contiguous range.
  msg::cs::set_name_length(request, static_cast<std::uint16_t>(name.size()));
  msg::cs::set_name_index(request, 0);

  // The '['-check: route to the context prefix server or to the server of
  // the current context.  (Localized here, as in the paper.)
  ipc::ProcessId dest;
  if (naming::has_prefix_syntax(name)) {
    if (!env_.prefix_server.valid()) {
      co_return msg::make_reply(ReplyCode::kNotFound);
    }
    dest = env_.prefix_server;
    msg::cs::set_context_id(request, naming::kDefaultContext);
  } else {
    if (!env_.current.valid()) {
      co_return msg::make_reply(ReplyCode::kInvalidContext);
    }
    dest = env_.current.server;
    msg::cs::set_context_id(request, env_.current.context);
  }
  ipc::Segments segments;
  segments.read = std::as_bytes(std::span(name.data(), name.size()));
  segments.read2 = payload;
  segments.write = write_segment;
  const Message reply = co_await self_.send(request, dest, segments);
  observe_reply_hints();
  co_return reply;
}

void Rt::set_cache(NameCache* cache) {
  cache_ = cache;
  if (cache_ != nullptr) {
    // Materialize the namecache scope so "[metrics]namecache" is listable
    // before the first hit/miss.
    auto& metrics = self_.domain().metrics();
    metrics.counter("namecache", "hits");
    metrics.counter("namecache", "misses");
    metrics.counter("namecache", "stale");
    metrics.counter("namecache", "fallbacks");
  }
}

V_HOT_PATH
void Rt::observe_reply_hints() {
  if (cache_ == nullptr) return;
  // The origin hint reports the entry binding the request travelled
  // through; the binding hint reports the final one, which doubles as an
  // origin observation for requests that never forwarded (e.g. this
  // client's own prefix-table edits).
  cache_->observe_origin(self_.last_origin_hint());
  cache_->observe_origin(self_.last_binding_hint());
}

V_HOT_PATH
Rt::OpenedFile Rt::decode_open_reply(ipc::Process self, const Message& reply) {
  io::InstanceInfo info;
  info.size_bytes = reply.u32(io::kOffCreateSize);
  info.block_bytes = reply.u16(io::kOffCreateBlock);
  info.flags = reply.u16(io::kOffCreateFlags);
  const auto instance =
      static_cast<io::InstanceId>(reply.u16(io::kOffCreateInstance));
  // Open may have been forwarded through several servers; the reply names
  // the one that finally implements the instance, and all further I/O goes
  // straight to it without remapping (paper section 4.2).
  const ipc::ProcessId server{reply.u32(io::kOffCreateServerPid)};
  const naming::ContextPair directory{server,
                                      reply.u32(io::kOffCreateContextId)};
  return Rt::OpenedFile{File(self, server, instance, info), directory};
}

/// Split a name into (directory-part, leaf).  An empty directory means
/// "interpret in the current context" — nothing cacheable.
Rt::SplitName Rt::split_dir_leaf(std::string_view name) {
  const auto slash = name.rfind('/');
  if (slash != std::string_view::npos) {
    return {name.substr(0, slash), name.substr(slash + 1)};
  }
  if (naming::has_prefix_syntax(name)) {
    const auto close = name.find(naming::kPrefixClose);
    if (close != std::string_view::npos) {
      return {name.substr(0, close + 1), name.substr(close + 1)};
    }
  }
  return {std::string_view{}, name};
}

V_BORROWS_SPAN
sim::Co<Result<Rt::OpenedFile>> Rt::open_resolved(std::string_view name,
                                                  std::uint16_t mode) {
  Message request;
  request.set_code(RequestCode::kCreateInstance);
  msg::cs::set_mode(request, mode);
  const Message reply = co_await send_csname(request, name);
  if (reply.reply_code() != ReplyCode::kOk) co_return reply.reply_code();
  if (cache_ != nullptr) {
    // Learn the directory binding from the piggybacked hint.  Only cache
    // it when the server's leaf boundary agrees with our split — custom
    // name syntaxes may disagree, and such a binding could not be reused.
    const ipc::BindingHint hint = self_.last_binding_hint();
    const SplitName split = split_dir_leaf(name);
    // The server's boundary may sit ON the separator our split strips.
    const std::size_t leaf_start = name.size() - split.leaf.size();
    const bool boundary_agrees =
        hint.consumed == leaf_start ||
        (std::size_t{hint.consumed} + 1 == leaf_start &&
         name[hint.consumed] == '/');
    if (hint.valid() && !split.dir.empty() && boundary_agrees) {
      cache_->put(split.dir,
                  NameCache::Binding{
                      {ipc::ProcessId{hint.server_pid}, hint.context_id},
                      hint.generation, hint.consumed,
                      self_.last_origin_hint()});
    }
  }
  co_return decode_open_reply(self_, reply);
}

V_BORROWS_SPAN
V_HOT_PATH
sim::Co<msg::Message> Rt::open_at(naming::ContextPair target,
                                  std::string_view name,
                                  std::uint16_t name_index,
                                  std::uint16_t mode,
                                  std::uint32_t expected_generation) {
  co_await self_.compute(self_.params().send_build);
  Message request;
  request.set_code(RequestCode::kCreateInstance);
  msg::cs::set_mode(request, mode);
  msg::cs::set_name_length(request, static_cast<std::uint16_t>(name.size()));
  // Address the target context directly, with the name index already past
  // whatever part the binding covers — the server interprets only the rest
  // — and demand the generation the binding was learned under.
  msg::cs::set_name_index(request, name_index);
  msg::cs::set_context_id(request, target.context);
  msg::cs::set_expected_generation(request, expected_generation);
  ipc::Segments segments;
  segments.read = std::as_bytes(std::span(name.data(), name.size()));
  const Message reply = co_await self_.send(request, target.server, segments);
  observe_reply_hints();
  co_return reply;
}

V_BORROWS_SPAN
V_HOT_PATH
sim::Co<Result<Rt::OpenedFile>> Rt::open_via_binding(
    std::string_view name, std::uint16_t mode,
    const NameCache::Binding& binding, SplitName split) {
  const Message reply = co_await open_at(
      binding.target, name,
      static_cast<std::uint16_t>(name.size() - split.leaf.size()), mode,
      binding.generation);
  if (reply.reply_code() != ReplyCode::kOk) co_return reply.reply_code();
  // Refresh the entry from the reply hint: a create-mode open legitimately
  // advanced the generation, and the next cached open must expect the new
  // one.
  const ipc::BindingHint hint = self_.last_binding_hint();
  if (hint.valid()) {
    cache_->put(split.dir,
                NameCache::Binding{
                    {ipc::ProcessId{hint.server_pid}, hint.context_id},
                    hint.generation, hint.consumed, binding.origin});
  }
  co_return decode_open_reply(self_, reply);
}

V_BORROWS_SPAN
sim::Co<Result<Rt::OpenedFile>> Rt::open_via_rebind(std::string_view name,
                                                    std::uint16_t mode,
                                                    ReplyCode original) {
  const SplitName split = split_dir_leaf(name);
  // The group members are ordinary object servers: they do not speak the
  // prefix syntax, so a "[prefix]" head is stripped — the remainder names
  // the directory inside each member's own name space (possibly empty:
  // probe their default context).
  std::string_view dir = split.dir;
  if (naming::has_prefix_syntax(dir)) {
    const auto close = dir.find(naming::kPrefixClose);
    if (close != std::string_view::npos) dir = dir.substr(close + 1);
  }
  co_await self_.compute(self_.params().send_build);
  Message probe;
  probe.set_code(RequestCode::kMapContextName);
  msg::cs::set_name_length(probe, static_cast<std::uint16_t>(dir.size()));
  msg::cs::set_name_index(probe, 0);
  msg::cs::set_context_id(probe, naming::kDefaultContext);
  // Recovery probe: members that cannot map `dir` stay silent, so the
  // first (= only) reply names a server that really implements it.
  msg::cs::set_recovery_probe(probe);
  ipc::Segments probe_segments;
  probe_segments.read = std::as_bytes(std::span(dir.data(), dir.size()));
  const Message probe_reply = co_await self_.send_to_group(
      probe, recovery_.rebind_group, probe_segments);
  observe_reply_hints();
  if (probe_reply.reply_code() != ReplyCode::kOk) {
    co_return original;  // nobody answered: the probe changed nothing
  }
  const ContextPair rebound = naming::wire::get_map_reply(probe_reply);

  // Open the leaf directly against the member that answered: context id
  // from the probe reply, name index already past the directory part.
  co_await self_.compute(self_.params().send_build);
  Message request;
  request.set_code(RequestCode::kCreateInstance);
  msg::cs::set_mode(request, mode);
  msg::cs::set_name_length(request, static_cast<std::uint16_t>(name.size()));
  msg::cs::set_name_index(
      request, static_cast<std::uint16_t>(name.size() - split.leaf.size()));
  msg::cs::set_context_id(request, rebound.context);
  ipc::Segments segments;
  segments.read = std::as_bytes(std::span(name.data(), name.size()));
  const Message reply = co_await self_.send(request, rebound.server,
                                            segments);
  observe_reply_hints();
  if (reply.reply_code() != ReplyCode::kOk) co_return reply.reply_code();
  if (cache_ != nullptr) {
    // Feed the repaired binding to the cache so the NEXT open goes to the
    // new incarnation in one hop.
    const ipc::BindingHint hint = self_.last_binding_hint();
    if (hint.valid() && !split.dir.empty()) {
      cache_->put(split.dir,
                  NameCache::Binding{
                      {ipc::ProcessId{hint.server_pid}, hint.context_id},
                      hint.generation, hint.consumed,
                      self_.last_origin_hint()});
    }
  }
  co_return decode_open_reply(self_, reply);
}

V_BORROWS_SPAN
sim::Co<Result<Rt::OpenedFile>> Rt::open_detailed(std::string_view name,
                                                  std::uint16_t mode) {
  if (cache_ != nullptr) {
    const SplitName split = split_dir_leaf(name);
    if (!split.dir.empty()) {
      if (const auto hit = cache_->find(split.dir)) {
        self_.domain().metrics().counter("namecache", "hits").inc();
        auto direct = co_await open_via_binding(name, mode, *hit, split);
        const ReplyCode code = direct.ok() ? ReplyCode::kOk : direct.code();
        if (code != ReplyCode::kStaleContext &&
            code != ReplyCode::kInvalidContext &&
            code != ReplyCode::kNoReply) {
          // Success, or an authoritative negative from a validated binding.
          co_return direct;
        }
        if (code == ReplyCode::kStaleContext) {
          cache_->note_stale();
          self_.domain().metrics().counter("namecache", "stale").inc();
        }
        cache_->erase(split.dir);
        cache_->note_fallback();
        self_.domain().metrics().counter("namecache", "fallbacks").inc();
      } else {
        self_.domain().metrics().counter("namecache", "misses").inc();
      }
    }
  }
  // Full resolution, with the recovery policy on top: transport errors
  // (kNoReply / kTimeout) are retried up to noreply_retries times, then —
  // like authoritative kInvalidContext — handed to multicast rebinding
  // when a rebind group is configured (paper §2.3/§4 repair).
  std::size_t retries = recovery_.noreply_retries;
  for (;;) {
    auto resolved = co_await open_resolved(name, mode);
    const ReplyCode code = resolved.ok() ? ReplyCode::kOk : resolved.code();
    const bool transport =
        code == ReplyCode::kNoReply || code == ReplyCode::kTimeout;
    if (transport && retries > 0) {
      --retries;
      continue;
    }
    if ((transport || code == ReplyCode::kInvalidContext) &&
        recovery_.rebind_group != 0) {
      co_return co_await open_via_rebind(name, mode, code);
    }
    co_return resolved;
  }
}

sim::Co<Result<File>> Rt::open(std::string_view name, std::uint16_t mode) {
  auto opened = co_await open_detailed(name, mode);
  if (!opened.ok()) co_return opened.code();
  co_return opened.take().file;
}

sim::Co<Result<File>> Rt::open_cached(NameCache& cache,
                                      std::string_view name,
                                      std::uint16_t mode) {
  NameCache* const saved = cache_;
  set_cache(&cache);
  auto opened = co_await open_detailed(name, mode);
  set_cache(saved);
  if (!opened.ok()) co_return opened.code();
  co_return opened.take().file;
}

namespace {
/// Decode a buffer of concatenated descriptor records.
std::vector<ObjectDescriptor> decode_records(
    const std::vector<std::byte>& data) {
  std::vector<ObjectDescriptor> records;
  for (std::size_t off = 0; off + ObjectDescriptor::kWireSize <= data.size();
       off += ObjectDescriptor::kWireSize) {
    auto rec = ObjectDescriptor::decode(
        std::span(data).subspan(off, ObjectDescriptor::kWireSize));
    if (rec.ok()) records.push_back(rec.take());
  }
  return records;
}
}  // namespace

sim::Co<Result<std::vector<naming::ObjectDescriptor>>> Rt::list_matching(
    std::string_view ctx_name, std::string_view pattern) {
  std::string name(ctx_name);
  if (!name.empty() && name.back() != '/' &&
      name.back() != naming::kPrefixClose) {
    name.push_back('/');
  }
  name.append(pattern);
  auto opened = co_await open(
      name, naming::wire::kOpenRead | naming::wire::kOpenDirectory |
                naming::wire::kOpenPattern);
  if (!opened.ok()) co_return opened.code();
  File dir = opened.take();
  auto bytes = co_await dir.read_all();
  const ReplyCode closed = co_await dir.close();
  if (!bytes.ok()) co_return bytes.code();
  if (!v::ok(closed)) co_return closed;
  co_return decode_records(bytes.value());
}

sim::Co<Result<std::vector<naming::ObjectDescriptor>>> Rt::list_context(
    std::string_view name) {
  auto opened = co_await open(name, naming::wire::kOpenRead |
                                        naming::wire::kOpenDirectory);
  if (!opened.ok()) co_return opened.code();
  File dir = opened.take();
  auto bytes = co_await dir.read_all();
  const ReplyCode closed = co_await dir.close();
  if (!bytes.ok()) co_return bytes.code();
  if (!v::ok(closed)) co_return closed;
  co_return decode_records(bytes.value());
}

sim::Co<Result<naming::ContextPair>> Rt::map_context(std::string_view name) {
  Message request;
  request.set_code(RequestCode::kMapContextName);
  const Message reply = co_await send_csname(request, name);
  if (reply.reply_code() != ReplyCode::kOk) co_return reply.reply_code();
  co_return naming::wire::get_map_reply(reply);
}

sim::Co<ReplyCode> Rt::change_context(std::string_view name) {
  auto mapped = co_await map_context(name);
  if (!mapped.ok()) co_return mapped.code();
  env_.current = mapped.value();
  co_return ReplyCode::kOk;
}

sim::Co<Result<naming::ObjectDescriptor>> Rt::query(std::string_view name) {
  Message request;
  request.set_code(RequestCode::kQueryName);
  std::array<std::byte, ObjectDescriptor::kWireSize> record{};
  const Message reply = co_await send_csname(request, name, {}, record);
  if (reply.reply_code() != ReplyCode::kOk) co_return reply.reply_code();
  co_return ObjectDescriptor::decode(record);
}

sim::Co<ReplyCode> Rt::modify(std::string_view name,
                              const naming::ObjectDescriptor& desc) {
  Message request;
  request.set_code(RequestCode::kModifyName);
  std::array<std::byte, ObjectDescriptor::kWireSize> record{};
  desc.encode(record);
  const Message reply = co_await send_csname(request, name, record);
  co_return reply.reply_code();
}

sim::Co<ReplyCode> Rt::remove(std::string_view name) {
  Message request;
  request.set_code(RequestCode::kRemoveName);
  const Message reply = co_await send_csname(request, name);
  co_return reply.reply_code();
}

sim::Co<ReplyCode> Rt::rename(std::string_view name,
                              std::string_view new_leaf) {
  Message request;
  request.set_code(RequestCode::kRenameName);
  request.set_u16(naming::wire::kOffRenameNewLength,
                  static_cast<std::uint16_t>(new_leaf.size()));
  const Message reply = co_await send_csname(
      request, name,
      std::as_bytes(std::span(new_leaf.data(), new_leaf.size())));
  co_return reply.reply_code();
}

sim::Co<ReplyCode> Rt::create(std::string_view name, std::uint16_t mode) {
  Message request;
  request.set_code(RequestCode::kCreateName);
  msg::cs::set_mode(request, mode);
  const Message reply = co_await send_csname(request, name);
  co_return reply.reply_code();
}

sim::Co<ReplyCode> Rt::make_context(std::string_view name) {
  Message request;
  request.set_code(RequestCode::kMakeContext);
  const Message reply = co_await send_csname(request, name);
  co_return reply.reply_code();
}

sim::Co<ReplyCode> Rt::link(std::string_view name,
                            naming::ContextPair target) {
  Message request;
  request.set_code(RequestCode::kLinkContext);
  request.set_u32(naming::wire::kOffLinkServerPid, target.server.raw);
  request.set_u32(naming::wire::kOffLinkContextId, target.context);
  const Message reply = co_await send_csname(request, name);
  co_return reply.reply_code();
}

std::string Rt::bracket(std::string_view prefix) {
  if (naming::has_prefix_syntax(prefix)) return std::string(prefix);
  std::string name;
  name.reserve(prefix.size() + 2);
  name.push_back(naming::kPrefixOpen);
  name.append(prefix);
  name.push_back(naming::kPrefixClose);
  return name;
}

sim::Co<ReplyCode> Rt::add_prefix(std::string_view prefix,
                                  naming::ContextPair target) {
  Message request;
  request.set_code(RequestCode::kAddContextName);
  request.set_u32(naming::wire::kOffAddServerPid, target.server.raw);
  request.set_u32(naming::wire::kOffAddContextId, target.context);
  const std::string bracketed = bracket(prefix);
  const Message reply = co_await send_csname(request, bracketed);
  co_return reply.reply_code();
}

sim::Co<ReplyCode> Rt::add_logical_prefix(std::string_view prefix,
                                          ipc::ServiceId service,
                                          naming::ContextId context) {
  Message request;
  request.set_code(RequestCode::kAddContextName);
  request.set_u32(naming::wire::kOffAddContextId, context);
  request.set_u16(naming::wire::kOffAddFlags, naming::wire::kAddFlagLogical);
  request.set_u16(naming::wire::kOffAddService,
                  static_cast<std::uint16_t>(service));
  const std::string bracketed = bracket(prefix);
  const Message reply = co_await send_csname(request, bracketed);
  co_return reply.reply_code();
}

sim::Co<ReplyCode> Rt::add_group_prefix(std::string_view prefix,
                                        ipc::GroupId group,
                                        naming::ContextId context) {
  Message request;
  request.set_code(RequestCode::kAddContextName);
  request.set_u32(naming::wire::kOffAddServerPid, group);
  request.set_u32(naming::wire::kOffAddContextId, context);
  request.set_u16(naming::wire::kOffAddFlags, naming::wire::kAddFlagGroup);
  const std::string bracketed = bracket(prefix);
  const Message reply = co_await send_csname(request, bracketed);
  co_return reply.reply_code();
}

sim::Co<ReplyCode> Rt::delete_prefix(std::string_view prefix) {
  Message request;
  request.set_code(RequestCode::kDeleteContextName);
  const std::string bracketed = bracket(prefix);
  const Message reply = co_await send_csname(request, bracketed);
  co_return reply.reply_code();
}

sim::Co<Result<std::string>> Rt::context_name(naming::ContextPair ctx) {
  co_await self_.compute(self_.params().send_build);
  Message request;
  request.set_code(RequestCode::kGetContextName);
  request.set_u32(naming::wire::kOffInvContextId, ctx.context);
  std::vector<std::byte> buffer(naming::kMaxNameLength);
  ipc::Segments segments;
  segments.write = buffer;
  const Message reply = co_await self_.send(request, ctx.server, segments);
  if (reply.reply_code() != ReplyCode::kOk) co_return reply.reply_code();
  const std::uint16_t len = reply.u16(naming::wire::kOffInvNameLength);
  if (len > buffer.size()) co_return ReplyCode::kBadArgs;
  co_return std::string(reinterpret_cast<const char*>(buffer.data()), len);
}

sim::Co<Result<std::string>> Rt::file_name(ipc::ProcessId server,
                                           io::InstanceId instance) {
  co_await self_.compute(self_.params().send_build);
  Message request;
  request.set_code(RequestCode::kGetFileName);
  request.set_u16(naming::wire::kOffInvInstanceId, instance);
  std::vector<std::byte> buffer(naming::kMaxNameLength);
  ipc::Segments segments;
  segments.write = buffer;
  const Message reply = co_await self_.send(request, server, segments);
  if (reply.reply_code() != ReplyCode::kOk) co_return reply.reply_code();
  const std::uint16_t len = reply.u16(naming::wire::kOffInvNameLength);
  if (len > buffer.size()) co_return ReplyCode::kBadArgs;
  co_return std::string(reinterpret_cast<const char*>(buffer.data()), len);
}

}  // namespace v::svc

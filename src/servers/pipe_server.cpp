#include "servers/pipe_server.hpp"

#include <algorithm>
#include <cstring>

#include "msg/request_codes.hpp"
#include "common/annotate.hpp"

namespace v::servers {

using naming::DescriptorType;
using naming::ObjectDescriptor;

namespace {

/// Marks a Pipe as "in service" for the duration of a scope that suspends
/// while holding a Pipe&.  remove() refuses to erase a pipe whose counter
/// is non-zero, so the reference can never dangle even with a worker team.
class ServiceScope {
 public:
  explicit ServiceScope(int& count) noexcept : count_(count) { ++count_; }
  ~ServiceScope() { --count_; }
  ServiceScope(const ServiceScope&) = delete;
  ServiceScope& operator=(const ServiceScope&) = delete;

 private:
  int& count_;
};

}  // namespace

/// One open end of a pipe.  The instance's role in the table is only
/// bookkeeping (naming the temporary object, counting ends); the actual
/// read/write paths are intercepted in PipeServer::handle_instance_op so
/// reads can defer their reply.
class PipeEndInstance : public io::InstanceObject {
 public:
  PipeEndInstance(PipeServer& server, std::string pipe,
                  bool writer) noexcept
      : server_(server), pipe_(std::move(pipe)), writer_(writer) {}

  [[nodiscard]] const std::string& pipe() const noexcept { return pipe_; }
  [[nodiscard]] bool writer() const noexcept { return writer_; }

  [[nodiscard]] io::InstanceInfo info() const override {
    io::InstanceInfo info;
    info.flags = writer_ ? io::kInstanceWriteable : io::kInstanceReadable;
    auto it = server_.pipes_.find(pipe_);
    info.size_bytes =
        it != server_.pipes_.end()
            ? static_cast<std::uint32_t>(it->second.buffer.size())
            : 0;
    return info;
  }

  // Never reached: PipeServer::handle_instance_op intercepts reads/writes.
  sim::Co<Result<std::size_t>> read_block(ipc::Process&, std::uint32_t,
                                          std::span<std::byte>) override {
    co_return ReplyCode::kBadState;
  }
  sim::Co<Result<std::size_t>> write_block(
      ipc::Process&, std::uint32_t, std::span<const std::byte>) override {
    co_return ReplyCode::kBadState;
  }

  void release(ipc::Process& /*self*/) override {
    auto it = server_.pipes_.find(pipe_);
    if (it == server_.pipes_.end()) return;
    if (writer_) {
      --it->second.writer_ends;
    } else {
      --it->second.reader_ends;
    }
  }

 private:
  PipeServer& server_;
  std::string pipe_;
  bool writer_;
};

PipeServer::PipeServer(std::size_t capacity_bytes, naming::TeamConfig team)
    : CsnhServer(team), capacity_bytes_(capacity_bytes) {}

Result<std::size_t> PipeServer::buffered(std::string_view pipe) const {
  auto it = pipes_.find(pipe);
  if (it == pipes_.end()) return ReplyCode::kNotFound;
  return it->second.buffer.size();
}

sim::Co<void> PipeServer::on_start(ipc::Process& /*self*/) { co_return; }

sim::Co<naming::CsnhServer::LookupResult> PipeServer::lookup(
    ipc::Process& /*self*/, naming::ContextId /*ctx*/,
    std::string_view component) {
  auto it = pipes_.find(component);
  if (it == pipes_.end()) co_return LookupResult::missing();
  co_return LookupResult::object(it->second.id);
}

naming::ObjectDescriptor PipeServer::describe_pipe(const std::string& name,
                                                   const Pipe& pipe) const {
  ObjectDescriptor desc;
  desc.type = DescriptorType::kDevice;
  desc.flags = naming::kReadable | naming::kWriteable;
  desc.size = static_cast<std::uint32_t>(pipe.buffer.size());
  desc.object_id = pipe.id;
  desc.context_id =
      (static_cast<std::uint32_t>(pipe.writer_ends) << 16) |
      static_cast<std::uint32_t>(pipe.reader_ends);
  desc.mtime = pipe.created;
  desc.owner = "pipe";
  desc.name = name;
  return desc;
}

sim::Co<Result<naming::ObjectDescriptor>> PipeServer::describe(
    ipc::Process& /*self*/, naming::ContextId ctx, std::string_view leaf) {
  if (leaf.empty()) {
    ObjectDescriptor desc;
    desc.type = DescriptorType::kContext;
    desc.server_pid = pid().raw;
    desc.context_id = ctx;
    desc.size = static_cast<std::uint32_t>(pipes_.size());
    co_return desc;
  }
  auto it = pipes_.find(leaf);
  if (it == pipes_.end()) co_return ReplyCode::kNotFound;
  co_return describe_pipe(it->first, it->second);
}

V_GATED_MUTATION
sim::Co<ReplyCode> PipeServer::create_object(ipc::Process& self,
                                             naming::ContextId ctx,
                                             std::string_view leaf,
                                             std::uint16_t /*mode*/) {
  note_name_write(self, ctx, leaf);
  if (leaf.empty()) co_return ReplyCode::kBadArgs;
  if (pipes_.contains(leaf)) co_return ReplyCode::kNameExists;
  Pipe pipe;
  pipe.id = next_id_++;
  pipe.created = static_cast<std::uint32_t>(self.now() / sim::kSecond);
  pipes_.emplace(std::string(leaf), std::move(pipe));
  co_return ReplyCode::kOk;
}

V_GATED_MUTATION
sim::Co<ReplyCode> PipeServer::remove(ipc::Process& self,
                                      naming::ContextId ctx,
                                      std::string_view leaf) {
  note_name_write(self, ctx, leaf);
  auto it = pipes_.find(leaf);
  if (it == pipes_.end()) co_return ReplyCode::kNotFound;
  if (it->second.writer_ends > 0 || it->second.reader_ends > 0 ||
      !it->second.blocked_readers.empty() || it->second.in_service > 0) {
    co_return ReplyCode::kBadState;  // ends still open or mid-transfer
  }
  pipes_.erase(it);
  co_return ReplyCode::kOk;
}

V_BORROWS_SPAN
sim::Co<Result<std::unique_ptr<io::InstanceObject>>> PipeServer::open_object(
    ipc::Process& self, naming::ContextId ctx, std::string_view leaf,
    std::uint16_t mode) {
  if (!pipes_.contains(leaf)) {
    if ((mode & naming::wire::kOpenCreate) == 0) {
      co_return ReplyCode::kNotFound;
    }
    // vlint: allow(gate-generation): open-with-create dispatches through handle_csname, which bumps the generation on success.
    const auto created = co_await create_object(self, ctx, leaf, mode);
    if (!v::ok(created)) co_return created;
  }
  const bool writer = (mode & (naming::wire::kOpenWrite |
                               naming::wire::kOpenAppend)) != 0;
  const bool reader = (mode & naming::wire::kOpenRead) != 0;
  if (writer == reader) {
    // A pipe end is either a producer or a consumer, not both/neither.
    co_return ReplyCode::kBadArgs;
  }
  auto& pipe = pipes_.find(leaf)->second;
  if (writer) {
    ++pipe.writer_ends;
    pipe.had_writer = true;
    // A new producer may unblock nothing yet, but readers parked before
    // the first writer must NOT see EOF now; nothing to drain.
  } else {
    ++pipe.reader_ends;
  }
  co_return std::unique_ptr<io::InstanceObject>(
      std::make_unique<PipeEndInstance>(*this, std::string(leaf), writer));
}

sim::Co<Result<std::vector<naming::ObjectDescriptor>>>
PipeServer::list_context(ipc::Process& /*self*/, naming::ContextId /*ctx*/) {
  std::vector<ObjectDescriptor> records;
  records.reserve(pipes_.size());
  for (const auto& [name, pipe] : pipes_) {
    records.push_back(describe_pipe(name, pipe));
  }
  co_return records;
}

V_BORROWS_SPAN
sim::Co<void> PipeServer::serve_read(ipc::Process& self,
                                     const ipc::Envelope& env, Pipe& pipe) {
  std::uint16_t count = env.request.u16(io::kOffByteCount);
  if (count == 0 || count == io::kBulkRead) count = 512;
  const std::size_t n =
      std::min<std::size_t>(count, pipe.buffer.size());
  if (n == 0) {
    // Only called when EOF is certain (no writers, empty buffer).
    self.reply(env, msg::make_reply(ReplyCode::kEndOfFile));
    co_return;
  }
  // Claim the bytes BEFORE suspending in move_to: with a worker team a
  // second read can be serviced while this one is mid-transfer, and both
  // must ship distinct chunks of the stream.
  ServiceScope busy(pipe.in_service);
  std::vector<std::byte> out;
  {
    chk::AccessGuard guard(self, pipe_buffers_cell_,
                           chk::AccessGuard::Mode::kWrite);
    out.assign(pipe.buffer.begin(),
               pipe.buffer.begin() + static_cast<std::ptrdiff_t>(n));
    pipe.buffer.erase(pipe.buffer.begin(),
                      pipe.buffer.begin() + static_cast<std::ptrdiff_t>(n));
  }
  auto moved = co_await self.move_to(env, out);
  if (!moved.ok()) {
    // Reader vanished mid-transfer: restore the unclaimed bytes at the
    // front so the stream position is preserved for the next reader.
    chk::AccessGuard guard(self, pipe_buffers_cell_,
                           chk::AccessGuard::Mode::kWrite);
    pipe.buffer.insert(pipe.buffer.begin(), out.begin(), out.end());
    co_return;
  }
  msg::Message reply = msg::make_reply(ReplyCode::kOk);
  reply.set_u16(io::kOffXferCount, static_cast<std::uint16_t>(n));
  reply.set_u32(io::kOffXferCountLong, static_cast<std::uint32_t>(n));
  self.reply(env, reply);
}

V_BORROWS_SPAN
sim::Co<void> PipeServer::drain_blocked(ipc::Process& self, Pipe& pipe) {
  ServiceScope busy(pipe.in_service);
  while (!pipe.blocked_readers.empty() &&
         (!pipe.buffer.empty() ||
          (pipe.writer_ends == 0 && pipe.had_writer))) {
    ipc::Envelope reader = pipe.blocked_readers.front();
    pipe.blocked_readers.pop_front();
    co_await serve_read(self, reader, pipe);
  }
}

V_BORROWS_SPAN
sim::Co<std::optional<msg::Message>> PipeServer::handle_instance_op(
    ipc::Process& self, ipc::Envelope& env) {
  const auto id =
      static_cast<io::InstanceId>(env.request.u16(io::kOffInstance));
  // `held` keeps the end alive across the co_awaits below even if another
  // team worker releases this instance id concurrently.
  std::shared_ptr<io::InstanceObject> held = instances().find(id);
  auto* end = dynamic_cast<PipeEndInstance*>(held.get());
  if (end == nullptr) {
    co_return co_await CsnhServer::handle_instance_op(self, env);
  }
  auto pipe_it = pipes_.find(end->pipe());
  switch (env.request.code()) {
    case msg::RequestCode::kReadInstance: {
      if (end->writer()) co_return msg::make_reply(ReplyCode::kNotReadable);
      if (pipe_it == pipes_.end()) {
        co_return msg::make_reply(ReplyCode::kBadState);
      }
      Pipe& pipe = pipe_it->second;
      if (pipe.buffer.empty()) {
        if (pipe.writer_ends == 0 && pipe.had_writer) {
          co_return msg::make_reply(ReplyCode::kEndOfFile);
        }
        // Block: keep the envelope, reply when data or EOF arrives.
        pipe.blocked_readers.push_back(env);
        metric_inc(self, "blocked_reads");
        co_return std::nullopt;
      }
      co_await serve_read(self, env, pipe);
      co_return std::nullopt;  // serve_read already replied
    }
    case msg::RequestCode::kWriteInstance: {
      if (!end->writer()) co_return msg::make_reply(ReplyCode::kNotWriteable);
      if (pipe_it == pipes_.end()) {
        co_return msg::make_reply(ReplyCode::kBadState);
      }
      Pipe& pipe = pipe_it->second;
      const std::uint16_t count = env.request.u16(io::kOffByteCount);
      if (count == 0) co_return msg::make_reply(ReplyCode::kBadArgs);
      if (pipe.buffer.size() + count > capacity_bytes_) {
        co_return msg::make_reply(ReplyCode::kNoServerResources);
      }
      std::vector<std::byte> data(count);
      {
        ServiceScope busy(pipe.in_service);
        auto fetched = co_await self.move_from(env, data, 0);
        if (!fetched.ok()) co_return msg::make_reply(fetched.code());
      }
      if (pipe.buffer.size() + count > capacity_bytes_) {
        // A concurrent writer filled the pipe while we were fetching.
        co_return msg::make_reply(ReplyCode::kNoServerResources);
      }
      {
        chk::AccessGuard guard(self, pipe_buffers_cell_,
                               chk::AccessGuard::Mode::kWrite);
        pipe.buffer.insert(pipe.buffer.end(), data.begin(), data.end());
      }
      msg::Message reply = msg::make_reply(ReplyCode::kOk);
      reply.set_u16(io::kOffXferCount, count);
      self.reply(env, reply);
      co_await drain_blocked(self, pipe);
      co_return std::nullopt;  // replied above
    }
    case msg::RequestCode::kReleaseInstance: {
      const bool was_writer = end->writer();
      const bool released = instances().release(self, id);
      if (released && was_writer && pipe_it != pipes_.end() &&
          pipe_it->second.writer_ends == 0) {
        // Last producer gone: wake blocked readers (drain then EOF).
        co_await drain_blocked(self, pipe_it->second);
      }
      co_return msg::make_reply(released ? ReplyCode::kOk
                                         : ReplyCode::kInvalidInstance);
    }
    default:
      co_return co_await CsnhServer::handle_instance_op(self, env);
  }
}

Result<std::string> PipeServer::context_to_name(naming::ContextId ctx) {
  if (ctx != naming::kDefaultContext) return ReplyCode::kNoInverse;
  return std::string("pipes");
}

}  // namespace v::servers

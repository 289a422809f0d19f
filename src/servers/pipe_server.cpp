#include "servers/pipe_server.hpp"

#include <algorithm>
#include <cstring>

#include "msg/request_codes.hpp"
#include "common/annotate.hpp"

namespace v::servers {

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

/// A pipe end opened with `mode` is a producer (else a consumer).
bool writer_end(std::uint16_t mode) {
  return (mode & (naming::wire::kOpenWrite | naming::wire::kOpenAppend)) != 0;
}

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
    const Pipe* pipe = server_.find(pipe_);
    info.size_bytes = pipe != nullptr ? pipe->size() : 0;
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
    Pipe* pipe = server_.find(pipe_);
    if (pipe == nullptr) return;
    if (writer_) {
      --pipe->writer_ends;
    } else {
      --pipe->reader_ends;
    }
  }

 private:
  PipeServer& server_;
  std::string pipe_;
  bool writer_;
};

PipeServer::PipeServer(std::size_t capacity_bytes, naming::TeamConfig team)
    : FlatContextServer(/*register_service=*/false, team),
      capacity_bytes_(capacity_bytes) {}

Result<std::size_t> PipeServer::buffered(std::string_view pipe) const {
  const Pipe* found = find(pipe);
  if (found == nullptr) return ReplyCode::kNotFound;
  return found->buffer.size();
}

sim::Co<Result<Pipe>> PipeServer::new_record(ipc::Process& self,
                                             std::string_view /*leaf*/) {
  Pipe pipe;
  pipe.created = static_cast<std::uint32_t>(self.now() / sim::kSecond);
  co_return pipe;
}

ReplyCode PipeServer::check_open(std::uint16_t mode) const {
  const bool reader = (mode & naming::wire::kOpenRead) != 0;
  return writer_end(mode) == reader ? ReplyCode::kBadArgs : ReplyCode::kOk;
}

ReplyCode PipeServer::check_remove(const Pipe& pipe,
                                   sim::SimTime /*now*/) const {
  const bool busy = pipe.writer_ends > 0 || pipe.reader_ends > 0 ||
                    !pipe.blocked_readers.empty() || pipe.in_service > 0;
  return busy ? ReplyCode::kBadState : ReplyCode::kOk;
}

void PipeServer::describe_record(naming::ObjectDescriptor& desc,
                                 const Pipe& pipe,
                                 sim::SimTime /*now*/) const {
  desc.context_id = (static_cast<std::uint32_t>(pipe.writer_ends) << 16) |
                    static_cast<std::uint32_t>(pipe.reader_ends);
  desc.mtime = pipe.created;
  desc.owner = "pipe";
}

Result<std::unique_ptr<io::InstanceObject>> PipeServer::open_record(
    const std::string& name, Pipe& pipe, std::uint16_t mode) {
  const bool writer = writer_end(mode);
  if (writer) {
    ++pipe.writer_ends;
    pipe.had_writer = true;
    // A new producer may unblock nothing yet, but readers parked before
    // the first writer must NOT see EOF now; nothing to drain.
  } else {
    ++pipe.reader_ends;
  }
  return std::unique_ptr<io::InstanceObject>(
      std::make_unique<PipeEndInstance>(*this, name, writer));
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
  Pipe* found = find(end->pipe());
  switch (env.request.code()) {
    case msg::RequestCode::kReadInstance: {
      if (end->writer()) co_return msg::make_reply(ReplyCode::kNotReadable);
      if (found == nullptr) co_return msg::make_reply(ReplyCode::kBadState);
      Pipe& pipe = *found;
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
      if (found == nullptr) co_return msg::make_reply(ReplyCode::kBadState);
      Pipe& pipe = *found;
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
      if (released && was_writer && found != nullptr &&
          found->writer_ends == 0) {
        // Last producer gone: wake blocked readers (drain then EOF).
        co_await drain_blocked(self, *found);
      }
      co_return msg::make_reply(released ? ReplyCode::kOk
                                         : ReplyCode::kInvalidInstance);
    }
    default:
      co_return co_await CsnhServer::handle_instance_op(self, env);
  }
}

}  // namespace v::servers

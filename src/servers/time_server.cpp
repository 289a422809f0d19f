#include "servers/time_server.hpp"

#include "msg/request_codes.hpp"

namespace v::servers {

sim::Co<void> time_server(ipc::Process self) {
  self.set_pid(ipc::ServiceId::kTimeServer, self.pid(), ipc::Scope::kBoth);
  for (;;) {
    auto env = co_await self.receive();
    if (env.request.code() != msg::RequestCode::kGetTime) {
      self.reply(env, msg::make_reply(ReplyCode::kIllegalRequest));
      continue;
    }
    msg::Message reply = msg::make_reply(ReplyCode::kOk);
    reply.set_u32(kOffTimeSeconds,
                  static_cast<std::uint32_t>(self.now() / sim::kSecond));
    // Not a CsnhServer, so no metric_inc helper: count directly.
    self.domain().metrics().counter("timeserver", "queries").inc();
    self.reply(env, reply);
  }
}

sim::Co<Result<std::uint32_t>> get_time(ipc::Process self) {
  const auto server =
      co_await self.get_pid(ipc::ServiceId::kTimeServer, ipc::Scope::kBoth);
  if (!server.valid()) co_return ReplyCode::kNoReply;
  msg::Message request;
  request.set_code(msg::RequestCode::kGetTime);
  const auto reply = co_await self.send(request, server);
  if (reply.reply_code() != ReplyCode::kOk) co_return reply.reply_code();
  co_return reply.u32(kOffTimeSeconds);
}

}  // namespace v::servers

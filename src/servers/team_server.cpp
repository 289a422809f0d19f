#include "servers/team_server.hpp"

#include "msg/request_codes.hpp"
#include "naming/parse.hpp"
#include "naming/protocol.hpp"
#include "common/annotate.hpp"

namespace v::servers {

TeamServer::TeamServer(naming::ContextPair default_context,
                       bool register_service, naming::TeamConfig team)
    : FlatContextServer(register_service, team),
      default_context_(default_context) {}

V_BORROWS_SPAN
sim::Co<Result<std::uint16_t>> TeamServer::load_program(
    ipc::Process self, ipc::ProcessId team, std::string_view name) {
  co_await self.compute(self.params().send_build);
  msg::Message request;
  request.set_code(msg::RequestCode::kLoadProgram);
  request.set_u16(kOffLoadNameLength, static_cast<std::uint16_t>(name.size()));
  ipc::Segments segments;
  segments.read = std::as_bytes(std::span(name.data(), name.size()));
  const auto reply = co_await self.send(request, team, segments);
  if (reply.reply_code() != ReplyCode::kOk) co_return reply.reply_code();
  co_return static_cast<std::uint16_t>(reply.u16(kOffLoadProgramId));
}

sim::Co<msg::Message> TeamServer::handle_custom(ipc::Process& self,
                                                ipc::Envelope& env) {
  if (env.request.code() == msg::RequestCode::kLoadProgram) {
    co_return co_await do_load(self, env);
  }
  co_return msg::make_reply(ReplyCode::kIllegalRequest);
}

sim::Co<msg::Message> TeamServer::do_load(ipc::Process& self,
                                          ipc::Envelope& env) {
  const std::uint16_t name_len = env.request.u16(kOffLoadNameLength);
  if (name_len == 0 || name_len > naming::kMaxNameLength) {
    co_return msg::make_reply(ReplyCode::kBadArgs);
  }
  std::string name(name_len, '\0');
  auto fetched = co_await self.move_from(
      env, std::as_writable_bytes(std::span(name)), 0);
  if (!fetched.ok()) co_return msg::make_reply(fetched.code());

  if (!rt_) rt_ = co_await svc::Rt::attach(self, default_context_);

  // Act as a client of the storage servers: open the image and pull it
  // with one bulk MoveTo (the diskless-workstation program-load path).
  auto opened = co_await rt_->open(name, naming::wire::kOpenRead);
  if (!opened.ok()) co_return msg::make_reply(opened.code());
  svc::File image = opened.take();
  auto bytes = co_await image.read_bulk();
  const ReplyCode closed = co_await image.close();
  if (!bytes.ok()) co_return msg::make_reply(bytes.code());
  if (!v::ok(closed)) co_return msg::make_reply(closed);

  Program program;
  program.id = next_id();
  program.image_name = name;
  program.bytes = static_cast<std::uint32_t>(bytes.value().size());
  program.started = static_cast<std::uint32_t>(self.now() / sim::kSecond);
  // Instance name: "<leaf>.<id>" so repeated loads coexist.
  std::string leaf = name;
  if (const auto slash = leaf.rfind('/'); slash != std::string::npos) {
    leaf = leaf.substr(slash + 1);
  }
  if (const auto bracket = leaf.rfind(naming::kPrefixClose);
      bracket != std::string::npos) {
    leaf = leaf.substr(bracket + 1);
  }
  const std::string instance_name =
      leaf + "." + std::to_string(program.id);
  msg::Message reply = msg::make_reply(ReplyCode::kOk);
  reply.set_u16(kOffLoadProgramId, program.id);
  reply.set_u32(kOffLoadBytes, program.bytes);
  metric_inc(self, "programs_loaded");
  metric_hist(self, "load_bytes", static_cast<double>(program.bytes));
  {
    chk::AccessGuard guard(self, programs_cell_,
                           chk::AccessGuard::Mode::kWrite);
    records().emplace(instance_name, program);
  }
  co_return reply;
}

ReplyCode TeamServer::check_create(std::string_view /*leaf*/) const {
  return ReplyCode::kIllegalRequest;
}

ReplyCode TeamServer::check_open(std::uint16_t /*mode*/) const {
  return ReplyCode::kIllegalRequest;
}

void TeamServer::describe_record(naming::ObjectDescriptor& desc,
                                 const Program& p,
                                 sim::SimTime /*now*/) const {
  desc.mtime = p.started;
  desc.owner = "team";
}

}  // namespace v::servers

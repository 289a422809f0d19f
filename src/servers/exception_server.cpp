#include "servers/exception_server.hpp"

#include <cstring>

#include "msg/request_codes.hpp"
#include "common/annotate.hpp"

namespace v::servers {

ExceptionServer::ExceptionServer(bool register_service,
                                 naming::TeamConfig team)
    : FlatContextServer(register_service, team) {}

V_BORROWS_SPAN
sim::Co<Result<std::uint16_t>> ExceptionServer::raise(
    ipc::Process self, ipc::ProcessId server, FaultCode code,
    std::string_view detail) {
  co_await self.compute(self.params().send_build);
  msg::Message request;
  request.set_code(kRaiseException);
  request.set_u16(kOffExcCode, static_cast<std::uint16_t>(code));
  request.set_u16(kOffExcDetailLen,
                  static_cast<std::uint16_t>(detail.size()));
  ipc::Segments segments;
  segments.read = std::as_bytes(std::span(detail.data(), detail.size()));
  const auto reply = co_await self.send(request, server, segments);
  if (reply.reply_code() != ReplyCode::kOk) co_return reply.reply_code();
  co_return static_cast<std::uint16_t>(reply.u16(kOffExcReportId));
}

V_BORROWS_SPAN
sim::Co<msg::Message> ExceptionServer::handle_custom(ipc::Process& self,
                                                     ipc::Envelope& env) {
  if (env.request.code() != kRaiseException) {
    co_return msg::make_reply(ReplyCode::kIllegalRequest);
  }
  const std::uint16_t detail_len = env.request.u16(kOffExcDetailLen);
  if (detail_len > 512) co_return msg::make_reply(ReplyCode::kBadArgs);
  std::string detail(detail_len, '\0');
  if (detail_len > 0) {
    auto fetched = co_await self.move_from(
        env, std::as_writable_bytes(std::span(detail)), 0);
    if (!fetched.ok()) co_return msg::make_reply(fetched.code());
  }
  ExceptionReport report;
  report.id = next_id();
  report.faulting = env.sender;
  report.code = static_cast<FaultCode>(env.request.u16(kOffExcCode));
  report.detail = std::move(detail);
  report.raised = static_cast<std::uint32_t>(self.now() / sim::kSecond);
  const std::string name = "exc." + std::to_string(report.id);
  msg::Message reply = msg::make_reply(ReplyCode::kOk);
  reply.set_u16(kOffExcReportId, report.id);
  {
    chk::AccessGuard guard(self, reports_cell_,
                           chk::AccessGuard::Mode::kWrite);
    records().emplace(name, std::move(report));
  }
  metric_inc(self, "exceptions_raised");
  co_return reply;
}

ReplyCode ExceptionServer::check_create(std::string_view /*leaf*/) const {
  return ReplyCode::kIllegalRequest;
}

void ExceptionServer::describe_record(naming::ObjectDescriptor& desc,
                                      const ExceptionReport& r,
                                      sim::SimTime /*now*/) const {
  desc.object_id = (static_cast<std::uint32_t>(r.id) << 16) |
                   static_cast<std::uint32_t>(r.code);
  desc.server_pid = r.faulting.raw;  // which process faulted
  desc.mtime = r.raised;
  desc.owner = "exception";
}

Result<std::unique_ptr<io::InstanceObject>> ExceptionServer::open_record(
    const std::string& /*name*/, ExceptionReport& r, std::uint16_t /*mode*/) {
  std::vector<std::byte> text(r.detail.size());
  if (!text.empty()) std::memcpy(text.data(), r.detail.data(), text.size());
  return std::unique_ptr<io::InstanceObject>(
      std::make_unique<io::BufferInstance>(std::move(text)));
}

}  // namespace v::servers

#include "servers/internet_server.hpp"

#include <cctype>

namespace v::servers {

InternetServer::InternetServer(sim::SimDuration rtt, bool register_service,
                               naming::TeamConfig team)
    : FlatContextServer(register_service, team), rtt_(rtt) {}

ReplyCode InternetServer::check_create(std::string_view leaf) const {
  const auto colon = leaf.find(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 >= leaf.size()) {
    return ReplyCode::kBadArgs;
  }
  for (std::size_t i = colon + 1; i < leaf.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(leaf[i])) == 0) {
      return ReplyCode::kBadArgs;
    }
  }
  return ReplyCode::kOk;
}

V_BORROWS_SPAN
sim::Co<Result<Connection>> InternetServer::new_record(
    ipc::Process& self, std::string_view leaf) {
  co_await self.delay(rtt_);
  if (find(leaf) != nullptr) co_return ReplyCode::kNameExists;
  Connection conn;
  conn.opened = static_cast<std::uint32_t>(self.now() / sim::kSecond);
  metric_inc(self, "connections_opened");
  co_return conn;
}

void InternetServer::describe_record(naming::ObjectDescriptor& desc,
                                     const Connection& c,
                                     sim::SimTime /*now*/) const {
  desc.context_id = static_cast<std::uint32_t>(c.state);
  desc.mtime = c.opened;
  desc.owner = "tcp";
}

Result<std::size_t> InternetServer::read_record(
    const Connection& c, std::uint32_t block, std::span<std::byte> out) const {
  if (c.state != ConnState::kOpen) return ReplyCode::kBadState;
  return io::copy_block(c.inbound, block, out);
}

V_BORROWS_SPAN
sim::Co<Result<std::size_t>> InternetServer::write_record(
    ipc::Process& self, std::string_view name, Connection& c,
    std::span<const std::byte> data) {
  if (c.state != ConnState::kOpen) co_return ReplyCode::kBadState;
  co_await self.delay(rtt_);  // peer round trip
  Connection* conn = find(name);  // revalidate after waiting
  if (conn == nullptr) co_return ReplyCode::kBadState;
  conn->bytes_sent += data.size();
  conn->inbound.insert(conn->inbound.end(), data.begin(), data.end());
  co_return data.size();
}

}  // namespace v::servers

#include "servers/terminal_server.hpp"

namespace v::servers {

TerminalServer::TerminalServer(bool register_service,
                               naming::TeamConfig team)
    : FlatContextServer(register_service, team) {}

Result<std::string> TerminalServer::transcript(std::string_view name) const {
  const Terminal* t = find(name);
  if (t == nullptr) return ReplyCode::kNotFound;
  return std::string(reinterpret_cast<const char*>(t->transcript.data()),
                     t->transcript.size());
}

sim::Co<Result<Terminal>> TerminalServer::new_record(
    ipc::Process& self, std::string_view /*leaf*/) {
  Terminal t;
  t.created = static_cast<std::uint32_t>(self.now() / sim::kSecond);
  co_return t;
}

void TerminalServer::describe_record(naming::ObjectDescriptor& desc,
                                     const Terminal& t,
                                     sim::SimTime /*now*/) const {
  desc.mtime = t.created;
  desc.owner = t.owner;
}

Result<std::size_t> TerminalServer::read_record(
    const Terminal& t, std::uint32_t block, std::span<std::byte> out) const {
  return io::copy_block(t.transcript, block, out);
}

sim::Co<Result<std::size_t>> TerminalServer::write_record(
    ipc::Process& self, std::string_view /*name*/, Terminal& t,
    std::span<const std::byte> data) {
  // Streams append regardless of the block number.
  t.transcript.insert(t.transcript.end(), data.begin(), data.end());
  metric_inc(self, "chars_written", data.size());
  co_return data.size();
}

}  // namespace v::servers

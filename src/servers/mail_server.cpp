#include "servers/mail_server.hpp"

namespace v::servers {

MailServer::MailServer(bool register_service, naming::TeamConfig team)
    : FlatContextServer(register_service, team) {}

Result<std::size_t> MailServer::message_count(std::string_view mailbox) const {
  const Mailbox* box = find(mailbox);
  if (box == nullptr) return ReplyCode::kNotFound;
  return box->messages.size();
}

std::string_view MailServer::parse_component(std::string_view name,
                                             std::size_t index,
                                             std::size_t& next) {
  next = name.size();
  return name.substr(index);
}

ReplyCode MailServer::check_create(std::string_view leaf) const {
  const auto at = leaf.find('@');
  const bool valid = at != std::string_view::npos && at > 0 &&
                     at + 1 < leaf.size() &&
                     leaf.find('@', at + 1) == std::string_view::npos;
  return valid ? ReplyCode::kOk : ReplyCode::kBadArgs;
}

sim::Co<Result<Mailbox>> MailServer::new_record(ipc::Process& self,
                                                std::string_view /*leaf*/) {
  Mailbox box;
  box.created = static_cast<std::uint32_t>(self.now() / sim::kSecond);
  co_return box;
}

void MailServer::describe_record(naming::ObjectDescriptor& desc,
                                 const Mailbox& box,
                                 sim::SimTime /*now*/) const {
  desc.context_id = static_cast<std::uint32_t>(box.messages.size());
  desc.mtime = box.created;
  desc.owner = desc.name.substr(0, desc.name.find('@'));
}

Result<std::size_t> MailServer::read_record(const Mailbox& box,
                                            std::uint32_t block,
                                            std::span<std::byte> out) const {
  std::string joined;
  joined.reserve(box.size());
  for (const auto& m : box.messages) {
    joined += m;
    joined += '\n';
  }
  return io::copy_block(std::as_bytes(std::span(joined)), block, out);
}

sim::Co<Result<std::size_t>> MailServer::write_record(
    ipc::Process& self, std::string_view /*name*/, Mailbox& box,
    std::span<const std::byte> data) {
  box.messages.emplace_back(reinterpret_cast<const char*>(data.data()),
                            data.size());
  metric_inc(self, "deliveries");
  co_return data.size();
}

}  // namespace v::servers

// The mail server — the paper's extensibility case (sections 1, 2.2):
// "names for mailboxes, such as 'cheriton@su-score.ARPA', may be imposed by
// standards established outside of the system in question.  Such
// preexisting servers fit well into a model in which names are normally
// interpreted by the server providing the named objects."
//
// The whole mailbox name is ONE component in a flat context — the server
// overrides parse_component to keep the foreign "user@host" syntax intact,
// needing no blessing from any central name authority.  Delivery is a write
// through the I/O protocol; reading a mailbox returns its messages.
#pragma once

#include <string>
#include <vector>

#include "servers/flat_context_server.hpp"

namespace v::servers {

/// One mailbox: reading returns the messages joined by '\n'; each write
/// delivers one message (block semantics are ignored — mail is a stream of
/// deliveries, another legitimate interpretation under the I/O protocol).
struct Mailbox {
  static constexpr auto kType = naming::DescriptorType::kMailbox;
  static constexpr std::uint16_t kFlags =
      naming::kReadable | naming::kWriteable | naming::kAppendOnly;
  static constexpr std::string_view kContextName = "mail";
  static constexpr auto kService = ipc::ServiceId::kMailServer;
  static constexpr auto kScope = ipc::Scope::kBoth;

  std::uint32_t id = 0;
  std::vector<std::string> messages;
  std::uint32_t created = 0;
  [[nodiscard]] std::uint32_t size() const {
    std::size_t n = 0;
    for (const auto& m : messages) n += m.size() + 1;  // '\n' separators
    return static_cast<std::uint32_t>(n);
  }
};

class MailServer : public FlatContextServer<Mailbox> {
 public:
  explicit MailServer(bool register_service = true,
                      naming::TeamConfig team = {});

  [[nodiscard]] Result<std::size_t> message_count(
      std::string_view mailbox) const;

 protected:
  /// Foreign syntax: the whole remaining name is one component; '/' has no
  /// meaning in mailbox names.
  std::string_view parse_component(std::string_view name, std::size_t index,
                                   std::size_t& next) override;
  /// Mailbox names must look like "user@host[.domain]".
  [[nodiscard]] ReplyCode check_create(std::string_view leaf) const override;
  sim::Co<Result<Mailbox>> new_record(ipc::Process& self,
                                      std::string_view leaf) override;
  void describe_record(naming::ObjectDescriptor& desc, const Mailbox& box,
                       sim::SimTime now) const override;
  Result<std::size_t> read_record(const Mailbox& box, std::uint32_t block,
                                  std::span<std::byte> out) const override;
  sim::Co<Result<std::size_t>> write_record(
      ipc::Process& self, std::string_view name, Mailbox& box,
      std::span<const std::byte> data) override;
};

}  // namespace v::servers

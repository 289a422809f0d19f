// The pipe server — "pipes" are on the paper's own list of things the V
// I/O protocol connects programs to (section 3.2).
//
// A pipe is a named byte queue between producers and consumers.  Opens with
// kOpenWrite are producer ends; kOpenRead opens are consumer ends.  Reads
// on an empty pipe BLOCK — implemented with the message-passing idiom the
// V kernel makes natural: the server simply holds the reader's (still
// blocked) request envelope and replies when data (or end-of-file) arrives.
// No thread ever waits; the blocked state is the un-replied Send.
//
// End-of-file: when the last writer instance is released, queued and
// future reads drain the remaining bytes and then return kEndOfFile.
#pragma once

#include <deque>
#include <string>

#include "servers/flat_context_server.hpp"

namespace v::servers {

/// One pipe: a byte queue between its producer and consumer ends.
struct Pipe {
  static constexpr auto kType = naming::DescriptorType::kDevice;
  static constexpr std::uint16_t kFlags =
      naming::kReadable | naming::kWriteable;
  static constexpr std::string_view kContextName = "pipes";
  static constexpr auto kService = ipc::ServiceId::kNone;  // never registered
  static constexpr auto kScope = ipc::Scope::kLocal;

  std::uint32_t id = 0;
  std::deque<std::byte> buffer;
  int writer_ends = 0;  ///< open writer instances
  int reader_ends = 0;
  bool had_writer = false;  ///< EOF needs a writer to have come AND gone;
                            ///< before the first writer, readers block
                            ///< (FIFO-open semantics)
  std::deque<ipc::Envelope> blocked_readers;  ///< un-replied reads
  std::uint32_t created = 0;
  int in_service = 0;  ///< operations suspended while holding a Pipe&
                       ///< (team workers run concurrently); remove()
                       ///< refuses while non-zero
  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(buffer.size());
  }
};

class PipeServer : public FlatContextServer<Pipe> {
 public:
  explicit PipeServer(std::size_t capacity_bytes = 64 * 1024,
                      naming::TeamConfig team = {});

  [[nodiscard]] std::size_t pipe_count() const noexcept {
    return records().size();
  }
  /// Bytes currently buffered in a pipe (test inspection).
  [[nodiscard]] Result<std::size_t> buffered(std::string_view pipe) const;

 protected:
  sim::Co<Result<Pipe>> new_record(ipc::Process& self,
                                   std::string_view leaf) override;
  /// A pipe end is either a producer or a consumer, not both/neither.
  [[nodiscard]] ReplyCode check_open(std::uint16_t mode) const override;
  /// Ends still open or mid-transfer.
  [[nodiscard]] ReplyCode check_remove(const Pipe& pipe,
                                       sim::SimTime now) const override;
  void describe_record(naming::ObjectDescriptor& desc, const Pipe& pipe,
                       sim::SimTime now) const override;
  Result<std::unique_ptr<io::InstanceObject>> open_record(
      const std::string& name, Pipe& pipe, std::uint16_t mode) override;
  sim::Co<std::optional<msg::Message>> handle_instance_op(
      ipc::Process& self, ipc::Envelope& env) override;

 private:
  friend class PipeEndInstance;

  /// Answer one blocked/incoming read from the pipe's buffer (or EOF).
  sim::Co<void> serve_read(ipc::Process& self, const ipc::Envelope& env,
                           Pipe& pipe);
  /// After a write or writer-close: wake blocked readers that can progress.
  sim::Co<void> drain_blocked(ipc::Process& self, Pipe& pipe);

  std::size_t capacity_bytes_;
  /// Pipe buffers are mutated by concurrently suspended team workers; every
  /// mutation must be momentary (claim-then-suspend), which the race
  /// detector enforces through this cell.
  chk::CellState pipe_buffers_cell_{"pipe.buffers"};
};

}  // namespace v::servers

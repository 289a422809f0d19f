// Client-side file handle for the V I/O protocol.
//
// Returned by the run-time Open stub; wraps (server pid, instance id) — a
// temporary object name in the sense of paper section 4.3 — with block
// read/write/close operations.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "io/instance.hpp"
#include "io/protocol.hpp"
#include "ipc/kernel.hpp"
#include "sim/task.hpp"
#include "common/annotate.hpp"

namespace v::svc {

class File {
 public:
  File() = default;
  V_HOT_PATH
  File(ipc::Process proc, ipc::ProcessId server, io::InstanceId instance,
       io::InstanceInfo info) noexcept
      : proc_(proc), server_(server), instance_(instance), info_(info) {}

  [[nodiscard]] bool valid() const noexcept { return server_.valid(); }
  [[nodiscard]] ipc::ProcessId server() const noexcept { return server_; }
  [[nodiscard]] io::InstanceId instance() const noexcept { return instance_; }
  [[nodiscard]] std::uint32_t size() const noexcept {
    return info_.size_bytes;
  }
  [[nodiscard]] std::uint16_t block_bytes() const noexcept {
    return info_.block_bytes;
  }
  [[nodiscard]] std::uint16_t flags() const noexcept { return info_.flags; }

  /// Read block `block` into `out` (sized to the wanted byte count; at most
  /// one block).  Returns bytes read; kEndOfFile past the end.
  [[nodiscard]] sim::Co<Result<std::size_t>> read_block(
      std::uint32_t block, std::span<std::byte> out);

  /// Write `data` (at most one block) at block `block`.
  [[nodiscard]] sim::Co<Result<std::size_t>> write_block(
      std::uint32_t block, std::span<const std::byte> data);

  /// Sequential read of the whole instance, block by block.
  [[nodiscard]] sim::Co<Result<std::vector<std::byte>>> read_all();

  /// Whole-instance read via the bulk path: one request, one MoveTo of the
  /// entire content (the V program-loading transfer, paper section 3.1).
  [[nodiscard]] sim::Co<Result<std::vector<std::byte>>> read_bulk();

  /// Write a whole buffer from block 0, block by block.
  [[nodiscard]] sim::Co<ReplyCode> write_all(std::span<const std::byte> data);

  /// Re-query instance attributes (size may change under appends).
  [[nodiscard]] sim::Co<ReplyCode> refresh();

  /// Release the instance.
  [[nodiscard]] sim::Co<ReplyCode> close();

 private:
  ipc::Process proc_;
  ipc::ProcessId server_;
  io::InstanceId instance_ = 0;
  io::InstanceInfo info_;
};

}  // namespace v::svc

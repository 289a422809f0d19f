// Server-side instance management for the V I/O protocol.
//
// Servers that export file-like objects keep an InstanceTable of open
// InstanceObjects.  Instance ids are short numeric identifiers, reused as
// late as possible (paper section 4.3: "servers attempt to maximize the
// time before reusing a temporary object identifier").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/result.hpp"
#include "io/protocol.hpp"
#include "ipc/kernel.hpp"
#include "sim/task.hpp"

namespace v::io {

/// Attributes of one open instance.
struct InstanceInfo {
  std::uint32_t size_bytes = 0;
  std::uint16_t block_bytes = 512;
  std::uint16_t flags = kInstanceReadable;
};

/// A server-side open file-like object.  Implementations supply block
/// read/write; the CSNH server base drives the protocol around them.
class InstanceObject {
 public:
  virtual ~InstanceObject() = default;

  [[nodiscard]] virtual InstanceInfo info() const = 0;

  /// Read block `block` (block_bytes-sized; final block may be short) into
  /// `out` (sized to the requested byte count).  Returns bytes produced,
  /// kEndOfFile past the end, kNotReadable when reads are not allowed.
  virtual sim::Co<Result<std::size_t>> read_block(ipc::Process& self,
                                                  std::uint32_t block,
                                                  std::span<std::byte> out) = 0;

  /// Write `data` at block `block`.  Returns bytes consumed, kNotWriteable
  /// when writes are not allowed.
  virtual sim::Co<Result<std::size_t>> write_block(
      ipc::Process& self, std::uint32_t block,
      std::span<const std::byte> data) = 0;

  /// Called on kReleaseInstance; default no-op.
  virtual void release(ipc::Process& /*self*/) {}
};

/// Copy block `block` of `data` (blocks of `block_bytes`) into `out`, at
/// most out.size() bytes.  kEndOfFile when the block starts past the end.
Result<std::size_t> copy_block(std::span<const std::byte> data,
                               std::uint32_t block, std::span<std::byte> out,
                               std::size_t block_bytes = 512);

/// An in-memory byte-buffer instance: read over a snapshot, optional write
/// interception (used for context directories, mailboxes, spool jobs...).
class BufferInstance : public InstanceObject {
 public:
  explicit BufferInstance(std::vector<std::byte> data,
                          std::uint16_t flags = kInstanceReadable,
                          std::uint16_t block_bytes = 512)
      : data_(std::move(data)), flags_(flags), block_bytes_(block_bytes) {}

  [[nodiscard]] InstanceInfo info() const override {
    return InstanceInfo{static_cast<std::uint32_t>(data_.size()),
                        block_bytes_, flags_};
  }

  sim::Co<Result<std::size_t>> read_block(ipc::Process& self,
                                          std::uint32_t block,
                                          std::span<std::byte> out) override;

  sim::Co<Result<std::size_t>> write_block(
      ipc::Process& self, std::uint32_t block,
      std::span<const std::byte> data) override;

  [[nodiscard]] const std::vector<std::byte>& data() const noexcept {
    return data_;
  }

 protected:
  /// Hook invoked after a successful write (offset = first modified byte).
  /// Context directories override this to apply descriptor modifications.
  virtual void on_write(ipc::Process& /*self*/, std::size_t /*offset*/,
                        std::size_t /*length*/) {}

  std::vector<std::byte> data_;
  std::uint16_t flags_;
  std::uint16_t block_bytes_;
};

/// Table of open instances with late-reuse id allocation.
///
/// Entries are shared_ptrs: with multi-worker server teams, one worker can
/// be suspended inside read_block/write_block while another processes the
/// ReleaseInstance for the same id.  Release removes the table entry (new
/// lookups fail) but the in-flight worker's reference keeps the object
/// alive until its operation completes — the serial run loop used to
/// guarantee this by never interleaving; the refcount now does.
class InstanceTable {
 public:
  /// Register an open object; returns its new instance id.
  InstanceId add(std::unique_ptr<InstanceObject> object);

  /// Look up an instance (null when the id is not open).  Hold the
  /// returned shared_ptr across any co_await that touches the object.
  [[nodiscard]] std::shared_ptr<InstanceObject> find(InstanceId id);

  /// Close and remove an instance.  Returns false for unknown ids.
  bool release(ipc::Process& self, InstanceId id);

  [[nodiscard]] std::size_t open_count() const noexcept {
    return instances_.size();
  }

 private:
  std::map<InstanceId, std::shared_ptr<InstanceObject>> instances_;
  InstanceId next_id_ = 1;
};

}  // namespace v::io

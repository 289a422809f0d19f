#include "io/instance.hpp"

#include <algorithm>
#include <cstring>

namespace v::io {

Result<std::size_t> copy_block(std::span<const std::byte> data,
                               std::uint32_t block, std::span<std::byte> out,
                               std::size_t block_bytes) {
  const std::size_t offset = static_cast<std::size_t>(block) * block_bytes;
  if (offset >= data.size()) return ReplyCode::kEndOfFile;
  const std::size_t n =
      std::min({out.size(), block_bytes, data.size() - offset});
  if (n > 0) std::memcpy(out.data(), data.data() + offset, n);
  return n;
}

sim::Co<Result<std::size_t>> BufferInstance::read_block(
    ipc::Process& /*self*/, std::uint32_t block, std::span<std::byte> out) {
  if ((flags_ & kInstanceReadable) == 0) co_return ReplyCode::kNotReadable;
  co_return copy_block(data_, block, out, block_bytes_);
}

sim::Co<Result<std::size_t>> BufferInstance::write_block(
    ipc::Process& self, std::uint32_t block,
    std::span<const std::byte> data) {
  if ((flags_ & kInstanceWriteable) == 0) co_return ReplyCode::kNotWriteable;
  const std::size_t offset =
      static_cast<std::size_t>(block) * block_bytes_;
  if (data.size() > block_bytes_) co_return ReplyCode::kBadArgs;
  if (offset + data.size() > data_.size()) {
    data_.resize(offset + data.size());
  }
  if (!data.empty()) {
    std::memcpy(data_.data() + offset, data.data(), data.size());
  }
  on_write(self, offset, data.size());
  co_return data.size();
}

InstanceId InstanceTable::add(std::unique_ptr<InstanceObject> object) {
  // Late reuse: ids advance monotonically, wrapping only at 2^16 and then
  // skipping ids still open.
  InstanceId id = next_id_;
  while (id == 0 || instances_.contains(id)) ++id;
  next_id_ = static_cast<InstanceId>(id + 1);
  instances_[id] = std::move(object);
  return id;
}

std::shared_ptr<InstanceObject> InstanceTable::find(InstanceId id) {
  auto it = instances_.find(id);
  return it != instances_.end() ? it->second : nullptr;
}

bool InstanceTable::release(ipc::Process& self, InstanceId id) {
  auto it = instances_.find(id);
  if (it == instances_.end()) return false;
  // Keep the object alive past erase: another team worker may still be
  // suspended inside one of its operations.
  std::shared_ptr<InstanceObject> object = it->second;
  instances_.erase(it);
  object->release(self);
  return true;
}

}  // namespace v::io

#include "servers/printer_server.hpp"

#include <algorithm>

namespace v::servers {

PrinterServer::PrinterServer(std::uint32_t bytes_per_second,
                             bool register_service, naming::TeamConfig team)
    : FlatContextServer(register_service, team),
      bytes_per_second_(bytes_per_second) {}

void PrinterServer::schedule_job(PrintJob& job, sim::SimTime now) {
  // Single print engine: the job starts when the engine frees up.
  job.print_start = std::max(printer_free_at_, now);
  const auto duration = static_cast<sim::SimDuration>(
      job.data.size() * static_cast<std::size_t>(sim::kSecond) /
      std::max<std::uint32_t>(bytes_per_second_, 1));
  printer_free_at_ = job.print_start + duration;
}

PrinterServer::JobStatus PrinterServer::derive_status(
    const PrintJob& job, sim::SimTime now) const {
  if (now < job.print_start) return JobStatus::kQueued;
  const auto duration = static_cast<sim::SimDuration>(
      job.data.size() * static_cast<std::size_t>(sim::kSecond) /
      std::max<std::uint32_t>(bytes_per_second_, 1));
  return now < job.print_start + duration ? JobStatus::kPrinting
                                          : JobStatus::kDone;
}

Result<PrinterServer::JobStatus> PrinterServer::status(
    std::string_view job, sim::SimTime now) const {
  const PrintJob* found = find(job);
  if (found == nullptr) return ReplyCode::kNotFound;
  return derive_status(*found, now);
}

sim::Co<Result<PrintJob>> PrinterServer::new_record(
    ipc::Process& self, std::string_view /*leaf*/) {
  PrintJob job;
  job.submitted = self.now();
  co_return job;
}

ReplyCode PrinterServer::check_remove(const PrintJob& job,
                                      sim::SimTime now) const {
  return derive_status(job, now) == JobStatus::kPrinting ? ReplyCode::kBadState
                                                         : ReplyCode::kOk;
}

void PrinterServer::describe_record(naming::ObjectDescriptor& desc,
                                    const PrintJob& job,
                                    sim::SimTime now) const {
  // Encode derived status in the context-id field (documented job-status
  // channel for this record type).
  desc.context_id = static_cast<std::uint32_t>(derive_status(job, now));
  desc.mtime = static_cast<std::uint32_t>(job.submitted / sim::kSecond);
  desc.owner = job.owner;
}

sim::Co<Result<std::size_t>> PrinterServer::write_record(
    ipc::Process& self, std::string_view /*name*/, PrintJob& job,
    std::span<const std::byte> data) {
  job.data.insert(job.data.end(), data.begin(), data.end());
  job.submitted = self.now();
  schedule_job(job, self.now());
  metric_inc(self, "spooled_bytes", data.size());
  co_return data.size();
}

}  // namespace v::servers

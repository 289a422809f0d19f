// The printer (spooler) server — the "laser printer server" of section 6.
//
// Print jobs are created by name, filled through the I/O protocol, and
// listed in the context directory with type kPrintJob.  A job's status
// (queued / printing / done) is derived from submission time and the
// simulated print rate, so queries observe progress without a background
// process.
#pragma once

#include <string>
#include <vector>

#include "servers/flat_context_server.hpp"

namespace v::servers {

/// One spooled job: a write-only spool of bytes.
struct PrintJob {
  static constexpr auto kType = naming::DescriptorType::kPrintJob;
  static constexpr std::uint16_t kFlags = naming::kWriteable |
                                          naming::kAppendOnly;
  static constexpr std::string_view kContextName = "printer-queue";
  static constexpr auto kService = ipc::ServiceId::kPrinterServer;
  static constexpr auto kScope = ipc::Scope::kBoth;

  std::uint32_t id = 0;
  std::vector<std::byte> data;
  std::string owner = "user";
  sim::SimTime submitted = 0;     ///< last write time
  sim::SimTime print_start = 0;   ///< when the printer reached this job
  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(data.size());
  }
};

class PrinterServer : public FlatContextServer<PrintJob> {
 public:
  /// `bytes_per_second` models printer throughput for status derivation.
  explicit PrinterServer(std::uint32_t bytes_per_second = 1000,
                         bool register_service = true,
                         naming::TeamConfig team = {});

  enum class JobStatus { kQueued, kPrinting, kDone };

  /// Derived status of a job at simulated time `now`.
  [[nodiscard]] Result<JobStatus> status(std::string_view job,
                                         sim::SimTime now) const;

 protected:
  sim::Co<Result<PrintJob>> new_record(ipc::Process& self,
                                       std::string_view leaf) override;
  /// A job cannot be cancelled mid-print.
  [[nodiscard]] ReplyCode check_remove(const PrintJob& job,
                                       sim::SimTime now) const override;
  void describe_record(naming::ObjectDescriptor& desc, const PrintJob& job,
                       sim::SimTime now) const override;
  /// Each write extends the job and reschedules it behind the queue.
  sim::Co<Result<std::size_t>> write_record(
      ipc::Process& self, std::string_view name, PrintJob& job,
      std::span<const std::byte> data) override;

 private:
  [[nodiscard]] JobStatus derive_status(const PrintJob& job,
                                        sim::SimTime now) const;
  void schedule_job(PrintJob& job, sim::SimTime now);

  std::uint32_t bytes_per_second_;
  sim::SimTime printer_free_at_ = 0;  ///< when the (single) engine frees up
};

}  // namespace v::servers

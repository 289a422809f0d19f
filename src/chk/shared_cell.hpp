// V-check layer 1: the sim race detector for shared server state
// (DESIGN.md 4e).
//
// The whole simulation is one OS thread, so ThreadSanitizer is structurally
// blind to cross-process sharing violations: two sim processes "race" when
// one mutates shared server state that another still relies on across a
// suspension point.  CellState records who is reading/writing which shared
// cell between yield points; violations surface as RaceError thrown in the
// offending fiber, whose report names both sim processes, the cell and the
// sim timestamps involved.  (The other half of the detector, the gate check
// on (ctx, leaf) name-space mutations, reads the server's own gate table:
// CsnhServer::note_name_write.)
//
// SharedCell<T> wraps a piece of state shared between cooperatively
// scheduled sim processes (a server's instance table, a team's work queue,
// a pipe buffer).  Access goes through read()/write() handles whose
// AccessGuard registers the access in the cell's CellState for as long as
// the handle lives.  A handle held across a suspension point therefore
// overlaps any access another process makes in between — and a write
// overlapping another process's outstanding read or write throws RaceError
// naming both sim processes, the cell, and both sim timestamps.
//
// Momentary accesses (guard scoped to a statement, no co_await inside) are
// the common case and can never conflict: the simulation is single-threaded
// between yield points.  The detector's whole job is catching accesses
// that — deliberately or by refactoring accident — span a suspension.
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ipc/kernel.hpp"

namespace v::chk {

/// Thrown in the violating fiber when the race detector finds a sharing
/// violation.  The message is the full report; it propagates out of the
/// fiber and lands in Domain::first_failure() for tests to assert on.
struct RaceError : std::runtime_error {
  explicit RaceError(const std::string& report)
      : std::runtime_error(report) {}
};

/// Reader/writer bookkeeping for one shared cell (a server table, queue or
/// buffer).  Accesses are registered through AccessGuard (below);
/// an access that stays registered across a suspension point conflicts with
/// any overlapping access by a DIFFERENT sim process.  Same-process
/// accesses never conflict (one fiber cannot race itself) and may nest.
class CellState {
 public:
  explicit CellState(std::string_view label) : label_(label) {}

  /// The access that an attempted begin_read/begin_write collided with.
  struct Conflict {
    std::uint32_t pid = 0;
    std::uint64_t since = 0;
    bool writer = false;
  };

  /// Register a reader.  Fails (returns the conflicting access, registers
  /// nothing) when another process has an outstanding write.
  [[nodiscard]] std::optional<Conflict> begin_read(std::uint32_t pid,
                                                   std::uint64_t now) {
    for (const Access& w : writers_) {
      if (w.pid != pid) return Conflict{w.pid, w.since, true};
    }
    readers_.push_back(Access{pid, now});
    return std::nullopt;
  }

  void end_read(std::uint32_t pid) { unregister(readers_, pid); }

  /// Register a writer.  Fails when another process has an outstanding
  /// read OR write (write/write and read/write are both races).
  [[nodiscard]] std::optional<Conflict> begin_write(std::uint32_t pid,
                                                    std::uint64_t now) {
    for (const Access& w : writers_) {
      if (w.pid != pid) return Conflict{w.pid, w.since, true};
    }
    for (const Access& r : readers_) {
      if (r.pid != pid) return Conflict{r.pid, r.since, false};
    }
    writers_.push_back(Access{pid, now});
    return std::nullopt;
  }

  void end_write(std::uint32_t pid) { unregister(writers_, pid); }

  [[nodiscard]] const std::string& label() const noexcept { return label_; }

 private:
  struct Access {
    std::uint32_t pid = 0;
    std::uint64_t since = 0;
  };

  static void unregister(std::vector<Access>& list, std::uint32_t pid) {
    for (auto it = list.rbegin(); it != list.rend(); ++it) {
      if (it->pid == pid) {
        list.erase(std::next(it).base());
        return;
      }
    }
  }

  std::string label_;
  std::vector<Access> readers_;
  std::vector<Access> writers_;
};

/// Registers one read or write access for its lifetime; throws RaceError
/// from the constructor when the access conflicts with an outstanding
/// access by another sim process.
class AccessGuard {
 public:
  enum class Mode { kRead, kWrite };

  AccessGuard(const ipc::Process& self, CellState& cell, Mode mode)
      : cell_(&cell), pid_(self.pid().raw), mode_(mode) {
    const std::uint64_t now =
        static_cast<std::uint64_t>(self.domain().loop().now());
    const auto conflict = mode == Mode::kWrite ? cell.begin_write(pid_, now)
                                               : cell.begin_read(pid_, now);
    if (conflict) {
      cell_ = nullptr;  // nothing registered; dtor must not unregister
      throw RaceError(report(self, cell, mode, *conflict, now));
    }
  }

  AccessGuard(const AccessGuard&) = delete;
  AccessGuard& operator=(const AccessGuard&) = delete;

  ~AccessGuard() {
    if (cell_ == nullptr) return;
    if (mode_ == Mode::kWrite) {
      cell_->end_write(pid_);
    } else {
      cell_->end_read(pid_);
    }
  }

 private:
  static std::string report(const ipc::Process& self, const CellState& cell,
                            Mode mode, const CellState::Conflict& other,
                            std::uint64_t now) {
    const ipc::Domain& dom = self.domain();
    std::ostringstream out;
    out << "race detector: " << (mode == Mode::kWrite ? "write" : "read")
        << " of shared cell '" << cell.label() << "' by process '"
        << dom.process_name(self.pid()) << "' (pid " << self.pid().raw
        << ") at t=" << now << " overlaps outstanding "
        << (other.writer ? "write" : "read") << " by process '"
        << dom.process_name(ipc::ProcessId{other.pid}) << "' (pid "
        << other.pid << ") held across a suspension point since t="
        << other.since;
    return out.str();
  }

  CellState* cell_;
  std::uint32_t pid_;
  Mode mode_;
};

/// Shared state annotated for the race detector.  Read/write handles pin
/// an AccessGuard to the borrow's scope; hold one across a co_await to
/// model "this process still depends on the cell here".
template <typename T>
class SharedCell {
 public:
  explicit SharedCell(std::string_view label) : state_(label) {}

  class Reader {
   public:
    Reader(const ipc::Process& self, const SharedCell& cell)
        : guard_(self, cell.state_, AccessGuard::Mode::kRead),
          value_(&cell.value_) {}
    Reader(const Reader&) = delete;
    Reader& operator=(const Reader&) = delete;
    [[nodiscard]] const T& operator*() const noexcept { return *value_; }
    [[nodiscard]] const T* operator->() const noexcept { return value_; }
   private:
    AccessGuard guard_;
    const T* value_;
  };

  class Writer {
   public:
    Writer(const ipc::Process& self, SharedCell& cell)
        : guard_(self, cell.state_, AccessGuard::Mode::kWrite),
          value_(&cell.value_) {}
    Writer(const Writer&) = delete;
    Writer& operator=(const Writer&) = delete;
    [[nodiscard]] T& operator*() const noexcept { return *value_; }
    [[nodiscard]] T* operator->() const noexcept { return value_; }
   private:
    AccessGuard guard_;
    T* value_;
  };

  /// Borrow for reading as `self`; throws RaceError on conflict.
  [[nodiscard]] Reader read(const ipc::Process& self) const {
    return Reader(self, *this);
  }
  /// Borrow for writing as `self`; throws RaceError on conflict.
  [[nodiscard]] Writer write(const ipc::Process& self) {
    return Writer(self, *this);
  }

  /// Unchecked access, for code that runs outside any sim process (server
  /// construction, post-run assertions in tests).
  [[nodiscard]] T& raw() noexcept { return value_; }
  [[nodiscard]] const T& raw() const noexcept { return value_; }

 private:
  mutable CellState state_;
  T value_{};
};

}  // namespace v::chk

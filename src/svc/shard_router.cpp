#include "svc/shard_router.hpp"

#include <array>
#include <span>

#include "common/annotate.hpp"
#include "msg/request_codes.hpp"
#include "naming/parse.hpp"

namespace v::svc {

namespace {

/// Open attempts (including the first) before surfacing the last transport
/// error.  Sized so a full crash -> handoff window — tens of milliseconds of
/// kNoReply — is survived at kRetryDelay pacing.
constexpr std::size_t kMaxAttempts = 64;
/// Pause before retrying after kNoReply/kTimeout/kBusy — the fabric needs
/// simulated time, not spin, to finish a handoff or drain a queue.
/// Stale-map retries skip the pause (the refetch already advanced the clock
/// and the new map is actionable immediately).
constexpr sim::SimDuration kRetryDelay = 5 * sim::kMillisecond;

}  // namespace

sim::Co<bool> ShardRouter::refetch_map() {
  ++stats_.map_fetches;
  co_await rt_.process().compute(rt_.process().params().send_build);
  msg::Message request;
  request.set_code(msg::kFetchShardMap);
  // Zeroed every fetch: a short map over yesterday's longer one must never
  // leave stale shard records visible.  (The parse is self-delimiting, so
  // this is belt and braces, not the safety mechanism.)
  std::array<std::byte, naming::ShardMap::kMaxBytes> buffer{};
  ipc::Segments segments;
  segments.write = buffer;
  const msg::Message reply = co_await rt_.process().send_to_group(
      request, cfg_.fabric_group, segments);
  if (reply.reply_code() != ReplyCode::kOk) co_return false;
  naming::ShardMap fetched;
  if (!naming::ShardMap::parse(buffer, fetched)) co_return false;
  map_ = std::move(fetched);
  co_return true;
}

V_BORROWS_SPAN
sim::Co<Result<Rt::OpenedFile>> ShardRouter::open(std::string_view name,
                                                  std::uint16_t mode) {
  // "[prefix]rest" routes by "prefix"; without the syntax (or with an empty
  // prefix) the name falls back to plain Rt routing.
  std::size_t rest = 0;
  const std::string_view prefix =
      naming::parse_prefix(name, rest).value_or(std::string_view{});
  if (prefix.empty()) {
    co_return co_await rt_.open_detailed(name, mode);
  }
  ++stats_.opens;
  ReplyCode last = ReplyCode::kNoReply;
  for (std::size_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (map_.empty() && !co_await refetch_map()) {
      last = ReplyCode::kTimeout;  // whole fabric unreachable right now
      co_await rt_.process().delay(kRetryDelay);
      continue;
    }
    const naming::ShardMap::Shard& shard = map_.shards[map_.route(prefix)];
    const msg::Message reply = co_await rt_.open_at(
        {ipc::ProcessId{shard.server_pid}, naming::kDefaultContext}, name,
        /*name_index=*/0, mode, shard.generation);
    last = reply.reply_code();
    switch (last) {
      case ReplyCode::kOk:
        co_return Rt::decode_open_reply(rt_.process(), reply);
      case ReplyCode::kStaleContext:
        // The map aged past a fabric mutation; the shard refused before
        // interpreting anything.  Refetch and go again immediately.
        ++stats_.stale_retries;
        (void)co_await refetch_map();
        break;
      case ReplyCode::kNoReply:
      case ReplyCode::kTimeout:
        ++stats_.noreply_retries;
        (void)co_await refetch_map();
        co_await rt_.process().delay(kRetryDelay);
        break;
      case ReplyCode::kBusy:
        ++stats_.busy_retries;
        co_await rt_.process().delay(kRetryDelay);
        break;
      default:
        // Authoritative: the generation matched, the shard interpreted the
        // name, and this is the answer.
        co_return last;
    }
  }
  ++stats_.failures;
  co_return last;
}

}  // namespace v::svc

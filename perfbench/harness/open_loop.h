// Load generator over the yver wire protocol (open loop; closed loop with
// a per-connection window for saturation runs).
//
// Requests follow a precomputed schedule of due times and are sent when
// due whatever the server is doing, so a stall delays every later request
// and that delay is measured: every latency is taken from when the
// request was *due*, not from when the generator managed to send it
// (no coordinated omission). One sender thread walks the schedule; one
// receiver thread polls every connection and matches responses to
// requests by per-connection FIFO order (the server answers in order).
#ifndef YVER_PERFBENCH_OPEN_LOOP_H_
#define YVER_PERFBENCH_OPEN_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common.h"
#include "data/record.h"
#include "serve/query.h"

namespace perfbench {

enum class OpKind : uint8_t {
  kQuery,      // payload indexes LoadPlan::queries
  kAppend,     // payload indexes LoadPlan::appends
  kProbeSlot,  // a chance to probe the oldest acked-but-invisible append
};

struct Op {
  int64_t due_ns = 0;  // offset from the start of the run
  uint32_t conn = 0;
  OpKind kind = OpKind::kQuery;
  uint32_t payload = 0;
};

/// What the generator sends: the schedule (sorted by due time) and the
/// inputs its ops index into.
struct LoadPlan {
  size_t connections = 1;
  std::vector<Op> ops;
  std::vector<yver::serve::Query> queries;
  std::vector<yver::data::Record> appends;
  /// Responses still missing this long after the last due time count as
  /// failed.
  double drain_timeout_ms = 2000;
  /// 0: open loop, send each op when due. N > 0: closed loop, ignore due
  /// times and keep at most N requests outstanding per connection.
  size_t window = 0;
};

inline constexpr int32_t kNotSent = -1;   // probe slot left unused
inline constexpr int32_t kNoAnswer = -2;  // sent, never answered

struct OpResult {
  int64_t sent_ns = 0;  // absolute steady-clock times
  int64_t done_ns = 0;
  /// util::StatusCode of the answer (0 = OK), or one of the negative
  /// codes above.
  int32_t status = kNotSent;
  /// FNV-1a of the complete response frame.
  uint64_t frame_hash = 0;
  /// kAppend: the acked corpus index. kProbeSlot: the append probed.
  uint64_t value = 0;
};

struct LoadRun {
  int64_t start_ns = 0;  // absolute time of due offset 0
  std::vector<OpResult> results;  // parallel to LoadPlan::ops
  /// Per append: absolute time its index first answered OK (0 = never).
  std::vector<int64_t> visible_ns;
  bool connected = false;
};

/// Runs `plan` against the server on 127.0.0.1:`port`. `sample` (may be
/// empty) is called from the receiver thread about every 5 ms, for
/// gauges. Spans (when `tracer` is enabled) cover each request from due
/// to answer, with the client-side encode and decode as children.
LoadRun RunOpenLoop(uint16_t port, const LoadPlan& plan, Tracer* tracer,
                    const std::function<void()>& sample = {});

}  // namespace perfbench

#endif  // YVER_PERFBENCH_OPEN_LOOP_H_

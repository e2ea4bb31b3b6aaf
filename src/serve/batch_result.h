#ifndef YVER_SERVE_BATCH_RESULT_H_
#define YVER_SERVE_BATCH_RESULT_H_

#include <cstdint>
#include <vector>

#include "serve/query.h"
#include "util/status.h"

namespace yver::serve {

/// The typed answer to a batch of queries: per-query statuses in request
/// order plus the aggregate counters every batch consumer was recomputing
/// by hand (the load generator, the net dispatcher). Replaces the bare
/// std::vector<StatusOr<QueryResult>> QueryBatch used to return.
///
/// The vector interface (size / operator[] / iteration) is preserved so a
/// BatchResult reads like the list it contains; the counters are derived
/// from the statuses by Tally() and satisfy:
///   ok + failed == size(), and shed + deadline_exceeded <= failed
///   degraded <= ok  (a degraded answer is still an answer)
struct BatchResult {
  std::vector<util::StatusOr<QueryResult>> results;

  /// Aggregate counters over `results` (valid after Tally).
  uint64_t ok = 0;                 // OK answers, degraded included
  uint64_t failed = 0;             // non-OK statuses of any code
  uint64_t shed = 0;               // RESOURCE_EXHAUSTED (admission shed)
  uint64_t deadline_exceeded = 0;  // DEADLINE_EXCEEDED
  uint64_t degraded = 0;           // OK but served stale under shed

  size_t size() const { return results.size(); }
  bool empty() const { return results.empty(); }
  util::StatusOr<QueryResult>& operator[](size_t i) { return results[i]; }
  const util::StatusOr<QueryResult>& operator[](size_t i) const {
    return results[i];
  }
  auto begin() { return results.begin(); }
  auto end() { return results.end(); }
  auto begin() const { return results.begin(); }
  auto end() const { return results.end(); }

  /// True when every query in the batch was answered OK.
  bool all_ok() const { return failed == 0; }

  /// Recomputes the counters from `results`. Idempotent.
  void Tally() {
    ok = failed = shed = deadline_exceeded = degraded = 0;
    for (const auto& r : results) {
      if (r.ok()) {
        ++ok;
        if (r->degraded) ++degraded;
        continue;
      }
      ++failed;
      switch (r.status().code()) {
        case util::StatusCode::kResourceExhausted:
          ++shed;
          break;
        case util::StatusCode::kDeadlineExceeded:
          ++deadline_exceeded;
          break;
        default:
          break;
      }
    }
  }
};

}  // namespace yver::serve

#endif  // YVER_SERVE_BATCH_RESULT_H_

#ifndef YVER_SERVE_INDEX_MANAGER_H_
#define YVER_SERVE_INDEX_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "serve/resolution_index.h"
#include "util/status.h"

namespace yver::serve {

/// Versioned, hot-swappable home of the served ResolutionIndex
/// (DESIGN.md §13). The manager owns a sequence of immutable index
/// snapshots, each tagged with a monotonically increasing generation.
/// Readers pin the current snapshot with `Acquire()` — a brief lock and
/// one shared_ptr copy — and work against that snapshot for as long as
/// they hold the returned PinnedIndex. Writers install a new snapshot
/// with `Publish()`; the previous generation is retired immediately (no
/// new reader can pin it) but its memory is reclaimed only when the last
/// pin on it drops, so an in-flight query never observes a torn swap or
/// a freed index.
///
/// The current generation is one `shared_ptr<const Generation>` guarded
/// by one mutex. A pin is a copy of that pointer, so reference counting
/// alone keeps a retired generation alive until its last pin releases;
/// the number of retained generations is bounded by 1 + the number of
/// pins in flight, and Publish never waits for a reader.
class IndexManager {
  /// One published snapshot. Construction and destruction (by the last
  /// shared_ptr — a pin or the manager) move the retained_snapshots gauge.
  struct Generation {
    Generation(const IndexManager* m, std::shared_ptr<const ResolutionIndex> i,
               uint64_t g)
        : manager(m), index(std::move(i)), generation(g) {
      manager->live_generations_.fetch_add(1, std::memory_order_relaxed);
    }
    ~Generation() {
      manager->live_generations_.fetch_sub(1, std::memory_order_relaxed);
    }
    Generation(const Generation&) = delete;  // would count itself twice
    const IndexManager* manager;
    std::shared_ptr<const ResolutionIndex> index;
    uint64_t generation;
  };

 public:
  /// Movable pin on one index generation. While alive, the snapshot it
  /// points at cannot be reclaimed; destruction (or Release) returns the
  /// pin. Creating one takes a brief lock; each way is one reference count.
  class PinnedIndex {
   public:
    PinnedIndex() = default;
    PinnedIndex(PinnedIndex&& other) noexcept = default;
    PinnedIndex& operator=(PinnedIndex&& other) noexcept {
      Release();
      pinned_ = std::move(other.pinned_);
      generation_ = other.generation_;
      return *this;
    }
    PinnedIndex(const PinnedIndex&) = delete;
    PinnedIndex& operator=(const PinnedIndex&) = delete;
    ~PinnedIndex() { Release(); }

    /// Returns the pin early (idempotent; the dtor does this otherwise).
    void Release();

    const ResolutionIndex& operator*() const { return *index(); }
    const ResolutionIndex* operator->() const { return index().get(); }
    const std::shared_ptr<const ResolutionIndex>& index() const {
      return pinned_ != nullptr ? pinned_->index : kNoIndex;
    }
    uint64_t generation() const { return generation_; }
    bool valid() const { return pinned_ != nullptr; }

   private:
    friend class IndexManager;
    inline static const std::shared_ptr<const ResolutionIndex> kNoIndex;
    std::shared_ptr<const Generation> pinned_;
    uint64_t generation_ = 1;
  };

  /// Seeds the manager with the initial snapshot as generation 1.
  explicit IndexManager(std::shared_ptr<const ResolutionIndex> initial);

  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  /// Pins the current snapshot: a brief lock and a pointer copy, never
  /// held across a publish's index build. Generations observed by
  /// repeated Acquire calls on any one thread are non-decreasing.
  PinnedIndex Acquire() const;

  /// Atomically installs `next` as the new current snapshot and returns
  /// its generation. The previous generation is retired (no new pins) and
  /// freed once its last pinned reader releases. Serialized across
  /// callers; never waits for readers. Fault seam: an injected I/O
  /// error at util::FaultPoint::kIndexPublish fails the publish with a
  /// typed UNAVAILABLE *without* installing anything — the previous
  /// generation stays current and the caller may retry.
  util::StatusOr<uint64_t> Publish(
      std::shared_ptr<const ResolutionIndex> next);

  /// Generation of the snapshot Acquire() would pin right now.
  uint64_t generation() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_->generation;
  }
  /// Successful Publish() calls since construction.
  uint64_t publishes() const { return generation() - 1; }
  /// Currently outstanding pins across all generations — the gauge the
  /// chaos harness drives back to zero to prove retired snapshots free.
  uint64_t pinned_readers() const {
    return pinned_readers_.load(std::memory_order_relaxed);
  }
  /// Snapshots currently held (current + retired-but-pinned). 1 when
  /// fully quiescent: every retired generation has been reclaimed.
  size_t retained_snapshots() const {
    return live_generations_.load(std::memory_order_relaxed);
  }

 private:
  // Declared before current_ so they outlive its release in the dtor.
  mutable std::atomic<uint64_t> pinned_readers_{0};
  mutable std::atomic<size_t> live_generations_{0};
  mutable std::mutex mu_;
  std::shared_ptr<const Generation> current_;  // guarded by mu_
};

using PinnedIndex = IndexManager::PinnedIndex;

}  // namespace yver::serve

#endif  // YVER_SERVE_INDEX_MANAGER_H_

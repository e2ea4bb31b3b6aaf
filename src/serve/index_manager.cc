#include "serve/index_manager.h"

#include <utility>

#include "util/check.h"
#include "util/fault_injector.h"

namespace yver::serve {

IndexManager::IndexManager(std::shared_ptr<const ResolutionIndex> initial) {
  YVER_CHECK_MSG(initial != nullptr, "IndexManager needs an initial index");
  current_ = std::make_shared<const Generation>(this, std::move(initial), 1);
}

IndexManager::PinnedIndex IndexManager::Acquire() const {
  PinnedIndex pin;
  std::unique_lock<std::mutex> lock(mu_);
  pin.pinned_ = current_;
  lock.unlock();
  pin.generation_ = pin.pinned_->generation;
  pinned_readers_.fetch_add(1, std::memory_order_relaxed);
  return pin;
}

void IndexManager::PinnedIndex::Release() {
  if (pinned_ == nullptr) return;
  const IndexManager* manager = pinned_->manager;
  // Drop the reference first: if this was the last pin on a retired
  // generation, it is freed here, before the gauge says the pin is gone.
  pinned_.reset();
  manager->pinned_readers_.fetch_sub(1, std::memory_order_relaxed);
}

util::StatusOr<uint64_t> IndexManager::Publish(
    std::shared_ptr<const ResolutionIndex> next) {
  YVER_CHECK_MSG(next != nullptr, "Publish needs an index");
  // Chaos seam: an injected failure aborts the publish before anything is
  // installed — the previous generation stays current and fully served.
  util::Status injected =
      util::FaultInjector::Global().InjectIo(util::FaultPoint::kIndexPublish);
  if (!injected.ok()) return injected;

  std::unique_lock<std::mutex> lock(mu_);
  uint64_t generation = current_->generation + 1;
  std::shared_ptr<const Generation> retired = std::exchange(
      current_,
      std::make_shared<const Generation>(this, std::move(next), generation));
  lock.unlock();
  // `retired` drops the manager's reference outside the lock; with no pin
  // left on it, the old generation is freed right here.
  return generation;
}

}  // namespace yver::serve

#ifndef NOMAD_NOMAD_ROW_OWNERSHIP_H_
#define NOMAD_NOMAD_ROW_OWNERSHIP_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace nomad {

/// Per-row exclusive-ownership table — the CAS seam behind NOMAD's
/// lock-freedom.
///
/// The algorithm's serializability argument (paper Sec. 3.2) rests on a
/// single invariant: a factor row is mutated by at most one thread at a
/// time. Inside the solvers' worker loop (TokenWorkers) the invariant holds
/// by construction (a token is in exactly one queue or held by exactly one
/// worker), and this table *asserts* it. The serving plane reuses the same table as an actual
/// arbiter: online ingest appliers `TryAcquire` the user and item rows they
/// want to update and back off on conflict, which makes concurrent
/// incremental updates safe next to the lock-free seqlock readers in
/// `serve::ServeEngine`.
///
/// Owner ids are small non-negative integers (worker or applier index);
/// `kUnowned` (-1) means "in a queue / in flight / idle". All operations
/// are lock-free single CAS/store; acquire/release ordering makes the row
/// contents written under ownership visible to the next owner.
class RowOwnership {
 public:
  /// Sentinel owner id for a row nobody holds.
  static constexpr int kUnowned = -1;

  /// Creates a table for `rows` rows, all initially unowned.
  explicit RowOwnership(int64_t rows)
      : owner_(static_cast<size_t>(rows)) {
    for (auto& o : owner_) o.store(kUnowned, std::memory_order_relaxed);
  }

  /// Number of rows tracked.
  int64_t rows() const { return static_cast<int64_t>(owner_.size()); }

  /// Attempts to acquire `row` for `owner` (>= 0). Returns true on success;
  /// false if some other owner currently holds it. Never blocks.
  bool TryAcquire(int64_t row, int owner) {
    NOMAD_DCHECK(owner >= 0);
    int expected = kUnowned;
    return owner_[static_cast<size_t>(row)].compare_exchange_strong(
        expected, owner, std::memory_order_acquire,
        std::memory_order_relaxed);
  }

  /// Acquires `row` for `owner`, fatally asserting the row was unowned.
  /// This is the solver-side flavor: token circulation already guarantees
  /// exclusivity, so a failed CAS is a broken invariant, not contention.
  void AcquireOrDie(int64_t row, int owner) {
    int expected = kUnowned;
    const bool acquired =
        owner_[static_cast<size_t>(row)].compare_exchange_strong(
            expected, owner, std::memory_order_acquire);
    NOMAD_CHECK(acquired) << "row " << row << " already owned by "
                          << expected << " (wanted by " << owner << ")";
  }

  /// Releases `row`; publishes all writes made under ownership.
  void Release(int64_t row) {
    owner_[static_cast<size_t>(row)].store(kUnowned,
                                           std::memory_order_release);
  }

  /// Current owner of `row`, or `kUnowned`. Advisory: the answer can be
  /// stale by the time the caller acts on it.
  int OwnerOf(int64_t row) const {
    return owner_[static_cast<size_t>(row)].load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::atomic<int>> owner_;
};

}  // namespace nomad

#endif  // NOMAD_NOMAD_ROW_OWNERSHIP_H_

// membudget.hpp — per-rank memory-budget guardrail (--mem-budget-mb).
//
// The driver's large allocations (panels, packed column runs,
// point-to-point payload staging) are charged against a thread-local
// budget installed for the duration of each rank's pipeline body. When a
// charge would push the rank past its budget the allocation site throws a
// typed error::ResourceExhausted (exit code 8) *before* allocating, so
// the failure is a clean unwind the recovery layer can classify — not an
// OOM kill or a std::bad_alloc from deep inside a container.
//
// The budget is deliberately thread-local (ranks are threads): each rank
// accounts only its own allocations, matching the per-process budget a
// real distributed deployment would enforce. No budget installed (the
// default) means every charge is a no-op — zero cost on the hot path
// beyond one thread-local load and branch.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace sas::util {

/// Accounting state for one rank's budget. Lives on the rank's stack via
/// ScopedBudget; the thread-local current-budget pointer makes it
/// reachable from allocation sites without threading a handle through
/// every call signature.
class MemBudget {
 public:
  explicit MemBudget(std::uint64_t limit_bytes) noexcept : limit_(limit_bytes) {}

  /// Record `bytes` against the budget; throws error::ResourceExhausted
  /// naming `what` when the total would exceed the limit. The charge is
  /// NOT recorded on the throwing path, so an unwinding caller that never
  /// allocated does not leak accounted bytes.
  void charge(std::uint64_t bytes, const char* what) {
    const std::uint64_t next = used_ + bytes;
    if (next > limit_) {
      throw error::ResourceExhausted(
          std::string("memory budget exceeded: ") + what + " needs " +
          std::to_string(bytes) + " bytes with " + std::to_string(used_) +
          " of " + std::to_string(limit_) + " already charged");
    }
    used_ = next;
    if (used_ > high_water_) high_water_ = used_;
  }

  /// Release `bytes` previously charged (clamped at zero for safety).
  void release(std::uint64_t bytes) noexcept {
    used_ = bytes > used_ ? 0 : used_ - bytes;
  }

  [[nodiscard]] std::uint64_t used() const noexcept { return used_; }
  [[nodiscard]] std::uint64_t limit() const noexcept { return limit_; }
  [[nodiscard]] std::uint64_t high_water() const noexcept { return high_water_; }

 private:
  std::uint64_t limit_;
  std::uint64_t used_ = 0;
  std::uint64_t high_water_ = 0;
};

namespace detail {
inline thread_local MemBudget* current_budget = nullptr;
}  // namespace detail

/// The calling thread's active budget, or nullptr when none is installed.
[[nodiscard]] inline MemBudget* current_mem_budget() noexcept {
  return detail::current_budget;
}

/// Charge the calling thread's budget if one is installed; no-op
/// otherwise. Throws error::ResourceExhausted on an over-budget charge.
inline void charge_mem(std::uint64_t bytes, const char* what) {
  if (MemBudget* b = detail::current_budget) b->charge(bytes, what);
}

/// Install a budget for the current thread (one per rank, for the
/// lifetime of the rank's pipeline body). Restores the previous budget
/// on destruction so nested scopes compose.
class ScopedBudget {
 public:
  explicit ScopedBudget(std::uint64_t limit_bytes) noexcept
      : budget_(limit_bytes), previous_(detail::current_budget) {
    detail::current_budget = &budget_;
  }
  ~ScopedBudget() { detail::current_budget = previous_; }
  ScopedBudget(const ScopedBudget&) = delete;
  ScopedBudget& operator=(const ScopedBudget&) = delete;

  [[nodiscard]] const MemBudget& budget() const noexcept { return budget_; }

 private:
  MemBudget budget_;
  MemBudget* previous_;
};

/// RAII charge for an allocation with block scope (e.g. one batch's
/// packed column runs): charged on construction, released on destruction.
/// Throwing constructor — place it BEFORE the allocation it covers.
class ScopedCharge {
 public:
  ScopedCharge(std::uint64_t bytes, const char* what) : bytes_(bytes) {
    charge_mem(bytes_, what);
  }
  ~ScopedCharge() {
    if (MemBudget* b = detail::current_budget) b->release(bytes_);
  }
  ScopedCharge(const ScopedCharge&) = delete;
  ScopedCharge& operator=(const ScopedCharge&) = delete;

 private:
  std::uint64_t bytes_;
};

}  // namespace sas::util

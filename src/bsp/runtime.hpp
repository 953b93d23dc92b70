// runtime.hpp — SPMD launcher for the in-process BSP runtime.
//
// Runtime::run(p, fn) executes `fn` on p rank-threads, each receiving its
// own Comm bound to a shared world communicator, and returns the per-rank
// cost counters. This is the reproduction's stand-in for `mpirun -np p`
// (one process, no MPI dependency): the SPMD code inside `fn` is
// structured exactly as the MPI program would be, and rank counts may
// exceed physical cores (the scaling benches oversubscribe deliberately;
// modelled α-β-γ cost is the machine-independent signal).
//
// Failure semantics (fault.hpp; ROADMAP "Failure semantics"): when any
// rank's fn throws, the world's AbortToken trips with the error annotated
// by rank and stage/batch context, every peer blocked in a mailbox wait
// or barrier unwinds with RankAborted, and run() rethrows the ORIGINAL
// annotated error after joining — a failing rank terminates the whole
// run instead of deadlocking it. The single-rank fast path wraps errors
// identically, so messages match between p = 1 and p > 1.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "bsp/comm.hpp"
#include "bsp/cost_model.hpp"
#include "bsp/fault.hpp"

namespace sas::obs {
class Observer;
}

namespace sas::bsp {

/// Optional failure-semantics and observability knobs of one run.
struct RuntimeOptions {
  /// Deadline for every blocking primitive. 0 falls back to the
  /// SAS_WATCHDOG_MS environment variable (CI sets it); unset/0 there
  /// disables the watchdog.
  std::chrono::milliseconds watchdog{0};

  /// Deterministic fault-injection plan (tests); null = none.
  std::shared_ptr<const FaultPlan> fault_plan;

  /// Debug-build BSP protocol verifier (bsp/protocol.hpp): every rank
  /// ledgers each collective's (op, tag, element size, shape); ledgers
  /// are cross-checked at barriers and at run exit, and unreceived
  /// point-to-point messages at exit become error::ProtocolError — a
  /// diverging rank fails immediately with named ledger entries instead
  /// of a watchdog timeout. false falls back to the SAS_VERIFY_PROTOCOL
  /// environment variable (CI arms it); verification never changes
  /// results, only adds the checks.
  bool verify_protocol = false;

  /// Span/metric collection (obs/trace.hpp): each rank thread is bound
  /// to observer->rank(r) for the duration of the run, and on abort the
  /// failure message plus the blocked-site snapshot are noted into the
  /// observer before the error is rethrown. Must outlive the run and
  /// have nranks() >= the run's rank count. Null = observability off.
  obs::Observer* observer = nullptr;
};

class Runtime {
 public:
  /// Run `fn(comm)` as `nranks` SPMD threads. Blocks until all ranks
  /// finish. If any rank throws, the abort token trips, all peers unwind,
  /// and the first failure's error — annotated with rank and context —
  /// is rethrown after all threads have been joined.
  ///
  /// Returns the per-rank cost counters accumulated during the run.
  static std::vector<CostCounters> run(int nranks,
                                       const std::function<void(Comm&)>& fn);
  static std::vector<CostCounters> run(int nranks, const std::function<void(Comm&)>& fn,
                                       const RuntimeOptions& options);
};

}  // namespace sas::bsp

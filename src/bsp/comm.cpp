#include "bsp/comm.hpp"

#include <algorithm>
#include <string>
#include <tuple>

#include "bsp/tags.hpp"
#include "util/error.hpp"

namespace sas::bsp {

void Comm::barrier() {
  const obs::CollectiveScope obs_scope(obs::Primitive::kBarrier, *counters_);
  counters_->supersteps += 1;
  proto_record(ProtoOp::kBarrier, 0, 0, 0);
  detail::SharedState& st = *state_;
  std::unique_lock<std::mutex> lock(st.barrier_mutex);
  const std::uint64_t generation = st.barrier_generation;
  if (++st.barrier_arrived == st.size) {
    // Protocol cross-check by the last-arriving rank: every peer is
    // blocked at THIS barrier and its ledger write happened-before its
    // barrier_mutex acquisition, so the read is ordered and quiescent.
    // On divergence the barrier is released first (peers proceed and
    // unwind through the normal abort cascade once this throw trips the
    // token) and the checking rank throws with both ledgers named.
    std::string diverged;
    if (st.verify_protocol) {
      diverged = describe_ledger_divergence(
          std::span<const ProtocolLedger>(st.ledgers), st.label,
          "barrier (superstep " + std::to_string(st.barrier_generation) + ")");
    }
    st.barrier_arrived = 0;
    ++st.barrier_generation;
    st.barrier_cv.notify_all();
    if (!diverged.empty()) throw error::ProtocolError(diverged);
  } else {
    wait_or_abort(
        st.barrier_cv, lock,
        [&st, generation] { return st.barrier_generation != generation; },
        wait_policy(), "rank " + std::to_string(rank_) + " in barrier");
  }
}

namespace {

/// Classify the tripped token's cause for the verdict. Falls back to
/// permanent/"unknown exception" — an unclassifiable failure must never
/// be retried as if it were transient.
void classify_cause(const std::exception_ptr& cause, RecoveryOutcome& out) {
  out.transient = false;
  out.message = "unknown exception";
  if (cause == nullptr) return;
  try {
    std::rethrow_exception(cause);
  } catch (const error::Error& e) {
    out.transient = e.transient();
    out.message = e.what();
  } catch (const std::exception& e) {
    out.message = e.what();
  } catch (...) {  // sas-lint: allow(R7 classification fallback: the permanent default IS the typed translation)
  }
}

}  // namespace

RecoveryOutcome Comm::recover(std::int64_t batch, std::uint64_t attempt,
                              std::uint64_t max_retries, bool quarantine) {
  detail::SharedState& st = *state_;
  const obs::Span span("recover", "recovery", counters_);
  RecoveryOutcome out;

  std::unique_lock<std::mutex> lock(st.recovery_mutex);
  const std::uint64_t generation = st.recovery_generation;
  if (st.recovery_arrived == 0) {
    st.recovery_batch = batch;
    st.recovery_batch_mismatch = false;
  } else if (st.recovery_batch != batch) {
    // Ranks disagree on which batch failed (a straddle across a batch
    // boundary); rolling back across boundaries is unsupported, so the
    // verdict can only be abort.
    st.recovery_batch_mismatch = true;
  }
  ++st.recovery_arrived;
  st.recovery_cv.notify_all();

  // Wait until this generation is released, claiming the coordinator
  // role if this rank is the one that observes the rendezvous complete
  // (all surviving ranks arrived; defections count as arrivals that can
  // never happen). Deliberately NOT wait_or_abort: the token is tripped
  // by construction here, and the rendezvous is how it gets reset.
  st.recovery_cv.wait(lock, [&] {
    if (st.recovery_generation != generation) return true;
    if (st.recovery_claimed) return false;
    return st.recovery_arrived + st.recovery_defected >= st.size;
  });

  if (st.recovery_generation == generation) {
    // Coordinator. Peers are quiescent in the wait above (they hold no
    // locks and issue no sends until released), so shared structures can
    // be reset safely — the same quiescence argument the barrier's
    // ledger cross-check rests on.
    st.recovery_claimed = true;
    classify_cause(st.abort->cause(), out);
    out.source_rank = st.abort->source_rank();
    out.cause = st.abort->cause();
    out.healable = !st.recovery_batch_mismatch && st.recovery_defected == 0;
    out.retry = out.healable && out.transient && attempt < max_retries;
    // A healable failure also re-arms when the caller will quarantine the
    // batch and continue — the run's remaining batches need a clean
    // world just as a replay does.
    out.rearmed = out.retry || (out.healable && quarantine);
    st.recovery_outcome = out;
    if (out.rearmed) {
      // Re-arm the world for the replay: stale messages from the aborted
      // attempt vanish, ledgers restart from a symmetric resync marker,
      // children of the aborted attempt are forgotten, and a barrier
      // increment a rank left behind when it unwound is wiped.
      for (Mailbox& mb : st.mailboxes) mb.clear();
      if (st.verify_protocol) {
        for (ProtocolLedger& ledger : st.ledgers) {
          ledger = ProtocolLedger{};
          ledger.record(ProtoOp::kBarrier, tags::kRecoveryResync, 0, attempt);
        }
        if (st.protocol_registry != nullptr) st.protocol_registry->clear();
      }
      {
        std::lock_guard<std::mutex> barrier_lock(st.barrier_mutex);
        st.barrier_arrived = 0;
      }
      {
        std::lock_guard<std::mutex> split_lock(st.split_mutex);
        st.split_children.clear();
        st.split_remaining.clear();
      }
      st.abort->reset();
    }
    ++st.recovery_epoch;
    st.recovery_arrived = 0;
    st.recovery_batch = -1;
    st.recovery_claimed = false;
    ++st.recovery_generation;
    st.recovery_cv.notify_all();
  } else {
    // Released by the coordinator; copy its verdict (the abort token may
    // already be reset, so the shared outcome is the one source of
    // truth for the cause classification too).
    out = st.recovery_outcome;
  }

  if (out.rearmed) {
    // Per-rank continue bookkeeping, each rank touching only its own
    // state: split slots restart in a fresh epoch-unique range (peer
    // split_sequence_ values diverged when they unwound at different
    // points). On retry the fault slot also advances to the next attempt
    // so `until=A` specs can heal deterministically; a quarantine skip
    // keeps the attempt so the unhealed fault stays spent (fired counts
    // only reset when the attempt changes) instead of re-firing into
    // every later batch.
    split_sequence_ = st.recovery_epoch << 32;
    if (out.retry && fault_ != nullptr) fault_->attempt = attempt + 1;
  }
  return out;
}

Comm Comm::split(int color, int key) {
  // Colors and keys legitimately differ per rank, so the ledger entry
  // carries the call only; the internal allgather is recorded separately.
  proto_record(ProtoOp::kSplit, 0, 0, 0);
  // Exchange (color, key) so every rank can compute every group locally,
  // mirroring the communication MPI_Comm_split performs.
  struct Entry {
    int color;
    int key;
    int parent_rank;
  };
  const Entry mine{color, key, rank_};
  std::vector<Entry> all = allgather<Entry>(std::span<const Entry>(&mine, 1));

  std::vector<Entry> group;
  for (const Entry& e : all) {
    if (e.color == color) group.push_back(e);
  }
  std::sort(group.begin(), group.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.parent_rank) < std::tie(b.key, b.parent_rank);
  });
  const int group_size = static_cast<int>(group.size());
  int new_rank = 0;
  for (int i = 0; i < group_size; ++i) {
    if (group[static_cast<std::size_t>(i)].parent_rank == rank_) new_rank = i;
  }

  // Get-or-create the child state for (generation, color); the last member
  // to claim it removes the registry entry.
  const std::pair<std::uint64_t, int> slot{split_sequence_, color};
  std::shared_ptr<detail::SharedState> child;
  {
    detail::SharedState& st = *state_;
    std::lock_guard<std::mutex> lock(st.split_mutex);
    auto it = st.split_children.find(slot);
    if (it == st.split_children.end()) {
      child = std::make_shared<detail::SharedState>(group_size);
      // A failure anywhere aborts every communicator: children share the
      // parent's token, deadline, and fault plan.
      child->abort = st.abort;
      child->watchdog = st.watchdog;
      child->fault_plan = st.fault_plan;
      // Verifier inheritance: the child ledgers its own collective
      // sequence (sub-communicators legitimately diverge from each
      // other — symmetry is per communicator) and registers with the
      // world's registry so the run-exit sweep reaches it.
      child->verify_protocol = st.verify_protocol;
      child->protocol_registry = st.protocol_registry;
      if (st.verify_protocol) {
        child->ledgers.resize(static_cast<std::size_t>(group_size));
        // Append-built (GCC 12 -Wrestrict FP on char* + string&&, PR 105651).
        std::string label = "split child (color=";
        label += std::to_string(color);
        label += ", parent generation=";
        label += std::to_string(split_sequence_);
        label += ")";
        child->label = std::move(label);
        if (st.protocol_registry != nullptr) {
          st.protocol_registry->register_child(child);
        }
      }
      if (group_size > 1) {
        st.split_children.emplace(slot, child);
        st.split_remaining.emplace(slot, group_size - 1);
      }
    } else {
      child = it->second;
      int& remaining = st.split_remaining.at(slot);
      if (--remaining == 0) {
        st.split_children.erase(slot);
        st.split_remaining.erase(slot);
      }
    }
  }

  ++split_sequence_;
  // The barrier keeps successive split() calls on this communicator from
  // racing on the registry generation.
  barrier();
  return Comm(std::move(child), new_rank, counters_, fault_);
}

}  // namespace sas::bsp

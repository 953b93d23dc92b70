// comm.hpp — SPMD communicator for the in-process BSP runtime.
//
// This is the library's substitute for MPI, so the whole pipeline runs
// in one process with no MPI dependency: ranks are threads, point-to-
// point messages are buffered byte copies, and the collective set
// mirrors the MPI collectives the paper's Cyclops backend uses.
// Collectives are implemented *on top of* point-to-point sends with the
// textbook algorithms (binomial trees, rings, dissemination), so the
// message/byte counters reflect realistic communication structure — e.g.
// a broadcast really costs O(log p) rounds, an all-to-all really moves
// p·(p−1) messages. That is what makes the §III-C cost-model validation
// meaningful.
//
// Usage (SPMD, same style as an MPI program):
//   bsp::Runtime::run(8, [](bsp::Comm& comm) {
//     auto part = ...;                       // rank-local work
//     auto total = comm.allreduce<std::uint64_t>(part, std::plus<>{});
//   });
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bsp/cost_model.hpp"
#include "bsp/fault.hpp"
#include "bsp/mailbox.hpp"
#include "bsp/protocol.hpp"
#include "obs/trace.hpp"
#include "util/membudget.hpp"

namespace sas::bsp {

/// Verdict of a recovery rendezvous (Comm::recover), identical on every
/// rank of the same generation.
struct RecoveryOutcome {
  bool retry = false;      ///< replay the batch (state was reset for it)
  bool healable = false;   ///< ranks agreed on the batch and none defected
  bool transient = false;  ///< the cause carried Severity::kTransient
  bool rearmed = false;    ///< shared state was reset — the run may go on
  int source_rank = -1;    ///< rank whose failure tripped the token
  std::string message;     ///< the cause's what() (quarantine manifests)
  std::exception_ptr cause;
};

namespace detail {

/// State shared by all ranks of one communicator (world or split group).
struct SharedState {
  explicit SharedState(int size_in)
      : size(size_in),
        mailboxes(static_cast<std::size_t>(size_in)),
        abort(std::make_shared<AbortToken>()) {}

  int size;
  std::vector<Mailbox> mailboxes;

  // Failure semantics (fault.hpp). Split children share the parent's
  // abort token — a failure anywhere unwinds every communicator — and
  // inherit the watchdog deadline and fault plan.
  std::shared_ptr<AbortToken> abort;
  std::chrono::milliseconds watchdog{0};  ///< 0 = no deadline
  std::shared_ptr<const FaultPlan> fault_plan;

  // Sense-reversing barrier.
  std::mutex barrier_mutex;
  std::condition_variable barrier_cv;
  int barrier_arrived = 0;
  std::uint64_t barrier_generation = 0;

  // Recovery rendezvous (Comm::recover): after an abort, every rank
  // unwinds to its batch boundary and arrives here; the last arrival
  // coordinates the verdict (retry vs give up), resets the abort/
  // protocol/mailbox state for a replay, and releases the others. A rank
  // whose thread exits WITHOUT reaching the rendezvous (the failure
  // escaped the batch loop) is counted defected by Runtime so arrivals
  // never wait for a thread that is already gone.
  std::mutex recovery_mutex;
  std::condition_variable recovery_cv;
  int recovery_arrived = 0;
  int recovery_defected = 0;
  bool recovery_claimed = false;       ///< a coordinator is working
  std::uint64_t recovery_generation = 0;
  std::uint64_t recovery_epoch = 0;    ///< completed rendezvous count
  std::int64_t recovery_batch = -1;    ///< batch of the first arrival
  bool recovery_batch_mismatch = false;
  RecoveryOutcome recovery_outcome;    ///< current generation's verdict

  /// Runtime calls this when a rank's thread is about to exit while the
  /// run is aborted: the rank can no longer join a rendezvous, and any
  /// peers already waiting there must learn that and give up.
  void note_recovery_defection() {
    std::lock_guard<std::mutex> lock(recovery_mutex);
    ++recovery_defected;
    recovery_cv.notify_all();
  }

  // Registry used by split(): the first member of each (generation, color)
  // group allocates the child state; the last member erases the entry.
  std::mutex split_mutex;
  std::condition_variable split_cv;
  std::map<std::pair<std::uint64_t, int>, std::shared_ptr<SharedState>> split_children;
  std::map<std::pair<std::uint64_t, int>, int> split_remaining;

  // Debug-build protocol verifier (bsp/protocol.hpp). When armed, every
  // collective appends to this communicator's per-rank ledgers, which are
  // cross-checked at barriers and at run exit. Split children inherit the
  // flag and the world-owned registry so the exit sweep reaches their
  // ledgers and mailboxes too. Disarmed: one branch per collective.
  bool verify_protocol = false;
  std::vector<ProtocolLedger> ledgers;           ///< one per rank, owner-written
  ProtocolRegistry* protocol_registry = nullptr; ///< world's; null when disarmed
  std::shared_ptr<ProtocolRegistry> owned_registry;  ///< non-null on world only
  std::string label = "world communicator";      ///< for verifier reports
};

}  // namespace detail

/// Reserved tag space for internal collective traffic; user tags must be
/// non-negative.
enum InternalTag : int {
  kTagBcast = -1,
  kTagReduce = -2,
  kTagGather = -3,
  kTagAllgather = -4,
  kTagScatter = -5,
  kTagAlltoall = -6,
  kTagScan = -7,
  kTagSplit = -8,
  kTagReduceScatter = -9,
};

/// SPMD communicator handle. Move-only: every rank owns exactly one
/// instance per (sub-)communicator so that collective call sequences stay
/// aligned across ranks.
class Comm {
 public:
  Comm(std::shared_ptr<detail::SharedState> state, int rank, CostCounters* counters,
       FaultSlot* fault = nullptr)
      : state_(std::move(state)), rank_(rank), counters_(counters), fault_(fault) {}

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;
  Comm(Comm&&) = default;
  Comm& operator=(Comm&&) = default;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int size() const noexcept { return state_->size; }
  [[nodiscard]] CostCounters& counters() noexcept { return *counters_; }

  /// Record kernel arithmetic against this rank's γ term.
  void add_flops(std::uint64_t n) noexcept { counters_->flops += n; }

  /// Global synchronization; counts one BSP superstep.
  void barrier();

  // ---- in-run recovery -----------------------------------------------

  /// Trip the run's abort token with `cause` so blocked peers unwind.
  /// First trip wins; the recovery layer calls this when a rank's batch
  /// body throws locally (peers learn of the failure through the token).
  void abort_with(std::exception_ptr cause) {
    state_->abort->trip(rank_, std::move(cause));
  }

  /// Recovery rendezvous: call on the WORLD communicator, on every rank,
  /// after the abort cascade unwound the batch to its boundary. Blocks
  /// until all surviving ranks arrive, then returns the shared verdict.
  /// Retry requires the cause to be transient, `attempt` < `max_retries`,
  /// every rank to name the same `batch`, and no rank to have defected
  /// (healable). When the verdict is retry — or the failure is healable
  /// and `quarantine` says the caller will skip the batch and go on — the
  /// shared state is re-armed (`rearmed`): abort token reset, mailboxes
  /// purged, protocol ledgers resynchronized at tags::kRecoveryResync,
  /// split registries cleared. On retry this rank's fault-injection slot
  /// additionally advances to `attempt` + 1 so `until=A` specs heal; a
  /// quarantine skip keeps the attempt (an unhealed fault must not
  /// re-fire into every later batch).
  [[nodiscard]] RecoveryOutcome recover(std::int64_t batch, std::uint64_t attempt,
                                        std::uint64_t max_retries, bool quarantine);

  // ---- point-to-point ----------------------------------------------------

  /// Buffered send of a trivially copyable span. Never blocks.
  /// Self-sends are delivered but not counted: they are local memcpys,
  /// not network traffic, and would skew the α-β accounting.
  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_rank(dest);
    // Memory-budget guardrail on the staging copy: under a per-rank
    // budget (util/membudget.hpp) an over-limit payload fails as a typed
    // error::ResourceExhausted at the allocation site. Transient charge —
    // the mailbox's resident copy is the receiver's cost to bear.
    const util::ScopedCharge charge(data.size_bytes(), "send payload staging");
    Mailbox::Message payload(data.size_bytes());
    if (!data.empty()) std::memcpy(payload.data(), data.data(), data.size_bytes());
    fault_point(&payload);
    if (dest != rank_) {
      counters_->messages_sent += 1;
      counters_->bytes_sent += payload.size();
      if (obs::RankObserver* o = obs::current()) {
        o->message_bytes.record(payload.size());
      }
    }
    state_->mailboxes[static_cast<std::size_t>(dest)].deposit(rank_, tag,
                                                              std::move(payload));
  }

  template <typename T>
  void send_value(int dest, int tag, const T& value) {
    send<T>(dest, tag, std::span<const T>(&value, 1));
  }

  /// Blocking receive of a message from (source, tag). Mirrors send():
  /// self-receives are local memcpys and are not counted as traffic.
  template <typename T>
  [[nodiscard]] std::vector<T> recv(int source, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    check_rank(source);
    obs::RankObserver* const o = obs::current();
    const std::int64_t wait_start_ns = o != nullptr ? o->now_ns() : 0;
    Mailbox::Message payload = state_->mailboxes[static_cast<std::size_t>(rank_)].retrieve(
        source, tag, wait_policy());
    if (o != nullptr) {
      o->mailbox_wait_ns.record(
          static_cast<std::uint64_t>(o->now_ns() - wait_start_ns));
    }
    fault_point(&payload);
    if (source != rank_) counters_->bytes_received += payload.size();
    if (payload.size() % sizeof(T) != 0) {
      throw std::logic_error("bsp::Comm::recv: payload size not a multiple of element size");
    }
    // Budget the unpack copy (see send(): typed failure, not an OOM kill).
    const util::ScopedCharge charge(payload.size(), "recv payload unpack");
    std::vector<T> data(payload.size() / sizeof(T));
    if (!data.empty()) std::memcpy(data.data(), payload.data(), payload.size());
    return data;
  }

  template <typename T>
  [[nodiscard]] T recv_value(int source, int tag) {
    auto data = recv<T>(source, tag);
    if (data.size() != 1) {
      throw std::logic_error("bsp::Comm::recv_value: expected exactly one element");
    }
    return data.front();
  }

  // ---- collectives ---------------------------------------------------

  /// Binomial-tree broadcast from `root`; non-root contents are replaced.
  /// ⌈log₂ p⌉ rounds, p−1 messages.
  template <typename T>
  void broadcast(std::vector<T>& data, int root) {
    const int p = size();
    proto_record(ProtoOp::kBroadcast, root, sizeof(T), 0);
    if (p == 1) return;
    const obs::CollectiveScope obs_scope(obs::Primitive::kBroadcast, *counters_);
    const int vrank = virtual_rank(root);
    for (int mask = 1; mask < p; mask <<= 1) {
      if (vrank < mask) {
        const int partner = vrank + mask;
        if (partner < p) {
          send<T>(real_rank(partner, root), kTagBcast, std::span<const T>(data));
        }
      } else if (vrank < (mask << 1)) {
        data = recv<T>(real_rank(vrank - mask, root), kTagBcast);
      }
    }
  }

  template <typename T>
  [[nodiscard]] T broadcast_value(T value, int root) {
    std::vector<T> buf(1, value);
    broadcast(buf, root);
    return buf.front();
  }

  /// Binomial-tree reduction to `root`; `op(a, b)` must be associative and
  /// commutative. Vector variant combines elementwise; all ranks must pass
  /// equal-length vectors. Returns the reduced vector on root (others get
  /// their partially combined buffer back — only root's result is defined).
  template <typename T, typename Op>
  void reduce(std::vector<T>& data, Op op, int root) {
    const int p = size();
    proto_record(ProtoOp::kReduce, root, sizeof(T), data.size());
    const obs::CollectiveScope obs_scope(obs::Primitive::kReduce, *counters_);
    const int vrank = virtual_rank(root);
    int top = 1;
    while (top < p) top <<= 1;
    for (int mask = top >> 1; mask >= 1; mask >>= 1) {
      if (vrank < mask) {
        const int partner = vrank + mask;
        if (partner < p) {
          auto incoming = recv<T>(real_rank(partner, root), kTagReduce);
          combine_elementwise(data, incoming, op);
        }
      } else if (vrank < (mask << 1)) {
        send<T>(real_rank(vrank - mask, root), kTagReduce, std::span<const T>(data));
        return;  // contributed; out of the tree
      }
    }
  }

  /// reduce-to-root followed by broadcast; result defined on all ranks.
  /// `op` must be associative and commutative, as for reduce().
  template <typename T, typename Op>
  void allreduce(std::vector<T>& data, Op op) {
    proto_record(ProtoOp::kAllreduce, 0, sizeof(T), data.size());
    // Outermost scope: the internal reduce + broadcast emit nested spans
    // but only this one books cost-model drift (obs/trace.hpp).
    const obs::CollectiveScope obs_scope(obs::Primitive::kAllreduce, *counters_);
    reduce(data, op, 0);
    broadcast(data, 0);
  }

  template <typename T, typename Op>
  [[nodiscard]] T allreduce_value(T value, Op op) {
    std::vector<T> buf(1, value);
    allreduce(buf, op);
    return buf.front();
  }

  /// Flat gather of variable-length blocks to root; returns one vector per
  /// source rank (empty on non-roots).
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> gather_v(std::span<const T> mine, int root) {
    const int p = size();
    // shape 0: per-rank block lengths may legitimately differ.
    proto_record(ProtoOp::kGather, root, sizeof(T), 0);
    const obs::CollectiveScope obs_scope(obs::Primitive::kGather, *counters_);
    std::vector<std::vector<T>> blocks;
    if (rank_ == root) {
      blocks.resize(static_cast<std::size_t>(p));
      blocks[static_cast<std::size_t>(rank_)].assign(mine.begin(), mine.end());
      for (int r = 0; r < p; ++r) {
        if (r == root) continue;
        blocks[static_cast<std::size_t>(r)] = recv<T>(r, kTagGather);
      }
    } else {
      send<T>(root, kTagGather, mine);
    }
    return blocks;
  }

  /// Ring allgather of variable-length blocks; every rank returns all
  /// blocks in rank order. Bandwidth-optimal: p−1 rounds, each forwarding
  /// the block received in the previous round.
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> allgather_v(std::span<const T> mine) {
    const int p = size();
    proto_record(ProtoOp::kAllgather, 0, sizeof(T), 0);
    const obs::CollectiveScope obs_scope(obs::Primitive::kAllgather, *counters_);
    std::vector<std::vector<T>> blocks(static_cast<std::size_t>(p));
    blocks[static_cast<std::size_t>(rank_)].assign(mine.begin(), mine.end());
    const int next = (rank_ + 1) % p;
    const int prev = (rank_ + p - 1) % p;
    int forwarding = rank_;  // owner of the block sent in this round
    for (int step = 0; step + 1 < p; ++step) {
      send<T>(next, kTagAllgather,
              std::span<const T>(blocks[static_cast<std::size_t>(forwarding)]));
      const int incoming = (rank_ + p - 1 - step) % p;
      blocks[static_cast<std::size_t>(incoming)] = recv<T>(prev, kTagAllgather);
      forwarding = incoming;
    }
    return blocks;
  }

  /// Concatenating allgather (blocks appended in rank order).
  template <typename T>
  [[nodiscard]] std::vector<T> allgather(std::span<const T> mine) {
    auto blocks = allgather_v(mine);
    std::size_t total = 0;
    for (const auto& b : blocks) total += b.size();
    std::vector<T> out;
    out.reserve(total);
    for (const auto& b : blocks) out.insert(out.end(), b.begin(), b.end());
    return out;
  }

  /// Root sends block r to rank r; returns this rank's block.
  template <typename T>
  [[nodiscard]] std::vector<T> scatter_v(const std::vector<std::vector<T>>& blocks,
                                         int root) {
    const int p = size();
    proto_record(ProtoOp::kScatter, root, sizeof(T), 0);
    const obs::CollectiveScope obs_scope(obs::Primitive::kScatter, *counters_);
    if (rank_ == root) {
      if (static_cast<int>(blocks.size()) != p) {
        throw std::invalid_argument("bsp::Comm::scatter_v: need one block per rank");
      }
      for (int r = 0; r < p; ++r) {
        if (r == root) continue;
        send<T>(r, kTagScatter, std::span<const T>(blocks[static_cast<std::size_t>(r)]));
      }
      return blocks[static_cast<std::size_t>(root)];
    }
    return recv<T>(root, kTagScatter);
  }

  /// Personalized all-to-all with variable block sizes. outgoing[r] is the
  /// block for rank r; returns incoming[r] = block from rank r. Buffered
  /// sends make the direct exchange deadlock-free.
  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>> alltoall_v(
      const std::vector<std::vector<T>>& outgoing) {
    const int p = size();
    proto_record(ProtoOp::kAlltoall, 0, sizeof(T), outgoing.size());
    const obs::CollectiveScope obs_scope(obs::Primitive::kAlltoall, *counters_);
    if (static_cast<int>(outgoing.size()) != p) {
      throw std::invalid_argument("bsp::Comm::alltoall_v: need one block per rank");
    }
    std::vector<std::vector<T>> incoming(static_cast<std::size_t>(p));
    incoming[static_cast<std::size_t>(rank_)] = outgoing[static_cast<std::size_t>(rank_)];
    // Pairwise-offset schedule spreads load across the "network".
    for (int offset = 1; offset < p; ++offset) {
      const int dest = (rank_ + offset) % p;
      send<T>(dest, kTagAlltoall, std::span<const T>(outgoing[static_cast<std::size_t>(dest)]));
    }
    for (int offset = 1; offset < p; ++offset) {
      const int source = (rank_ + p - offset) % p;
      incoming[static_cast<std::size_t>(source)] = recv<T>(source, kTagAlltoall);
    }
    return incoming;
  }

  /// Ring reduce-scatter: every rank passes equal-length vectors; rank r
  /// returns the elementwise combination of block r (block_count = p,
  /// near-equal contiguous blocks). Bandwidth-optimal: p−1 rounds each
  /// moving one block, (p−1)/p of the data per rank — the building block
  /// MPI implementations use inside large allreduces.
  template <typename T, typename Op>
  [[nodiscard]] std::vector<T> reduce_scatter(const std::vector<T>& data, Op op) {
    const int p = size();
    const auto total = static_cast<std::int64_t>(data.size());
    auto block_begin = [&](int b) {
      const std::int64_t base = total / p;
      const std::int64_t extra = total % p;
      return b * base + (b < static_cast<int>(extra) ? b : static_cast<std::int64_t>(extra));
    };
    auto block_of = [&](const std::vector<T>& v, int b) {
      return std::span<const T>(v.data() + block_begin(b),
                                static_cast<std::size_t>(block_begin(b + 1) - block_begin(b)));
    };
    proto_record(ProtoOp::kReduceScatter, 0, sizeof(T), data.size());
    if (p == 1) return data;
    const obs::CollectiveScope obs_scope(obs::Primitive::kReduceScatter,
                                         *counters_);

    // Block b leaves rank b+1 first and travels the ring once, combining
    // each rank's copy on the way; after p−1 rounds it lands fully
    // reduced on its owner b. Round t: rank r sends block (r−1−t) and
    // receives + combines block (r−2−t); the last block received is r's.
    std::vector<T> accum = data;
    const int next = (rank_ + 1) % p;
    const int prev = (rank_ + p - 1) % p;
    for (int t = 0; t < p - 1; ++t) {
      const int send_block = (rank_ - 1 - t % p + 2 * p) % p;
      const int recv_block = (rank_ - 2 - t % p + 2 * p) % p;
      send<T>(next, kTagReduceScatter, block_of(accum, send_block));
      const std::vector<T> incoming = recv<T>(prev, kTagReduceScatter);
      const std::int64_t begin = block_begin(recv_block);
      for (std::size_t i = 0; i < incoming.size(); ++i) {
        accum[static_cast<std::size_t>(begin) + i] =
            op(incoming[i], accum[static_cast<std::size_t>(begin) + i]);
      }
    }
    const auto mine = block_of(accum, rank_);
    return {mine.begin(), mine.end()};
  }

  /// Inclusive prefix combine (dissemination / Hillis-Steele): returns
  /// op(x_0, ..., x_rank). O(log p) rounds.
  template <typename T, typename Op>
  [[nodiscard]] T scan(T value, Op op) {
    const int p = size();
    proto_record(ProtoOp::kScan, 0, sizeof(T), 1);
    const obs::CollectiveScope obs_scope(obs::Primitive::kScan, *counters_);
    T inclusive = value;
    for (int offset = 1; offset < p; offset <<= 1) {
      if (rank_ + offset < p) send_value<T>(rank_ + offset, kTagScan, inclusive);
      if (rank_ - offset >= 0) {
        T incoming = recv_value<T>(rank_ - offset, kTagScan);
        inclusive = op(incoming, inclusive);
      }
    }
    return inclusive;
  }

  /// Exclusive prefix combine: returns op(x_0, ..., x_{rank-1}), or
  /// `identity` on rank 0.
  template <typename T, typename Op>
  [[nodiscard]] T exscan(T value, Op op, T identity) {
    const int p = size();
    proto_record(ProtoOp::kExscan, 0, sizeof(T), 1);
    const obs::CollectiveScope obs_scope(obs::Primitive::kScan, *counters_);
    T inclusive = value;
    T exclusive = identity;
    bool has_exclusive = false;
    for (int offset = 1; offset < p; offset <<= 1) {
      if (rank_ + offset < p) send_value<T>(rank_ + offset, kTagScan, inclusive);
      if (rank_ - offset >= 0) {
        T incoming = recv_value<T>(rank_ - offset, kTagScan);
        inclusive = op(incoming, inclusive);
        exclusive = has_exclusive ? op(incoming, exclusive) : incoming;
        has_exclusive = true;
      }
    }
    return exclusive;
  }

  /// Collective split into sub-communicators, MPI_Comm_split semantics:
  /// ranks sharing `color` form a group, ordered by (key, parent rank).
  /// Cost counters keep pointing at this rank's root counters, so
  /// sub-communicator traffic still accrues to the global BSP accounting.
  [[nodiscard]] Comm split(int color, int key);

 private:
  [[nodiscard]] int virtual_rank(int root) const noexcept {
    return (rank_ - root + size()) % size();
  }
  [[nodiscard]] int real_rank(int vrank, int root) const noexcept {
    return (vrank + root) % size();
  }
  void check_rank(int r) const {
    if (r < 0 || r >= size()) throw std::out_of_range("bsp::Comm: rank out of range");
  }

  [[nodiscard]] WaitPolicy wait_policy() const noexcept {
    return WaitPolicy{state_->abort.get(), state_->watchdog, rank_};
  }

  /// Protocol-verifier hook at the top of every collective: append the
  /// call's fingerprint to this rank's ledger (bsp/protocol.hpp). The
  /// ledger is only read at synchronization points that order this write
  /// (barrier mutex, thread join). No-op unless verification is armed.
  void proto_record(ProtoOp op, int tag, std::uint32_t elem_size,
                    std::uint64_t shape) noexcept {
    if (!state_->verify_protocol) return;
    state_->ledgers[static_cast<std::size_t>(rank_)].record(op, tag, elem_size,
                                                            shape);
  }

  /// Fault-injection hook on every counted point-to-point op (and so on
  /// every collective). No-op unless a plan is installed.
  void fault_point(Mailbox::Message* payload) {
    if (fault_ == nullptr) return;
    const FaultPlan* plan = state_->fault_plan.get();
    if (plan == nullptr) return;
    plan->apply(*fault_, payload);
  }

  template <typename T, typename Op>
  static void combine_elementwise(std::vector<T>& into, const std::vector<T>& from,
                                  Op op) {
    if (into.size() != from.size()) {
      throw std::logic_error("bsp reduce: mismatched vector lengths across ranks");
    }
    for (std::size_t i = 0; i < into.size(); ++i) into[i] = op(into[i], from[i]);
  }

  std::shared_ptr<detail::SharedState> state_;
  int rank_;
  CostCounters* counters_;
  FaultSlot* fault_ = nullptr;  // world-rank injection state; null = no plan
  std::uint64_t split_sequence_ = 0;  // aligned across ranks by SPMD discipline
};

}  // namespace sas::bsp

#include "locks/spinlocks.h"

#include <deque>

#include "common/logging.h"
#include "runtime/spin.h"

namespace eo::locks {

using runtime::Env;
using runtime::next_spin_site;
using runtime::SimCall;

const std::vector<SpinLockKind>& all_spinlock_kinds() {
  static const std::vector<SpinLockKind> kinds = {
      SpinLockKind::kAlockLs,     SpinLockKind::kClh,
      SpinLockKind::kMalthusian,  SpinLockKind::kMcs,
      SpinLockKind::kPartitioned, SpinLockKind::kPthreadSpin,
      SpinLockKind::kTicket,      SpinLockKind::kTtas,
      SpinLockKind::kCna,         SpinLockKind::kAqs,
  };
  return kinds;
}

const char* to_string(SpinLockKind k) {
  switch (k) {
    case SpinLockKind::kAlockLs:
      return "alock-ls";
    case SpinLockKind::kClh:
      return "clh";
    case SpinLockKind::kMalthusian:
      return "malth";
    case SpinLockKind::kMcs:
      return "mcs";
    case SpinLockKind::kPartitioned:
      return "partitioned";
    case SpinLockKind::kPthreadSpin:
      return "pthread";
    case SpinLockKind::kTicket:
      return "ticket";
    case SpinLockKind::kTtas:
      return "ttas";
    case SpinLockKind::kCna:
      return "cna";
    case SpinLockKind::kAqs:
      return "aqs";
  }
  return "?";
}

namespace {

// --- Ticket -----------------------------------------------------------------

class TicketLock final : public SpinLock {
 public:
  explicit TicketLock(kern::Kernel& k)
      : next_(k.alloc_word(0)), serving_(k.alloc_word(0)),
        site_(next_spin_site()) {}

  SimCall<void> lock(Env env, int) override {
    const std::uint64_t my = co_await env.fetch_add(next_, 1);
    co_await env.spin_until_eq(serving_, my, site_);
    co_return;
  }
  SimCall<void> unlock(Env env, int) override {
    co_await env.fetch_add(serving_, 1);
    co_return;
  }
  const char* name() const override { return "ticket"; }

 private:
  kern::SimWord* next_;
  kern::SimWord* serving_;
  hw::BranchSite site_;
};

// --- TTAS -------------------------------------------------------------------

class TtasLock final : public SpinLock {
 public:
  explicit TtasLock(kern::Kernel& k)
      : state_(k.alloc_word(0)), site_(next_spin_site()) {}

  SimCall<void> lock(Env env, int) override {
    for (;;) {
      const std::uint64_t won = co_await env.cas(state_, 0, 1);
      if (won) co_return;
      co_await env.spin_until_eq(state_, 0, site_);
    }
  }
  SimCall<void> unlock(Env env, int) override {
    co_await env.store(state_, 0);
    co_return;
  }
  const char* name() const override { return "ttas"; }

 private:
  kern::SimWord* state_;
  hw::BranchSite site_;
};

// --- pthread_spin-style (exchange loop with PAUSE) ---------------------------

class PthreadSpinLock final : public SpinLock {
 public:
  explicit PthreadSpinLock(kern::Kernel& k)
      : state_(k.alloc_word(0)), site_(next_spin_site()) {}

  SimCall<void> lock(Env env, int) override {
    for (;;) {
      const std::uint64_t prev = co_await env.exchange(state_, 1);
      if (prev == 0) co_return;
      // The glibc spin body contains PAUSE/NOP (paper Figure 6).
      co_await env.spin_until_eq(state_, 0, site_, /*uses_pause=*/true);
    }
  }
  SimCall<void> unlock(Env env, int) override {
    co_await env.store(state_, 0);
    co_return;
  }
  const char* name() const override { return "pthread"; }

 private:
  kern::SimWord* state_;
  hw::BranchSite site_;
};

// --- Anderson array lock with local spinning ---------------------------------

class AlockLs final : public SpinLock {
 public:
  AlockLs(kern::Kernel& k, int max_threads)
      : n_(max_threads), tail_(k.alloc_word(0)), site_(next_spin_site()),
        my_pos_(static_cast<size_t>(max_threads), 0) {
    flags_.reserve(static_cast<size_t>(n_));
    for (int i = 0; i < n_; ++i) flags_.push_back(k.alloc_word(i == 0 ? 1 : 0));
  }

  SimCall<void> lock(Env env, int slot) override {
    const std::uint64_t ticket = co_await env.fetch_add(tail_, 1);
    const auto pos =
        static_cast<int>(ticket % static_cast<std::uint64_t>(n_));
    my_pos_[static_cast<size_t>(slot)] = pos;
    co_await env.spin_until_eq(flags_[static_cast<size_t>(pos)], 1, site_);
    // Reset for the slot's next lap around the array.
    co_await env.store(flags_[static_cast<size_t>(pos)], 0);
    co_return;
  }
  SimCall<void> unlock(Env env, int slot) override {
    const int pos = my_pos_[static_cast<size_t>(slot)];
    co_await env.store(flags_[static_cast<size_t>((pos + 1) % n_)], 1);
    co_return;
  }
  const char* name() const override { return "alock-ls"; }

 private:
  int n_;
  kern::SimWord* tail_;
  hw::BranchSite site_;
  std::vector<kern::SimWord*> flags_;
  std::vector<int> my_pos_;
};

// --- CLH ---------------------------------------------------------------------

class ClhLock final : public SpinLock {
 public:
  ClhLock(kern::Kernel& k, int max_threads)
      : site_(next_spin_site()),
        my_node_(static_cast<size_t>(max_threads)),
        my_pred_(static_cast<size_t>(max_threads), nullptr) {
    // One node per thread plus the initial dummy (unlocked) node.
    for (auto& n : my_node_) n = k.alloc_word(0);
    dummy_ = k.alloc_word(0);  // unlocked
    tail_ = dummy_;
  }

  SimCall<void> lock(Env env, int slot) override {
    kern::SimWord* my = my_node_[static_cast<size_t>(slot)];
    co_await env.store(my, 1);  // locked
    // Atomically swap ourselves in as tail (host-side pointer swap is the
    // inter-await atomic segment; charge one atomic op for realism).
    co_await env.fetch_add(my, 0);
    kern::SimWord* pred = tail_;
    tail_ = my;
    my_pred_[static_cast<size_t>(slot)] = pred;
    co_await env.spin_until_eq(pred, 0, site_);
    co_return;
  }
  SimCall<void> unlock(Env env, int slot) override {
    kern::SimWord* my = my_node_[static_cast<size_t>(slot)];
    // Recycle: the predecessor's node becomes ours for the next acquisition.
    my_node_[static_cast<size_t>(slot)] =
        my_pred_[static_cast<size_t>(slot)];
    co_await env.store(my, 0);  // release our (old) node
    co_return;
  }
  const char* name() const override { return "clh"; }

 private:
  hw::BranchSite site_;
  std::vector<kern::SimWord*> my_node_;
  std::vector<kern::SimWord*> my_pred_;
  kern::SimWord* dummy_;
  kern::SimWord* tail_;
};

// --- MCS ---------------------------------------------------------------------

class McsLock final : public SpinLock {
 public:
  McsLock(kern::Kernel& k, int max_threads)
      : site_(next_spin_site()),
        flag_(static_cast<size_t>(max_threads)),
        link_(static_cast<size_t>(max_threads)) {
    for (auto& f : flag_) f = k.alloc_word(0);
    for (auto& l : link_) l = k.alloc_word(0);  // successor slot + 1; 0 = none
  }

  SimCall<void> lock(Env env, int slot) override {
    co_await env.store(link_[static_cast<size_t>(slot)], 0);
    co_await env.store(flag_[static_cast<size_t>(slot)], 1);  // waiting
    const int pred = tail_;  // swap tail (atomic segment)
    tail_ = slot;
    if (pred < 0) co_return;  // lock was free
    co_await env.store(link_[static_cast<size_t>(pred)],
                       static_cast<std::uint64_t>(slot) + 1);
    co_await env.spin_until_eq(flag_[static_cast<size_t>(slot)], 0, site_);
    co_return;
  }
  SimCall<void> unlock(Env env, int slot) override {
    std::uint64_t link = co_await env.load(link_[static_cast<size_t>(slot)]);
    if (link == 0) {
      if (tail_ == slot) {
        tail_ = -1;  // the CAS(tail, me, null) success path
        co_return;
      }
      // A successor swapped the tail but has not linked yet; spin briefly on
      // our link word until it does.
      co_await env.spin_until(link_[static_cast<size_t>(slot)],
                              kern::SpinPredicate::ne(0), site_);
      link = co_await env.load(link_[static_cast<size_t>(slot)]);
    }
    const auto succ = static_cast<size_t>(link - 1);
    co_await env.store(flag_[succ], 0);  // hand off
    co_return;
  }
  const char* name() const override { return "mcs"; }

 private:
  hw::BranchSite site_;
  std::vector<kern::SimWord*> flag_;
  std::vector<kern::SimWord*> link_;
  int tail_ = -1;
};

// --- Partitioned ticket -------------------------------------------------------

class PartitionedTicketLock final : public SpinLock {
 public:
  static constexpr int kSlots = 8;

  PartitionedTicketLock(kern::Kernel& k, int max_threads)
      : next_(k.alloc_word(0)), site_(next_spin_site()),
        my_ticket_(static_cast<size_t>(max_threads), 0) {
    for (int i = 0; i < kSlots; ++i) {
      grants_.push_back(k.alloc_word(i == 0 ? 0 : ~0ull));
    }
    // grants_[t % kSlots] == t means ticket t may enter.
  }

  SimCall<void> lock(Env env, int slot) override {
    const std::uint64_t my = co_await env.fetch_add(next_, 1);
    my_ticket_[static_cast<size_t>(slot)] = my;
    co_await env.spin_until_eq(grants_[my % kSlots], my, site_);
    co_return;
  }
  SimCall<void> unlock(Env env, int slot) override {
    const std::uint64_t my = my_ticket_[static_cast<size_t>(slot)];
    co_await env.store(grants_[(my + 1) % kSlots], my + 1);
    co_return;
  }
  const char* name() const override { return "partitioned"; }

 private:
  kern::SimWord* next_;
  hw::BranchSite site_;
  std::vector<kern::SimWord*> grants_;
  std::vector<std::uint64_t> my_ticket_;
};

// --- Malthusian (Dice): LIFO admission, passive culling -----------------------

class MalthusianLock final : public SpinLock {
 public:
  MalthusianLock(kern::Kernel& k, int max_threads)
      : state_(k.alloc_word(0)), site_(next_spin_site()),
        flag_(static_cast<size_t>(max_threads)) {
    for (auto& f : flag_) f = k.alloc_word(0);
  }

  SimCall<void> lock(Env env, int slot) override {
    const std::uint64_t won = co_await env.cas(state_, 0, 1);
    if (won) co_return;
    // Passive set admission: LIFO — the most recent waiter becomes the
    // active spinner; earlier waiters are culled to passivity (they spin on
    // their own flag, which nobody touches until they are promoted).
    passive_.push_back(slot);
    co_await env.store(flag_[static_cast<size_t>(slot)], 0);
    co_await env.spin_until_eq(flag_[static_cast<size_t>(slot)], 1, site_);
    // Promoted: the lock was handed directly to us.
    co_return;
  }
  SimCall<void> unlock(Env env, int slot) override {
    (void)slot;
    if (passive_.empty()) {
      co_await env.store(state_, 0);
      co_return;
    }
    // LIFO handoff.
    const int succ = passive_.back();
    passive_.pop_back();
    co_await env.store(flag_[static_cast<size_t>(succ)], 1);
    co_return;
  }
  const char* name() const override { return "malth"; }

 private:
  kern::SimWord* state_;
  hw::BranchSite site_;
  std::vector<kern::SimWord*> flag_;
  std::vector<int> passive_;
};

// --- CNA: compact NUMA-aware -------------------------------------------------

class CnaLock final : public SpinLock {
 public:
  CnaLock(kern::Kernel& k, int max_threads)
      : kernel_(&k), state_(k.alloc_word(0)), site_(next_spin_site()),
        flag_(static_cast<size_t>(max_threads)) {
    for (auto& f : flag_) f = k.alloc_word(0);
  }

  SimCall<void> lock(Env env, int slot) override {
    const std::uint64_t won = co_await env.cas(state_, 0, 1);
    if (won) {
      holder_socket_ = socket_of(env);
      co_return;
    }
    queue_.push_back({slot, socket_of(env)});
    co_await env.store(flag_[static_cast<size_t>(slot)], 0);
    co_await env.spin_until_eq(flag_[static_cast<size_t>(slot)], 1, site_);
    holder_socket_ = socket_of(env);
    co_return;
  }
  SimCall<void> unlock(Env env, int slot) override {
    (void)slot;
    if (queue_.empty()) {
      co_await env.store(state_, 0);
      co_return;
    }
    // Prefer a waiter from the holder's socket (the "compact" policy);
    // fall back to the head.
    std::size_t pick = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      if (queue_[i].socket == holder_socket_) {
        pick = i;
        break;
      }
    }
    const int succ = queue_[pick].slot;
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
    co_await env.store(flag_[static_cast<size_t>(succ)], 1);
    co_return;
  }
  const char* name() const override { return "cna"; }

 private:
  struct Waiter {
    int slot;
    int socket;
  };
  int socket_of(Env env) const {
    const int cpu = env.task().last_cpu;
    return cpu >= 0 ? kernel_->config().topo.socket_of(cpu) : 0;
  }

  kern::Kernel* kernel_;
  kern::SimWord* state_;
  hw::BranchSite site_;
  std::vector<kern::SimWord*> flag_;
  std::deque<Waiter> queue_;
  int holder_socket_ = 0;
};

// --- AQS: qspinlock-style (TAS word + pending + queue) -------------------------

class AqsLock final : public SpinLock {
 public:
  AqsLock(kern::Kernel& k, int max_threads)
      : state_(k.alloc_word(0)), site_(next_spin_site()),
        flag_(static_cast<size_t>(max_threads)) {
    for (auto& f : flag_) f = k.alloc_word(0);
  }

  SimCall<void> lock(Env env, int slot) override {
    const std::uint64_t won = co_await env.cas(state_, 0, 1);
    if (won) co_return;
    if (!pending_taken_ && queue_.empty()) {
      // Become the pending spinner: spin directly on the lock word.
      pending_taken_ = true;
      for (;;) {
        co_await env.spin_until_eq(state_, 0, site_);
        const std::uint64_t got = co_await env.cas(state_, 0, 1);
        if (got) {
          pending_taken_ = false;
          co_return;
        }
      }
    }
    // Queue behind the pending spinner, blocked on a per-thread flag.
    queue_.push_back(slot);
    co_await env.store(flag_[static_cast<size_t>(slot)], 0);
    co_await env.spin_until_eq(flag_[static_cast<size_t>(slot)], 1, site_);
    // Promoted to pending: spin on the word.
    pending_taken_ = true;
    for (;;) {
      co_await env.spin_until_eq(state_, 0, site_);
      const std::uint64_t got = co_await env.cas(state_, 0, 1);
      if (got) {
        pending_taken_ = false;
        co_return;
      }
    }
  }
  SimCall<void> unlock(Env env, int slot) override {
    (void)slot;
    co_await env.store(state_, 0);
    if (!pending_taken_ && !queue_.empty()) {
      const int succ = queue_.front();
      queue_.pop_front();
      co_await env.store(flag_[static_cast<size_t>(succ)], 1);
    }
    co_return;
  }
  const char* name() const override { return "aqs"; }

 private:
  kern::SimWord* state_;
  hw::BranchSite site_;
  std::vector<kern::SimWord*> flag_;
  std::deque<int> queue_;
  bool pending_taken_ = false;
};

}  // namespace

std::unique_ptr<SpinLock> make_spinlock(SpinLockKind kind, kern::Kernel& k,
                                        int max_threads) {
  EO_CHECK_GT(max_threads, 0);
  switch (kind) {
    case SpinLockKind::kAlockLs:
      return std::make_unique<AlockLs>(k, max_threads);
    case SpinLockKind::kClh:
      return std::make_unique<ClhLock>(k, max_threads);
    case SpinLockKind::kMalthusian:
      return std::make_unique<MalthusianLock>(k, max_threads);
    case SpinLockKind::kMcs:
      return std::make_unique<McsLock>(k, max_threads);
    case SpinLockKind::kPartitioned:
      return std::make_unique<PartitionedTicketLock>(k, max_threads);
    case SpinLockKind::kPthreadSpin:
      return std::make_unique<PthreadSpinLock>(k);
    case SpinLockKind::kTicket:
      return std::make_unique<TicketLock>(k);
    case SpinLockKind::kTtas:
      return std::make_unique<TtasLock>(k);
    case SpinLockKind::kCna:
      return std::make_unique<CnaLock>(k, max_threads);
    case SpinLockKind::kAqs:
      return std::make_unique<AqsLock>(k, max_threads);
  }
  return nullptr;
}

}  // namespace eo::locks

// Engine stress/property tests: randomized schedule/cancel interleavings
// checked against a reference model (from outside the engine and from inside
// its callbacks), id-reuse-after-generation-bump safety, slab recycling
// bounds, and order-equivalence of the periodic path with the self-re-arming
// pattern it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "sim/engine.h"

namespace eo::sim {
namespace {

// --- randomized model check -------------------------------------------------
//
// Schedules, cancels, and run_until() calls are drawn at random from outside
// the engine; a flat reference model predicts the exact fire sequence
// (equal-timestamp ties break by insertion order) plus the has_pending /
// events_fired counters after every run.

struct RefEvent {
  SimTime when = 0;
  bool canceled = false;
  bool fired = false;
};

class ModelStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModelStress, MatchesReferenceModel) {
  Rng rng(GetParam());
  Engine e;
  std::vector<RefEvent> refs;
  std::vector<EventId> ids;
  std::vector<std::size_t> log;  // indices of fired refs, in fire order
  std::vector<std::size_t> expected;

  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t op = rng.next_below(100);
    if (op < 55) {
      // Schedule, with a deliberately coarse time grid so timestamp ties are
      // common and the insertion-order tie-break is exercised hard.
      const SimTime when = e.now() + static_cast<SimTime>(rng.next_below(40));
      const std::size_t idx = refs.size();
      refs.push_back(RefEvent{when});
      ids.push_back(e.schedule_at(when, [&log, idx] { log.push_back(idx); }));
    } else if (op < 80) {
      if (!ids.empty()) {
        // Cancel a random id: pending (real cancel), fired, or already
        // canceled (both must be no-ops, even if the slot has since been
        // recycled for a newer event — the generation tag guards reuse).
        const std::size_t j = rng.next_below(ids.size());
        e.cancel(ids[j]);
        if (!refs[j].fired) refs[j].canceled = true;
      }
    } else if (op < 85) {
      e.cancel(kInvalidEvent);
      e.cancel(0xdeadbeefdeadbeefull);  // never-issued id
    } else {
      const SimTime deadline =
          e.now() + static_cast<SimTime>(rng.next_below(60));
      e.run_until(deadline);
      for (std::size_t i = 0; i < refs.size(); ++i) {
        if (!refs[i].canceled && !refs[i].fired && refs[i].when <= deadline) {
          refs[i].fired = true;
        }
      }
      std::uint64_t live = 0;
      for (const RefEvent& r : refs) {
        if (!r.canceled && !r.fired) ++live;
      }
      ASSERT_EQ(e.has_pending(), live > 0) << "after step " << step;
    }
  }
  e.run();  // drain the stragglers
  for (RefEvent& r : refs) {
    if (!r.canceled && !r.fired) r.fired = true;
  }

  // Expected order: by (when, insertion index) over never-canceled events.
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (refs[i].fired) expected.push_back(i);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [&refs](std::size_t a, std::size_t b) {
                     return refs[a].when < refs[b].when;
                   });
  EXPECT_EQ(log, expected);
  EXPECT_EQ(e.events_fired(), log.size());
  EXPECT_FALSE(e.has_pending());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelStress,
                         ::testing::Values(1u, 2u, 3u, 0xc0ffeeu, 77u));

// --- randomized model check, scheduling from inside callbacks ---------------
//
// Callbacks schedule 0-3 events (a quarter of them at now(), tying with
// whatever else is due), cancel random ids (their own, fired ones, pending
// ones), and arm periodic timers that cancel themselves or each other. The
// same seeded script runs against the engine and against RefEngine, a flat
// list scanned for the minimum (when, insertion seq): both must fire the
// same events at the same times and agree on has_pending / events_fired
// after every run_until. This drives the engine's in-slot firing and the
// deferred root pop, which outside-only scheduling never reaches.

class RefEngine {
 public:
  SimTime now() const { return now_; }
  std::uint64_t schedule_at(SimTime when, std::function<void()> fn) {
    return add(when, 0, std::move(fn));
  }
  std::uint64_t schedule_periodic(SimDuration first_delay, SimDuration period,
                                  std::function<void()> fn) {
    return add(now_ + first_delay, period, std::move(fn));
  }
  void cancel(std::uint64_t id) {
    std::erase_if(pending_, [id](const Pending& p) { return p.id == id; });
  }
  std::uint64_t run_until(SimTime deadline) {
    std::uint64_t n = 0;
    for (;;) {
      const auto it = std::min_element(
          pending_.begin(), pending_.end(),
          [](const Pending& a, const Pending& b) {
            return std::pair(a.when, a.seq) < std::pair(b.when, b.seq);
          });
      if (it == pending_.end() || it->when > deadline) break;
      now_ = it->when;
      ++fired_;
      ++n;
      std::function<void()> fn = it->fn;
      if (it->period > 0) {
        // Next occurrence is sequenced before the callback runs.
        it->when += it->period;
        it->seq = next_seq_++;
      } else {
        pending_.erase(it);
      }
      fn();
    }
    if (now_ < deadline) now_ = deadline;
    return n;
  }
  std::uint64_t run() {
    return run_until(std::numeric_limits<SimTime>::max());
  }
  bool has_pending() const { return !pending_.empty(); }
  std::uint64_t events_fired() const { return fired_; }

 private:
  struct Pending {
    SimTime when;
    std::uint64_t seq;
    std::uint64_t id;
    SimDuration period;
    std::function<void()> fn;
  };
  std::uint64_t add(SimTime when, SimDuration period,
                    std::function<void()> fn) {
    const std::uint64_t id = next_id_++;
    pending_.push_back(Pending{when, next_seq_++, id, period, std::move(fn)});
    return id;
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_id_ = 1;
  std::uint64_t fired_ = 0;
  std::vector<Pending> pending_;
};

struct ScriptResult {
  std::vector<std::pair<std::size_t, SimTime>> log;  ///< (event key, time)
  std::vector<std::pair<bool, std::uint64_t>> checkpoints;
  bool operator==(const ScriptResult&) const = default;
};

/// Every scheduled event gets a key (its index in `ids`), so a script can
/// name "its own id" or "event j" the same way on either engine.
template <class E>
class Script {
 public:
  Script(E& e, std::uint64_t seed) : e_(e), rng_(seed) {}

  ScriptResult run() {
    for (int step = 0; step < 1500; ++step) {
      const std::uint64_t op = rng_.next_below(100);
      if (op < 35) {
        spawn(static_cast<SimDuration>(rng_.next_below(40)),
              rng_.next_below(8) == 0);
      } else if (op < 55) {
        cancel_random();
      } else {
        e_.run_until(e_.now() + static_cast<SimTime>(rng_.next_below(60)));
        checkpoint();
      }
    }
    budget_ = 0;  // let the periodic timers wind down without new children
    e_.run_until(e_.now() + 5000);
    checkpoint();
    for (const std::uint64_t id : ids_) e_.cancel(id);
    e_.run();
    checkpoint();
    return std::move(out_);
  }

 private:
  void spawn(SimDuration delay, bool periodic) {
    const std::size_t key = ids_.size();
    if (periodic) {
      const auto period = static_cast<SimDuration>(1 + rng_.next_below(20));
      ids_.push_back(e_.schedule_periodic(delay, period,
                                          [this, key] { fire(key, true); }));
    } else {
      ids_.push_back(
          e_.schedule_at(e_.now() + delay, [this, key] { fire(key, false); }));
    }
  }

  void cancel_random() {
    if (!ids_.empty()) e_.cancel(ids_[rng_.next_below(ids_.size())]);
  }

  void fire(std::size_t key, bool periodic) {
    out_.log.emplace_back(key, e_.now());
    const std::uint64_t kids = budget_ > 0 ? rng_.next_below(4) : 0;
    for (std::uint64_t i = 0; i < kids; ++i, --budget_) {
      const std::uint64_t r = rng_.next_below(8);
      // A quarter at now(): ties with the event's own time and with
      // everything else due then; some periodic, some ahead.
      const auto delay =
          r < 2 ? SimDuration{0} : static_cast<SimDuration>(rng_.next_below(30));
      spawn(delay, r == 7);
    }
    const std::uint64_t cancels = rng_.next_below(3);
    for (std::uint64_t i = 0; i < cancels; ++i) {
      if (rng_.next_below(4) == 0) {
        e_.cancel(ids_[key]);  // own id: no-op for a one-shot
      } else {
        cancel_random();       // pending, fired, or another periodic
      }
    }
    if (periodic && rng_.next_below(5) == 0) e_.cancel(ids_[key]);
  }

  void checkpoint() {
    out_.checkpoints.emplace_back(e_.has_pending(), e_.events_fired());
  }

  E& e_;
  Rng rng_;
  std::vector<std::uint64_t> ids_;
  std::int64_t budget_ = 4000;  ///< events callbacks may still schedule
  ScriptResult out_;
};

class ModelStressInCallbacks : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ModelStressInCallbacks, MatchesReferenceModel) {
  Engine e;
  const ScriptResult got = Script<Engine>(e, GetParam()).run();
  RefEngine ref;
  const ScriptResult want = Script<RefEngine>(ref, GetParam()).run();
  ASSERT_EQ(got.checkpoints, want.checkpoints);
  EXPECT_EQ(got.log, want.log);
  EXPECT_GT(got.log.size(), 2000u);  // the callbacks really did the work
  EXPECT_FALSE(e.has_pending());
  EXPECT_EQ(e.free_slots(), e.slab_slots());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelStressInCallbacks,
                         ::testing::Values(1u, 2u, 3u, 0xc0ffeeu, 77u));

// --- id reuse / generation safety -------------------------------------------

TEST(EngineStress, StaleIdsNeverTouchRecycledSlots) {
  Engine e;
  int fired = 0;
  std::vector<EventId> stale;
  // Churn one logical event through the same slot many times, keeping every
  // dead id around and re-canceling all of them each round.
  for (int round = 0; round < 200; ++round) {
    const EventId id = e.schedule_after(1, [&fired] { ++fired; });
    for (const EventId s : stale) e.cancel(s);  // must all be no-ops
    EXPECT_TRUE(e.has_pending());
    if (round % 2 == 0) {
      e.run_until(e.now() + 1);
      stale.push_back(id);  // fired id
    } else {
      e.cancel(id);
      stale.push_back(id);  // canceled id
    }
  }
  EXPECT_EQ(fired, 100);
  EXPECT_FALSE(e.has_pending());
  // The whole churn recycled a single slot's worth of slab.
  EXPECT_LE(e.slab_slots(), 1u);
}

TEST(EngineStress, SlabIsBoundedByPeakPendingNotThroughput) {
  Engine e;
  std::uint64_t fired = 0;
  std::uint64_t* sink = &fired;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 10; ++i) {
      e.schedule_after(i + 1, [sink] { ++*sink; });
    }
    e.run();
  }
  EXPECT_EQ(fired, 10000u);
  EXPECT_LE(e.slab_slots(), 10u);
  EXPECT_EQ(e.free_slots(), e.slab_slots());
}

// --- periodic path: order-equivalence with self-re-arming --------------------
//
// The periodic event takes its next occurrence's sequence number at fire
// time, immediately before the callback — the same point a self-re-arming
// callback schedules its successor. Run both patterns against an identical
// stream of interfering one-shots (many at exactly the timer's fire times)
// and require identical logs.

void run_interference(Engine& e, std::vector<int>& log) {
  // One-shots colliding with timer fires at t = 100, 200, ..., scheduled
  // both before the timer exists and from inside callbacks.
  for (int k = 1; k <= 5; ++k) {
    e.schedule_at(100 * k, [&e, &log, k] {
      log.push_back(1000 + k);
      e.schedule_at(e.now(), [&log, k] { log.push_back(2000 + k); });
    });
  }
  e.run_until(1000);
}

TEST(EngineStress, PeriodicPathIsOrderIdenticalToSelfRearming) {
  std::vector<int> periodic_log;
  std::vector<int> rearm_log;
  {
    Engine e;
    e.schedule_periodic(100, 100, [&] { periodic_log.push_back(7); });
    run_interference(e, periodic_log);
  }
  {
    Engine e;
    // A self-re-arming timer: re-arm first, then the body.
    struct Rearm {
      Engine* e;
      std::vector<int>* log;
      void fire() {
        e->schedule_after(100, [this] { fire(); });
        log->push_back(7);
      }
    } timer{&e, &rearm_log};
    e.schedule_after(100, [&timer] { timer.fire(); });
    run_interference(e, rearm_log);
  }
  EXPECT_EQ(periodic_log, rearm_log);
  ASSERT_FALSE(periodic_log.empty());
  EXPECT_EQ(std::count(periodic_log.begin(), periodic_log.end(), 7), 10);
}

TEST(EngineStress, ManyStaggeredPeriodicsKeepExactPhase) {
  Engine e;
  std::vector<std::vector<SimTime>> fires(8);
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(e.schedule_periodic(10 + i, 100, [&e, &fires, i] {
      fires[static_cast<size_t>(i)].push_back(e.now());
    }));
  }
  e.run_until(1000);
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(fires[static_cast<size_t>(i)].size(), 10u) << "timer " << i;
    for (int k = 0; k < 10; ++k) {
      EXPECT_EQ(fires[static_cast<size_t>(i)][static_cast<size_t>(k)],
                10 + i + 100 * static_cast<SimTime>(k));
    }
  }
  for (const EventId id : ids) e.cancel(id);
  EXPECT_FALSE(e.has_pending());
  e.run_until(2000);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(fires[static_cast<size_t>(i)].size(), 10u);
  }
}

}  // namespace
}  // namespace eo::sim

#include "sched/runqueue.h"

#include <algorithm>

#include "common/logging.h"

namespace eo::sched {

const QueueTuning Runqueue::kCfsTuning{};

void Runqueue::enqueue(SchedEntity* se, bool wakeup) {
  EO_CHECK(!se->on_rq) << "enqueue of entity already on a runqueue";
  // Skip state is queue-local; dequeue/detach_all tear it down, so an entity
  // can never arrive still flagged (a stale skip sequence would corrupt this
  // queue's round bookkeeping).
  EO_CHECK(!se->bwd_skip) << "enqueue of entity with BWD skip state";
  se->on_rq = true;
  se->cpu = cpu_;
  if (se->vb_blocked) {
    // Park at the tail, FIFO among parked entities.
    se->vruntime = kVbVruntimeBase + vb_park_seq_++;
    ++nr_vb_blocked_;
  } else if (tuning_->arrival_keys) {
    // FIFO disciplines: runnable entities queue in arrival order,
    // irrespective of how much they have run.
    se->vruntime = arrival_seq_++;
  } else {
    // Sleeper fairness: grant a bounded latency credit, but never let the
    // entity's vruntime move backwards relative to what it had. (Fresh and
    // migrated entities get the same floor; `wakeup` is part of the policy
    // interface for disciplines that place wakers differently.)
    (void)wakeup;
    se->vruntime =
        std::max(se->vruntime, min_vruntime_ - params_->sleeper_bonus);
  }
  tree_.insert(se);
  ++nr_running_;
  ++counters_->rq_enqueues;
  EO_TRACE_EVENT(tracer_, cpu_, trace::EventKind::kEnqueue, se->tid,
                 static_cast<std::uint64_t>(nr_running_),
                 static_cast<std::uint64_t>(se->vruntime));
}

void Runqueue::dequeue(SchedEntity* se) {
  EO_CHECK(se->on_rq);
  EO_CHECK(se != curr_) << "dequeue of running entity; put_prev it first";
  tree_.erase(se);
  se->on_rq = false;
  se->cpu = -1;
  --nr_running_;
  if (se->vb_blocked) --nr_vb_blocked_;
  if (se->bwd_skip) {
    se->bwd_skip = false;
    se->bwd_skip_seq = 0;
    --nr_bwd_skipped_;
  }
  ++counters_->rq_dequeues;
  update_min_vruntime();
  EO_TRACE_EVENT(tracer_, cpu_, trace::EventKind::kDequeue, se->tid,
                 static_cast<std::uint64_t>(nr_running_),
                 static_cast<std::uint64_t>(se->vruntime));
}

SchedEntity* Runqueue::pick_next() {
  EO_CHECK(curr_ == nullptr) << "pick_next with an entity still running";
  if (tree_.size() == 0) return nullptr;
  ++pick_seq_;

  SchedEntity* chosen = nullptr;
  bool saw_skipped = false;
  bool skip_expiry_pick = false;
  for (SchedEntity* e = tree_.leftmost(); e != nullptr; e = tree_.next(e)) {
    if (e->bwd_skip) {
      // The skip expires once every other schedulable entity has had a pick
      // since the flag was set.
      const auto others =
          static_cast<std::uint64_t>(std::max(1, nr_schedulable() - 1));
      if (pick_seq_ - e->bwd_skip_seq > others) {
        e->bwd_skip = false;
        --nr_bwd_skipped_;
        EO_TRACE_EVENT(tracer_, cpu_, trace::EventKind::kBwdSkipClear, e->tid,
                       pick_seq_, 0);
        chosen = e;
        skip_expiry_pick = true;
        break;
      }
      saw_skipped = true;
      continue;
    }
    chosen = e;  // VB-blocked entities sort last; reaching one means nothing
                 // else is schedulable, and the kernel will give it only a
                 // flag-check quantum.
    break;
  }
  if (chosen == nullptr && saw_skipped) {
    // Everyone runnable is skip-flagged: the "others ran at least once"
    // condition is vacuously met; clear flags and take the leftmost.
    for (SchedEntity* e = tree_.leftmost(); e != nullptr; e = tree_.next(e)) {
      e->bwd_skip = false;
      EO_TRACE_EVENT(tracer_, cpu_, trace::EventKind::kBwdSkipClear, e->tid,
                     pick_seq_, 1);
    }
    nr_bwd_skipped_ = 0;  // curr_ is null, so every flagged entity was queued
    chosen = tree_.leftmost();
    skip_expiry_pick = true;
  }
  if (chosen == nullptr) return nullptr;
  if (bias_ != nullptr && !skip_expiry_pick && !chosen->vb_blocked) {
    // Policy tie-break: may overrule the fair choice, but never a
    // skip-round completion and never with a VB-parked or skipped entity.
    SchedEntity* biased = bias_->choose(*this, chosen);
    EO_CHECK(biased != nullptr && biased->on_rq && biased != curr_);
    EO_CHECK(!biased->vb_blocked && !biased->bwd_skip);
    chosen = biased;
  }
  tree_.erase(chosen);
  curr_ = chosen;
  ++counters_->rq_picks;
  EO_TRACE_EVENT(tracer_, cpu_, trace::EventKind::kPickNext, chosen->tid,
                 static_cast<std::uint64_t>(nr_running_),
                 static_cast<std::uint64_t>(chosen->vruntime));
  return chosen;
}

void Runqueue::put_prev(SchedEntity* se) {
  EO_CHECK_EQ(se, curr_);
  curr_ = nullptr;
  if (tuning_->requeue_tail && tuning_->arrival_keys && !se->vb_blocked) {
    // Round-robin rotation: a preempted-or-expired entity rejoins at the
    // tail. (VB-parked entities keep their inflated tail key.)
    se->vruntime = arrival_seq_++;
  }
  tree_.insert(se);
}

void Runqueue::account_curr(SimDuration delta_exec) {
  if (curr_ == nullptr || delta_exec <= 0) return;
  if (!tuning_->arrival_keys) {
    curr_->vruntime += curr_->vruntime_delta(delta_exec);
  }
  curr_->sum_exec += delta_exec;
  update_min_vruntime();
}

SimDuration Runqueue::slice_for(const SchedEntity* se) const {
  if (tuning_->fixed_quantum > 0) return tuning_->fixed_quantum;
  const int nr = std::max(1, nr_schedulable());
  SimDuration slice = params_->sched_latency * se->weight /
                      (static_cast<SimDuration>(nr) * kNice0Weight);
  return std::max(slice, params_->min_granularity);
}

bool Runqueue::should_preempt(const SchedEntity* wakee) const {
  if (curr_ == nullptr) return true;
  if (curr_->vb_blocked) return true;  // flag-check quanta yield to real work
  if (!tuning_->wakeup_preempt) return false;
  return wakee->vruntime + params_->wakeup_granularity < curr_->vruntime;
}

void Runqueue::vb_park(SchedEntity* se) {
  EO_CHECK(se->on_rq);
  EO_CHECK(se != curr_);
  EO_CHECK(!se->vb_blocked);
  tree_.erase(se);
  se->saved_vruntime = se->vruntime;
  se->vb_blocked = true;
  se->vruntime = kVbVruntimeBase + vb_park_seq_++;
  tree_.insert(se);
  ++nr_vb_blocked_;
  update_min_vruntime();
  EO_TRACE_EVENT(tracer_, cpu_, trace::EventKind::kVbPark, se->tid,
                 static_cast<std::uint64_t>(se->saved_vruntime),
                 static_cast<std::uint64_t>(nr_vb_blocked_));
}

void Runqueue::vb_unpark(SchedEntity* se) {
  EO_CHECK(se->on_rq);
  EO_CHECK(se->vb_blocked);
  EO_CHECK(se != curr_);
  tree_.erase(se);
  se->vb_blocked = false;
  if (tuning_->arrival_keys) {
    // FIFO disciplines have no vruntime credit to give; place the waker at
    // the queue head so VB wakeups stay prompt (the VB contract).
    se->vruntime = --head_seq_;
  } else {
    // Wake placement: restore the saved vruntime but grant the same latency
    // credit a real wakeup would get, so VB wakers are scheduled promptly.
    se->vruntime =
        std::max(se->saved_vruntime, min_vruntime_ - params_->sleeper_bonus);
  }
  tree_.insert(se);
  --nr_vb_blocked_;
  update_min_vruntime();
  EO_TRACE_EVENT(tracer_, cpu_, trace::EventKind::kVbClear, se->tid,
                 static_cast<std::uint64_t>(se->vruntime), 0);
}

void Runqueue::vb_clear_current(SchedEntity* se) {
  EO_CHECK_EQ(se, curr_);
  EO_CHECK(se->vb_blocked);
  se->vb_blocked = false;
  if (tuning_->arrival_keys) {
    se->vruntime = --head_seq_;
  } else {
    se->vruntime =
        std::max(se->saved_vruntime, min_vruntime_ - params_->sleeper_bonus);
  }
  --nr_vb_blocked_;
  update_min_vruntime();
  EO_TRACE_EVENT(tracer_, cpu_, trace::EventKind::kVbClear, se->tid,
                 static_cast<std::uint64_t>(se->vruntime), 1);
}

std::vector<SchedEntity*> Runqueue::detach_all() {
  EO_CHECK(curr_ == nullptr);
  std::vector<SchedEntity*> out;
  while (SchedEntity* e = tree_.leftmost()) {
    tree_.erase(e);
    e->on_rq = false;
    e->cpu = -1;
    --nr_running_;
    if (e->vb_blocked) --nr_vb_blocked_;
    if (e->bwd_skip) {
      // Same teardown as dequeue: skip state must not leave the queue.
      e->bwd_skip = false;
      e->bwd_skip_seq = 0;
      --nr_bwd_skipped_;
    }
    out.push_back(e);
  }
  EO_CHECK_EQ(nr_running_, 0);
  EO_CHECK_EQ(nr_vb_blocked_, 0);
  EO_CHECK_EQ(nr_bwd_skipped_, 0);
  return out;
}

void Runqueue::bwd_mark_skip(SchedEntity* se) {
  EO_CHECK(se->on_rq);
  EO_CHECK(se != curr_);
  if (!se->bwd_skip) ++nr_bwd_skipped_;
  se->bwd_skip = true;
  se->bwd_skip_seq = pick_seq_;
}

SchedEntity* Runqueue::migration_candidate() const {
  SchedEntity* last_valid = nullptr;
  for (SchedEntity* e = tree_.leftmost(); e != nullptr; e = tree_.next(e)) {
    if (e->vb_blocked) continue;  // VB: blocked threads are never migrated
    if (e->pinned) continue;
    last_valid = e;
  }
  return last_valid;
}

void Runqueue::update_min_vruntime() {
  std::int64_t v = min_vruntime_;
  bool have = false;
  if (curr_ != nullptr && !curr_->vb_blocked) {
    v = curr_->vruntime;
    have = true;
  }
  if (SchedEntity* lm = tree_.leftmost();
      lm != nullptr && lm->vruntime < kVbVruntimeBase) {
    v = have ? std::min(v, lm->vruntime) : lm->vruntime;
    have = true;
  }
  if (have) min_vruntime_ = std::max(min_vruntime_, v);
}

}  // namespace eo::sched

// Virtual-blocking policy (paper Section 3.1).
//
// Decides, per blocking operation, whether to use virtual blocking or fall
// back to the vanilla sleep/wakeup path. The paper disables VB when it
// cannot help: "If the number of threads waiting on the bucket queue is
// smaller than the number of cores, i.e., all waiting threads are able to
// obtain a dedicated core when simultaneously waking up, VB is turned off."
//
// The mechanism itself (parking entities at the runqueue tail, restoring on
// wake) lives in sched::Runqueue and the Kernel; this class isolates the
// decision so it can be unit-tested and ablated. It counts nothing: every
// decision ends in the kernel's park_or_sleep, which counts it there
// (`vb.decisions`), and the VB-chosen subset is `SchedStats::vb_parks`.
#pragma once

#include <cstdint>

#include "core/config.h"
#include "trace/trace.h"

namespace eo::core {

class VbPolicy {
 public:
  explicit VbPolicy(const Features* features) : f_(features) {}

  /// Wires the event tracer: decisions emit kVbDecision records (may be
  /// null, and core/tid may be omitted by callers without that context).
  void set_tracer(trace::Tracer* t) { tracer_ = t; }

  /// Should a futex_wait that would make the bucket hold `waiters_after`
  /// waiters (including the caller) block virtually?
  bool use_vb_futex(int waiters_after, int online_cores, int core = -1,
                    std::int32_t tid = 0) const {
    return decide(f_->vb_futex, waiters_after, online_cores, core, tid);
  }

  /// Same decision for an epoll_wait.
  bool use_vb_epoll(int waiters_after, int online_cores, int core = -1,
                    std::int32_t tid = 0) const {
    return decide(f_->vb_epoll, waiters_after, online_cores, core, tid);
  }

 private:
  bool decide(bool feature_on, int waiters_after, int online_cores, int core,
              std::int32_t tid) const {
    bool vb = false;
    if (feature_on) {
      // "If the number of threads waiting on the bucket queue is smaller
      // than the number of cores ... VB is turned off."
      vb = !f_->vb_auto_disable || waiters_after >= online_cores;
    }
    EO_TRACE_EVENT(tracer_, core, trace::EventKind::kVbDecision, tid,
                   static_cast<std::uint64_t>(vb),
                   static_cast<std::uint64_t>(waiters_after));
    return vb;
  }

  const Features* f_;
  trace::Tracer* tracer_ = nullptr;
};

}  // namespace eo::core

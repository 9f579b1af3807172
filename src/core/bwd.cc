#include "core/bwd.h"

namespace eo::core {

BwdVerdict BwdDetector::evaluate(const hw::LbrState& lbr, const hw::Pmc& pmc,
                                 const BwdWindowTruth& truth, int core,
                                 std::int32_t tid) const {
  BwdVerdict v;
  // Ground truth: the busy portion of the window was entirely one spin site.
  v.ground_truth_spin = truth.busy > 0 && truth.spin == truth.busy &&
                        !truth.multiple_spin_sites &&
                        truth.dominant_site != hw::kVariedSites;

  // Detection per the paper's three heuristics. A window with no retired
  // instructions (idle core) never fires.
  if (pmc.instructions() != 0) {
    bool detected = true;
    if (f_->bwd_use_lbr && !lbr.all_entries_identical_backward()) {
      detected = false;
    }
    if (f_->bwd_use_l1 && pmc.l1d_misses() != 0) detected = false;
    if (f_->bwd_use_tlb && pmc.tlb_misses() != 0) detected = false;
    v.detected = detected;
  }
  if (truth.busy > 0) {
    EO_TRACE_EVENT(tracer_, core, trace::EventKind::kBwdSample, tid,
                   static_cast<std::uint64_t>(v.detected),
                   static_cast<std::uint64_t>(v.ground_truth_spin));
  }
  return v;
}

}  // namespace eo::core

// Footprint contract for the million-connection scenario: the per-connection
// record is 16 bytes, so a million resident connections cost 16 MB; the
// per-request slot is 24 bytes (arrival + dequeue timestamps for latency
// attribution, plus the packed connection/op word), so the request slab
// never exceeds max_pending * 24 bytes per host. The static_asserts in
// traffic/fleet.h catch growth at compile time; these tests pin the numbers
// in the ctest report and check the derived slab arithmetic, and that
// building the fleet costs no page of that slab.
#include "traffic/fleet.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

namespace eo::traffic {
namespace {

TEST(TrafficSizeof, ConnectionRecordIs16Bytes) {
  EXPECT_EQ(sizeof(Connection), 16u);
  EXPECT_LE(alignof(Connection), 4u);
}

TEST(TrafficSizeof, PendingRequestSlotIs24Bytes) {
  EXPECT_EQ(sizeof(PendingRequest), 24u);
  EXPECT_LE(alignof(PendingRequest), 8u);
}

/// Minor page faults taken by this process so far.
long minor_faults() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_minflt;
}

TEST(TrafficSizeof, DefaultFleetConstructionTouchesNoSlabPages) {
  // The constructor only reserves the 16 MB slab (4096 pages); each host
  // clears its own slice when it first runs.
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "ASan's allocator writes 2 MB of shadow for the slab";
#endif
  const FleetConfig fc;
  const long before = minor_faults();
  const ConnectionFleet fleet(fc);
  const long faults = minor_faults() - before;
  EXPECT_LT(faults, 256) << "constructing the default fleet took " << faults
                         << " minor page faults";
  EXPECT_EQ(fleet.total_connections(), 1048576u);
}

TEST(TrafficSizeof, DefaultFleetIsOneMillionConnectionsIn16MB) {
  const FleetConfig fc;  // 32 hosts x 32768 connections
  ConnectionFleet fleet(fc);
  EXPECT_EQ(fleet.total_connections(), 1048576u);
  EXPECT_EQ(fleet.total_connections() * sizeof(Connection),
            std::size_t{16} << 20);
}

}  // namespace
}  // namespace eo::traffic

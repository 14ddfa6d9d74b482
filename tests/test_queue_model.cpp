// QueueModel unit suite: the two-class link queue of `--link-model queue`.
//
// Three properties carry the design (queue_model.h):
//  * delay is monotone in utilization, own-class and cross-class alike;
//  * class isolation — with zero cross traffic every query reduces
//    *bit-identically* to the LinkModel closed form (the compat
//    guarantee; test_determinism lifts it to the ext-interleave
//    scenario);
//  * the windowed arrival-rate estimator is a plain ring: old epochs age
//    out after `queue_window_epochs` observations, no decay constants.
// The last test lifts the isolation property to whole-engine granularity:
// a bulk-free workload run times identically under both models.
#include <gtest/gtest.h>

#include "common/units.h"
#include "core/experiment.h"
#include "memsim/link.h"
#include "memsim/machine.h"
#include "memsim/queue_model.h"
#include "workloads/workload.h"

namespace memdis {
namespace {

using memsim::LinkModel;
using memsim::QueueModel;
using memsim::TrafficClass;

/// The pool tier of the default testbed machine — a real spec, so the
/// tests exercise calibrated parameters rather than synthetic ones.
memsim::MemoryTierSpec pool_spec() {
  const auto m = memsim::MachineConfig::skylake_testbed();
  return m.tier(m.topology.first_fabric());
}

TEST(QueueModel, DelayIsMonotoneInCrossTraffic) {
  const QueueModel q(pool_spec());
  const double own = 10.0;
  double prev = 0.0;
  for (const double cross : {0.0, 2.0, 5.0, 10.0, 20.0, 30.0}) {
    const double mult = q.latency_multiplier(TrafficClass::kDemand, 0.0, own, cross);
    EXPECT_GE(mult, prev) << "cross=" << cross;
    if (cross > 0.0) {
      EXPECT_GT(mult, 1.0) << "cross traffic must queue";
    }
    prev = mult;
  }
  // Strict growth away from the multiplier cap.
  EXPECT_LT(q.latency_multiplier(TrafficClass::kDemand, 0.0, own, 2.0),
            q.latency_multiplier(TrafficClass::kDemand, 0.0, own, 10.0));
}

TEST(QueueModel, DelayIsMonotoneInOwnRate) {
  const QueueModel q(pool_spec());
  double prev = 0.0;
  for (const double own : {0.0, 5.0, 10.0, 20.0, 30.0}) {
    const double mult = q.latency_multiplier(TrafficClass::kBulk, 0.0, own, 4.0);
    EXPECT_GE(mult, prev) << "own=" << own;
    prev = mult;
  }
}

TEST(QueueModel, ZeroCrossTrafficReducesToClosedForm) {
  const auto spec = pool_spec();
  const QueueModel q(spec);
  LinkModel closed(spec);
  for (const double bg : {0.0, 15.0, 50.0, 120.0}) {
    closed.set_background_loi(bg);
    for (const double own : {0.0, 4.0, 12.0, 28.0}) {
      for (const auto cls : {TrafficClass::kDemand, TrafficClass::kBulk}) {
        // Bit-identical, not approximately equal: the compat mode's claim.
        EXPECT_EQ(q.latency_multiplier(cls, bg, own, 0.0), closed.latency_multiplier(own));
        EXPECT_EQ(q.effective_latency_ns(cls, bg, own, 0.0), closed.effective_latency_ns(own));
        EXPECT_EQ(q.effective_data_bandwidth_gbps(cls, bg, 0.0),
                  closed.effective_data_bandwidth_gbps(0.0));
      }
      EXPECT_EQ(q.effective_loi(TrafficClass::kDemand, bg, 0.0), bg);
    }
  }
}

TEST(QueueModel, EffectiveLoiAddsCrossShareAndClamps) {
  const auto spec = pool_spec();
  const QueueModel q(spec);
  const double cross = 8.0;  // GB/s of data
  const double expected =
      10.0 + 100.0 * cross * spec.link->protocol_overhead / spec.link->traffic_capacity_gbps;
  EXPECT_DOUBLE_EQ(q.effective_loi(TrafficClass::kDemand, 10.0, cross), expected);
  // An absurd cross rate saturates at the shared LoI bound.
  EXPECT_DOUBLE_EQ(q.effective_loi(TrafficClass::kDemand, 10.0, 1e9), LinkModel::kMaxLoi);
}

TEST(QueueModel, WindowedEstimatorEvictsOldEpochs) {
  const auto spec = pool_spec();
  QueueModel q(spec);
  EXPECT_EQ(q.window_epochs(), static_cast<std::size_t>(spec.link->queue_window_epochs));
  EXPECT_EQ(q.estimated_rate_gbps(TrafficClass::kBulk), 0.0);

  // Fill the window with 1 GB per 1 s epochs: rate settles at 1 GB/s.
  for (std::size_t i = 0; i < q.window_epochs(); ++i)
    q.observe(TrafficClass::kBulk, 1e9, 1.0);
  EXPECT_EQ(q.window_size(TrafficClass::kBulk), q.window_epochs());
  EXPECT_DOUBLE_EQ(q.estimated_rate_gbps(TrafficClass::kBulk), 1.0);

  // The demand class keeps its own window: still empty.
  EXPECT_EQ(q.window_size(TrafficClass::kDemand), 0u);
  EXPECT_EQ(q.estimated_rate_gbps(TrafficClass::kDemand), 0.0);

  // One idle epoch displaces one loaded one: 3 GB over 4 s.
  q.observe(TrafficClass::kBulk, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(q.estimated_rate_gbps(TrafficClass::kBulk), 0.75);

  // A full window of idle epochs forgets the burst entirely.
  for (std::size_t i = 0; i < q.window_epochs(); ++i)
    q.observe(TrafficClass::kBulk, 0.0, 1.0);
  EXPECT_EQ(q.estimated_rate_gbps(TrafficClass::kBulk), 0.0);
}

TEST(QueueModel, EstimatorFoldsInTheCurrentEpoch) {
  QueueModel q(pool_spec());
  q.observe(TrafficClass::kBulk, 1e9, 1.0);
  // (1 GB + 2 GB) over (1 s + 1 s): the closing epoch sees its own burst.
  EXPECT_DOUBLE_EQ(q.estimated_rate_gbps(TrafficClass::kBulk, 2e9, 1.0), 1.5);
}

/// Engine-level compat anchor: without bulk traffic (no migration runtime
/// attached) the queue model's cross terms are all zero, so a whole
/// workload run — misses, epochs, stalls — must match the closed form
/// bit for bit, even though every query went through the QueueModel.
TEST(QueueModel, BulkFreeEngineRunMatchesLoiModel) {
  auto run_with = [](memsim::LinkModelKind kind) {
    core::RunConfig rc;
    rc.machine = memsim::MachineConfig::cxl_direct_attached();
    rc.remote_capacity_ratio = 0.5;
    rc.background_loi = 25.0;  // background must survive the translation
    rc.link_model = kind;
    auto wl = workloads::make_workload(workloads::App::kXSBench, 1);
    return core::run_workload(*wl, rc);
  };
  const auto loi = run_with(memsim::LinkModelKind::kLoi);
  const auto queue = run_with(memsim::LinkModelKind::kQueue);
  EXPECT_EQ(loi.elapsed_s, queue.elapsed_s);
  ASSERT_EQ(loi.epochs.size(), queue.epochs.size());
  for (std::size_t i = 0; i < loi.epochs.size(); ++i) {
    EXPECT_EQ(loi.epochs[i].duration_s, queue.epochs[i].duration_s) << "epoch " << i;
    // The inflation trace must stay pinned at 1.0 in both models.
    for (const double infl : queue.epochs[i].link_demand_inflation)
      EXPECT_EQ(infl, 1.0);
  }
}

}  // namespace
}  // namespace memdis

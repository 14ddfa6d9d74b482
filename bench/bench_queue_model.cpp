// Queue-model bench: the wall-clock cost of `--link-model queue`.
//
// Times latency_multiplier evaluations per second through the QueueModel's
// effective-LoI indirection, the per-epoch hot cost the queue mode adds
// over the closed form. The result feeds the committed BENCH_queue.json
// baseline (nightly gate via tools/bench_diff.py). The queue model's
// simulated effects (burst inflation, self-deferral) are gated exactly by
// the ext-queue-contention golden, not here.
//
// Usage: bench_queue_model [--json PATH]
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "common/table.h"
#include "memsim/machine.h"
#include "memsim/queue_model.h"

namespace {

using memdis::memsim::QueueModel;
using memdis::memsim::TrafficClass;

/// Wall-clock throughput of the queue model's hot query: the demand-class
/// latency multiplier under varying cross traffic (the per-fabric-tier
/// work close_epoch adds in queue mode).
double query_rate_mps() {
  const auto m = memdis::memsim::MachineConfig::three_tier_cxl();
  QueueModel q(m.tier(m.topology.first_fabric()));
  for (std::size_t i = 0; i < q.window_epochs(); ++i)
    q.observe(TrafficClass::kBulk, 1e9, 1e-3);
  constexpr std::size_t kQueries = 2'000'000;
  double sink = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kQueries; ++i) {
    const double cross = static_cast<double>(i & 15);
    sink += q.latency_multiplier(TrafficClass::kDemand, 10.0,
                                 static_cast<double>(i & 7), cross);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  // Keep the loop observable.
  if (sink < 0) std::cerr << "";
  return static_cast<double>(kQueries) / wall / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  using memdis::Table;
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--json") json_path = argv[++i];

  memdis::bench::banner("Queue model", "two-class link queues: query throughput");

  const double rate = query_rate_mps();
  std::cout << "\nquery throughput: " << Table::num(rate, 2) << " Mqueries/s\n";

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"queue_model\",\n"
       << "  \"query_rate_mps\": " << rate << "\n"
       << "}\n";
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
    std::cout << "\nbaseline written to " << json_path << "\n";
  } else {
    std::cout << "\n" << json.str();
  }
  return 0;
}

// Hardware-prefetch suitability analysis (Sec. 4.2, Fig. 8).
//
// Implements the paper's Eq. 1 (Accuracy) and Eq. 2 (Coverage) from the
// simulated L2 counters of one prefetch-on run — a Level-1 profile's own
// run suffices — plus the excess-traffic and performance-gain metrics,
// which alone need the prefetch-off twin (MSR 0x1a4 analogue;
// MultiLevelProfiler::prefetch).
#pragma once

#include "cachesim/counters.h"

namespace memdis::core {

struct PrefetchMetrics {
  double accuracy = 0.0;   ///< Eq. 1: useful prefetches / issued prefetches
  double coverage = 0.0;   ///< Eq. 2: prefetched fills / demand-relevant fills
  double excess_traffic = 0.0;   ///< ΔDRAM-traffic (on vs. off) as a fraction
  double performance_gain = 0.0; ///< T_off / T_on − 1
};

/// Accuracy per Eq. 1: (PF_L2_DATA_RD + PF_L2_RFO − USELESS_HWPF) / (PF_L2_DATA_RD + PF_L2_RFO).
[[nodiscard]] double prefetch_accuracy(const cachesim::HwCounters& c);

/// Coverage per Eq. 2: (PF_L2_DATA_RD + PF_L2_RFO − USELESS_HWPF) / (L2_LINES_IN − USELESS_HWPF).
[[nodiscard]] double prefetch_coverage(const cachesim::HwCounters& c);

/// Full metric set from a prefetch-on run and its prefetch-off twin.
[[nodiscard]] PrefetchMetrics analyze_prefetch(const cachesim::HwCounters& with_pf,
                                               double elapsed_with_pf,
                                               const cachesim::HwCounters& without_pf,
                                               double elapsed_without_pf);

}  // namespace memdis::core

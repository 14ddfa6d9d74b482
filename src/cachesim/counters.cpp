#include "cachesim/counters.h"

namespace memdis::cachesim {

HwCounters HwCounters::delta_since(const HwCounters& earlier) const {
  HwCounters d;
  d.loads = loads - earlier.loads;
  d.stores = stores - earlier.stores;
  d.l1_hits = l1_hits - earlier.l1_hits;
  d.l2_hits = l2_hits - earlier.l2_hits;
  d.l3_hits = l3_hits - earlier.l3_hits;
  d.l2_lines_in = l2_lines_in - earlier.l2_lines_in;
  d.pf_l2_data_rd = pf_l2_data_rd - earlier.pf_l2_data_rd;
  d.pf_l2_rfo = pf_l2_rfo - earlier.pf_l2_rfo;
  d.useless_hwpf = useless_hwpf - earlier.useless_hwpf;
  d.pf_hits = pf_hits - earlier.pf_hits;
  d.offcore_l3_miss = offcore_l3_miss - earlier.offcore_l3_miss;
  for (int i = 0; i < memsim::kMaxTiers; ++i) {
    d.offcore_dram[i] = offcore_dram[i] - earlier.offcore_dram[i];
    d.demand_dram[i] = demand_dram[i] - earlier.demand_dram[i];
    d.dram_read_bytes[i] = dram_read_bytes[i] - earlier.dram_read_bytes[i];
    d.dram_writeback_bytes[i] = dram_writeback_bytes[i] - earlier.dram_writeback_bytes[i];
  }
  return d;
}

HwCounters& HwCounters::operator+=(const HwCounters& other) {
  loads += other.loads;
  stores += other.stores;
  l1_hits += other.l1_hits;
  l2_hits += other.l2_hits;
  l3_hits += other.l3_hits;
  l2_lines_in += other.l2_lines_in;
  pf_l2_data_rd += other.pf_l2_data_rd;
  pf_l2_rfo += other.pf_l2_rfo;
  useless_hwpf += other.useless_hwpf;
  pf_hits += other.pf_hits;
  offcore_l3_miss += other.offcore_l3_miss;
  for (int i = 0; i < memsim::kMaxTiers; ++i) {
    offcore_dram[i] += other.offcore_dram[i];
    demand_dram[i] += other.demand_dram[i];
    dram_read_bytes[i] += other.dram_read_bytes[i];
    dram_writeback_bytes[i] += other.dram_writeback_bytes[i];
  }
  return *this;
}

}  // namespace memdis::cachesim

#include "cachesim/hierarchy.h"

namespace memdis::cachesim {

namespace {
PrefetcherConfig with_line(PrefetcherConfig pf, std::uint64_t line_bytes,
                           std::uint64_t page_bytes) {
  pf.line_bytes = line_bytes;
  pf.page_bytes = page_bytes;
  return pf;
}
}  // namespace

CacheHierarchy::CacheHierarchy(const HierarchyConfig& cfg, memsim::TieredMemory& mem)
    : cfg_(cfg),
      mem_(mem),
      l1_(cfg.l1),
      l2_(cfg.l2),
      l3_(cfg.l3),
      prefetcher_(with_line(cfg.prefetcher, cfg.l2.line_bytes, mem.page_bytes())) {}

HitLevel CacheHierarchy::access_miss(std::uint64_t vaddr, bool is_store) {
  // L1 miss: the L2 access stream is what trains the streamer.
  HitLevel level = HitLevel::kL2;
  const auto l2_hit = l2_.access(vaddr, is_store);
  if (l2_hit.hit) {
    ++counters_.l2_hits;
    if (l2_hit.first_use_of_prefetch) {
      ++counters_.pf_hits;
      prefetcher_.record_useful();
    }
  } else if (l3_.access(vaddr, is_store).hit) {
    ++counters_.l3_hits;
    ++counters_.l2_lines_in;
    if (auto ev = l2_.fill_absent(vaddr, is_store, /*prefetched=*/false)) handle_l2_eviction(*ev);
    level = HitLevel::kL3;
  } else {
    dram_fetch(vaddr, /*demand=*/true);
    if (auto ev = l3_.fill_absent(vaddr, /*dirty=*/false, /*prefetched=*/false))
      handle_l3_eviction(*ev);
    ++counters_.l2_lines_in;
    if (auto ev = l2_.fill_absent(vaddr, is_store, /*prefetched=*/false)) handle_l2_eviction(*ev);
    level = HitLevel::kDram;
  }

  if (auto ev = l1_.fill_absent(vaddr, is_store, /*prefetched=*/false)) {
    // Evicted dirty L1 lines write back into the closest level holding them.
    if (ev->dirty && !l2_.mark_dirty_if_present(ev->line_addr) &&
        !l3_.mark_dirty_if_present(ev->line_addr)) {
      writeback_to_dram(ev->line_addr);
    }
  }

  issue_prefetches(vaddr, is_store);
  return level;
}

void CacheHierarchy::issue_prefetches(std::uint64_t vaddr, bool is_store) {
  pf_queue_.clear();
  prefetcher_.observe(vaddr, is_store, pf_queue_);
  for (const PrefetchRequest& req : pf_queue_) {
    if (l2_.contains(req.line_addr)) continue;
    if (req.rfo) {
      ++counters_.pf_l2_rfo;
    } else {
      ++counters_.pf_l2_data_rd;
    }
    if (!l3_.contains(req.line_addr)) {
      dram_fetch(req.line_addr, /*demand=*/false);
      if (auto ev = l3_.fill_absent(req.line_addr, false, /*prefetched=*/false))
        handle_l3_eviction(*ev);
    }
    ++counters_.l2_lines_in;
    if (auto ev = l2_.fill_absent(req.line_addr, false, /*prefetched=*/true)) handle_l2_eviction(*ev);
  }
}

void CacheHierarchy::dram_fetch(std::uint64_t line_addr, bool demand) {
  const memsim::TierId tier = mem_.touch(line_addr);
  const auto ti = static_cast<std::size_t>(tier);
  ++counters_.offcore_l3_miss;
  ++counters_.offcore_dram[ti];
  counters_.dram_read_bytes[ti] += l2_.line_bytes();
  if (demand) ++counters_.demand_dram[ti];
}

void CacheHierarchy::handle_l2_eviction(const Eviction& ev) {
  if (ev.prefetched_unused) ++counters_.useless_hwpf;
  if (ev.dirty && !l3_.mark_dirty_if_present(ev.line_addr)) writeback_to_dram(ev.line_addr);
}

void CacheHierarchy::handle_l3_eviction(const Eviction& ev) {
  if (ev.dirty) writeback_to_dram(ev.line_addr);
}

void CacheHierarchy::writeback_to_dram(std::uint64_t line_addr) {
  // The line was filled from DRAM earlier, so its page is resident.
  const memsim::TierId tier = mem_.tier_of(line_addr);
  counters_.dram_writeback_bytes[static_cast<std::size_t>(tier)] += l2_.line_bytes();
}

void CacheHierarchy::drain() {
  l1_.drain([this](const Eviction& ev) {
    if (ev.dirty && !l2_.mark_dirty_if_present(ev.line_addr) &&
        !l3_.mark_dirty_if_present(ev.line_addr)) {
      writeback_to_dram(ev.line_addr);
    }
  });
  l2_.drain([this](const Eviction& ev) {
    if (ev.prefetched_unused) ++counters_.useless_hwpf;
    if (ev.dirty && !l3_.mark_dirty_if_present(ev.line_addr)) writeback_to_dram(ev.line_addr);
  });
  l3_.drain([this](const Eviction& ev) {
    if (ev.dirty) writeback_to_dram(ev.line_addr);
  });
}

}  // namespace memdis::cachesim

#include "cachesim/prefetcher.h"

#include <algorithm>

#include "common/contract.h"
#include "common/simd.h"
#include "common/units.h"

namespace memdis::cachesim {

StreamPrefetcher::StreamPrefetcher(const PrefetcherConfig& cfg) : cfg_(cfg) {
  expects(cfg.num_streams > 0, "need at least one stream entry");
  expects(cfg.max_degree >= 1, "degree must be >= 1");
  expects(cfg.page_bytes % cfg.line_bytes == 0, "page must hold whole lines");
  expects((cfg.page_bytes & (cfg.page_bytes - 1)) == 0, "page size must be a power of two");
  expects(cfg.page_bytes > 1, "page must span more than one byte");
  expects((cfg.line_bytes & (cfg.line_bytes - 1)) == 0, "line size must be a power of two");
  page_shift_ = log2_pow2(cfg.page_bytes);
  line_shift_ = log2_pow2(cfg.line_bytes);
  page_.assign(cfg.num_streams, kUnusedPage);
  last_tick_.assign(cfg.num_streams, 0);
  streams_.resize(cfg.num_streams);
  unused_ = cfg.num_streams;
}

std::uint32_t StreamPrefetcher::lookup_stream(std::uint64_t page) {
  // Pages are unique across entries, so probing the hinted entry first
  // changes only the search order, never which entry matches.
  const std::uint32_t slot = static_cast<std::uint32_t>(page) & (kHintSlots - 1);
  const std::uint32_t hinted = hint_[slot];
  if (page_[hinted] == page) return hinted;
  const auto n = static_cast<std::uint32_t>(page_.size());
  std::uint32_t i = simd::find_equal_except(page_.data(), n, page, hinted);
  if (i == n) {
    // Allocate: never-used entries first, from the top down (the last
    // unused entry a front-to-back scan meets), then the LRU entry. Every
    // used entry holds a distinct tick, so the first minimum is the only one.
    i = unused_ > 0 ? --unused_ : simd::argmin_first(last_tick_.data(), n);
    page_[i] = page;
    streams_[i] = Stream{-1, 0, 0};
  }
  hint_[slot] = i;
  return i;
}

void StreamPrefetcher::observe(std::uint64_t addr, bool is_store,
                               std::vector<PrefetchRequest>& out) {
  if (!cfg_.enabled) return;
  ++tick_;
  const std::uint64_t page = addr >> page_shift_;
  const auto line_in_page = static_cast<std::int64_t>(
      (addr & (cfg_.page_bytes - 1)) >> line_shift_);
  const auto lines_per_page = static_cast<std::int64_t>(cfg_.page_bytes >> line_shift_);

  const std::uint32_t entry = lookup_stream(page);
  Stream& s = streams_[entry];
  const bool fresh = s.last_line < 0;
  const std::int64_t step = fresh ? 0 : line_in_page - s.last_line;
  last_tick_[entry] = tick_;

  if (fresh || step == 0) {
    s.last_line = line_in_page;
    return;
  }
  if ((step == 1 && s.direction >= 0) || (step == -1 && s.direction <= 0)) {
    s.direction = step > 0 ? 1 : -1;
    s.run_length = std::min<std::uint32_t>(s.run_length + 1, 64);
  } else {
    // Direction break: retrain but keep the entry (short irregular strides
    // repeatedly reset here, which is what keeps BFS/XSBench coverage low).
    s.direction = 0;
    s.run_length = 0;
  }
  s.last_line = line_in_page;
  if (s.run_length < cfg_.train_threshold || s.direction == 0) return;

  const std::uint32_t confidence_degree =
      std::min<std::uint32_t>(s.run_length - cfg_.train_threshold + 1, cfg_.max_degree);
  const std::uint32_t degree = std::min(confidence_degree, effective_degree());
  for (std::uint32_t k = 1; k <= degree; ++k) {
    const std::int64_t target = line_in_page + s.direction * static_cast<std::int64_t>(k);
    if (target < 0 || target >= lines_per_page) break;  // never cross the page
    const std::uint64_t line_addr =
        page * cfg_.page_bytes + static_cast<std::uint64_t>(target) * cfg_.line_bytes;
    out.push_back(PrefetchRequest{line_addr, is_store});
    window_issued_ += 1.0;
  }
  age_window();
}

void StreamPrefetcher::record_useful() { window_useful_ += 1.0; }

double StreamPrefetcher::accuracy_estimate() const {
  if (window_issued_ <= 0.0) return 1.0;
  return std::min(window_useful_ / window_issued_, 1.0);
}

std::uint32_t StreamPrefetcher::effective_degree() const {
  const double acc = accuracy_estimate();
  if (acc >= cfg_.throttle_high) return cfg_.max_degree;
  if (acc >= cfg_.throttle_low) return std::max<std::uint32_t>(cfg_.max_degree / 2, 1);
  return 1;
}

void StreamPrefetcher::age_window() {
  // Exponential aging keeps the window responsive to phase changes.
  if (window_issued_ > 4096.0) {
    window_issued_ *= 0.5;
    window_useful_ *= 0.5;
  }
}

}  // namespace memdis::cachesim

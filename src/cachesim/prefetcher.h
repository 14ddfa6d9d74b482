// L2 stream prefetcher with accuracy-driven throttling.
//
// Models the Skylake L2 streamer the paper toggles through MSR 0x1a4:
// per-4KiB-page stream detection in both directions, prefetch degree that
// ramps with stream confidence, and global throttling when measured accuracy
// drops — the mechanism behind the paper's observation that XSBench's
// prefetcher "adapts to a low level when accuracy is low" (Sec. 4.2).
// Prefetches never cross a 4KiB page boundary (no page faults from the
// prefetcher), mirroring real hardware and the CXL non-faulting argument.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace memdis::cachesim {

struct PrefetcherConfig {
  bool enabled = true;
  std::uint32_t num_streams = 16;     ///< tracked stream table entries
  std::uint32_t max_degree = 4;       ///< lines prefetched ahead at full confidence
  std::uint32_t train_threshold = 2;  ///< consecutive steps before issuing
  std::uint64_t page_bytes = 4096;
  std::uint64_t line_bytes = 64;
  /// Accuracy thresholds for throttling (fractions of useful prefetches).
  double throttle_low = 0.35;   ///< below this: degree 1
  double throttle_high = 0.70;  ///< above this: full degree
};

/// A prefetch request produced by observe(): line-aligned address plus the
/// store-ness of the triggering access (for PF_L2_RFO vs PF_L2_DATA_RD).
struct PrefetchRequest {
  std::uint64_t line_addr = 0;
  bool rfo = false;
};

class StreamPrefetcher {
 public:
  explicit StreamPrefetcher(const PrefetcherConfig& cfg);

  /// Observes a demand access and appends prefetch candidates to `out`.
  /// The caller (hierarchy) filters lines already cached and performs fills.
  void observe(std::uint64_t addr, bool is_store, std::vector<PrefetchRequest>& out);

  /// Feedback from the hierarchy: a prefetched line saw its first demand
  /// use. (A useless prefetch needs no call: it was counted as issued and
  /// simply never adds a useful.)
  void record_useful();

  /// Running accuracy estimate in [0,1] (exponentially aged window).
  [[nodiscard]] double accuracy_estimate() const;

  /// Current effective degree after throttling.
  [[nodiscard]] std::uint32_t effective_degree() const;

  void set_enabled(bool enabled) { cfg_.enabled = enabled; }
  [[nodiscard]] bool enabled() const { return cfg_.enabled; }
  [[nodiscard]] const PrefetcherConfig& config() const { return cfg_; }

 private:
  /// Training state of one table entry; its page and LRU tick live in the
  /// dense planes below, where the lookup and victim scans read them.
  struct Stream {
    std::int64_t last_line = 0;  ///< line index within page
    int direction = 0;           ///< +1, -1, or 0 (untrained)
    std::uint32_t run_length = 0;
  };

  /// Page plane value of an entry that has never held a stream (no page
  /// number reaches it: pages are addresses shifted right by >= 1 bit).
  static constexpr std::uint64_t kUnusedPage = ~std::uint64_t{0};

  std::uint32_t lookup_stream(std::uint64_t page);
  void age_window();

  PrefetcherConfig cfg_;
  std::uint32_t page_shift_ = 0;  ///< log2(page_bytes), page/line are pow2
  std::uint32_t line_shift_ = 0;  ///< log2(line_bytes)
  /// Direct-mapped page→entry lookup hints (search order only: interleaved
  /// loops rotate several live streams, so a single MRU hint keeps
  /// missing; hashing the page low bits keeps each stream's slot warm).
  static constexpr std::uint32_t kHintSlots = 64;
  std::array<std::uint32_t, kHintSlots> hint_{};
  // Struct-of-arrays stream table: the page and last-touch tick of entry i
  // are page_[i] and last_tick_[i], scanned by the common/simd.h
  // primitives; entries are never invalidated, only replaced.
  std::vector<std::uint64_t> page_;
  std::vector<std::uint64_t> last_tick_;
  std::vector<Stream> streams_;
  /// Never-used entries left; they are handed out from the top index down.
  std::uint32_t unused_ = 0;
  std::uint64_t tick_ = 0;
  // Aged feedback window; starts optimistic so cold-start is not throttled.
  double window_useful_ = 8.0;
  double window_issued_ = 10.0;
};

}  // namespace memdis::cachesim

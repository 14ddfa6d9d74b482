// Access-trace capture: a compact, versioned binary format for the engine's
// instrumented call stream, plus the recording sink that produces it.
//
// A trace is the exact sequence of public Engine calls a workload made —
// allocations (with the returned base, so replay can assert the virtual
// layout reproduced), frees, element-wise loads/stores, flops, every bulk
// range/strided/pair/stream call, and phase tags. Because the virtual
// allocator is a bump allocator that never reuses addresses and workloads
// compute against host-side buffers, the stream depends only on
// (app, scale, seed) — never on the machine, capacity split, LoI, or link
// model. One recording therefore replays bit-identically into every point
// of a machine/policy grid.
//
// Compactness and replay speed come from the same mechanism: the writer
// run-length-encodes the element-wise stream. Adjacent flops() calls are
// summed (pending flops only ever accumulate between epoch closes), and a
// periodic window detector folds repeating patterns of loads/stores/flops
// with constant per-position strides into a single kStream record — the
// multi-lane stream_range form the pattern is, by the range API's
// element-loop definition, exactly equal to. Replay then drives those
// records through the engine's bulk fast path even where the live workload
// issued one call per element. Genuinely irregular streams (pointer
// chasing, table lookups) stay one record per access, delta+varint coded.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "memsim/policy.h"
#include "sim/engine.h"

namespace memdis::trace {

/// Record opcodes (byte 0 of every record). The numeric values are part of
/// the on-disk format — append, never renumber.
enum class TraceOp : std::uint8_t {
  kEnd = 0,
  kAlloc = 1,
  kFree = 2,
  kLoad = 3,
  kStore = 4,
  kFlops = 5,
  kLoadRange = 6,
  kStoreRange = 7,
  kRmwRange = 8,
  kStoreLoadRange = 9,
  kLoadStrided = 10,
  kStoreStrided = 11,
  kLoadPair = 12,
  kStorePair = 13,
  kStream = 14,
  kPfStart = 15,
  kPfStop = 16,
};

inline constexpr std::uint8_t kTraceOpMax = 16;
inline constexpr std::uint16_t kTraceVersion = 1;
inline constexpr char kTraceMagic[4] = {'M', 'D', 'T', 'R'};

/// One decoded record. Field use per op:
///   kAlloc:        a=bytes, b=returned base, policy, text=allocation name
///   kFree:         a=base
///   kLoad/kStore:  a=addr, e=size
///   kFlops:        a=n
///   k*Range:       a=addr, b=bytes, e=elem
///   k*Strided:     a=addr, b=count, c=stride, e=elem
///   k*Pair:        a=addr_a, b=addr_b, c=count, e=elem_a, f=elem_b
///   kStream:       lanes, b=iteration count
///   kPfStart:      text=tag
struct TraceRecord {
  TraceOp op = TraceOp::kEnd;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint32_t e = 0;
  std::uint32_t f = 0;
  std::string text;
  memsim::MemPolicy policy;
  std::vector<sim::StreamLane> lanes;
};

/// A loaded trace: header metadata plus the encoded record payload.
/// Replay re-decodes the payload with a TraceCursor instead of
/// materializing a record vector (the payload is the compact form).
struct TraceData {
  std::string app;     ///< workloads::app_name of the recorded app
  int scale = 1;
  std::uint64_t seed = 42;
  std::string workload_name;        ///< Workload::name() at record time
  std::uint64_t footprint_bytes = 0;
  bool verified = false;            ///< recorded WorkloadResult
  double residual = 0.0;
  std::string detail;
  std::uint64_t record_count = 0;
  std::vector<std::uint8_t> payload;

  /// Serializes to `path`. Throws std::runtime_error on I/O failure.
  void save(const std::string& path) const;
  /// save() through a same-directory temp file + atomic rename, so
  /// concurrent sweep tasks recording the same (app, scale, seed) key can
  /// race without a reader ever observing a half-written file.
  void save_atomic(const std::string& path) const;
  /// Parses `path`; nullopt with a diagnostic in `error` for missing files,
  /// bad magic, unsupported versions, or truncated payloads.
  [[nodiscard]] static std::optional<TraceData> load(const std::string& path,
                                                     std::string& error);
};

/// Forward decoder over a TraceData payload. next() overwrites `rec`
/// (reusing its string/lane storage) and returns false after the kEnd
/// record. Throws std::runtime_error on a corrupt record.
class TraceCursor {
 public:
  explicit TraceCursor(const TraceData& data) : data_(&data) {}

  bool next(TraceRecord& rec);

  [[nodiscard]] std::uint64_t records_decoded() const { return decoded_; }

 private:
  const TraceData* data_;
  std::size_t pos_ = 0;
  std::uint64_t last_addr_ = 0;
  std::uint64_t decoded_ = 0;
  bool done_ = false;
};

/// The recording sink: attach to an Engine (Engine::set_trace_sink) for the
/// duration of a workload run, then finish() and collect the payload.
///
/// Coalescing contract — every transformation is exact:
///  * consecutive flops(a); flops(b) become flops(a+b) (flops only ever
///    accumulate into the pending counter read at epoch close, and no
///    access separates them to move that close),
///  * a repeating pattern of P simple records (loads/stores with constant
///    per-position address strides, flops with constant values) observed
///    for three full periods enters streaming mode and extends a kStream
///    record while the pattern holds — the emitted stream_range call is
///    definitionally the same element sequence,
///  * everything else is passed through verbatim.
class TraceWriter : public sim::TraceSink {
 public:
  TraceWriter();

  // sim::TraceSink
  void on_alloc(std::uint64_t bytes, const memsim::MemPolicy& policy,
                const std::string& name, std::uint64_t base) override;
  void on_free(std::uint64_t base) override;
  void on_access(bool is_store, std::uint64_t addr, std::uint32_t size) override;
  void on_flops(std::uint64_t n) override;
  void on_range(std::uint8_t kind, std::uint64_t addr, std::uint64_t bytes,
                std::uint32_t elem) override;
  void on_strided(bool is_store, std::uint64_t addr, std::uint64_t count,
                  std::uint64_t stride, std::uint32_t elem) override;
  void on_pair(bool is_store, std::uint64_t a, std::uint32_t elem_a, std::uint64_t b,
               std::uint32_t elem_b, std::uint64_t count) override;
  void on_stream(const sim::StreamLane* lanes, std::size_t num_lanes,
                 std::uint64_t count) override;
  void on_phase(bool start, const std::string& tag) override;

  /// Flushes all pending state and appends the kEnd record. Must be called
  /// exactly once before take_payload().
  void finish();

  [[nodiscard]] std::uint64_t record_count() const { return records_; }
  [[nodiscard]] std::vector<std::uint8_t> take_payload();

 private:
  // One buffered element-wise event awaiting pattern detection.
  struct Simple {
    std::uint8_t kind = 0;  // 0 = load, 1 = store, 2 = flops
    std::uint64_t addr = 0;
    std::uint64_t val = 0;  // access size, or flops count
  };

  static constexpr std::size_t kMaxPeriod = 12;
  static constexpr std::size_t kWindowCap = 3 * kMaxPeriod + 16;
  static constexpr std::size_t kMinIters = 3;  // periods needed to enter streaming

  void push_simple(const Simple& s);
  void drain_pending_flops();
  bool try_detect();
  void flush_stream();
  void flush_stream_record(const std::vector<sim::StreamLane>& lanes,
                           std::uint64_t iters);
  /// Flushes the periodic detector completely: active stream, partial
  /// iteration, and the raw window (in original order).
  void flush_simple_state();
  void emit_simple(const Simple& s);

  void begin_record(TraceOp op);
  void put_u8(std::uint8_t v);
  void put_varint(std::uint64_t v);
  void put_signed(std::int64_t v);  // zigzag + varint
  void put_string(const std::string& s);
  void put_addr(std::uint64_t addr);  // delta vs last_addr_, then update

  std::vector<std::uint8_t> out_;
  std::uint64_t records_ = 0;
  std::uint64_t last_addr_ = 0;
  std::uint64_t pending_flops_ = 0;
  bool finished_ = false;

  std::deque<Simple> window_;
  bool stream_active_ = false;
  std::vector<sim::StreamLane> stream_lanes_;  // kFlops lanes carry val in base
  std::uint64_t stream_iters_ = 0;
  std::size_t stream_partial_ = 0;
};

/// Per-opcode record counts for `memdis trace info`.
struct TraceStats {
  std::array<std::uint64_t, kTraceOpMax + 1> by_op{};
  std::uint64_t total = 0;
  std::uint64_t stream_iterations = 0;  ///< sum of kStream counts
};

/// Full decode pass over a loaded trace; nullopt with `error` set when the
/// payload is corrupt or the record count disagrees with the header.
[[nodiscard]] std::optional<TraceStats> scan_trace(const TraceData& data,
                                                   std::string& error);

}  // namespace memdis::trace

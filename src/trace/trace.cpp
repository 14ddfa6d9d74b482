#include "trace/trace.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "common/contract.h"

namespace memdis::trace {

namespace {

std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

void append_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void append_string(std::vector<std::uint8_t>& out, const std::string& s) {
  append_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

/// Bounds-checked forward reader; sets `fail` instead of throwing so header
/// parsing can turn any overrun into one "truncated" diagnostic.
struct ByteReader {
  const std::uint8_t* p = nullptr;
  const std::uint8_t* end = nullptr;
  bool fail = false;

  std::uint8_t u8() {
    if (p >= end) {
      fail = true;
      return 0;
    }
    return *p++;
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (p >= end) {
        fail = true;
        return 0;
      }
      const std::uint8_t b = *p++;
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
    fail = true;  // varint longer than 64 bits
    return 0;
  }
  std::uint64_t u64le() {
    if (end - p < 8) {
      fail = true;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (i * 8);
    p += 8;
    return v;
  }
  /// An element count whose elements each take at least `min_bytes` of
  /// the bytes left; a larger claim fails instead of sizing an allocation.
  std::uint64_t count(std::uint64_t min_bytes) {
    const std::uint64_t n = varint();
    if (fail || n > static_cast<std::uint64_t>(end - p) / min_bytes) {
      fail = true;
      return 0;
    }
    return n;
  }
  std::string str() {
    const std::uint64_t len = varint();
    if (fail || static_cast<std::uint64_t>(end - p) < len) {
      fail = true;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p), len);
    p += len;
    return s;
  }
};

// Strides above this never come from a coalescible loop; they would also
// approach the varint cost of raw records, so leave such patterns alone.
constexpr std::uint64_t kMaxStride = 1ULL << 47;

}  // namespace

// ---- TraceData --------------------------------------------------------------

void TraceData::save(const std::string& path) const {
  std::vector<std::uint8_t> head;
  head.insert(head.end(), kTraceMagic, kTraceMagic + 4);
  head.push_back(static_cast<std::uint8_t>(kTraceVersion & 0xff));
  head.push_back(static_cast<std::uint8_t>(kTraceVersion >> 8));
  append_varint(head, static_cast<std::uint64_t>(scale));
  append_varint(head, seed);
  append_varint(head, footprint_bytes);
  head.push_back(verified ? 1 : 0);
  std::uint64_t residual_bits = 0;
  static_assert(sizeof(residual_bits) == sizeof(residual));
  std::memcpy(&residual_bits, &residual, sizeof(residual_bits));
  for (int i = 0; i < 8; ++i)
    head.push_back(static_cast<std::uint8_t>(residual_bits >> (i * 8)));
  append_string(head, app);
  append_string(head, workload_name);
  append_string(head, detail);
  append_varint(head, record_count);
  append_varint(head, payload.size());

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open trace file for writing: " + path);
  out.write(reinterpret_cast<const char*>(head.data()),
            static_cast<std::streamsize>(head.size()));
  if (!payload.empty())
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
  out.flush();
  if (!out) throw std::runtime_error("short write to trace file: " + path);
}

void TraceData::save_atomic(const std::string& path) const {
  // Same-directory temp name keyed by thread id: concurrent sweep tasks
  // recording the same (app, scale, seed) write distinct temps, and the
  // rename is atomic — last writer wins with identical deterministic bytes.
  const auto tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::string tmp = path + ".tmp." + std::to_string(tid);
  save(tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp);
    throw std::runtime_error("cannot publish trace file " + path + ": " + ec.message());
  }
}

std::optional<TraceData> TraceData::load(const std::string& path, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open trace file: " + path;
    return std::nullopt;
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  if (bytes.size() < 6 || std::memcmp(bytes.data(), kTraceMagic, 4) != 0) {
    error = "not a memdis trace (bad magic): " + path;
    return std::nullopt;
  }
  const std::uint16_t version =
      static_cast<std::uint16_t>(bytes[4] | (static_cast<std::uint16_t>(bytes[5]) << 8));
  if (version != kTraceVersion) {
    error = "unsupported trace version " + std::to_string(version) + " (expected " +
            std::to_string(kTraceVersion) + "): " + path;
    return std::nullopt;
  }
  ByteReader r{bytes.data() + 6, bytes.data() + bytes.size()};
  TraceData d;
  d.scale = static_cast<int>(r.varint());
  d.seed = r.varint();
  d.footprint_bytes = r.varint();
  d.verified = r.u8() != 0;
  const std::uint64_t residual_bits = r.u64le();
  std::memcpy(&d.residual, &residual_bits, sizeof(d.residual));
  d.app = r.str();
  d.workload_name = r.str();
  d.detail = r.str();
  d.record_count = r.varint();
  const std::uint64_t payload_bytes = r.varint();
  if (r.fail) {
    error = "truncated trace header: " + path;
    return std::nullopt;
  }
  const auto remaining = static_cast<std::uint64_t>(r.end - r.p);
  if (remaining != payload_bytes) {
    error = "truncated trace file (payload " + std::to_string(remaining) + " of " +
            std::to_string(payload_bytes) + " bytes): " + path;
    return std::nullopt;
  }
  d.payload.assign(r.p, r.end);
  return d;
}

// ---- TraceCursor ------------------------------------------------------------

bool TraceCursor::next(TraceRecord& rec) {
  if (done_) return false;
  ByteReader r{data_->payload.data() + pos_, data_->payload.data() + data_->payload.size()};
  const std::uint8_t op = r.u8();
  if (r.fail || op > kTraceOpMax) throw std::runtime_error("corrupt trace record");
  rec.op = static_cast<TraceOp>(op);
  rec.a = rec.b = rec.c = 0;
  rec.e = rec.f = 0;
  const auto read_addr = [&]() {
    last_addr_ += static_cast<std::uint64_t>(zigzag_decode(r.varint()));
    return last_addr_;
  };
  switch (rec.op) {
    case TraceOp::kEnd:
      break;
    case TraceOp::kAlloc:
      rec.a = r.varint();
      rec.policy.kind = static_cast<memsim::PlacementKind>(r.u8());
      rec.policy.target = static_cast<memsim::TierId>(r.varint());
      rec.policy.weights.assign(r.count(1), 0);  // a varint weight: >= 1 byte
      for (auto& w : rec.policy.weights) w = static_cast<std::uint32_t>(r.varint());
      rec.text = r.str();
      rec.b = read_addr();
      break;
    case TraceOp::kFree:
      rec.a = read_addr();
      break;
    case TraceOp::kLoad:
    case TraceOp::kStore:
      rec.a = read_addr();
      rec.e = static_cast<std::uint32_t>(r.varint());
      break;
    case TraceOp::kFlops:
      rec.a = r.varint();
      break;
    case TraceOp::kLoadRange:
    case TraceOp::kStoreRange:
    case TraceOp::kRmwRange:
    case TraceOp::kStoreLoadRange:
      rec.a = read_addr();
      rec.b = r.varint();
      rec.e = static_cast<std::uint32_t>(r.varint());
      break;
    case TraceOp::kLoadStrided:
    case TraceOp::kStoreStrided:
      rec.a = read_addr();
      rec.b = r.varint();
      rec.c = r.varint();
      rec.e = static_cast<std::uint32_t>(r.varint());
      break;
    case TraceOp::kLoadPair:
    case TraceOp::kStorePair:
      rec.a = read_addr();
      rec.e = static_cast<std::uint32_t>(r.varint());
      rec.b = read_addr();
      rec.f = static_cast<std::uint32_t>(r.varint());
      rec.c = r.varint();
      break;
    case TraceOp::kStream: {
      rec.lanes.assign(r.count(2), sim::StreamLane{});  // op byte + varint: >= 2 bytes
      for (auto& ln : rec.lanes) {
        ln.op = static_cast<sim::StreamLane::Op>(r.u8());
        if (ln.op == sim::StreamLane::Op::kFlops) {
          ln.base = r.varint();
          ln.stride = 0;
          ln.elem = 0;
        } else {
          ln.base = read_addr();
          ln.stride = r.varint();
          ln.elem = static_cast<std::uint32_t>(r.varint());
        }
      }
      rec.b = r.varint();
      break;
    }
    case TraceOp::kPfStart:
      rec.text = r.str();
      break;
    case TraceOp::kPfStop:
      break;
  }
  if (r.fail) throw std::runtime_error("corrupt trace record");
  pos_ = static_cast<std::size_t>(r.p - data_->payload.data());
  ++decoded_;
  if (rec.op == TraceOp::kEnd) {
    done_ = true;
    return false;
  }
  return true;
}

// ---- TraceWriter ------------------------------------------------------------

TraceWriter::TraceWriter() = default;

void TraceWriter::begin_record(TraceOp op) {
  out_.push_back(static_cast<std::uint8_t>(op));
  ++records_;
}

void TraceWriter::put_u8(std::uint8_t v) { out_.push_back(v); }
void TraceWriter::put_varint(std::uint64_t v) { append_varint(out_, v); }
void TraceWriter::put_signed(std::int64_t v) { append_varint(out_, zigzag_encode(v)); }
void TraceWriter::put_string(const std::string& s) { append_string(out_, s); }

void TraceWriter::put_addr(std::uint64_t addr) {
  put_signed(static_cast<std::int64_t>(addr - last_addr_));
  last_addr_ = addr;
}

void TraceWriter::on_alloc(std::uint64_t bytes, const memsim::MemPolicy& policy,
                           const std::string& name, std::uint64_t base) {
  drain_pending_flops();
  flush_simple_state();
  begin_record(TraceOp::kAlloc);
  put_varint(bytes);
  put_u8(static_cast<std::uint8_t>(policy.kind));
  put_varint(static_cast<std::uint64_t>(policy.target));
  put_varint(policy.weights.size());
  for (const auto w : policy.weights) put_varint(w);
  put_string(name);
  put_addr(base);
}

void TraceWriter::on_free(std::uint64_t base) {
  drain_pending_flops();
  flush_simple_state();
  begin_record(TraceOp::kFree);
  put_addr(base);
}

void TraceWriter::on_access(bool is_store, std::uint64_t addr, std::uint32_t size) {
  drain_pending_flops();
  push_simple(Simple{static_cast<std::uint8_t>(is_store ? 1 : 0), addr, size});
}

void TraceWriter::on_flops(std::uint64_t n) {
  // Adjacent flops merge into the pending counter (exact: the engine's
  // pending flops are only read at epoch close, which no flops call moves),
  // so the pattern detector always sees maximal flops events.
  pending_flops_ += n;
}

void TraceWriter::on_range(std::uint8_t kind, std::uint64_t addr, std::uint64_t bytes,
                           std::uint32_t elem) {
  drain_pending_flops();
  flush_simple_state();
  begin_record(static_cast<TraceOp>(static_cast<std::uint8_t>(TraceOp::kLoadRange) + kind));
  put_addr(addr);
  put_varint(bytes);
  put_varint(elem);
}

void TraceWriter::on_strided(bool is_store, std::uint64_t addr, std::uint64_t count,
                             std::uint64_t stride, std::uint32_t elem) {
  drain_pending_flops();
  flush_simple_state();
  begin_record(is_store ? TraceOp::kStoreStrided : TraceOp::kLoadStrided);
  put_addr(addr);
  put_varint(count);
  put_varint(stride);
  put_varint(elem);
}

void TraceWriter::on_pair(bool is_store, std::uint64_t a, std::uint32_t elem_a,
                          std::uint64_t b, std::uint32_t elem_b, std::uint64_t count) {
  drain_pending_flops();
  flush_simple_state();
  begin_record(is_store ? TraceOp::kStorePair : TraceOp::kLoadPair);
  put_addr(a);
  put_varint(elem_a);
  put_addr(b);
  put_varint(elem_b);
  put_varint(count);
}

void TraceWriter::on_stream(const sim::StreamLane* lanes, std::size_t num_lanes,
                            std::uint64_t count) {
  drain_pending_flops();
  flush_simple_state();
  begin_record(TraceOp::kStream);
  put_varint(num_lanes);
  for (std::size_t i = 0; i < num_lanes; ++i) {
    const sim::StreamLane& ln = lanes[i];
    put_u8(static_cast<std::uint8_t>(ln.op));
    if (ln.op == sim::StreamLane::Op::kFlops) {
      put_varint(ln.base);
    } else {
      put_addr(ln.base);
      put_varint(ln.stride);
      put_varint(ln.elem);
    }
  }
  put_varint(count);
}

void TraceWriter::on_phase(bool start, const std::string& tag) {
  drain_pending_flops();
  flush_simple_state();
  if (start) {
    begin_record(TraceOp::kPfStart);
    put_string(tag);
  } else {
    begin_record(TraceOp::kPfStop);
  }
}

void TraceWriter::drain_pending_flops() {
  if (pending_flops_ == 0) return;
  const Simple s{2, 0, pending_flops_};
  pending_flops_ = 0;
  push_simple(s);
}

void TraceWriter::push_simple(const Simple& s) {
  if (stream_active_) {
    const sim::StreamLane& ln = stream_lanes_[stream_partial_];
    bool match;
    if (ln.op == sim::StreamLane::Op::kFlops) {
      match = s.kind == 2 && s.val == ln.base;
    } else {
      const std::uint8_t lane_kind = ln.op == sim::StreamLane::Op::kStore ? 1 : 0;
      match = s.kind == lane_kind && s.val == ln.elem &&
              s.addr == ln.base + stream_iters_ * ln.stride;
    }
    if (match) {
      if (++stream_partial_ == stream_lanes_.size()) {
        stream_partial_ = 0;
        ++stream_iters_;
      }
      return;
    }
    // Pattern broke: emit the whole iterations as one stream record, replay
    // the partial iteration's prefix through the detector (the window is
    // empty while a stream is active, so this cannot immediately re-enter
    // streaming), then re-process `s`.
    const std::uint64_t iters = stream_iters_;
    const std::size_t partial = stream_partial_;
    std::vector<sim::StreamLane> lanes;
    lanes.swap(stream_lanes_);
    stream_active_ = false;
    stream_iters_ = 0;
    stream_partial_ = 0;
    flush_stream_record(lanes, iters);
    for (std::size_t i = 0; i < partial; ++i) {
      const sim::StreamLane& pl = lanes[i];
      if (pl.op == sim::StreamLane::Op::kFlops) {
        push_simple(Simple{2, 0, pl.base});
      } else {
        push_simple(Simple{
            static_cast<std::uint8_t>(pl.op == sim::StreamLane::Op::kStore ? 1 : 0),
            pl.base + iters * pl.stride, pl.elem});
      }
    }
    push_simple(s);
    return;
  }
  window_.push_back(s);
  if (try_detect()) return;
  if (window_.size() > kWindowCap) {
    emit_simple(window_.front());
    window_.pop_front();
  }
}

bool TraceWriter::try_detect() {
  const std::size_t n = window_.size();
  // Smallest period wins: a pure stream is P=1, an interleaved A/B loop
  // P=2, etc. Requiring three full periods keeps false positives from
  // coincidental repeats cheap to recover from (the stream record they
  // produce is still exact, merely short).
  for (std::size_t p = 1; p <= kMaxPeriod; ++p) {
    if (n < kMinIters * p) break;
    const std::size_t base0 = n - kMinIters * p;
    bool ok = true;
    bool has_access = false;
    for (std::size_t j = 0; j < p; ++j) {
      const Simple& a = window_[base0 + j];
      const Simple& b = window_[base0 + p + j];
      const Simple& c = window_[base0 + 2 * p + j];
      if (a.kind != b.kind || b.kind != c.kind || a.val != b.val || b.val != c.val) {
        ok = false;
        break;
      }
      if (a.kind == 2) continue;  // flops: value equality is the whole test
      has_access = true;
      const std::uint64_t s1 = b.addr - a.addr;
      const std::uint64_t s2 = c.addr - b.addr;
      // stream_range lanes need positive strides; descending or outlandish
      // deltas (including unsigned wrap) stay element-wise.
      if (s1 != s2 || s1 == 0 || s1 > kMaxStride) {
        ok = false;
        break;
      }
    }
    if (!ok || !has_access) continue;
    // Everything before the three matched periods leaves the window as-is.
    for (std::size_t i = 0; i < base0; ++i) emit_simple(window_[i]);
    stream_lanes_.clear();
    for (std::size_t j = 0; j < p; ++j) {
      const Simple& a = window_[base0 + j];
      sim::StreamLane ln;
      if (a.kind == 2) {
        ln.op = sim::StreamLane::Op::kFlops;
        ln.base = a.val;
      } else {
        ln.op = a.kind == 1 ? sim::StreamLane::Op::kStore : sim::StreamLane::Op::kLoad;
        ln.base = a.addr;
        ln.stride = window_[base0 + p + j].addr - a.addr;
        ln.elem = static_cast<std::uint32_t>(a.val);
      }
      stream_lanes_.push_back(ln);
    }
    stream_active_ = true;
    stream_iters_ = kMinIters;
    stream_partial_ = 0;
    window_.clear();
    return true;
  }
  return false;
}

void TraceWriter::flush_stream_record(const std::vector<sim::StreamLane>& lanes,
                                      std::uint64_t iters) {
  expects(iters > 0, "stream record with zero iterations");
  begin_record(TraceOp::kStream);
  put_varint(lanes.size());
  for (const auto& ln : lanes) {
    put_u8(static_cast<std::uint8_t>(ln.op));
    if (ln.op == sim::StreamLane::Op::kFlops) {
      put_varint(ln.base);
    } else {
      put_addr(ln.base);
      put_varint(ln.stride);
      put_varint(ln.elem);
    }
  }
  put_varint(iters);
}

void TraceWriter::flush_stream() {
  const std::uint64_t iters = stream_iters_;
  const std::size_t partial = stream_partial_;
  std::vector<sim::StreamLane> lanes;
  lanes.swap(stream_lanes_);
  stream_active_ = false;
  stream_iters_ = 0;
  stream_partial_ = 0;
  flush_stream_record(lanes, iters);
  // The partial iteration's prefix goes out verbatim — terminal flush, no
  // point feeding the detector again.
  for (std::size_t i = 0; i < partial; ++i) {
    const sim::StreamLane& pl = lanes[i];
    if (pl.op == sim::StreamLane::Op::kFlops) {
      emit_simple(Simple{2, 0, pl.base});
    } else {
      emit_simple(Simple{
          static_cast<std::uint8_t>(pl.op == sim::StreamLane::Op::kStore ? 1 : 0),
          pl.base + iters * pl.stride, pl.elem});
    }
  }
}

void TraceWriter::flush_simple_state() {
  if (stream_active_) flush_stream();
  while (!window_.empty()) {
    emit_simple(window_.front());
    window_.pop_front();
  }
}

void TraceWriter::emit_simple(const Simple& s) {
  switch (s.kind) {
    case 0:
      begin_record(TraceOp::kLoad);
      put_addr(s.addr);
      put_varint(s.val);
      break;
    case 1:
      begin_record(TraceOp::kStore);
      put_addr(s.addr);
      put_varint(s.val);
      break;
    default:
      begin_record(TraceOp::kFlops);
      put_varint(s.val);
      break;
  }
}

void TraceWriter::finish() {
  expects(!finished_, "TraceWriter::finish called twice");
  drain_pending_flops();
  flush_simple_state();
  begin_record(TraceOp::kEnd);
  finished_ = true;
}

std::vector<std::uint8_t> TraceWriter::take_payload() {
  expects(finished_, "take_payload before finish");
  return std::move(out_);
}

// ---- scan_trace -------------------------------------------------------------

std::optional<TraceStats> scan_trace(const TraceData& data, std::string& error) {
  TraceStats stats;
  TraceCursor cursor(data);
  TraceRecord rec;
  try {
    while (cursor.next(rec)) {
      ++stats.by_op[static_cast<std::size_t>(rec.op)];
      ++stats.total;
      if (rec.op == TraceOp::kStream) stats.stream_iterations += rec.b;
    }
  } catch (const std::exception& e) {
    error = e.what();
    return std::nullopt;
  }
  ++stats.by_op[static_cast<std::size_t>(TraceOp::kEnd)];
  ++stats.total;
  if (cursor.records_decoded() != data.record_count) {
    error = "trace record count mismatch (decoded " +
            std::to_string(cursor.records_decoded()) + ", header says " +
            std::to_string(data.record_count) + ")";
    return std::nullopt;
  }
  return stats;
}

}  // namespace memdis::trace

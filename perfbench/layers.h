// Timing decorators the benchmark slides under the query path from the
// outside: a TraceSource and a TreeSource that forward every virtual to the
// wrapped source and charge the wall time spent inside cursor calls to a
// LayerProbe. Cursors of one query may run on several fan-out threads; the
// probe sums their time. With a SpanLog attached, every closed cursor also
// leaves a span (layer, open, close, busy time, calls, parent query span).
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/tree_source.h"
#include "trace/trace_source.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded interval. `parent` is the id of the query span a cursor
/// span belongs to (0 for query spans themselves).
struct Span {
  const char* layer;
  uint64_t id;
  uint64_t parent;
  int64_t start_ns;
  int64_t end_ns;
  int64_t busy_ns;
  uint64_t calls;
};

/// In-memory span buffer, written out once when the benchmark ends.
class SpanLog {
 public:
  /// Opens a query span and makes it the parent of cursor spans closed
  /// until EndQuery. The benchmark has one query client, so one current
  /// query at a time.
  void BeginQuery() {
    current_.store(next_id_.fetch_add(1) + 1, std::memory_order_release);
    query_start_ns_ = NowNs();
  }
  void EndQuery() {
    const uint64_t id = current_.exchange(0, std::memory_order_acq_rel);
    const int64_t end = NowNs();
    Add({"core", id, 0, query_start_ns_, end, end - query_start_ns_, 1});
  }
  uint64_t current() const { return current_.load(std::memory_order_acquire); }
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

  void Add(const Span& s) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }

  size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Writes one JSON object per line; returns false on an I/O error.
  bool WriteJsonl(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"layer\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                   "\"start_ns\": %lld, \"end_ns\": %lld, \"busy_ns\": %lld, "
                   "\"calls\": %llu}\n",
                   s.layer, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.busy_ns),
                   static_cast<unsigned long long>(s.calls));
    }
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> current_{0};
  int64_t query_start_ns_ = 0;
};

/// Time and call counts of one layer, summed over every cursor closed
/// since the last Take().
class LayerProbe {
 public:
  LayerProbe(const char* layer, SpanLog* log) : layer_(layer), log_(log) {}

  struct Totals {
    int64_t busy_ns = 0;
    uint64_t calls = 0;
  };

  void Close(int64_t open_ns, int64_t busy_ns, uint64_t calls) {
    busy_ns_.fetch_add(busy_ns, std::memory_order_relaxed);
    calls_.fetch_add(calls, std::memory_order_relaxed);
    if (log_ != nullptr) {
      log_->Add({layer_, log_->NewId(), log_->current(), open_ns, NowNs(),
                 busy_ns, calls});
    }
  }

  Totals Take() {
    return {busy_ns_.exchange(0, std::memory_order_relaxed),
            calls_.exchange(0, std::memory_order_relaxed)};
  }

 private:
  const char* layer_;
  SpanLog* log_;
  std::atomic<int64_t> busy_ns_{0};
  std::atomic<uint64_t> calls_{0};
};

/// Wraps a cursor: forwards each call, times it, and mirrors the inner
/// cursor's io() and status() so callers see exactly what it reports.
class TimedTraceCursor final : public dtrace::TraceCursor {
 private:
  template <typename F>
  auto Timed(F&& f) {
    const int64_t t0 = NowNs();
    if constexpr (std::is_void_v<std::invoke_result_t<F>>) {
      f();
      Finish(t0);
    } else {
      auto r = f();
      Finish(t0);
      return r;
    }
  }
  void Finish(int64_t t0) {
    busy_ns_ += NowNs() - t0;
    ++calls_;
    io_ = inner_->io();
    status_ = inner_->status();
  }

 public:
  TimedTraceCursor(std::unique_ptr<dtrace::TraceCursor> inner,
                   LayerProbe* probe)
      : inner_(std::move(inner)), probe_(probe), open_ns_(NowNs()) {}
  ~TimedTraceCursor() override { probe_->Close(open_ns_, busy_ns_, calls_); }
  TimedTraceCursor(const TimedTraceCursor&) = delete;
  TimedTraceCursor& operator=(const TimedTraceCursor&) = delete;

  std::span<const dtrace::CellId> Cells(dtrace::EntityId e,
                                        dtrace::Level level) override {
    return Timed([&] { return inner_->Cells(e, level); });
  }
  std::span<const dtrace::CellId> CellsInWindow(dtrace::EntityId e,
                                                dtrace::Level level,
                                                dtrace::TimeStep t0,
                                                dtrace::TimeStep t1) override {
    return Timed([&] { return inner_->CellsInWindow(e, level, t0, t1); });
  }
  uint32_t IntersectionSize(dtrace::EntityId a, dtrace::EntityId b,
                            dtrace::Level level) override {
    return Timed([&] { return inner_->IntersectionSize(a, b, level); });
  }
  uint32_t WindowedIntersectionSize(dtrace::EntityId a, dtrace::EntityId b,
                                    dtrace::Level level, dtrace::TimeStep t0,
                                    dtrace::TimeStep t1) override {
    return Timed(
        [&] { return inner_->WindowedIntersectionSize(a, b, level, t0, t1); });
  }
  dtrace::PackedIdListView PackedCellsInWindow(dtrace::EntityId e,
                                               dtrace::Level level,
                                               dtrace::TimeStep t0,
                                               dtrace::TimeStep t1) override {
    return Timed(
        [&] { return inner_->PackedCellsInWindow(e, level, t0, t1); });
  }
  void Prefetch(std::span<const dtrace::EntityId> entities,
                int depth) override {
    Timed([&] { inner_->Prefetch(entities, depth); });
  }

 private:
  std::unique_ptr<dtrace::TraceCursor> inner_;
  LayerProbe* probe_;
  int64_t open_ns_;
  int64_t busy_ns_ = 0;
  uint64_t calls_ = 0;
};

/// TraceSource decorator: every cursor it opens is a TimedTraceCursor.
class TimedTraceSource final : public dtrace::TraceSource {
 public:
  TimedTraceSource(const dtrace::TraceSource& inner, LayerProbe* probe)
      : inner_(&inner), probe_(probe) {}

  const dtrace::SpatialHierarchy& hierarchy() const override {
    return inner_->hierarchy();
  }
  uint32_t num_entities() const override { return inner_->num_entities(); }
  dtrace::TimeStep horizon() const override { return inner_->horizon(); }
  std::unique_ptr<dtrace::TraceCursor> OpenCursor() const override {
    return std::make_unique<TimedTraceCursor>(inner_->OpenCursor(), probe_);
  }
  std::unique_ptr<dtrace::TraceCursor> OpenCursorAt(
      uint64_t as_of) const override {
    return std::make_unique<TimedTraceCursor>(inner_->OpenCursorAt(as_of),
                                              probe_);
  }
  bool versioned() const override { return inner_->versioned(); }

 private:
  const dtrace::TraceSource* inner_;
  LayerProbe* probe_;
};

/// Node-cursor twin of TimedTraceCursor. Zone() reads resident summaries
/// only and is forwarded untimed; Node() is where pages are pinned.
class TimedNodeCursor final : public dtrace::TreeNodeCursor {
 public:
  TimedNodeCursor(std::unique_ptr<dtrace::TreeNodeCursor> inner,
                  LayerProbe* probe)
      : inner_(std::move(inner)), probe_(probe), open_ns_(NowNs()) {}
  ~TimedNodeCursor() override { probe_->Close(open_ns_, busy_ns_, calls_); }
  TimedNodeCursor(const TimedNodeCursor&) = delete;
  TimedNodeCursor& operator=(const TimedNodeCursor&) = delete;

  dtrace::TreeNodeView Node(uint32_t id) override {
    const int64_t t0 = NowNs();
    dtrace::TreeNodeView view = inner_->Node(id);
    busy_ns_ += NowNs() - t0;
    ++calls_;
    io_ = inner_->io();
    status_ = inner_->status();
    return view;
  }
  std::optional<dtrace::TreeNodeZone> Zone(uint32_t id) const override {
    return inner_->Zone(id);
  }
  bool has_zone_maps() const override { return inner_->has_zone_maps(); }

 private:
  std::unique_ptr<dtrace::TreeNodeCursor> inner_;
  LayerProbe* probe_;
  int64_t open_ns_;
  int64_t busy_ns_ = 0;
  uint64_t calls_ = 0;
};

/// TreeSource decorator: every node cursor it opens is a TimedNodeCursor.
class TimedTreeSource final : public dtrace::TreeSource {
 public:
  TimedTreeSource(const dtrace::TreeSource& inner, LayerProbe* probe)
      : inner_(&inner), probe_(probe) {}

  uint32_t root() const override { return inner_->root(); }
  int num_levels() const override { return inner_->num_levels(); }
  int num_functions() const override { return inner_->num_functions(); }
  size_t num_entities() const override { return inner_->num_entities(); }
  bool Contains(dtrace::EntityId e) const override {
    return inner_->Contains(e);
  }
  std::unique_ptr<dtrace::TreeNodeCursor> OpenNodeCursor() const override {
    return std::make_unique<TimedNodeCursor>(inner_->OpenNodeCursor(), probe_);
  }

 private:
  const dtrace::TreeSource* inner_;
  LayerProbe* probe_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_

// Self-tests of the benchmark's own machinery, run before every workload:
//  - the timing decorators change nothing a query reports — items, status
//    and every TraceIoStats field — over the in-memory store, a compressed
//    PagedTraceSource (with the tree paged on SimDisk), and a source whose
//    disk injects faults;
//  - the tail-percentile rule, open-loop lateness accounting, and the
//    seeded query streams.
// Exits non-zero on the first failed group.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <vector>

#include "core/index.h"
#include "exp/presets.h"
#include "layers.h"
#include "report.h"
#include "storage/paged_trace_source.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "selftest FAILED %s:%d: %s\n", __FILE__,   \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using dtrace::DigitalTraceIndex;
using dtrace::EntityId;
using dtrace::TopKResult;
using dtrace::TraceIoStats;

bool SameIo(const TraceIoStats& a, const TraceIoStats& b) {
  return a.entities_fetched == b.entities_fetched &&
         a.pages_read == b.pages_read && a.pages_hit == b.pages_hit &&
         a.bytes_read == b.bytes_read && a.cache_hits == b.cache_hits &&
         a.prefetch_hits == b.prefetch_hits &&
         a.tree_pages_read == b.tree_pages_read &&
         a.tree_page_hits == b.tree_page_hits &&
         a.io_retries == b.io_retries &&
         a.checksum_failures == b.checksum_failures &&
         a.faults_injected == b.faults_injected &&
         a.modeled_io_seconds == b.modeled_io_seconds;
}

bool SameResult(const TopKResult& a, const TopKResult& b) {
  if (a.status.code() != b.status.code() ||
      a.items.size() != b.items.size() || !SameIo(a.stats.io, b.stats.io) ||
      a.stats.entities_checked != b.stats.entities_checked ||
      a.stats.nodes_visited != b.stats.nodes_visited) {
    return false;
  }
  for (size_t i = 0; i < a.items.size(); ++i) {
    if (a.items[i].entity != b.items[i].entity ||
        a.items[i].score != b.items[i].score) {
      return false;
    }
  }
  return true;
}

struct Totals {
  int queries = 0;
  int failed = 0;
  uint64_t retries = 0;
  uint64_t pages_read = 0;
  uint64_t tree_pages_read = 0;
};

// Two identical (index, source) stacks answer the same queries: one
// through DigitalTraceIndex::Query, one through the decorated sources the
// benchmark's traced path uses. Every result must match field for field.
Totals CheckDecorators(const dtrace::Dataset& d, bool paged,
                       const dtrace::PagedTraceSource::Options* options) {
  auto make_index = [&] {
    auto index = DigitalTraceIndex::Build(d.store);
    if (paged) {
      dtrace::PagedTreeOptions tree;
      tree.backing = dtrace::PagedTreeOptions::Backing::kSimDisk;
      tree.disk.pool_fraction = 0.25;
      index.EnablePagedTree(tree);
    }
    return index;
  };
  const DigitalTraceIndex plain_index = make_index();
  const DigitalTraceIndex timed_index = make_index();
  std::optional<dtrace::PagedTraceSource> plain_src, timed_src;
  if (options != nullptr) {
    plain_src.emplace(*d.store, *options);
    timed_src.emplace(*d.store, *options);
  }
  const dtrace::TraceSource& plain_traces =
      plain_src ? static_cast<const dtrace::TraceSource&>(*plain_src)
                : *d.store;
  const dtrace::TraceSource& inner_traces =
      timed_src ? static_cast<const dtrace::TraceSource&>(*timed_src)
                : *d.store;
  const dtrace::PolynomialLevelMeasure measure(d.hierarchy->num_levels());
  LayerProbe trace_probe("trace", nullptr);
  LayerProbe tree_probe("storage", nullptr);

  Totals t;
  QueryStream stream = QueryStream::Zipf(5, d.num_entities(), 0.99);
  for (int i = 0; i < 24; ++i) {
    const EntityId q = stream.Next();
    dtrace::QueryOptions plain_options;
    plain_options.trace_source = &plain_traces;
    const TopKResult a = plain_index.Query(q, 10, measure, plain_options);

    const DigitalTraceIndex::ReadPin pin = timed_index.PinForRead();
    const TimedTreeSource tree(pin.tree(), &tree_probe);
    const TimedTraceSource traces(inner_traces, &trace_probe);
    dtrace::QueryOptions timed_options;
    timed_options.trace_as_of = pin.version();
    const dtrace::TopKQueryProcessor proc(tree, traces, timed_index.hasher(),
                                          measure);
    const TopKResult b = proc.Query(q, 10, timed_options);

    EXPECT(SameResult(a, b));
    const LayerProbe::Totals calls = trace_probe.Take();
    EXPECT(calls.calls > 0);
    EXPECT(tree_probe.Take().calls > 0);
    ++t.queries;
    t.failed += !a.status.ok();
    t.retries += a.stats.io.io_retries;
    t.pages_read += a.stats.io.pages_read;
    t.tree_pages_read += a.stats.io.tree_pages_read;
  }
  return t;
}

void TestDecorators() {
  const dtrace::Dataset d = dtrace::MakeDiskResidentDataset(1500, 3);

  const Totals memory = CheckDecorators(d, /*paged=*/false, nullptr);
  EXPECT(memory.failed == 0 && memory.pages_read == 0);

  dtrace::PagedTraceSource::Options compressed;
  compressed.compress = true;
  compressed.pool_fraction = 0.1;
  const Totals paged = CheckDecorators(d, /*paged=*/true, &compressed);
  EXPECT(paged.failed == 0 && paged.pages_read > 0 &&
         paged.tree_pages_read > 0);

  // Transient read errors and bit flips, often enough that some pages
  // exhaust their retries: the decorated path must report the same
  // retries and the same clean errors.
  dtrace::PagedTraceSource::Options faulty;
  faulty.pool_fraction = 0.1;
  faulty.faults = dtrace::FaultInjectionConfig{
      .seed = 11, .read_error_rate = 0.15, .read_flip_rate = 0.05};
  const Totals faults = CheckDecorators(d, /*paged=*/false, &faulty);
  EXPECT(faults.retries > 0);
  std::fprintf(stderr,
               "selftest decorators: memory %d queries; paged %d queries, "
               "%llu trace / %llu tree page reads; faulty %d queries, %llu "
               "retries, %d clean errors\n",
               memory.queries, paged.queries,
               static_cast<unsigned long long>(paged.pages_read),
               static_cast<unsigned long long>(paged.tree_pages_read),
               faults.queries, static_cast<unsigned long long>(faults.retries),
               faults.failed);
}

void TestPercentile() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT(Percentile(v, 0.99) == 990.0);  // exactly 10 samples above it
  EXPECT(Percentile(v, 0.5) == 500.0);
  v.pop_back();
  EXPECT(!Percentile(v, 0.99));  // 999 samples leave only 9 above
  std::vector<double> h(100, 1.0);
  EXPECT(Percentile(h, 0.90).has_value());
  h.pop_back();
  EXPECT(!Percentile(h, 0.90));
  EXPECT(!Percentile({}, 0.5));
  EXPECT(Median({3.0, 1.0, 2.0, 10.0}) == 2.5);
}

void TestOpenLoop() {
  // Writes due every 10 ms; the first stalls for 25 ms.
  OpenLoopLedger ledger(0.010);
  const double eps = 1e-12;
  EXPECT(std::abs(ledger.Record(0, 0.000, 0.025) - 0.025) < eps);
  // The next two queue behind the stall: their latency counts the wait.
  EXPECT(std::abs(ledger.Record(1, 0.025, 0.027) - 0.017) < eps);
  EXPECT(std::abs(ledger.Record(2, 0.027, 0.029) - 0.009) < eps);
  EXPECT(std::abs(ledger.Record(3, 0.030, 0.031) - 0.001) < eps);
  const std::vector<double> late = {0.0, 0.015, 0.007, 0.0};
  for (size_t i = 0; i < late.size(); ++i) {
    EXPECT(std::abs(ledger.late_s()[i] - late[i]) < eps);
  }
  EXPECT(std::abs(ledger.Due(3) - 0.030) < eps);
}

void TestStreams() {
  QueryStream a = QueryStream::Zipf(42, 10000, 0.99);
  QueryStream b = QueryStream::Zipf(42, 10000, 0.99);
  QueryStream c = QueryStream::Zipf(43, 10000, 0.99);
  std::map<EntityId, int> freq;
  int same_ab = 0, same_ac = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const EntityId x = a.Next();
    same_ab += x == b.Next();
    same_ac += x == c.Next();
    EXPECT(x < 10000);
    ++freq[x];
  }
  EXPECT(same_ab == n);
  EXPECT(same_ac < n / 2);
  int top = 0;
  for (const auto& [e, f] : freq) top = std::max(top, f);
  // Zipf(0.99) over 10K ranks puts ~10% of the mass on the top rank.
  EXPECT(top > n * 0.07 && top < n * 0.14);
  QueryStream u1 = QueryStream::Uniform(7, 500);
  QueryStream u2 = QueryStream::Uniform(7, 500);
  for (int i = 0; i < 1000; ++i) EXPECT(u1.Next() == u2.Next());
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestPercentile();
  perfbench::TestOpenLoop();
  perfbench::TestStreams();
  perfbench::TestDecorators();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "selftest: %d failures\n", perfbench::failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all passed\n");
  return 0;
}

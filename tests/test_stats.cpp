#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "engine/flow_table.h"
#include "stats/fct_recorder.h"
#include "stats/goodput_meter.h"
#include "stats/histogram.h"
#include "stats/percentile.h"
#include "stats/table.h"

namespace negotiator {
namespace {

TEST(Percentile, BasicsAndEdges) {
  EXPECT_DOUBLE_EQ(percentile({}, 99), 0.0);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 50), 5.0);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
}

TEST(Percentile, MeanBasics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

/// A FlowTable and the completion log it owns, the way a fabric holds
/// them.
struct Completions {
  FlowTable table;
  const FctRecorder& rec = table.fct();

  /// Admits one flow and delivers all of it `fct` ns after its arrival.
  void complete(FlowId id, Bytes size, Nanos arrival, Nanos fct, int group) {
    const int i = table.add(Flow{id, 0, 1, size, arrival, group});
    table.credit(i, size, arrival + fct);
  }
};

TEST(FctRecorder, MiceVsAllSeparation) {
  Completions c;
  c.complete(1, 1'000, 0, 5'000, 0);        // mouse
  c.complete(2, 1'000'000, 0, 900'000, 0);  // elephant
  EXPECT_EQ(c.rec.mice_summary().count, 1u);
  EXPECT_EQ(c.rec.all_summary().count, 2u);
  EXPECT_DOUBLE_EQ(c.rec.mice_summary().mean_ns, 5'000.0);
}

TEST(FctRecorder, MeasureFromSkipsWarmup) {
  Completions c;
  c.complete(1, 1'000, 10, 5'000, 0);
  c.complete(2, 1'000, 200, 7'000, 0);
  c.table.fct().set_measure_from(100);
  EXPECT_EQ(c.rec.mice_summary().count, 1u);
  EXPECT_DOUBLE_EQ(c.rec.mice_summary().mean_ns, 7'000.0);
}

TEST(FctRecorder, GroupFiltering) {
  Completions c;
  c.complete(1, 1'000, 0, 1'000, 0);
  c.complete(2, 1'000, 0, 2'000, 1);
  c.complete(3, 1'000, 0, 3'000, 1);
  EXPECT_EQ(c.rec.mice_summary(1).count, 2u);
  EXPECT_DOUBLE_EQ(c.rec.mice_summary(1).mean_ns, 2'500.0);
  EXPECT_EQ(c.rec.mice_fcts(0).size(), 1u);
}

TEST(FctRecorder, P99TracksTail) {
  // 99 fast flows + 2 slow: nearest-rank p99 of 101 samples is the 100th
  // smallest, i.e. a slow one.
  Completions c;
  for (int i = 0; i < 99; ++i) c.complete(i, 100, 0, 10, 0);
  c.complete(99, 100, 0, 1'000'000, 0);
  c.complete(100, 100, 0, 1'000'000, 0);
  EXPECT_DOUBLE_EQ(c.rec.mice_summary().p99_ns, 1'000'000.0);
  EXPECT_DOUBLE_EQ(c.rec.mice_summary().max_ns, 1'000'000.0);
}

TEST(FctRecorder, SamplesViewReadsTheAdmittedFlows) {
  // Completions land in completion order, not table order; every sample
  // field but the FCT comes from the admitted flow. The view is live.
  FlowTable table;
  const int a = table.add(Flow{70, 0, 1, 3'000, 100, 2});
  const int b = table.add(Flow{71, 2, 3, 500, 150, 0});
  const FctRecorder::Samples view = table.fct().samples();
  EXPECT_TRUE(view.empty());
  table.credit(b, 500, 1'150);
  table.credit(a, 1'000, 1'200);  // partial: no completion yet
  table.credit(a, 2'000, 5'100);
  ASSERT_EQ(view.size(), 2u);
  const FctSample first = view[0];
  EXPECT_EQ(first.flow, 71);
  EXPECT_EQ(first.size, 500);
  EXPECT_EQ(first.arrival, 150);
  EXPECT_EQ(first.fct, 1'000);
  EXPECT_EQ(first.group, 0);
  const FctSample second = view[1];
  EXPECT_EQ(second.flow, 70);
  EXPECT_EQ(second.size, 3'000);
  EXPECT_EQ(second.fct, 5'000);
  EXPECT_EQ(second.group, 2);
  std::size_t i = 0;
  for (const FctSample& s : view) {
    EXPECT_EQ(s.flow, view[i].flow);
    EXPECT_EQ(s.fct, view[i].fct);
    ++i;
  }
  EXPECT_EQ(i, 2u);
}

TEST(FctRecorder, SummaryMatchesCopyingPercentiles) {
  // summarize() selects p50/p99 in place on one buffer; the figures must
  // equal the copy-per-percentile recipe bit for bit.
  Completions c;
  std::vector<double> fcts;
  std::uint64_t x = 12345;
  for (int i = 0; i < 997; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const Nanos fct = 1 + static_cast<Nanos>((x >> 33) % 100'000);
    c.complete(i, 100, 0, fct, 0);
    fcts.push_back(static_cast<double>(fct));
  }
  const FctSummary s = c.rec.all_summary();
  EXPECT_EQ(s.count, fcts.size());
  EXPECT_EQ(s.mean_ns, mean(fcts));
  EXPECT_EQ(s.p50_ns, percentile(fcts, 50.0));
  EXPECT_EQ(s.p99_ns, percentile(fcts, 99.0));
  EXPECT_EQ(s.max_ns, *std::max_element(fcts.begin(), fcts.end()));
}

/// The summary recipe spelled out: copy the measured FCTs in completion
/// order, sum the mean in that order, and select each nearest-rank
/// percentile with nth_element on a copy of its own.
FctSummary reference_summary(const std::vector<FctSample>& log, Nanos from,
                             bool mice_only, int group) {
  std::vector<double> v;
  for (const FctSample& s : log) {
    if (s.arrival < from || (mice_only && s.size >= kMiceFlowBytes) ||
        (group >= 0 && s.group != group)) {
      continue;
    }
    v.push_back(static_cast<double>(s.fct));
  }
  FctSummary out;
  out.count = v.size();
  if (v.empty()) return out;
  double sum = 0.0;
  for (const double x : v) sum += x;
  out.mean_ns = sum / static_cast<double>(v.size());
  out.max_ns = *std::max_element(v.begin(), v.end());
  const auto rank = [&v](double p) {
    std::vector<double> c = v;
    const double n = static_cast<double>(c.size());
    const auto k = static_cast<std::size_t>(
        std::clamp(std::ceil(p / 100.0 * n) - 1.0, 0.0, n - 1.0));
    std::nth_element(c.begin(), c.begin() + static_cast<std::ptrdiff_t>(k),
                     c.end());
    return c[k];
  };
  out.p50_ns = rank(50.0);
  out.p99_ns = rank(99.0);
  return out;
}

TEST(FctRecorder, SummariesEqualTheCopyingReferenceBitForBit) {
  // Randomized completion logs: mice and elephants on both sides of the
  // mice cut, four groups, arrivals on both sides of a measure_from cut,
  // FCTs from a small set (ties), completions in random order and some
  // flows never completing.
  std::uint64_t x = 0x5eed;
  const auto next = [&x](std::uint64_t bound) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return (x >> 33) % bound;
  };
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(round);
    FlowTable table;
    std::vector<Flow> flows;
    const std::size_t n = 1 + next(3'000);
    for (std::size_t i = 0; i < n; ++i) {
      const Bytes size = next(2) == 0
                             ? static_cast<Bytes>(kMiceFlowBytes - 2 + next(4))
                             : static_cast<Bytes>(1 + next(40'000));
      const Flow f{static_cast<FlowId>(i), 0, 1, size,
                   static_cast<Nanos>(next(1'000)),
                   static_cast<int>(next(4))};
      ASSERT_EQ(table.add(f), static_cast<int>(i));
      flows.push_back(f);
    }
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[next(i)]);
    std::vector<FctSample> log;
    for (const std::size_t i : order) {
      if (next(10) == 0) continue;  // never completes
      const Flow& f = flows[i];
      const Nanos fct = 1'000 * static_cast<Nanos>(1 + next(50));
      table.credit(static_cast<int>(i), f.size, f.arrival + fct);
      log.push_back(FctSample{f.id, f.size, f.arrival, fct, f.group});
    }
    const Nanos from = next(2) == 0 ? 0 : static_cast<Nanos>(next(1'000));
    table.fct().set_measure_from(from);
    const FctRecorder& rec = table.fct();
    ASSERT_EQ(rec.completed(), log.size());
    for (int group = -1; group < 4; ++group) {
      for (const bool mice : {true, false}) {
        SCOPED_TRACE(::testing::Message() << "group " << group
                                          << (mice ? " mice" : " all"));
        const FctSummary want = reference_summary(log, from, mice, group);
        const FctSummary got =
            mice ? rec.mice_summary(group) : rec.all_summary(group);
        EXPECT_EQ(got.count, want.count);
        EXPECT_EQ(got.mean_ns, want.mean_ns);
        EXPECT_EQ(got.max_ns, want.max_ns);
        EXPECT_EQ(got.p50_ns, want.p50_ns);
        EXPECT_EQ(got.p99_ns, want.p99_ns);
      }
      const std::vector<double> fcts = rec.mice_fcts(group);
      EXPECT_EQ(fcts.size(), reference_summary(log, from, true, group).count);
      EXPECT_EQ(fcts.capacity(), fcts.size()) << "an exact-size buffer";
    }
  }
}

TEST(FctRecorder, SummaryBufferIsOneExactSizeBlock) {
  // Summaries and mice_fcts() count the matching completions first and
  // fill one buffer of exactly that size. 70 000 FCTs take 560 000 B
  // (35 000 in group 1), where doubling growth would end in a 1 MiB
  // (512 KiB) block.
  Completions c;
  for (int i = 0; i < 70'000; ++i) c.complete(i, 500, 0, 1 + i % 977, i % 2);
  auto allocated = [] {
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
  };
  for (const int group : {-1, 1}) {
    const std::size_t before = allocated();
    const std::vector<double> fcts = c.rec.mice_fcts(group);
    const std::size_t grown = allocated() - before;
    if (grown == 0) GTEST_SKIP() << "allocator does not report to mallinfo2";
    ASSERT_EQ(fcts.size(), c.rec.mice_summary(group).count);
    // One block plus the allocator's header and page rounding.
    EXPECT_LE(grown, fcts.size() * sizeof(double) + 4'096 + 64)
        << "group " << group;
  }
}

TEST(GoodputMeter, NormalizedGoodput) {
  GoodputMeter g(2);
  g.set_measure_interval(0, 1'000);
  // 2 ToRs at 400 Gbps = 100'000 B capacity over 1 us.
  g.record_delivery(0, 30'000, 500);
  g.record_delivery(1, 20'000, 999);
  EXPECT_DOUBLE_EQ(g.normalized_goodput(Rate::from_gbps(400)), 0.5);
}

TEST(GoodputMeter, MeasureIntervalExcludesOutside) {
  GoodputMeter g(1);
  g.set_measure_interval(100, 200);
  g.record_delivery(0, 1'000, 50);    // before
  g.record_delivery(0, 2'000, 150);   // inside
  g.record_delivery(0, 4'000, 200);   // at end (exclusive)
  EXPECT_EQ(g.delivered_bytes(), 2'000);
}

TEST(GoodputMeter, RelayTrackedSeparately) {
  GoodputMeter g(2);
  g.set_measure_interval(0, 100);
  g.record_delivery(0, 500, 10);
  g.record_relay_reception(1, 700, 10);
  EXPECT_EQ(g.delivered_bytes(), 500);
  EXPECT_EQ(g.relay_bytes(), 700);
}

TEST(GoodputMeter, WindowSeries) {
  GoodputMeter g(2, /*window=*/100);
  g.record_delivery(0, 10, 50);
  g.record_delivery(0, 20, 150);
  g.record_delivery(0, 30, 199);
  ASSERT_GE(g.tor_window_series(0).size(), 2u);
  EXPECT_EQ(g.tor_window_series(0)[0], 10);
  EXPECT_EQ(g.tor_window_series(0)[1], 50);
  EXPECT_TRUE(g.tor_window_series(1).empty());
}

TEST(EmpiricalCdf, FractionBelow) {
  EmpiricalCdf cdf;
  for (int i = 1; i <= 10; ++i) cdf.add(i);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(5.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(0.5), 0.0);
}

TEST(EmpiricalCdf, PointsAreMonotone) {
  EmpiricalCdf cdf;
  for (int i = 100; i >= 1; --i) cdf.add(i * 7 % 97);
  const auto pts = cdf.points(20);
  ASSERT_EQ(pts.size(), 20u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].value, pts[i - 1].value);
    EXPECT_GT(pts[i].cdf, pts[i - 1].cdf);
  }
  EXPECT_DOUBLE_EQ(pts.back().cdf, 1.0);
}

TEST(ConsoleTable, RendersAlignedRows) {
  ConsoleTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.5"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(GoodputMeter, DeliverySpanMatchesSequentialDeliveries) {
  // One slot's span: every record shares the arrival time; the span form
  // must land identical totals and identical per-ToR window series, with
  // arbitrary interleaving of destinations inside the span.
  GoodputMeter bulk(4, /*window=*/100);
  GoodputMeter seq(4, /*window=*/100);
  bulk.set_measure_interval(50, 10'000);
  seq.set_measure_interval(50, 10'000);
  const DeliveryRecord slot_a[] = {
      {1, 0, 300}, {2, 2, 150}, {3, 0, 75}, {4, 3, 220}, {5, 2, 10}};
  const DeliveryRecord slot_b[] = {{6, 1, 40}, {7, 1, 60}};
  bulk.record_delivery_span(slot_a, 5, 120);
  bulk.record_delivery_span(slot_b, 2, 260);
  bulk.record_delivery_span(slot_a, 0, 300);  // empty span is a no-op
  for (const DeliveryRecord& r : slot_a) {
    seq.record_delivery(r.dst, r.bytes, 120);
  }
  for (const DeliveryRecord& r : slot_b) {
    seq.record_delivery(r.dst, r.bytes, 260);
  }
  EXPECT_EQ(bulk.delivered_bytes(), seq.delivered_bytes());
  for (TorId dst = 0; dst < 4; ++dst) {
    EXPECT_EQ(bulk.tor_window_series(dst), seq.tor_window_series(dst))
        << "dst " << dst;
  }
}

TEST(GoodputMeter, DeliverySpanRespectsMeasureInterval) {
  GoodputMeter bulk(2);
  GoodputMeter seq(2);
  bulk.set_measure_interval(100, 200);
  seq.set_measure_interval(100, 200);
  const DeliveryRecord records[] = {{1, 0, 500}, {2, 1, 700}};
  bulk.record_delivery_span(records, 2, 99);   // before the interval
  bulk.record_delivery_span(records, 2, 150);  // inside
  bulk.record_delivery_span(records, 2, 200);  // at the exclusive end
  for (const Nanos when : {Nanos{99}, Nanos{150}, Nanos{200}}) {
    for (const DeliveryRecord& r : records) {
      seq.record_delivery(r.dst, r.bytes, when);
    }
  }
  EXPECT_EQ(bulk.delivered_bytes(), seq.delivered_bytes());
  EXPECT_EQ(bulk.delivered_bytes(), 1'200);
}

}  // namespace
}  // namespace negotiator

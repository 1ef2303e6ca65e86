// Unit tests for the flight recorder: ring wraparound, counters, JSON
// shape, and concurrent writers (this file is part of the TSan CI filter).
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace blaeu::obs {
namespace {

TEST(FlightRecorderTest, RecordsInOrder) {
  FlightRecorder rec(8);
  rec.Record(FlightEventKind::kNote, "a");
  rec.Record(FlightEventKind::kNote, "b", {{"k", "v"}});
  rec.Record(FlightEventKind::kError, "c");
  ASSERT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.total_recorded(), 3u);
  EXPECT_EQ(rec.dropped(), 0u);

  std::vector<FlightEvent> events = rec.Tail();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(events[2].name, "c");
  EXPECT_EQ(events[2].kind, FlightEventKind::kError);
  ASSERT_EQ(events[1].attrs.size(), 1u);
  EXPECT_EQ(events[1].attrs[0].first, "k");
  // Sequence numbers are monotonic and timestamps never go backwards.
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_LE(events[0].t_ns, events[2].t_ns);
}

TEST(FlightRecorderTest, WraparoundKeepsTheTail) {
  constexpr size_t kCapacity = 16;
  constexpr size_t kExtra = 5;
  FlightRecorder rec(kCapacity);
  for (size_t i = 0; i < kCapacity + kExtra; ++i) {
    rec.Record(FlightEventKind::kNote, "e" + std::to_string(i));
  }
  EXPECT_EQ(rec.size(), kCapacity);
  EXPECT_EQ(rec.total_recorded(), kCapacity + kExtra);
  EXPECT_EQ(rec.dropped(), kExtra);

  // The survivors are exactly the newest kCapacity events, oldest first,
  // with contiguous sequence numbers.
  std::vector<FlightEvent> events = rec.Tail();
  ASSERT_EQ(events.size(), kCapacity);
  EXPECT_EQ(events.front().name, "e" + std::to_string(kExtra));
  EXPECT_EQ(events.back().name,
            "e" + std::to_string(kCapacity + kExtra - 1));
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
}

TEST(FlightRecorderTest, TailTruncatesToNewest) {
  FlightRecorder rec(8);
  for (int i = 0; i < 6; ++i) {
    rec.Record(FlightEventKind::kNote, "e" + std::to_string(i));
  }
  std::vector<FlightEvent> last2 = rec.Tail(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[0].name, "e4");
  EXPECT_EQ(last2[1].name, "e5");
  // Asking for more than retained returns everything.
  EXPECT_EQ(rec.Tail(100).size(), 6u);
}

TEST(FlightRecorderTest, ClearKeepsCounters) {
  FlightRecorder rec(4);
  for (int i = 0; i < 6; ++i) rec.Record(FlightEventKind::kNote, "e");
  rec.Clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 6u);
  EXPECT_EQ(rec.dropped(), 2u);
  // Recording continues with fresh ring state but monotonic seq.
  rec.Record(FlightEventKind::kNote, "after");
  std::vector<FlightEvent> events = rec.Tail();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 6u);
}

TEST(FlightRecorderTest, JsonShape) {
  FlightRecorder rec(4);
  rec.Record(FlightEventKind::kMapBuilt, "core.map.build",
             {{"rows", "100"}, {"quote", "say \"hi\""}});
  std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos);
  EXPECT_NE(json.find("\"total_recorded\":1"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"map_built\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"core.map.build\""), std::string::npos);
  EXPECT_NE(json.find("\"rows\":\"100\""), std::string::npos);
  // Attribute values are JSON-escaped.
  EXPECT_NE(json.find("say \\\"hi\\\""), std::string::npos);
}

TEST(FlightRecorderTest, KindNamesAreStable) {
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kMapBuilt), "map_built");
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kCacheHit), "cache_hit");
  EXPECT_STREQ(FlightEventKindName(FlightEventKind::kError), "error");
}

// Concurrent writers hammer one recorder while a reader polls Tail(); run
// under TSan in CI. Correctness bar: no race, no lost updates in the
// counters, and every retained event is intact.
TEST(FlightRecorderTest, ConcurrentWritersAreSafe) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 400;
  FlightRecorder rec(64);

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.Record(FlightEventKind::kNote,
                   "t" + std::to_string(t) + "." + std::to_string(i),
                   {{"i", std::to_string(i)}});
      }
    });
  }
  std::thread reader([&rec] {
    for (int i = 0; i < 200; ++i) {
      std::vector<FlightEvent> events = rec.Tail(16);
      for (const FlightEvent& e : events) {
        ASSERT_FALSE(e.name.empty());
      }
    }
  });
  for (std::thread& w : writers) w.join();
  reader.join();

  EXPECT_EQ(rec.total_recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(rec.size(), 64u);
  EXPECT_EQ(rec.dropped(),
            static_cast<uint64_t>(kThreads) * kPerThread - 64u);
  // Sequence numbers of the survivors are strictly increasing.
  std::vector<FlightEvent> events = rec.Tail();
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

}  // namespace
}  // namespace blaeu::obs

// The reference simulator's event queue (platform_reference.h): the
// (time, insertion-sequence) contract sim::Platform's event slots keep.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "platform_reference.h"

namespace fcm::sim::reference {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(Instant::epoch() + Duration::micros(30),
                [&] { order.push_back(3); });
  q.schedule_at(Instant::epoch() + Duration::micros(10),
                [&] { order.push_back(1); });
  q.schedule_at(Instant::epoch() + Duration::micros(20),
                [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  const Instant t = Instant::epoch() + Duration::micros(5);
  q.schedule_at(t, [&] { order.push_back(1); });
  q.schedule_at(t, [&] { order.push_back(2); });
  q.schedule_at(t, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ClockAdvancesToEventTime) {
  EventQueue q;
  Instant seen;
  q.schedule_at(Instant::epoch() + Duration::micros(42),
                [&] { seen = q.now(); });
  q.run();
  EXPECT_EQ(seen, Instant::epoch() + Duration::micros(42));
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  std::vector<std::int64_t> times;
  q.schedule_in(Duration::micros(10), [&] {
    times.push_back(q.now().since_epoch().count());
    q.schedule_in(Duration::micros(5), [&] {
      times.push_back(q.now().since_epoch().count());
    });
  });
  q.run();
  EXPECT_EQ(times, (std::vector<std::int64_t>{10, 15}));
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(Instant::epoch() + Duration::micros(10), [&] { ++fired; });
  q.schedule_at(Instant::epoch() + Duration::micros(20), [&] { ++fired; });
  q.schedule_at(Instant::epoch() + Duration::micros(30), [&] { ++fired; });
  q.run_until(Instant::epoch() + Duration::micros(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), Instant::epoch() + Duration::micros(20));
  q.run();
  EXPECT_EQ(fired, 3);
}

TEST(EventQueue, CancelPreventsDispatch) {
  EventQueue q;
  int fired = 0;
  const auto token =
      q.schedule_at(Instant::epoch() + Duration::micros(10), [&] { ++fired; });
  EXPECT_TRUE(q.cancel(token));
  q.run();
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(q.cancel(token));  // idempotent
}

TEST(EventQueue, PastSchedulingRejected) {
  EventQueue q;
  q.schedule_at(Instant::epoch() + Duration::micros(10), [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(Instant::epoch(), [] {}), InvalidArgument);
}

TEST(EventQueue, DispatchCountTracksEvents) {
  EventQueue q;
  for (int i = 1; i <= 5; ++i) {
    q.schedule_at(Instant::epoch() + Duration::micros(i), [] {});
  }
  q.run();
  EXPECT_EQ(q.dispatched(), 5u);
}

TEST(EventQueue, ReplaysIdenticallyAcrossRebuilds) {
  // Deterministic replay: (time, insertion-sequence) is a total order, so
  // rebuilding the same schedule — equal-time events, a cancellation, and
  // handlers that spawn more equal-time work mid-dispatch — must dispatch
  // in exactly the same sequence every time. The simulation's bitwise
  // reproducibility across runs rests on this property.
  auto replay = [] {
    EventQueue q;
    std::vector<int> order;
    const Instant t = Instant::epoch() + Duration::micros(10);
    std::uint64_t doomed = 0;
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t token = q.schedule_at(t, [&q, &order, t, i] {
        order.push_back(i);
        // Same-instant child: must run after every surviving original.
        q.schedule_at(t, [&order, i] { order.push_back(100 + i); });
      });
      if (i == 3) doomed = token;
    }
    EXPECT_TRUE(q.cancel(doomed));
    q.schedule_at(t + Duration::micros(1), [&order] { order.push_back(-1); });
    q.run();
    return order;
  };
  const std::vector<int> first = replay();
  const std::vector<int> second = replay();
  EXPECT_EQ(first, second);
  // The order is pinned, not merely repeatable: surviving originals in
  // schedule order, then their children in spawn order, then the later
  // event.
  const std::vector<int> expected{0,   1,   2,   4,   5,   6,   7,  100,
                                  101, 102, 104, 105, 106, 107, -1};
  EXPECT_EQ(first, expected);
}

TEST(EventQueue, HandlersCanScheduleRecursively) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) q.schedule_in(Duration::micros(1), tick);
  };
  q.schedule_at(Instant::epoch(), tick);
  q.run();
  EXPECT_EQ(count, 100);
}

}  // namespace
}  // namespace fcm::sim::reference

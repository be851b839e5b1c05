// perfbench_reference: a fixed reference kernel that measures how fast the
// host runs simulator-like work at this moment.
//
//   perfbench_reference <steps>
//
// A discrete-event loop in miniature: a binary heap of 200,000 timed
// events; each step pops the earliest, touches a random slot of a 32 MiB
// table, allocates and frees a small vector, and schedules the event again.
// The work is fixed and does not use src/, so its time moves only with the
// host. run.py runs it between workload repetitions and divides each
// repetition's wall time by it. Prints {"reference_s": <seconds>}, the
// time of the event loop alone.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <queue>
#include <vector>

namespace {

struct Event {
  std::uint64_t due;
  std::uint32_t id;
  bool operator>(const Event& o) const { return due > o.due; }
};

struct Slot {
  std::uint64_t a, b, c, d;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_reference <steps>\n");
    return 2;
  }
  const long steps = std::atol(argv[1]);
  constexpr std::size_t kSlots = std::size_t{1} << 20;
  constexpr std::uint32_t kEvents = 200000;
  std::vector<Slot> table(kSlots);
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
  std::uint64_t x = 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t id = 0; id < kEvents; ++id) {
    heap.push({next() % 1000000, id});
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t sum = 0;
  for (long s = 0; s < steps; ++s) {
    const Event e = heap.top();
    heap.pop();
    Slot& slot = table[(e.id * 2654435761U + next()) & (kSlots - 1)];
    slot.a += e.due;
    slot.b ^= slot.a;
    sum += slot.c + slot.d;
    auto* scratch = new std::vector<std::uint32_t>(4 + (next() & 7));
    sum += scratch->size();
    delete scratch;
    heap.push({e.due + 1 + next() % 1000000, e.id});
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  // `sum` is printed so that the loop cannot be optimized away.
  std::printf("{\"reference_s\":%.9f,\"checksum\":%llu}\n", secs,
              static_cast<unsigned long long>(sum));
  return 0;
}

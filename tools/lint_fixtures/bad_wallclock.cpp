// Seeded violation: a cost model reading the host clock directly. The
// elapsed wall time ends up charged to the simulated timeline, which only
// models may advance — exactly the wall/sim mixup the rule exists to stop.
// LINT-EXPECT: wallclock-in-sim
// LINT-EXPECT: wallclock-in-sim
#include <chrono>

double charge_collective_cost() {
  const auto start = std::chrono::steady_clock::now();
  // ... pretend to simulate a collective ...
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return 0.0 * static_cast<double>(elapsed.count());
}

// Steady-state allocation audit for ScenarioWorkspace::run.
//
// A warm workspace (arena blocks, scheduler slabs, and container
// capacities sized by earlier runs) may allocate while it builds a run and
// collects its result, but its event loop must not: the per-run series are
// reserved up front and everything else lives in retained arena memory. So
// a warm run's allocation count must not depend on how long it simulates.
//
// Own test binary: it overrides global operator new, which must not leak
// into the other suites.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>

#include "attack/pulse.hpp"
#include "core/experiment.hpp"
#include "core/planner.hpp"

namespace {

std::size_t g_new_calls = 0;

}  // namespace

// Counting global allocator hooks. Single-threaded test binary, so a plain
// counter is enough; all variants funnel through these two signatures.
void* operator new(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pdos {
namespace {

TEST(WorkspaceAllocTest, WarmRunAllocationsDoNotGrowWithHorizon) {
  ScenarioConfig config = ScenarioConfig::ns2_dumbbell(4);
  AttackPlanRequest request;
  request.victim = config.victim_profile();
  request.textent = ms(50);
  request.rattack = mbps(25);
  request.attack_packet_bytes = config.attack_packet_bytes;
  request.victim_min_rto = config.tcp.rto_min;
  const PulseTrain train = plan_attack_at_gamma(request, 0.5).train;

  RunControl short_run;
  short_run.warmup = sec(0.5);
  short_run.measure = sec(1.5);
  RunControl long_run = short_run;
  long_run.measure = sec(6.0);

  ScenarioWorkspace workspace;
  const auto allocations = [&](const RunControl& control) {
    const std::size_t before = g_new_calls;
    const RunResult result = workspace.run(config, train, control);
    EXPECT_GT(result.goodput_bytes, 0u);
    return g_new_calls - before;
  };
  // Warm the workspace at the longer horizon first, so both measured runs
  // start from the same retained capacities.
  allocations(long_run);
  allocations(short_run);

  const std::size_t short_allocations = allocations(short_run);
  const std::size_t long_allocations = allocations(long_run);
  EXPECT_EQ(long_allocations, short_allocations)
      << "a warm run's event loop allocated: 4x the simulated time cost "
      << long_allocations << " allocations against " << short_allocations;
}

}  // namespace
}  // namespace pdos
